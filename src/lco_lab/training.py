"""Training loop, episode gradients, and convergence-rate experiments.

One training step rolls out a single episode under a frozen behavioral
snapshot, estimates per-timestep advantages, evaluates the configured
objective at every visited state, pulls the logit gradients back through
the model with a vector-Jacobian product (``policy.pullback``; the dense
Jacobian is never formed), and applies one plain gradient-descent update:

    grad_theta = (1/T) * sum_t J(s_t)^T grad_z L_t
    theta     <- theta - lr * grad_theta

Each visited state is evaluated once per parameter vector: the rollout
runs one forward pass and one softmax at the snapshot, ``episode_eval``
one of each at theta, and the logged statistics and the envelope reuse
those results.  Arrays are checked where they are made (each forward
output through ``as_logits``, config fields in ``TrainerConfig``), after
which the step calls the private kernels of ``dist``, ``objectives`` and
``targets``, which hold the same arithmetic as their public functions.

A step works on the spans of theta its episode touches: one logit row
per visited state for TABULAR, all of theta for LINEAR and MLP1.  The
trainer state owns theta, the snapshot and one n_params gradient buffer,
and ``train_step`` works on them in place: ``pullback(..., out=)`` sums
the episode gradient into the buffer; the division by the horizon, the
finiteness check, clipping and the update run on the touched spans alone;
then those spans of the buffer are zeroed again.  Two passes still read
all of theta: a snapshot refresh copies it, and the logged
parameter-gradient norm is taken over the whole zero-padded buffer,
because the touched rows alone are summed in a different order by BLAS
and can differ in the last bit.

The snapshot refreshes every ``snapshot_interval`` steps, so importance
ratios and alignment targets stay anchored to one behavioral policy inside
a window even as theta moves.

``converge_experiment`` runs the sampling-free single-state recursion whose
per-step error contracts by I - eta*c*J J^T (c = 2/V for the squared loss,
1/V for the log-cosh loss, which near its optimum reduces to the same
linear update) and tabulates the loss against the geometric envelope
(rho^{2k} / V or rho^{2k} / 2V) * ||A||^2 / beta^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexity import gradient_norm_bound
from .dist import Advantages, _draw, _entropy, _softmax, as_logits, normalize_advantages
from .envs import MatchReward, ToyEnvironment
from .errors import InvalidInputError, NonFiniteGradientError, StepSizeError
from .objectives import (
    LCO_KINDS,
    LossEval,
    ObjectiveKind,
    _lco_kld_eval,
    _lco_lch_eval,
    _lco_mse_eval,
    _log_cosh,
    _ppo_eval,
    _reinforce_eval,
    _sft_eval,
    pairwise_sum,
)
from .policy import (
    Family,
    PolicyModel,
    _span,
    forward,
    jacobian,
    linear_policy,
    pullback,
    sigma_max,
    tabular_policy,
)
from .targets import AdvantageEstimator, EstimatorKind, _optimal_logits, _optimal_policy, estimate_advantages


@dataclass(frozen=True)
class TrainerConfig:
    objective: ObjectiveKind
    learning_rate: float
    steps: int
    beta: float = 1.0
    clip_epsilon: float = 0.2
    estimator: EstimatorKind = EstimatorKind.SPARSE_SAMPLED
    normalize: bool = False
    grad_clip_norm: float | None = None
    seed: int = 0
    snapshot_interval: int = 1
    temperature: float = 1.0
    top_p: float = 1.0
    scorer_table: np.ndarray | None = None  # (horizon, V) rows for dense estimators
    ref_table: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise InvalidInputError("learning_rate must be positive and finite")
        for name in ("steps", "snapshot_interval"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if not self.beta > 0.0:
            raise InvalidInputError("beta must be positive")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise InvalidInputError("clip_epsilon must lie in (0, 1)")
        if self.grad_clip_norm is not None and not 0.0 < self.grad_clip_norm < np.inf:
            raise InvalidInputError("grad_clip_norm must be positive and finite")
        if not 0.0 < self.temperature < np.inf:
            raise InvalidInputError("temperature must be positive and finite")
        if not 0.0 < self.top_p <= 1.0:
            raise InvalidInputError("top_p must lie in (0, 1]")
        for name in ("scorer_table", "ref_table"):
            table = getattr(self, name)
            if table is not None and np.ndim(table) != 2:
                raise InvalidInputError(
                    f"{name} must be a 2-D (horizon, V) array, got shape {np.shape(table)}"
                )


@dataclass(frozen=True)
class DynamicsRecord:
    """Logged quantities of one training step (one episode update)."""

    step: int
    loss: float
    grad_norm_param: float
    grad_sampled_logit: float
    grad_nonsampled_logit: float
    entropy: float
    sampled_prob: float
    advantage_sign_bucket: str  # "positive" | "negative"
    bound_value: float | None = None


@dataclass(frozen=True)
class Rollout:
    """One episode generated under the behavioral snapshot."""

    states: tuple[int, ...]
    actions: tuple[int, ...]
    z_old: tuple[np.ndarray, ...]
    pi_old: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class TrainerState:
    """Parameters, behavioral snapshot and gradient buffer of one run.

    The state owns three n_params float64 buffers, ``model.theta``,
    ``snapshot_theta`` and ``grad``, which must not share memory, and
    ``train_step`` advances them in place: it updates theta on the spans
    an episode touched, copies theta into ``snapshot_theta`` when the
    snapshot refreshes, and sums each episode's gradient in ``grad``,
    which is all zero between steps.  The state ``train_step`` returns
    shares these buffers with the one it was given, so an earlier iterate
    is kept by copying it (``state.model.theta.copy()``).  ``init_trainer``
    makes the buffers, so the caller's model is never written.
    """

    model: PolicyModel
    snapshot_theta: np.ndarray
    step: int = 0
    grad: np.ndarray | None = None  # allocated zero when not given

    def __post_init__(self):
        if self.grad is None:
            object.__setattr__(self, "grad", np.zeros(self.model.n_params))

    @property
    def snapshot(self) -> PolicyModel:
        return self.model.with_theta(self.snapshot_theta)


def init_trainer(model: PolicyModel) -> TrainerState:
    """A step-0 state on copies of ``model.theta``; ``model`` itself is never written."""
    return TrainerState(model.with_theta(model.theta.copy()), model.theta.copy(), 0)


def rollout_episode(
    snapshot: PolicyModel, env: ToyEnvironment, config: TrainerConfig, rng: np.random.Generator
) -> Rollout:
    """Generate one episode under the snapshot policy.

    The SFT objective is supervised: it walks the verifier target sequence
    (teacher forcing) instead of sampling.
    """
    teacher_forced = config.objective is ObjectiveKind.SFT
    if teacher_forced and not isinstance(env.reward, MatchReward):
        raise InvalidInputError("SFT training needs a match-reward environment with a target")

    prefix: tuple[int, ...] = ()
    states, actions, z_old, pi_old = [], [], [], []
    for t in range(env.horizon):
        state = env.state_index(prefix)
        z = as_logits(forward(snapshot, state))
        p = _softmax(z)
        if teacher_forced:
            action = env.reward.target[t]
        else:
            action = int(_draw(p, config.temperature, config.top_p, rng, 1)[0])
        states.append(state)
        actions.append(action)
        z_old.append(z)
        pi_old.append(p)
        prefix = prefix + (action,)
    return Rollout(tuple(states), tuple(actions), tuple(z_old), tuple(pi_old))


def _step_advantages(
    env: ToyEnvironment, config: TrainerConfig, rollout: Rollout, t: int
) -> Advantages:
    kind = config.estimator
    if kind is EstimatorKind.SPARSE_SAMPLED:
        scalar = env.sampled_advantage(rollout.actions, t)
        estimator = AdvantageEstimator(kind, advantage=scalar, action=rollout.actions[t])
    elif kind is EstimatorKind.DENSE_LOGPROB:
        if config.scorer_table is None:
            raise InvalidInputError("DENSE_LOGPROB needs a scorer_table")
        estimator = AdvantageEstimator(
            kind, scorer_log_probs=_table_row(config.scorer_table, "scorer_table", t, env.horizon)
        )
    else:
        if config.scorer_table is None or config.ref_table is None:
            raise InvalidInputError("DENSE_DPO_RATIO needs scorer_table and ref_table")
        estimator = AdvantageEstimator(
            kind,
            scorer_log_probs=_table_row(config.scorer_table, "scorer_table", t, env.horizon),
            ref_log_probs=_table_row(config.ref_table, "ref_table", t, env.horizon),
        )
    adv = estimate_advantages(estimator, env.vocab_size)
    if config.normalize and adv.sparse_mask is None:
        # centering a sparse vector would smear signal onto unobserved
        # actions, so only dense advantages are normalized per timestep
        adv = normalize_advantages(adv)
    return adv


def _table_row(table: np.ndarray, name: str, t: int, horizon: int) -> np.ndarray:
    if len(table) < horizon:
        raise InvalidInputError(
            f"{name} has {len(table)} rows but the horizon is {horizon}: it needs one row per timestep"
        )
    return table[t]


def _step_eval(
    model: PolicyModel,
    config: TrainerConfig,
    rollout: Rollout,
    adv: Advantages,
    t: int,
) -> tuple[LossEval, np.ndarray]:
    """The objective at one visited state, and pi = softmax(z) there at theta."""
    kind = config.objective
    # the targets come from the snapshot alone, so an overflowing target is
    # reported ahead of non-finite logits at theta
    if kind in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH):
        z_star = _optimal_logits(rollout.z_old[t], adv.values, config.beta)
    elif kind is ObjectiveKind.LCO_KLD:
        pi_star = _optimal_policy(rollout.pi_old[t], adv.values, config.beta)
    z = as_logits(forward(model, rollout.states[t]))
    pi = _softmax(z)
    a = rollout.actions[t]
    if kind is ObjectiveKind.SFT:
        return _sft_eval(z, pi, a), pi
    if kind is ObjectiveKind.PPO:
        behavioral = float(rollout.pi_old[t][a])
        return _ppo_eval(pi, a, float(adv.values[a]), behavioral, config.clip_epsilon), pi
    if kind is ObjectiveKind.REINFORCE:
        return _reinforce_eval(z, pi, a, float(adv.values[a])), pi
    if kind is ObjectiveKind.LCO_MSE:
        return _lco_mse_eval(z, z_star), pi
    if kind is ObjectiveKind.LCO_LCH:
        return _lco_lch_eval(z, z_star), pi
    if kind is ObjectiveKind.LCO_KLD:
        return _lco_kld_eval(z, pi, pi_star), pi
    raise InvalidInputError(f"unknown objective {kind!r}")


@dataclass(frozen=True)
class EpisodeEval:
    loss: float
    grad_theta: np.ndarray
    per_step: tuple[LossEval, ...]
    advantages: tuple[Advantages, ...]
    policies: tuple[np.ndarray, ...]  # softmax of the logits at theta, per timestep
    spans: tuple[slice, ...]  # the disjoint slices of grad_theta the episode wrote


def episode_eval(
    model: PolicyModel,
    env: ToyEnvironment,
    config: TrainerConfig,
    rollout: Rollout,
    out: np.ndarray | None = None,
) -> EpisodeEval:
    """Mean loss and parameter gradient of one fixed episode.

    With ``out`` (an all-zero float64 vector of n_params entries, checked
    by ``pullback``) the gradient is computed in place in ``out``, which
    becomes ``grad_theta``; only its ``spans`` are written.
    """
    if out is None:
        out = np.zeros(model.n_params)
    evals, advantages, policies = [], [], []
    for t in range(env.horizon):
        adv = _step_advantages(env, config, rollout, t)
        evaluation, pi = _step_eval(model, config, rollout, adv, t)
        pullback(model, rollout.states[t], evaluation.logit_gradient, out=out)
        evals.append(evaluation)
        advantages.append(adv)
        policies.append(pi)
    # a family's spans are either equal or disjoint, so dropping repeats
    # leaves each touched entry in exactly one span
    spans = tuple(slice(o, o + n) for o, n in dict.fromkeys(_span(model, s) for s in rollout.states))
    for span in spans:
        out[span] /= env.horizon
    loss = pairwise_sum([e.value for e in evals]) / env.horizon
    return EpisodeEval(loss, out, tuple(evals), tuple(advantages), tuple(policies), spans)


def episode_loss(model: PolicyModel, env: ToyEnvironment, config: TrainerConfig, rollout: Rollout) -> float:
    return episode_eval(model, env, config, rollout).loss


def _envelope(kind: ObjectiveKind, loss: float, sigma: float, vocab_size: int) -> float:
    """Loss-anchored gradient-norm envelope of one timestep.

    LCO objectives use their own bound formulas (so the averaged parameter
    gradient is provably below the averaged envelope); the baselines are
    reported against the distribution-form envelope sigma*sqrt(2 max(L, 0))
    for side-by-side dynamics comparisons.
    """
    if kind in LCO_KINDS:
        return gradient_norm_bound(kind, max(loss, 0.0), sigma, vocab_size)
    return sigma * float(np.sqrt(2.0 * max(loss, 0.0)))


def train_step(
    state: TrainerState,
    env: ToyEnvironment,
    config: TrainerConfig,
    rng: np.random.Generator,
) -> tuple[TrainerState, DynamicsRecord]:
    """One episode rollout, one gradient-descent update, one logged record.

    Advances the buffers of ``state`` in place (see ``TrainerState``) and
    returns the state for the next step, which shares them.  A step that
    raises leaves theta as it was and the gradient buffer all zero.
    """
    if state.step % config.snapshot_interval == 0:
        np.copyto(state.snapshot_theta, state.model.theta)

    rollout = rollout_episode(state.snapshot, env, config, rng)
    episode = None
    try:
        episode = episode_eval(state.model, env, config, rollout, out=state.grad)
        grad = episode.grad_theta
        if not all(np.isfinite(grad[span]).all() for span in episode.spans):
            raise NonFiniteGradientError(
                f"non-finite gradient at step {state.step} "
                f"(objective {config.objective.value}, loss {episode.loss!r})"
            )
        raw_norm = float(np.linalg.norm(grad))
        record = _record(state, env, config, rollout, episode, raw_norm)
        scale = 1.0
        if config.grad_clip_norm is not None and raw_norm > config.grad_clip_norm:
            scale = config.grad_clip_norm / raw_norm
        for span in episode.spans:
            state.model.theta[span] -= config.learning_rate * (grad[span] * scale)
    finally:
        for span in episode.spans if episode is not None else (slice(None),):
            state.grad[span] = 0.0
    return TrainerState(state.model, state.snapshot_theta, state.step + 1, state.grad), record


def _record(
    state: TrainerState,
    env: ToyEnvironment,
    config: TrainerConfig,
    rollout: Rollout,
    episode: EpisodeEval,
    raw_norm: float,
) -> DynamicsRecord:
    """The logged statistics of one step, at theta before its update."""
    # one row per logged statistic, one column per timestep; a row mean is
    # the same pairwise sum as np.mean over a list of the row's values
    stats = np.empty((6, env.horizon))
    for t, (evaluation, pi) in enumerate(zip(episode.per_step, episode.policies)):
        a = rollout.actions[t]
        g = evaluation.logit_gradient
        sigma = sigma_max(state.model, rollout.states[t])
        stats[:, t] = (
            abs(float(g[a])),
            float(np.abs(np.delete(g, a)).mean()),
            _entropy(pi),
            float(pi[a]),
            float(episode.advantages[t].values[a]),
            _envelope(config.objective, evaluation.value, sigma, env.vocab_size),
        )
    sampled_mag, nonsampled_mag, entropy, sampled_prob, sampled_adv, bound = map(float, stats.mean(axis=1))

    return DynamicsRecord(
        step=state.step,
        loss=episode.loss,
        grad_norm_param=raw_norm,
        grad_sampled_logit=sampled_mag,
        grad_nonsampled_logit=nonsampled_mag,
        entropy=entropy,
        sampled_prob=sampled_prob,
        advantage_sign_bucket="positive" if sampled_adv >= 0.0 else "negative",
        bound_value=bound,
    )


def run_training(
    model: PolicyModel, env: ToyEnvironment, config: TrainerConfig
) -> tuple[PolicyModel, list[DynamicsRecord]]:
    """Run ``config.steps`` episode updates from a fresh seeded generator."""
    rng = np.random.default_rng(config.seed)
    state = init_trainer(model)
    records: list[DynamicsRecord] = []
    for _ in range(config.steps):
        state, record = train_step(state, env, config, rng)
        records.append(record)
    return state.model, records


# ---------------------------------------------------------------------------
# Convergence experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergeConfig:
    vocab_size: int
    advantages: np.ndarray
    eta: float
    steps: int
    beta: float = 1.0
    feature_dim: int = 4
    seed: int = 0
    z_old: np.ndarray | None = None

    def __post_init__(self):
        for name, low in (("vocab_size", 2), ("steps", 1), ("feature_dim", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise InvalidInputError(f"{name} must be >= {low}")
        if not 0.0 < self.eta < np.inf:
            raise InvalidInputError("eta must be positive and finite")
        if not 0.0 < self.beta < np.inf:
            raise InvalidInputError("beta must be positive and finite")
        for name in ("advantages",) if self.z_old is None else ("advantages", "z_old"):
            vector = np.asarray(getattr(self, name), dtype=np.float64)
            if vector.shape != (self.vocab_size,) or not np.isfinite(vector).all():
                raise InvalidInputError(f"{name} must be a finite vector of shape ({self.vocab_size},)")
            object.__setattr__(self, name, vector)


@dataclass(frozen=True)
class ConvergeRow:
    step: int
    loss: float
    bound: float
    residual_inf: float


@dataclass(frozen=True)
class ConvergeResult:
    rows: tuple[ConvergeRow, ...]
    rho: float
    objective: ObjectiveKind
    family: Family


def spectral_radius(J, eta: float, c: float) -> float:
    """max_i |1 - eta*c*lambda_i(J J^T)| of the error-contraction map."""
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or not np.all(np.isfinite(J)):
        raise InvalidInputError("J must be a finite matrix")
    gram = J @ J.T
    eigenvalues = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return float(np.max(np.abs(1.0 - eta * c * eigenvalues)))


def converge_experiment(
    family: Family, objective: ObjectiveKind, config: ConvergeConfig
) -> ConvergeResult:
    """Sampling-free single-state descent against its geometric loss envelope.

    The parameters start so the model reproduces the behavioral logits, the
    target is z_old + A/beta, and each step applies the error recursion
    theta <- theta - eta*c*J^T (z - z*).  For the squared loss this is its
    exact gradient; for the log-cosh loss it is the near-optimum update that
    the linear convergence rate is stated for, while the reported loss is
    the true log-cosh value at every iterate.
    """
    if objective not in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH):
        raise InvalidInputError("convergence experiments cover LCO_MSE and LCO_LCH")
    if family not in (Family.TABULAR, Family.LINEAR):
        raise InvalidInputError("convergence experiments cover TABULAR and LINEAR families")

    v = config.vocab_size
    advantages = config.advantages
    z_old = np.zeros(v) if config.z_old is None else config.z_old

    if family is Family.TABULAR:
        model = tabular_policy(1, v, init_logits=z_old)
    else:
        model = linear_policy(1, v, config.feature_dim, seed=config.seed)
        phi = model.features[0]
        # least-squares start reproducing z_old: one feature row, so the
        # minimum-norm weights are the scaled outer product z_old phi^T
        w0 = np.outer(z_old, phi) / float(phi @ phi)
        model = model.with_theta(w0.ravel())

    c = 2.0 / v if objective is ObjectiveKind.LCO_MSE else 1.0 / v
    info = jacobian(model, 0)
    rho = spectral_radius(info.J, config.eta, c)
    if rho >= 1.0:
        raise StepSizeError(rho)

    z_star = _optimal_logits(z_old, advantages, config.beta)
    with np.errstate(over="ignore", divide="ignore"):
        anchor = np.float64(advantages @ advantages) / np.float64(config.beta) ** 2
    if not np.isfinite(anchor):
        raise InvalidInputError("the envelope anchor ||A||^2 / beta^2 overflows")
    prefactor = 1.0 / v if objective is ObjectiveKind.LCO_MSE else 1.0 / (2.0 * v)

    # iterate in residual coordinates: theta <- theta - eta*c*J^T r pushed
    # through these exactly linear models is r <- (I - eta*c*J J^T) r, and
    # tracking r directly avoids the catastrophic z - z* cancellation that
    # stalls parameter iterates once r reaches machine epsilon of z*
    gram = info.J @ info.J.T
    residual = forward(model, 0) - z_star
    rows = []
    for k in range(config.steps + 1):
        if objective is ObjectiveKind.LCO_MSE:
            loss = float((residual**2).mean())
        else:
            loss = float(_log_cosh(residual).mean())
        rows.append(
            ConvergeRow(
                step=k,
                loss=loss,
                bound=float(prefactor * rho ** (2 * k) * anchor),
                residual_inf=float(np.abs(residual).max()),
            )
        )
        residual = residual - (config.eta * c) * (gram @ residual)
    return ConvergeResult(tuple(rows), rho, objective, family)


UNDERFLOW_FLOOR = 1e-300


def converge_violations(
    result: ConvergeResult, neighborhood: float = 0.5, slack: float = 1e-6
) -> int:
    """Rows whose loss exceeds bound*(1+slack).

    The log-cosh envelope is only asserted once the residual sits inside the
    small-residual neighborhood where its quadratic behavior applies.  Rows
    whose loss has sunk below the double-precision underflow floor carry no
    information (loss and bound are both denormal quantization noise) and
    are not counted.
    """
    count = 0
    for row in result.rows:
        if result.objective is ObjectiveKind.LCO_LCH and row.residual_inf > neighborhood:
            continue
        if row.loss < UNDERFLOW_FLOOR:
            continue
        if row.loss > row.bound * (1.0 + slack):
            count += 1
    return count
