"""Training loop, episode gradients, and convergence-rate experiments.

One training step rolls out a single episode under a frozen behavioral
snapshot, takes per-timestep advantages (a plain float vector: the sampled
action's scalar reward in an otherwise zero vector, or a row the config
built from its scorer tables), evaluates the configured objective at
every visited state, pulls the logit gradients back through the model
with a vector-Jacobian product (the kernel behind ``policy.pullback``;
the dense Jacobian is never formed), and applies one plain
gradient-descent update:

    grad_theta = (1/T) * sum_t J(s_t)^T grad_z L_t
    theta     <- theta - lr * grad_theta

Each visited state is evaluated once per parameter vector: the rollout
runs one forward pass and one softmax at the snapshot, ``episode_eval``
one of each at theta, and the logged statistics and the envelope reuse
those results.  Each check runs once, where its data is made: config
fields and the dense estimators' tables in ``TrainerConfig``, which also
builds each table row's advantage vector there, once per run, and rejects
a table its estimator never reads; each forward output through
``as_logits``, the gradient buffer once per episode, each sampled
advantage for finiteness as its vector is built, and the LCO envelope's
loss and sigma_max through the scalar checks of ``gradient_norm_bound``.
Everything else calls the private kernels of ``dist``, ``objectives``,
``targets`` and ``policy``, which hold the same arithmetic as their
public functions, so a step's results are bit for bit those of the
public path.

A step works on the spans of theta its episode touches: one logit row
per visited state for TABULAR, all of theta for LINEAR and MLP1.  The
trainer state owns theta, the snapshot and one n_params gradient buffer,
and ``train_step`` works on them in place: the episode gradient is summed
into the buffer span by span; the division by the horizon, the finiteness
scan, clipping and the update run on the touched spans alone;
then those spans of the buffer are zeroed again.  Two passes still read
all of theta: a snapshot refresh copies it, and the logged
parameter-gradient norm is taken over the whole zero-padded buffer,
because the touched rows alone are summed in a different order by BLAS
and can differ in the last bit.

The snapshot refreshes every ``snapshot_interval`` steps, so importance
ratios and alignment targets stay anchored to one behavioral policy inside
a window even as theta moves.  Whatever depends on the snapshot alone is
therefore computed once per window: the trainer state keeps a snapshot
window, a dict of

  state index                       -> (z_old, pi_old, sampler nucleus)
  (state, target form, beta, A)     -> closed-form target

where the nucleus is built the first time the state is sampled and rebuilt
when the temperature or top_p changes, and A is the advantage vector's
bytes.  A lookup that misses computes exactly what it computes in an
empty window, in the same order, so errors surface at the same point,
and a computation that raises stores nothing (a rollout stores its new
entries only once the whole episode is drawn).  The window is cleared when
the snapshot refreshes and holds at most ``WINDOW_CAP`` entries; once full,
misses compute without storing.  Its arrays are read-only, because the
``Rollout`` of every step in the window shares them.

``converge_experiment`` runs the sampling-free single-state recursion whose
per-step error contracts by I - eta*c*J J^T, with c = curvature/V from the
objective table (2/V for the squared loss, 1/V for the log-cosh loss, which
near its optimum reduces to the same linear update), and tabulates the loss
against the geometric envelope (curvature / 2V) * rho^{2k} * ||A||^2 / beta^2.
A single state of a tabular or linear model has J J^T = lam I in closed
form (lam = 1 for TABULAR, ||phi||^2 for LINEAR), so rho = |1 - eta*c*lam|
and the Jacobian is never formed.  Each residual component is stepped on
Python floats, one component at a time, with the operations of the vector
update in their order, so every iterate is bit for bit the numpy row
update's.  The result holds columns, one entry per iterate: the losses come
from one call of the objective's row value (``Objective.value``) on the
(steps + 1, V) array of iterates, the residual sup-norms from one reduction
over it, and ``converge_violations`` counts over the columns at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convexity import gradient_norm_bound
from .dist import _entropy, _nucleus, _pick, _softmax, as_advantages, as_logits, check_integer, normalize_advantages
from .envs import MatchReward, ToyEnvironment
from .errors import EstimatorDomainError, InvalidInputError, NonFiniteGradientError, NonFiniteLossError, StepSizeError
from .objectives import OBJECTIVES, LossEval, Objective, ObjectiveKind, pairwise_sum
from .policy import Family, PolicyModel, _check_out, _sigma_max, _span, _vjp, forward, linear_policy, tabular_policy
from .targets import EstimatorKind, _optimal_logits

# the tables each dense estimator reads, in the order their rows are checked
DENSE_TABLES = {
    EstimatorKind.DENSE_LOGPROB: ("scorer_table",),
    EstimatorKind.DENSE_DPO_RATIO: ("scorer_table", "ref_table"),
}

# Entries a snapshot window holds at most.  A frozen run keeps one window for
# the whole run, and a large vocabulary and horizon visit more states than it
# revisits, so the window stops growing here instead of with the run.
WINDOW_CAP = 1024


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
    # derived, not an option: a dense estimator's read-only advantage values per table row
    _advantage_rows: tuple[np.ndarray, ...] | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise InvalidInputError("learning_rate must be positive and finite")
        for name, low in (("steps", 1), ("snapshot_interval", 1), ("seed", 0)):
            check_integer(getattr(self, name), name, low)
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
            if table is None:
                continue
            if np.ndim(table) != 2:
                raise InvalidInputError(
                    f"{name} must be a 2-D (horizon, V) array, got shape {np.shape(table)}"
                )
            # a table the run never reads is a mistake, as a misspelled config key is
            if name not in DENSE_TABLES.get(self.estimator, ()):
                raise InvalidInputError(f"{name} is given but the {self.estimator.value} estimator does not read it")
        if self.estimator in DENSE_TABLES:
            object.__setattr__(self, "_advantage_rows", _dense_advantages(self))


def _dense_advantages(config: TrainerConfig) -> tuple[np.ndarray, ...]:
    """Each table row's advantage vector, centered when ``normalize`` is set.

    DENSE_LOGPROB's row t is the scorer's row t; DENSE_DPO_RATIO's is the
    scorer's row minus the reference's, DPO's implicit reward.  Each row
    read is checked here, once per run instead of once per step.  The
    vectors are as wide as the scorer table; ``_step_advantages`` checks
    that width and the row count against the environment.
    """
    names = DENSE_TABLES[config.estimator]
    tables = [getattr(config, name) for name in names]
    if any(table is None for table in tables):
        needs = "a scorer_table" if len(names) == 1 else "scorer_table and ref_table"
        raise InvalidInputError(f"{config.estimator.value} needs {needs}")
    tables = [np.asarray(table, dtype=np.float64) for table in tables]
    width = tables[0].shape[1]
    rows = []
    for row in zip(*tables):
        for values, name in zip(row, ("scorer_log_probs", "ref_log_probs")):
            if values.shape != (width,):
                raise InvalidInputError(f"{name} must have shape ({width},), got {values.shape}")
            if not np.isfinite(values).all():
                raise EstimatorDomainError(f"{name} contains a non-finite entry (log of zero probability?)")
        with np.errstate(over="ignore"):
            values = row[0] - row[1] if len(row) == 2 else row[0].copy()
        rows.append(_frozen(normalize_advantages(values) if config.normalize else as_advantages(values)))
    return tuple(rows)


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

    ``window`` is the snapshot window (see the module docstring): what
    ``snapshot_theta`` yields at each visited state, and the closed-form
    targets built from it.  ``train_step`` clears it whenever it refreshes
    the snapshot and otherwise only adds to it, up to ``WINDOW_CAP``
    entries, and the state it returns shares it.  Its arrays are read-only.
    It is valid only for the ``snapshot_theta`` it was filled from, so a
    caller that writes that buffer passes a new, empty window.

    ``snapshot`` is the behavioral model: ``model`` over ``snapshot_theta``.
    It is built when not given, and ``train_step`` hands it on, so a run
    builds it once; refreshing ``snapshot_theta`` in place keeps it valid.
    """

    model: PolicyModel
    snapshot_theta: np.ndarray
    step: int = 0
    grad: np.ndarray | None = None  # allocated zero when not given
    window: dict | None = field(default=None, repr=False)  # empty when not given
    snapshot: PolicyModel | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.grad is None:
            object.__setattr__(self, "grad", np.zeros(self.model.n_params))
        if self.window is None:
            object.__setattr__(self, "window", {})
        if self.snapshot is None:
            object.__setattr__(self, "snapshot", self.model.with_theta(self.snapshot_theta))
        elif self.snapshot.theta is not self.snapshot_theta:
            raise InvalidInputError("the snapshot model must read the snapshot_theta buffer")


def init_trainer(model: PolicyModel) -> TrainerState:
    """A step-0 state on copies of ``model.theta``; ``model`` itself is never written."""
    return TrainerState(model.with_theta(model.theta.copy()), model.theta.copy(), 0)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _store(window: dict, key, value) -> None:
    """Put an entry in a snapshot window, unless that would take it past the cap."""
    if key in window or len(window) < WINDOW_CAP:
        window[key] = value


def rollout_episode(
    snapshot: PolicyModel, env: ToyEnvironment, config: TrainerConfig, rng: np.random.Generator, window: dict
) -> Rollout:
    """Generate one episode under the snapshot policy.

    The SFT objective is supervised: it walks the verifier target sequence
    (teacher forcing) instead of sampling.  ``window`` is the snapshot
    window of ``snapshot`` (see ``TrainerState``): a state evaluated before
    reuses its logits, softmax and sampler nucleus, and a new one is stored
    there.  A caller without a window passes ``{}``.  The returned arrays
    are read-only.
    """
    teacher_forced = config.objective is ObjectiveKind.SFT
    if teacher_forced and not isinstance(env.reward, MatchReward):
        raise InvalidInputError("SFT training needs a match-reward environment with a target")

    sampler = (config.temperature, config.top_p)
    prefix: tuple[int, ...] = ()
    states, actions, z_old, pi_old, made = [], [], [], [], []
    for t in range(env.horizon):
        state = env.state_index(prefix)
        cached = visit = window.get(state)
        if visit is None:
            z = _frozen(as_logits(forward(snapshot, state)))
            visit = (z, _frozen(_softmax(z)), None)
        z, p, nucleus = visit
        if teacher_forced:
            action = env.reward.target[t]
        else:
            if nucleus is None or nucleus[0] != sampler:
                nucleus = (sampler, *map(_frozen, _nucleus(p, *sampler)))
                visit = (z, p, nucleus)
            action = int(_pick(nucleus[1], nucleus[2], rng, 1)[0])
        if visit is not cached:
            made.append((state, visit))
        states.append(state)
        actions.append(action)
        z_old.append(z)
        pi_old.append(p)
        prefix = prefix + (action,)
    # stored only now, so an episode that raises leaves the window as it was
    for state, visit in made:
        _store(window, state, visit)
    return Rollout(tuple(states), tuple(actions), tuple(z_old), tuple(pi_old))


def _step_advantages(env: ToyEnvironment, config: TrainerConfig, rollout: Rollout, t: int) -> np.ndarray:
    """The advantage values of timestep t.

    SPARSE_SAMPLED puts the sampled action's scalar advantage in an
    otherwise zero vector; that action is valid, since it came from the
    sampler or the environment's target.  A dense estimator reads row t of
    the vectors ``TrainerConfig`` built, centered there when ``normalize``
    is set; centering a sparse vector would smear signal onto unobserved
    actions, so only dense advantages are normalized.
    """
    if config.estimator is EstimatorKind.SPARSE_SAMPLED:
        scalar = env.sampled_advantage(rollout.actions, t)
        if not math.isfinite(scalar):
            raise InvalidInputError("advantage must be finite")
        values = np.zeros(env.vocab_size)
        values[rollout.actions[t]] = scalar
        return values
    rows = config._advantage_rows
    # there is one row for each timestep that every table has a row for
    if len(rows) < env.horizon:
        name = next(n for n in DENSE_TABLES[config.estimator] if len(getattr(config, n)) < env.horizon)
        raise InvalidInputError(
            f"{name} has {len(getattr(config, name))} rows but the horizon is {env.horizon}: "
            "it needs one row per timestep"
        )
    values = rows[t]
    if values.size != env.vocab_size:
        raise InvalidInputError(f"scorer_log_probs must have shape ({env.vocab_size},), got {values.shape}")
    return values


def _snapshot_target(
    objective: Objective, beta: float, rollout: Rollout, values: np.ndarray, t: int, window: dict
) -> np.ndarray | None:
    """The objective's closed-form target at visited state t, None without one."""
    if objective.target is None:
        return None
    key = (rollout.states[t], objective.target, beta, values.tobytes())
    target = window.get(key)
    if target is None:
        target = _frozen(objective.optimal_target(rollout.z_old[t], rollout.pi_old[t], values, beta))
        _store(window, key, target)
    return target


def _step_eval(
    model: PolicyModel,
    config: TrainerConfig,
    rollout: Rollout,
    values: np.ndarray,
    t: int,
    window: dict,
) -> tuple[LossEval, np.ndarray, np.ndarray | None]:
    """The objective at one visited state, with z there at theta and pi = softmax(z).

    A logit-target loss reads z and its target alone, so its pi is None
    here and ``_record`` takes it, where the public path takes it; a
    floating-point event of that softmax then comes after the loss's own.
    """
    objective = OBJECTIVES[config.objective]
    # the target comes from the snapshot alone, so an overflowing target is
    # reported ahead of non-finite logits at theta
    target = _snapshot_target(objective, config.beta, rollout, values, t, window)
    z = as_logits(forward(model, rollout.states[t]))
    pi = None if objective.target == "logits" else _softmax(z)
    a = rollout.actions[t]
    step = (a, float(values[a]), float(rollout.pi_old[t][a]), config.clip_epsilon)
    return objective.kernel(z, pi, target, step), z, pi


@dataclass(frozen=True)
class EpisodeEval:
    loss: float
    grad_theta: np.ndarray
    per_step: tuple[LossEval, ...]
    advantages: tuple[np.ndarray, ...]  # the advantage values, per timestep
    logits: tuple[np.ndarray, ...]  # the logits at theta, per timestep
    policies: tuple[np.ndarray | None, ...]  # their softmax, None for a logit-target loss
    spans: tuple[slice, ...]  # the disjoint slices of grad_theta the episode wrote


def episode_eval(
    model: PolicyModel,
    env: ToyEnvironment,
    config: TrainerConfig,
    rollout: Rollout,
    window: dict,
    out: np.ndarray | None = None,
) -> EpisodeEval:
    """Mean loss and parameter gradient of one fixed episode.

    ``window`` is the snapshot window the rollout was drawn under (see
    ``TrainerState``): closed-form targets are looked up there and stored
    there.  A caller without a window passes ``{}``.  With ``out`` (an
    all-zero float64 vector of n_params entries, checked once here as
    ``pullback`` checks it) the gradient is computed in place in ``out``,
    which becomes ``grad_theta``; only its ``spans`` are written.  Each
    timestep adds its vector-Jacobian product into its span of ``out``
    directly: the state was checked by the forward pass, and the logit
    gradient has the logits' shape.
    """
    if out is None:
        out = np.zeros(model.n_params)
    else:
        _check_out(model, out)
    evals, advantages, logits, policies = [], [], [], []
    for t in range(env.horizon):
        state = rollout.states[t]
        values = _step_advantages(env, config, rollout, t)
        evaluation, z, pi = _step_eval(model, config, rollout, values, t, window)
        offset, size = _span(model, state)
        out[offset : offset + size] += _vjp(model, state, evaluation.logit_gradient)
        evals.append(evaluation)
        advantages.append(values)
        logits.append(z)
        policies.append(pi)
    # a family's spans are either equal or disjoint, so dropping repeats
    # leaves each touched entry in exactly one span
    spans = tuple(slice(o, o + n) for o, n in dict.fromkeys(_span(model, s) for s in rollout.states))
    for span in spans:
        out[span] /= env.horizon
    loss = pairwise_sum([e.value for e in evals]) / env.horizon
    return EpisodeEval(loss, out, tuple(evals), tuple(advantages), tuple(logits), tuple(policies), spans)


def _envelope(kind: ObjectiveKind, loss: float, sigma: float, vocab_size: int) -> float:
    """Loss-anchored gradient-norm envelope of one timestep.

    LCO objectives use their own bound formulas (so the averaged parameter
    gradient is provably below the averaged envelope), through
    ``gradient_norm_bound``, whose scalar checks reject a loss that is not
    finite; the baselines are reported against the distribution-form
    envelope sigma*sqrt(2 max(L, 0)) for side-by-side dynamics comparisons.
    """
    if OBJECTIVES[kind].bound is not None:
        return gradient_norm_bound(kind, max(loss, 0.0), sigma, vocab_size)
    return sigma * math.sqrt(2.0 * max(loss, 0.0))


def train_step(
    state: TrainerState,
    env: ToyEnvironment,
    config: TrainerConfig,
    rng: np.random.Generator,
) -> tuple[TrainerState, DynamicsRecord]:
    """One episode rollout, one gradient-descent update, one logged record.

    Advances the buffers and the snapshot window of ``state`` in place (see
    ``TrainerState``) and returns the state for the next step, which shares
    them.  A step that raises leaves theta as it was and the gradient
    buffer all zero.  After the gradient checks, an episode loss that is
    NaN (timestep losses of +inf and -inf) raises ``NonFiniteLossError``.
    """
    if state.step % config.snapshot_interval == 0:
        np.copyto(state.snapshot_theta, state.model.theta)
        state.window.clear()

    rollout = rollout_episode(state.snapshot, env, config, rng, state.window)
    episode = None
    try:
        episode = episode_eval(state.model, env, config, rollout, state.window, out=state.grad)
        grad = episode.grad_theta
        # the 2-norm as np.linalg.norm takes it, without its wrapper
        raw_norm = math.sqrt(grad.dot(grad))
        # a finite norm has finite entries; a norm that is not finite may
        # still have overflowed from finite entries, so only then are the
        # touched spans scanned
        if not math.isfinite(raw_norm):
            if not all(np.isfinite(grad[span]).all() for span in episode.spans):
                raise NonFiniteGradientError(
                    f"non-finite gradient at step {state.step} "
                    f"(objective {config.objective.value}, loss {episode.loss!r})"
                )
            # finite entries whose squares overflow: the norm of g / max|g|,
            # scaled back, so clipping shortens the step instead of zeroing it
            peak = float(np.abs(grad).max())
            scaled = grad / peak
            raw_norm = peak * math.sqrt(scaled.dot(scaled))
        # timestep losses of +inf and -inf sum to NaN, which no record may log
        if math.isnan(episode.loss):
            raise NonFiniteLossError(
                f"NaN episode loss at step {state.step} (objective {config.objective.value})"
            )
        # clipped ahead of the record, as the public path clips it
        if config.grad_clip_norm is not None and raw_norm > config.grad_clip_norm:
            scale = config.grad_clip_norm / raw_norm
            for span in episode.spans:
                grad[span] *= scale
        record = _record(state, env, config, rollout, episode, raw_norm)
        for span in episode.spans:
            state.model.theta[span] -= config.learning_rate * grad[span]
    finally:
        for span in episode.spans if episode is not None else (slice(None),):
            state.grad[span] = 0.0
    return TrainerState(
        state.model, state.snapshot_theta, state.step + 1, state.grad, state.window, state.snapshot
    ), record


def _record(
    state: TrainerState,
    env: ToyEnvironment,
    config: TrainerConfig,
    rollout: Rollout,
    episode: EpisodeEval,
    raw_norm: float,
) -> DynamicsRecord:
    """The logged statistics of one step, at theta before its update.

    Every input was checked where it was made, so this reads kernels only.
    A mean is ``np.add.reduce(x) / n``, the sum and division ``ndarray.mean``
    makes, and the non-sampled entries of a logit gradient are the slices
    on either side of the sampled action, in ``np.delete``'s order.
    """
    columns = []
    for t, (evaluation, values, z, pi) in enumerate(
        zip(episode.per_step, episode.advantages, episode.logits, episode.policies)
    ):
        a = rollout.actions[t]
        g = np.abs(evaluation.logit_gradient)
        sigma = _sigma_max(state.model, rollout.states[t])
        nonsampled = np.add.reduce(np.concatenate((g[:a], g[a + 1 :]))) / (g.size - 1)
        if pi is None:  # a logit-target loss: pi at theta is taken here, as the public path takes it
            pi = _softmax(z)
        columns.append((
            g[a],
            nonsampled,
            _entropy(pi),
            pi[a],
            values[a],
            _envelope(config.objective, evaluation.value, sigma, env.vocab_size),
        ))
    # one contiguous row per logged statistic, one column per timestep, so a
    # row mean is the pairwise sum np.mean makes over a list of its values
    stats = np.array(list(zip(*columns)))
    sampled_mag, nonsampled_mag, entropy, sampled_prob, sampled_adv, bound = (
        np.add.reduce(stats, axis=1) / env.horizon
    ).tolist()

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
            check_integer(getattr(self, name), name, low)
        if not 0.0 < self.eta < np.inf:
            raise InvalidInputError("eta must be positive and finite")
        if not 0.0 < self.beta < np.inf:
            raise InvalidInputError("beta must be positive and finite")
        object.__setattr__(self, "advantages", as_advantages(self.advantages, self.vocab_size))
        if self.z_old is not None:
            z_old = np.asarray(self.z_old, dtype=np.float64)
            if z_old.shape != (self.vocab_size,) or not np.isfinite(z_old).all():
                raise InvalidInputError(f"z_old must be a finite vector of shape ({self.vocab_size},)")
            object.__setattr__(self, "z_old", z_old)


@dataclass(frozen=True)
class ConvergeResult:
    """One convergence run as columns, with entry k for iterate k = 0, ..., steps."""

    loss: np.ndarray  # the loss at iterate k
    bound: np.ndarray  # its envelope (curvature / 2V) * rho^{2k} * ||A||^2 / beta^2
    residual_inf: np.ndarray  # the sup-norm of the logit residual z_k - z*
    rho: float
    objective: ObjectiveKind
    family: Family


def converge_experiment(
    family: Family, objective: ObjectiveKind, config: ConvergeConfig
) -> ConvergeResult:
    """Sampling-free single-state descent against its geometric loss envelope.

    The parameters start so the model reproduces the behavioral logits, the
    target is z_old + A/beta, and each step applies the error recursion
    theta <- theta - eta*c*J^T (z - z*) with c = curvature / V.  For the
    squared loss this is its exact gradient; for the log-cosh loss it is the
    near-optimum update that the linear convergence rate is stated for, while
    the reported loss is the true log-cosh value at every iterate.
    """
    spec = OBJECTIVES[objective]
    if spec.curvature is None:
        raise InvalidInputError("convergence experiments cover LCO_MSE and LCO_LCH")
    if family not in (Family.TABULAR, Family.LINEAR):
        raise InvalidInputError("convergence experiments cover TABULAR and LINEAR families")

    v = config.vocab_size
    advantages = config.advantages
    z_old = np.zeros(v) if config.z_old is None else config.z_old

    if family is Family.TABULAR:
        model = tabular_policy(1, v, init_logits=z_old)
        lam = 1.0
    else:
        model = linear_policy(1, v, config.feature_dim, seed=config.seed)
        phi = model.features[0]
        lam = float(phi @ phi)
        # least-squares start reproducing z_old: one feature row, so the
        # minimum-norm weights are the scaled outer product z_old phi^T
        model = model.with_theta((np.outer(z_old, phi) / lam).ravel())

    # J J^T = lam I, so every eigenvalue of the contraction is 1 - eta*c*lam
    c = spec.curvature / v
    rho = abs(1.0 - config.eta * c * lam)
    if rho >= 1.0:
        raise StepSizeError(rho)

    z_star = _optimal_logits(z_old, advantages, config.beta)
    with np.errstate(over="ignore", divide="ignore"):
        anchor = float(np.float64(advantages @ advantages) / np.float64(config.beta) ** 2)
    if not math.isfinite(anchor):
        raise InvalidInputError("the envelope anchor ||A||^2 / beta^2 overflows")
    prefactor = spec.curvature / (2.0 * v)

    # iterate in residual coordinates: theta <- theta - eta*c*J^T r pushed
    # through these exactly linear models is r <- (1 - eta*c*lam) r, and
    # tracking r directly avoids the catastrophic z - z* cancellation that
    # stalls parameter iterates once r reaches machine epsilon of z*.  Each
    # component is stepped on Python floats, with the operations of the
    # vector update r - (eta*c) * (lam * r) in their order.
    step_size = config.eta * c
    columns = []
    for r in (forward(model, 0) - z_star).tolist():
        column = [r]
        for _ in range(config.steps):
            r = r - step_size * (lam * r)
            column.append(r)
        columns.append(column)
    # one C-contiguous row per iterate, so each row reduces as a 1-D vector does
    residual = np.array(columns).T.copy()
    return ConvergeResult(
        # the loss against a zero target, at every iterate in one row-value call
        loss=spec.value(residual, np.zeros(v), None),
        bound=np.array([prefactor * rho ** (2 * k) * anchor for k in range(config.steps + 1)]),
        residual_inf=np.abs(residual).max(axis=1),
        rho=rho,
        objective=objective,
        family=family,
    )


UNDERFLOW_FLOOR = 1e-300
LCH_NEIGHBORHOOD = 0.5  # residual sup-norm inside which the log-cosh envelope is asserted
ENVELOPE_SLACK = 1e-6  # relative roundoff allowance of the envelope


def converge_violations(result: ConvergeResult) -> int:
    """Iterates whose loss exceeds bound * (1 + ENVELOPE_SLACK).

    The log-cosh envelope is only asserted once the residual sits inside the
    small-residual neighborhood (``LCH_NEIGHBORHOOD``) where its quadratic
    behavior applies.  Iterates whose loss has sunk below the double-precision
    underflow floor carry no information (loss and bound are both denormal
    quantization noise) and are not counted.
    """
    counted = (result.loss >= UNDERFLOW_FLOOR) & (result.loss > result.bound * (1.0 + ENVELOPE_SLACK))
    if result.objective is ObjectiveKind.LCO_LCH:
        counted &= ~(result.residual_inf > LCH_NEIGHBORHOOD)
    return int(np.count_nonzero(counted))
