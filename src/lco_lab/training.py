"""Training loop, episode gradients, and convergence-rate experiments.

One training step rolls out a single episode under a frozen behavioral
snapshot, takes per-timestep advantages (a plain float vector), evaluates
the configured objective at every visited state, pulls the logit
gradients back through the model with a vector-Jacobian product (the
kernel behind ``policy.pullback``; the dense Jacobian is never formed),
and applies one plain gradient-descent update:

    grad_theta = (1/T) * sum_t J(s_t)^T grad_z L_t
    theta     <- theta - lr * grad_theta

The tables a ``TrainerConfig`` is given pick the advantage rule.  With
none, a timestep's vector holds the sampled action's scalar reward and is
zero elsewhere; with a ``scorer_table``, it is the table's row of
log-probabilities; with a ``ref_table`` too, the scorer's row minus the
reference's, DPO's implicit reward (Rafailov et al. 2023).

Each visited state is evaluated once per parameter vector: the rollout
runs one forward pass and one softmax at the snapshot, ``episode_eval``
one of each at theta (the softmax pass also gives the log-softmax to the
objectives that read it, ``Objective.policy``), and the logged statistics
and the envelope reuse those results.  MLP1's tanh layer is part of that
one evaluation, shared by the forward pass, the pullback and sigma_max,
which the record takes for all of an episode's states in one call, after
every timestep's statistics as the public path takes it.
Each check runs once, where its data is made:
config fields and the scorer tables in ``TrainerConfig``, which also
builds each table row's advantage vector there, once per run, and rejects
a ``ref_table`` or ``normalize`` without a ``scorer_table``; each visited
state against the model's state space, as ``forward`` checks it (the state
index is the environment's own, built from checked actions); each forward
output for finiteness, where logits that are not finite, or a sigma_max
that overflows, raise ``NonFiniteModelError`` naming the step, as the loss
and gradient checks do, since parameters that overflowed are no argument's
fault; each sampled advantage for finiteness as its vector is built; and the LCO envelope's loss and sigma_max through the scalar checks of
``gradient_norm_bound``.  Everything else calls the private kernels of
``dist``, ``objectives``, ``targets``, ``policy`` and ``envs``, which hold
the same arithmetic as their public functions, so a step's results are bit
for bit those of the public path.  A step looks up its objective's table
entry and bound once, not once per timestep, and a one-timestep episode
takes its means without summing: the mean of one value x is x (the loss)
or x + 0.0 (the logged statistics, as ``np.add.reduce`` starts its sum at
+0.0).

A step works on the spans of theta its episode touches, each a (start,
stop) pair: one logit row per visited state for TABULAR, all of theta for
LINEAR and MLP1.  The trainer state owns theta, the snapshot, the snapshot
window and one n_params gradient buffer, and each phase of a step reads
them from it: ``rollout_episode`` draws under the snapshot, ``episode_eval``
sums the episode gradient into the buffer span by span, and ``train_step``
advances the state in place.  The division by the horizon, the finiteness
scan, clipping and the update run on the touched spans alone; then those
spans of the buffer are zeroed again.  A snapshot refresh copies the spans
of theta written since the last refresh, where theta and the snapshot can
differ (the trainer state keeps them; a state built on a caller's
snapshot, or past ``WINDOW_CAP`` spans, counts all of theta, (0, n_params),
as written).  One pass still reads all of theta: the logged
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
empty window, in the same order, so errors surface at the same point, and
stores the entry as soon as it is made.  An entry depends on the snapshot
alone, so one stored before a later timestep raises is what a fresh
evaluation of that state computes.  The window is cleared when the
snapshot refreshes and holds at most ``WINDOW_CAP`` entries; once full,
misses compute without storing.  Its arrays are read-only, because the
``Rollout`` of every step in the window shares them.

``run_steps`` is the one run loop: it builds the state and the seeded
generator and yields each step's state and record, so ``run_training``
collects it and a caller with a stop rule leaves it early.  It calls
``train_step`` through this module's global, where a profiler that rebinds
the name reaches every step.

``converge_experiment`` runs the sampling-free single-state recursion whose
per-step error contracts by I - eta*c*J J^T, where c I is the logit
regression's own analytic Hessian at its target (``_curvature``: 2/V for
the squared loss, 1/V for the log-cosh loss, which near its optimum reduces
to the same linear update), and tabulates the loss against the geometric
envelope (c / 2) * rho^{2k} * ||A||^2 / beta^2.
It takes its single-state model from the family constructors and reads lam
of J J^T = lam I from it (``policy._kernel_scale``; a family without that
form is refused), so rho = |1 - eta*c*lam| and the Jacobian is never
formed; the start is the least-norm theta with logits z_old, the pullback
of z_old over lam.  Each residual component is stepped on
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
from typing import Callable, Iterator

import numpy as np

from .convexity import BOUND_SLACK, _check_bound_inputs
from .dist import (
    _entropy,
    _nucleus,
    _pick,
    _softmax,
    as_advantages,
    as_array,
    check_integer,
    check_real,
    normalize_advantages,
)
from .envs import MatchReward, ToyEnvironment
from .errors import InvalidInputError, NonFiniteGradientError, NonFiniteLossError, NonFiniteModelError, StepSizeError
from .objectives import OBJECTIVES, LossEval, Objective, ObjectiveKind, entry, pairwise_sum
from .policy import (
    Family,
    PolicyModel,
    _check_state,
    _forward,
    _hidden,
    _kernel_scale,
    _sigma_maxes,
    _span,
    _vjp,
    forward,
    pullback,
)
from .targets import _optimal_logits

# Entries a snapshot window holds at most, and the written spans of theta a
# trainer state tracks at most.  A frozen run keeps one window for the whole
# run, and a large vocabulary and horizon visit more states than it revisits,
# so the window stops growing here instead of with the run; past this many
# spans the next refresh copies all of theta.
WINDOW_CAP = 1024


@dataclass(frozen=True)
class TrainerConfig:
    objective: ObjectiveKind
    learning_rate: float = 0.1
    steps: int = 100
    beta: float = 1.0
    clip_epsilon: float = 0.2
    normalize: bool = False
    grad_clip_norm: float | None = None
    seed: int = 0
    snapshot_interval: int = 1
    temperature: float = 1.0
    top_p: float = 1.0
    scorer_table: np.ndarray | None = None  # (horizon, V) scorer log-probabilities: dense advantages
    ref_table: np.ndarray | None = None  # (horizon, V) reference log-probabilities, subtracted from the scorer's
    # derived, not an option: the read-only dense advantage values per table row, None without a scorer_table
    _advantage_rows: tuple[np.ndarray, ...] | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        entry(self.objective, "objective")  # read once here; a step looks its entry up by the kind
        for name, low in (("steps", 1), ("snapshot_interval", 1), ("seed", 0)):
            check_integer(getattr(self, name), name, low)
        reals = ("learning_rate", "beta", "clip_epsilon", "temperature", "top_p", "grad_clip_norm")
        for name in reals if self.grad_clip_norm is not None else reals[:-1]:
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        # the tables pick the advantage rule; a field the run never reads is a
        # mistake, as a misspelled config key is
        if self.scorer_table is not None:
            object.__setattr__(self, "_advantage_rows", _dense_advantages(self))
        elif self.ref_table is not None:
            raise InvalidInputError("ref_table is given without a scorer_table, so the run never reads it")
        elif self.normalize:
            raise InvalidInputError("normalize is set without a scorer_table: a sampled advantage is never centered")


def _dense_advantages(config: TrainerConfig) -> tuple[np.ndarray, ...]:
    """Each table row's advantage vector, centered when ``normalize`` is set.

    The tables are read as finite 2-D float arrays, a ``ref_table`` as wide
    as the scorer's.  Row t is the scorer's row t of log-probabilities or,
    with a ``ref_table``, the scorer's row minus the reference's: DPO's
    implicit reward, one for each row both tables have.  Each row is
    checked here, once per run instead of once per step;
    ``_step_advantages`` checks the width and the row count against the
    environment.
    """
    scorer = as_array(config.scorer_table, "scorer_table", 2)
    values = scorer.copy()
    if config.ref_table is not None:
        ref = as_array(config.ref_table, "ref_table", 2)
        if ref.shape[1] != scorer.shape[1]:
            raise InvalidInputError(f"ref_table must have the scorer_table's width {scorer.shape[1]}, got {ref.shape}")
        with np.errstate(over="ignore"):
            values = scorer[: len(ref)] - ref[: len(scorer)]
    rows = (as_advantages(row) for row in values)
    return tuple(_frozen(normalize_advantages(row) if config.normalize else row) for row in rows)


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


@dataclass(eq=False)  # a state advanced in place is compared by identity
class TrainerState:
    """Parameters, behavioral snapshot, snapshot window and gradient buffer of one run.

    ``train_step`` advances the state in place, and adds 1 to ``step`` once
    a step has completed.  The state owns three n_params float64 buffers,
    ``model.theta``, ``snapshot_theta`` and ``grad``, which must not share
    memory: a step updates theta on the spans its episode touched, copies
    theta into ``snapshot_theta`` when the snapshot refreshes, and sums its
    episode's gradient in ``grad`` (``episode_eval``), which is all zero
    between steps.  An earlier iterate is kept by copying it
    (``state.model.theta.copy()``).

    The constructor builds the rest: ``grad``; the empty snapshot
    ``window`` (see the module docstring), which a refresh clears and the
    rollout and the targets otherwise only add to, up to ``WINDOW_CAP``
    entries, and whose arrays are read-only; the behavioral model
    ``snapshot`` that ``rollout_episode`` draws under, ``model`` over
    ``snapshot_theta``; and ``written``, the set of (start, stop) spans of
    theta updated since the last refresh, outside which theta and the
    snapshot are equal, so a refresh copies those spans alone.  Where that
    is not known, in a new state or past ``WINDOW_CAP`` spans, the set holds
    the whole-theta span (0, n_params); ``init_trainer`` empties it.  A
    caller that writes either buffer itself builds a new state on them.
    """

    model: PolicyModel
    snapshot_theta: np.ndarray
    step: int = 0
    grad: np.ndarray = field(init=False, repr=False)
    window: dict = field(init=False, repr=False)
    snapshot: PolicyModel = field(init=False, repr=False)
    written: set = field(init=False, repr=False)

    def __post_init__(self):
        self.grad = np.zeros(self.model.n_params)
        self.window = {}
        self.snapshot = self.model.with_theta(self.snapshot_theta)
        self.written = {(0, self.model.n_params)}


def init_trainer(model: PolicyModel) -> TrainerState:
    """A step-0 state on copies of ``model.theta``; ``model`` itself is never written.

    Both buffers come from one theta, so no span is written yet and the
    refresh at step 0 copies nothing.
    """
    state = TrainerState(model.with_theta(model.theta.copy()), model.theta.copy())
    state.written.clear()
    return state


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _store(window: dict, key, value) -> None:
    """Put an entry in a snapshot window, unless that would take it past the cap."""
    if key in window or len(window) < WINDOW_CAP:
        window[key] = value


def rollout_episode(
    state: TrainerState, env: ToyEnvironment, config: TrainerConfig, rng: np.random.Generator
) -> Rollout:
    """Generate one episode under the state's behavioral snapshot.

    A ``teacher_forced`` objective (SFT, which is supervised) walks the
    verifier target sequence instead of sampling.  A visited state found in
    ``state.window`` (see ``TrainerState``) reuses its logits, softmax and
    sampler nucleus; a new visit is stored there as soon as it is made.
    The returned arrays are read-only.
    """
    teacher_forced = OBJECTIVES[config.objective].teacher_forced
    if teacher_forced and not isinstance(env.reward, MatchReward):
        raise InvalidInputError("objective SFT needs a match-reward environment with a target")

    snapshot, window = state.snapshot, state.window
    sampler = (config.temperature, config.top_p)
    s = 0  # the empty prefix
    timesteps = []
    for t in range(env.horizon):
        if t:
            s = env._child(s, action)
        cached = visit = window.get(s)
        if visit is None:
            _check_state(snapshot, s)
            z = _frozen(_logits(_forward(snapshot, s, _hidden(snapshot, s)), "snapshot", state.step, s))
            visit = (z, _frozen(_softmax(z)), None)
        z, p, nucleus = visit
        if teacher_forced:
            action = env.reward.target[t]
        else:
            if nucleus is None or nucleus[0] != sampler:
                nucleus = (sampler, *map(_frozen, _nucleus(p, *sampler)))
                visit = (z, p, nucleus)
            action = int(_pick(nucleus[1], nucleus[2], rng, None))
        if visit is not cached:
            _store(window, s, visit)
        timesteps.append((s, action, z, p))
    return Rollout(*zip(*timesteps))


def _logits(z: np.ndarray, at: str, step: int, s: int) -> np.ndarray:
    """``z``, the logits at ``at`` (theta or the snapshot) of visited state s, checked finite.

    Logits that are not finite come from parameters that overflowed, in
    this run or before it, so they raise ``NonFiniteModelError`` naming the
    step, not ``InvalidInputError``: no argument is at fault.
    """
    # the reduction ndarray.all calls, without its wrapper
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise NonFiniteModelError(f"non-finite {at} logits at step {step} (state {s})")
    return z


def _step_advantages(env: ToyEnvironment, config: TrainerConfig, rollout: Rollout, t: int) -> np.ndarray:
    """The advantage values of timestep t.

    Without a scorer table, the sampled action's scalar advantage in an
    otherwise zero vector; that action is valid, since it came from the
    sampler or the environment's target.  With one, row t of the vectors
    ``TrainerConfig`` built from the tables, centered there when
    ``normalize`` is set; centering a sparse vector would smear signal onto
    unobserved actions, so only dense advantages are normalized.
    """
    rows = config._advantage_rows
    if rows is None:
        values = np.zeros(env.vocab_size)
        values[rollout.actions[t]] = check_real(env.sampled_advantage(rollout.actions, t), "advantage")
        return values
    # there is one row for each timestep that every table has a row for
    if len(rows) < env.horizon:
        name = "scorer_table" if len(config.scorer_table) < env.horizon else "ref_table"
        raise InvalidInputError(
            f"{name} has {len(getattr(config, name))} rows but the horizon is {env.horizon}: "
            "it needs one row per timestep"
        )
    values = rows[t]
    if values.size != env.vocab_size:
        raise InvalidInputError(f"scorer_table rows must have length {env.vocab_size}, got {values.size}")
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


@dataclass(frozen=True)
class EpisodeEval:
    loss: float
    spans: tuple[tuple[int, int], ...]  # the disjoint (start, stop) spans of the gradient buffer the episode wrote
    # per timestep: (its LossEval, the advantage values, the logits at theta,
    # their softmax or None for a logit-target loss, MLP1's tanh layer at theta
    # or None for other families)
    timesteps: tuple[tuple[LossEval, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None], ...]


def episode_eval(state: TrainerState, env: ToyEnvironment, config: TrainerConfig, rollout: Rollout) -> EpisodeEval:
    """Mean loss of one fixed episode at ``state.model``, its gradient summed into ``state.grad``.

    The rollout is one drawn under the state's snapshot (see
    ``TrainerState``), so closed-form targets are looked up in
    ``state.window`` and stored there.  Each timestep adds its
    vector-Jacobian product into its span of the all-zero buffer
    ``state.grad`` directly: the visited state was checked against the
    model's state space, and the logit gradient has the logits' shape.
    Only the returned ``spans`` are written.  The objective's table entry
    is looked up once per call, and each visited state is evaluated once
    at theta: one forward pass (MLP1's hidden layer once, shared by the
    forward pass, the pullback and the logged sigma_max) and one softmax.
    """
    model, grad = state.model, state.grad
    objective = OBJECTIVES[config.objective]
    timesteps, spans = [], {}
    for t in range(env.horizon):
        s, a = rollout.states[t], rollout.actions[t]
        values = _step_advantages(env, config, rollout, t)
        # the target comes from the snapshot alone, so an overflowing target is
        # reported ahead of non-finite logits at theta
        target = _snapshot_target(objective, config.beta, rollout, values, t, state.window)
        # checked as forward checks it, since a caller may pass another model's rollout
        hidden = _hidden(model, _check_state(model, s))
        z = _logits(_forward(model, s, hidden), "theta", state.step, s)
        # a logit-target loss reads z and its target alone, so its pi is None
        # here and ``_record`` takes it, where the public path takes it; a
        # floating-point event of that softmax then comes after the loss's own
        pi, log_pi = objective.policy(z)
        step = (a, float(values[a]), float(rollout.pi_old[t][a]), config.clip_epsilon)
        evaluation = objective.kernel(z, pi, log_pi, target, step)
        start, stop = span = _span(model, s)
        touched = grad[start:stop]  # added into in place, without a write-back
        touched += _vjp(model, s, evaluation.logit_gradient, hidden)
        # a family's spans are either equal or disjoint, so dropping repeats
        # leaves each touched entry in exactly one span
        spans[span] = None
        timesteps.append((evaluation, values, z, pi, hidden))
    spans = tuple(spans)
    if env.horizon == 1:
        # the mean of one timestep is that timestep: x / 1 is x
        loss = float(timesteps[0][0].value)
    else:
        for start, stop in spans:
            grad[start:stop] /= env.horizon
        loss = pairwise_sum([evaluation.value for evaluation, *_ in timesteps]) / env.horizon
    return EpisodeEval(loss, spans, tuple(timesteps))


def _envelope(bound: Callable[[float, float, int], float] | None, loss: float, sigma: float, vocab_size: int) -> float:
    """Loss-anchored gradient-norm envelope of one timestep.

    LCO objectives use their own bound formulas, the table's ``bound`` (so
    the averaged parameter gradient is provably below the averaged
    envelope), as ``gradient_norm_bound`` evaluates them, whose scalar
    checks reject a loss that is not finite; the baselines (no ``bound``)
    are reported against the distribution-form envelope
    sigma*sqrt(2 max(L, 0)) for side-by-side dynamics comparisons.
    """
    if bound is not None:
        loss = max(loss, 0.0)
        _check_bound_inputs(loss, sigma)
        return float(bound(loss, sigma, vocab_size))
    return sigma * math.sqrt(2.0 * max(loss, 0.0))


def train_step(
    state: TrainerState,
    env: ToyEnvironment,
    config: TrainerConfig,
    rng: np.random.Generator,
) -> tuple[TrainerState, DynamicsRecord]:
    """One episode rollout, one gradient-descent update, one logged record.

    Advances ``state`` in place (see ``TrainerState``) and returns it with
    the step's record.  A step that raises leaves theta and ``step`` as
    they were and the gradient buffer all zero.  A gradient with a
    non-finite entry, or whose 2-norm lies beyond the float range, raises
    ``NonFiniteGradientError``.  After these gradient checks, an episode
    loss that is not finite (a timestep loss that overflows, or timestep
    losses of +inf and -inf) raises ``NonFiniteLossError``.
    """
    if state.step % config.snapshot_interval == 0:
        for start, stop in state.written:
            state.snapshot_theta[start:stop] = state.model.theta[start:stop]
        state.written.clear()
        state.window.clear()

    rollout = rollout_episode(state, env, config, rng)
    episode = None
    try:
        episode = episode_eval(state, env, config, rollout)
        grad = state.grad
        # the 2-norm as np.linalg.norm takes it, without its wrapper
        raw_norm = math.sqrt(grad.dot(grad))
        # a finite norm has finite entries; a norm that is not finite may
        # still have overflowed from finite entries, so only then are the
        # touched spans scanned
        if not math.isfinite(raw_norm):
            if not all(np.isfinite(grad[start:stop]).all() for start, stop in episode.spans):
                raise NonFiniteGradientError(
                    f"non-finite gradient at step {state.step} "
                    f"(objective {config.objective.value}, loss {episode.loss!r})"
                )
            # finite entries whose squares overflow: the norm of g / max|g|,
            # scaled back, so clipping shortens the step instead of zeroing it
            peak = float(np.abs(grad).max())
            scaled = grad / peak
            raw_norm = peak * math.sqrt(scaled.dot(scaled))
            # a norm beyond the float range even so: no record can log it, and
            # clipping by it would scale the step to zero
            if not math.isfinite(raw_norm):
                raise NonFiniteGradientError(
                    f"gradient norm beyond the float range at step {state.step} "
                    f"(objective {config.objective.value}, loss {episode.loss!r})"
                )
        # a timestep loss that overflows, or losses of +inf and -inf that sum
        # to NaN: no record may log either
        if not math.isfinite(episode.loss):
            raise NonFiniteLossError(
                f"{'NaN' if math.isnan(episode.loss) else episode.loss} episode loss at step {state.step} "
                f"(objective {config.objective.value})"
            )
        # clipped ahead of the record, as the public path clips it
        if config.grad_clip_norm is not None and raw_norm > config.grad_clip_norm:
            scale = config.grad_clip_norm / raw_norm
            for start, stop in episode.spans:
                grad[start:stop] *= scale
        record = _record(state, env, config, rollout, episode, raw_norm)
        for start, stop in episode.spans:
            updated = state.model.theta[start:stop]  # updated in place, without a write-back
            updated -= config.learning_rate * grad[start:stop]
        state.written.update(episode.spans)
        if len(state.written) > WINDOW_CAP:
            state.written = {(0, state.model.n_params)}
    finally:
        for start, stop in episode.spans if episode is not None else ((0, state.grad.size),):
            state.grad[start:stop] = 0.0
    state.step += 1
    return state, record


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
    statistics = []
    for t, (evaluation, values, z, pi, _) in enumerate(episode.timesteps):
        a = rollout.actions[t]
        g = np.abs(evaluation.logit_gradient)
        nonsampled = np.add.reduce(np.concatenate((g[:a], g[a + 1 :]))) / (g.size - 1)
        if pi is None:  # a logit-target loss: pi at theta is taken here, as the public path takes it
            pi = _softmax(z)
        statistics.append((g[a], nonsampled, _entropy(pi), pi[a], values[a]))
    # sigma_max and the envelope come after every timestep's statistics, as in the public path
    table_bound = OBJECTIVES[config.objective].bound
    try:
        sigmas = _sigma_maxes(state.model, rollout.states, [hidden for *_, hidden in episode.timesteps])
    except InvalidInputError as exc:  # theta overflowed: no argument is at fault, as for non-finite logits
        raise NonFiniteModelError(f"{exc} at step {state.step}") from None
    envelopes = [
        _envelope(table_bound, evaluation.value, sigma, env.vocab_size)
        for (evaluation, *_), sigma in zip(episode.timesteps, sigmas)
    ]
    # one row per logged statistic, one column per timestep
    rows = [*zip(*statistics), envelopes]
    if env.horizon == 1:
        # np.add.reduce starts its sum at +0.0, so the mean of one value x is x + 0.0
        means = [float(row[0]) + 0.0 for row in rows]
    else:
        # each row contiguous, so a row mean is the pairwise sum np.mean makes over a list of its values
        means = (np.add.reduce(np.array(rows), axis=1) / env.horizon).tolist()
    sampled_mag, nonsampled_mag, entropy, sampled_prob, sampled_adv, bound = means

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


def run_steps(
    model: PolicyModel, env: ToyEnvironment, config: TrainerConfig
) -> Iterator[tuple[TrainerState, DynamicsRecord]]:
    """The ``(state, record)`` of each of ``config.steps`` episode updates, one run's loop.

    The state is ``init_trainer(model)``, advanced in place, and every step
    draws from one generator seeded with ``config.seed``.  A caller that
    stops early leaves the loop: the steps it did not take are never run.
    """
    state, rng = init_trainer(model), np.random.default_rng(config.seed)
    for _ in range(config.steps):
        yield train_step(state, env, config, rng)


def run_training(
    model: PolicyModel, env: ToyEnvironment, config: TrainerConfig
) -> tuple[PolicyModel, list[DynamicsRecord]]:
    """The final model and the records of all ``config.steps`` steps of ``run_steps``."""
    steps = list(run_steps(model, env, config))
    return steps[-1][0].model, [record for _, record in steps]


def rises(previous: float | np.ndarray, loss: float | np.ndarray) -> bool | np.ndarray:
    """Whether ``loss`` exceeds ``previous`` by more than roundoff, elementwise: a descent that broke."""
    return loss > previous * (1.0 + 1e-12) + 5e-324


def envelope_violations(records: list[DynamicsRecord]) -> int:
    """Steps whose parameter-gradient norm exceeds their envelope by more than ``BOUND_SLACK``."""
    return sum(r.bound_value is not None and r.grad_norm_param > r.bound_value + BOUND_SLACK for r in records)


# ---------------------------------------------------------------------------
# Convergence experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergeConfig:
    objective: ObjectiveKind
    advantages: np.ndarray
    eta: float
    steps: int = 500
    beta: float = 1.0
    z_old: np.ndarray | None = None  # one entry per advantage; zero when not given

    def __post_init__(self):
        if entry(self.objective, "objective").target != "logits":
            raise InvalidInputError(
                f"objective must be LCO_MSE or LCO_LCH for a convergence run, got {self.objective.value}"
            )
        check_integer(self.steps, "steps", 1)
        for name in ("eta", "beta"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        # one per action of the run's state, so at least two
        object.__setattr__(self, "advantages", as_array(self.advantages, "advantages", 1, 2))
        if self.z_old is not None:
            object.__setattr__(self, "z_old", as_array(self.z_old, "z_old", self.advantages.shape))


@dataclass(frozen=True)
class ConvergeResult:
    """One convergence run as columns, with entry k for iterate k = 0, ..., steps."""

    loss: np.ndarray  # the loss at iterate k
    bound: np.ndarray  # its envelope (c / 2) * rho^{2k} * ||A||^2 / beta^2
    residual_inf: np.ndarray  # the sup-norm of the logit residual z_k - z*
    rho: float
    objective: ObjectiveKind
    family: Family


def _curvature(kind: ObjectiveKind, v: int) -> float:
    """c of a logit regression's analytic Hessian c I at its target, read at z = target = 0."""
    zero = np.zeros(v)
    return float(OBJECTIVES[kind].hessian(zero, None, zero, ())[0, 0])


def converge_experiment(model: PolicyModel, config: ConvergeConfig) -> ConvergeResult:
    """Sampling-free single-state descent against its geometric loss envelope.

    ``model`` is a single-state model whose kernel J J^T is lam I (a TABULAR
    or LINEAR one, as their constructors build it); its theta is not read.
    The parameters start at J^T z_old / lam, the least-norm ones whose
    logits are z_old, the target is z_old + A/beta, and each step applies
    the error recursion theta <- theta - eta*c*J^T (z - z*), with c I the
    objective's Hessian at its target (``_curvature``).  For the squared
    loss this is its exact gradient; for the log-cosh loss it is the
    near-optimum update that the linear convergence rate is stated for,
    while the reported loss is the true log-cosh value at every iterate.
    """
    if model.n_states != 1:
        raise InvalidInputError("a convergence run takes a single-state model")
    lam = _kernel_scale(model, 0)
    if lam is None:
        family = model.family.value
        raise InvalidInputError(f"family must have J J^T = lam I for a convergence run, which {family} lacks")
    spec = OBJECTIVES[config.objective]
    v = model.vocab_size
    advantages = as_advantages(config.advantages, v)
    z_old = np.zeros(v) if config.z_old is None else config.z_old
    model = model.with_theta(pullback(model, 0, z_old) / lam)

    # J J^T = lam I, so every eigenvalue of the contraction is 1 - eta*c*lam
    c = _curvature(config.objective, v)
    rho = abs(1.0 - config.eta * c * lam)
    if rho >= 1.0:
        raise StepSizeError(rho)

    z_star = _optimal_logits(z_old, advantages, config.beta)
    with np.errstate(over="ignore", divide="ignore"):
        anchor = float(np.float64(advantages @ advantages) / np.float64(config.beta) ** 2)
    if not math.isfinite(anchor):
        raise InvalidInputError("the envelope anchor ||A||^2 / beta^2 overflows")
    prefactor = c / 2.0

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
        objective=config.objective,
        family=model.family,
    )


UNDERFLOW_FLOOR = 1e-300
ENVELOPE_SLACK = 1e-6  # relative roundoff allowance of the envelope


def converge_violations(result: ConvergeResult) -> int:
    """Iterates whose loss exceeds bound * (1 + ENVELOPE_SLACK).

    An iterate counts only within the objective's ``envelope_radius`` of
    the target: the log-cosh envelope holds where its quadratic behavior
    applies.  Iterates whose loss has sunk below the double-precision
    underflow floor carry no information (loss and bound are both denormal
    quantization noise) and are not counted.
    """
    counted = (result.loss >= UNDERFLOW_FLOOR) & (result.loss > result.bound * (1.0 + ENVELOPE_SLACK))
    counted &= ~(result.residual_inf > OBJECTIVES[result.objective].envelope_radius)
    return int(np.count_nonzero(counted))
