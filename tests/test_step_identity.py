"""``train_step`` against a reference step composed from the public functions.

The reference below is the step as it was written before the trainer moved
to the private kernels: every forward pass, softmax and input check is
repeated where the public functions repeat it.  The arithmetic is the
same, so records must compare ``==``, parameters must match byte for byte,
and any exception must have the same type and message.  Both steps raise
``NonFiniteLossError`` for a non-finite episode loss, after the gradient
norm and before clipping, and ``NonFiniteModelError`` for logits that are
not finite or a sigma_max that overflows, where the public functions
raise ``InvalidInputError``: the parameters overflowed, and no argument is
at fault.
"""

import itertools

import numpy as np
import pytest

from lco_lab import training
from lco_lab.convexity import gradient_norm_bound
from lco_lab.dist import entropy, sample_action, softmax
from lco_lab.envs import MatchReward, TableReward, ToyEnvironment
from lco_lab.errors import InvalidInputError, NonFiniteGradientError, NonFiniteLossError, NonFiniteModelError
from lco_lab.objectives import LCO_KINDS, ObjectiveKind, evaluate, pairwise_sum
from lco_lab.policy import Family, forward, linear_policy, mlp1_policy, pullback, sigma_max, tabular_policy
from lco_lab.targets import optimal_logits, optimal_policy
from lco_lab.training import DynamicsRecord, Rollout, TrainerConfig, TrainerState, init_trainer, train_step

# --- reference step ----------------------------------------------------------


def _ref_logits(model, state, at, step):
    z = forward(model, state)
    if not np.all(np.isfinite(z)):
        raise NonFiniteModelError(f"non-finite {at} logits at step {step} (state {state})")
    return z


def _ref_rollout(snapshot, env, config, rng, step):
    teacher_forced = config.objective is ObjectiveKind.SFT
    if teacher_forced and not isinstance(env.reward, MatchReward):
        raise InvalidInputError("objective SFT needs a match-reward environment with a target")
    prefix = ()
    states, actions, z_old, pi_old = [], [], [], []
    for t in range(env.horizon):
        state = env.state_index(prefix)
        z = _ref_logits(snapshot, state, "snapshot", step)
        p = softmax(z)
        if teacher_forced:
            action = env.reward.target[t]
        else:
            action = sample_action(p, config.temperature, config.top_p, rng)
        states.append(state)
        actions.append(action)
        z_old.append(z)
        pi_old.append(p)
        prefix = prefix + (action,)
    return Rollout(tuple(states), tuple(actions), tuple(z_old), tuple(pi_old))


def _ref_advantages(env, config, rollout, t):
    if config.scorer_table is None:
        scalar = env.sampled_advantage(rollout.actions, t)
        if not np.isfinite(scalar):
            raise InvalidInputError("advantage must be finite")
        values = np.zeros(env.vocab_size)
        values[rollout.actions[t]] = scalar
        return values  # never centered: that would smear signal onto unobserved actions
    values = np.array(config.scorer_table[t], dtype=np.float64)
    if config.ref_table is not None:
        values = values - config.ref_table[t]
    return values - values.mean() if config.normalize else values


def _ref_eval(model, config, rollout, adv, t, step):
    z = _ref_logits(model, rollout.states[t], "theta", step)
    kind = config.objective
    if kind is ObjectiveKind.SFT:
        return evaluate(kind, z, step=(rollout.actions[t],))
    if kind in (ObjectiveKind.PPO, ObjectiveKind.REINFORCE):
        a = rollout.actions[t]
        return evaluate(kind, z, step=(a, float(adv[a]), float(rollout.pi_old[t][a]), config.clip_epsilon))
    if kind is ObjectiveKind.LCO_MSE:
        return evaluate(kind, z, optimal_logits(rollout.z_old[t], adv, config.beta))
    if kind is ObjectiveKind.LCO_LCH:
        return evaluate(kind, z, optimal_logits(rollout.z_old[t], adv, config.beta))
    return evaluate(kind, z, optimal_policy(rollout.pi_old[t], adv, config.beta))


def _ref_train_step(state, env, config, rng):
    if state.step % config.snapshot_interval == 0:
        state = TrainerState(state.model, state.model.theta.copy(), state.step)
    model = state.model
    rollout = _ref_rollout(state.snapshot, env, config, rng, state.step)

    evals, advantages = [], []
    grad = np.zeros(model.n_params)
    for t in range(env.horizon):
        adv = _ref_advantages(env, config, rollout, t)
        evaluation = _ref_eval(model, config, rollout, adv, t, state.step)
        grad += pullback(model, rollout.states[t], evaluation.logit_gradient)
        evals.append(evaluation)
        advantages.append(adv)
    grad /= env.horizon
    loss = pairwise_sum([e.value for e in evals]) / env.horizon

    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            f"non-finite gradient at step {state.step} (objective {config.objective.value}, loss {loss!r})"
        )
    raw_norm = float(np.linalg.norm(grad))
    if not np.isfinite(loss):
        label = "NaN" if np.isnan(loss) else loss
        raise NonFiniteLossError(f"{label} episode loss at step {state.step} (objective {config.objective.value})")
    if config.grad_clip_norm is not None and raw_norm > config.grad_clip_norm > 0.0:
        grad = grad * (config.grad_clip_norm / raw_norm)

    sampled_mag, nonsampled_mag, entropies, sampled_probs, sampled_advs = [], [], [], [], []
    for t, evaluation in enumerate(evals):
        a = rollout.actions[t]
        g = evaluation.logit_gradient
        sampled_mag.append(abs(float(g[a])))
        nonsampled_mag.append(float(np.abs(np.delete(g, a)).mean()))
        pi_now = softmax(forward(model, rollout.states[t]))
        entropies.append(entropy(pi_now))
        sampled_probs.append(float(pi_now[a]))
        sampled_advs.append(float(advantages[t][a]))
    envelope = []
    for t, evaluation in enumerate(evals):
        try:
            sigma = sigma_max(model, rollout.states[t])
        except InvalidInputError as exc:
            raise NonFiniteModelError(f"{exc} at step {state.step}") from None
        if config.objective in LCO_KINDS:
            envelope.append(gradient_norm_bound(config.objective, max(evaluation.value, 0.0), sigma, env.vocab_size))
        else:
            envelope.append(sigma * float(np.sqrt(2.0 * max(evaluation.value, 0.0))))

    record = DynamicsRecord(
        step=state.step,
        loss=loss,
        grad_norm_param=raw_norm,
        grad_sampled_logit=float(np.mean(sampled_mag)),
        grad_nonsampled_logit=float(np.mean(nonsampled_mag)),
        entropy=float(np.mean(entropies)),
        sampled_prob=float(np.mean(sampled_probs)),
        advantage_sign_bucket="positive" if np.mean(sampled_advs) >= 0.0 else "negative",
        bound_value=float(np.mean(envelope)),
    )
    updated = model.with_theta(model.theta - config.learning_rate * grad)
    return TrainerState(updated, state.snapshot_theta, state.step + 1), record


# --- comparison --------------------------------------------------------------


def _outcome(step_fn, state, env, config, rng):
    try:
        return step_fn(state, env, config, rng), None
    except Exception as exc:  # the comparison is of the exception itself
        return None, (type(exc), str(exc))


def assert_steps_identical(model, env, config, steps, start=init_trainer):
    """Run both steps ``steps`` times from ``start(model)`` each, comparing every
    record, theta and the snapshot; return the first (type, message) raised."""
    states = [start(model), start(model)]
    rngs = [np.random.default_rng(config.seed), np.random.default_rng(config.seed)]
    for _ in range(steps):
        ref, ref_error = _outcome(_ref_train_step, states[0], env, config, rngs[0])
        new, new_error = _outcome(train_step, states[1], env, config, rngs[1])
        assert new_error == ref_error
        if ref_error is not None:
            return ref_error
        assert new[1] == ref[1]
        assert new[0].model.theta.tobytes() == ref[0].model.theta.tobytes()
        assert new[0].snapshot_theta.tobytes() == ref[0].snapshot_theta.tobytes()
        assert new[0].step == ref[0].step
        states = [ref[0], new[0]]
    return None


def _model(family, env, rng):
    if family is Family.TABULAR:
        return tabular_policy(env.n_states, env.vocab_size, init_logits=rng.uniform(-1.0, 1.0, env.vocab_size))
    if family is Family.LINEAR:
        model = linear_policy(env.n_states, env.vocab_size, 3, seed=int(rng.integers(1000)))
        return model.with_theta(rng.uniform(-0.5, 0.5, model.n_params))
    return mlp1_policy(env.n_states, env.vocab_size, 3, hidden=6, seed=int(rng.integers(1000)))


def _log_prob_table(rng, horizon, vocab):
    logits = rng.normal(0.0, 1.5, (horizon, vocab))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


CASES = [
    (family, v, h, kind)
    for (family, v, h), kind in itertools.product(
        [(f, v, h) for f in Family for v in (2, 8, 64) for h in (1, 3)] + [(f, 2, 16) for f in Family],
        list(ObjectiveKind),
    )
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_train_step_matches_public_reference(case):
    family, v, h, kind = CASES[case]
    rng = np.random.default_rng(1000 + case)
    if kind is ObjectiveKind.SFT or rng.random() < 0.5:
        reward = MatchReward(tuple(int(a) for a in rng.integers(v, size=h)))
    else:
        reward = TableReward(rng.uniform(-1.0, 1.0, (h, v)))
    env = ToyEnvironment(v, h, reward)
    tables = int(rng.integers(3))  # 0: sampled advantages, 1: a scorer_table, 2: a ref_table too
    config = TrainerConfig(
        objective=kind,
        learning_rate=float(rng.choice([0.3, 1.0, 4.0])),
        steps=1,
        beta=float(rng.choice([0.5, 1.0])),
        normalize=bool(rng.integers(2)) and tables > 0,
        grad_clip_norm=None if rng.random() < 0.5 else 0.05,
        seed=int(rng.integers(2**31)),
        snapshot_interval=int(rng.choice([1, 2, 10**6])),
        temperature=float(rng.choice([0.3, 1.0, 2.5])),
        top_p=float(rng.choice([0.5, 0.9, 1.0])),
        scorer_table=_log_prob_table(rng, h, v) if tables > 0 else None,
        ref_table=_log_prob_table(rng, h, v) if tables == 2 else None,
    )
    assert_steps_identical(_model(family, env, rng), env, config, steps=5)


def _tabular_run(kind, interval, seed, vocab=64, horizon=3):
    """A TABULAR model over every prefix of a V = ``vocab`` / H = ``horizon``
    environment (266,304 parameters at 64 / 3) and a config refreshing every ``interval`` steps."""
    rng = np.random.default_rng(seed)
    env = ToyEnvironment(vocab, horizon, TableReward(rng.uniform(-1.0, 1.0, (horizon, vocab))))
    model = tabular_policy(env.n_states, vocab, init_logits=rng.uniform(-1.0, 1.0, vocab))
    config = TrainerConfig(objective=kind, learning_rate=1.0, steps=1, seed=seed, snapshot_interval=interval)
    return model, env, config


@pytest.mark.parametrize("interval", [2, 3])
@pytest.mark.parametrize("kind", [ObjectiveKind.PPO, ObjectiveKind.REINFORCE, ObjectiveKind.LCO_KLD])
def test_a_refresh_copies_only_the_written_spans_and_matches_a_full_copy(kind, interval):
    model, env, config = _tabular_run(kind, interval, seed=interval)
    assert model.n_params == 266_304
    assert assert_steps_identical(model, env, config, steps=3 * interval + 1) is None
    # the partial path is the one taken: a step writes at most H spans, one row per visited state
    state, rng = init_trainer(model), np.random.default_rng(config.seed)
    for step in range(3 * interval):
        state, _ = train_step(state, env, config, rng)
        assert (0, model.n_params) not in state.written
        assert len(state.written) <= env.horizon * (step % interval + 1)


def test_a_state_built_by_its_caller_has_all_of_theta_copied_at_its_first_refresh():
    # the caller's snapshot is stale everywhere; with its written spans unknown,
    # the state counts all of theta as written, so the refresh at step 0 copies it
    model, env, config = _tabular_run(ObjectiveKind.REINFORCE, 2, seed=7, vocab=8)

    def stale(m):
        return TrainerState(m.with_theta(m.theta.copy()), np.zeros(m.n_params))

    assert stale(model).written == {(0, model.n_params)}
    assert assert_steps_identical(model, env, config, steps=5, start=stale) is None


@pytest.mark.parametrize("interval", [6, 10**6])
def test_a_run_past_the_span_bound_copies_all_of_theta_at_its_next_refresh(monkeypatch, interval):
    # with the bound at 4 spans, six steps of three visited states go past it
    # between refreshes, and all of theta counts as written; a frozen run (10**6)
    # keeps the set that small instead of growing it with the run
    monkeypatch.setattr(training, "WINDOW_CAP", 4)
    model, env, config = _tabular_run(ObjectiveKind.LCO_KLD, interval, seed=11, vocab=8)
    assert assert_steps_identical(model, env, config, steps=14) is None
    state, rng = init_trainer(model), np.random.default_rng(config.seed)
    for _ in range(6):
        state, _ = train_step(state, env, config, rng)
    assert (0, model.n_params) in state.written


@pytest.mark.parametrize("family", list(Family))
def test_non_finite_theta_raises_from_the_rollout(family):
    env = ToyEnvironment(4, 2, MatchReward((1, 3)))
    model = _model(family, env, np.random.default_rng(3))
    theta = model.theta.copy()
    theta[-1] = np.nan  # reaches every state's logits for LINEAR and MLP1, the last state's for TABULAR
    theta[: env.vocab_size] = np.inf
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, learning_rate=0.1, steps=1)
    with np.errstate(invalid="ignore"):
        error = assert_steps_identical(model.with_theta(theta), env, config, steps=1)
    # the rollout's snapshot logits at the first state are +inf for every family
    assert error == (NonFiniteModelError, "non-finite snapshot logits at step 0 (state 0)")


def test_non_finite_gradient_raises_after_the_episode():
    # A / pi_old(a) overflows for a barely-representable behavioral
    # probability paired with an enormous advantage
    env = ToyEnvironment(2, 1, TableReward(np.array([[0.0, -1e305]])))
    config = TrainerConfig(objective=ObjectiveKind.PPO, learning_rate=0.1, steps=1, seed=1, temperature=1000.0)
    model = tabular_policy(env.n_states, env.vocab_size, init_logits=np.array([23.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        error = assert_steps_identical(model, env, config, steps=50)
    assert error is not None and error[0] is NonFiniteGradientError
    assert error[1].startswith("non-finite gradient at step ")


def test_nan_episode_loss_raises_instead_of_logging_nan():
    # timestep losses of +inf and -inf: the pairwise sum is NaN while the
    # gradient stays finite, so the step used to log loss = nan, bound = inf
    env = ToyEnvironment(8, 2, TableReward(np.array([[1e308] * 8, [-1e308] * 8])))
    config = TrainerConfig(objective=ObjectiveKind.REINFORCE, learning_rate=1e-300, steps=1, seed=0)
    model = tabular_policy(env.n_states, env.vocab_size)
    with np.errstate(all="ignore"):
        error = assert_steps_identical(model, env, config, steps=1)
        assert error == (NonFiniteLossError, "NaN episode loss at step 0 (objective REINFORCE)")
        state = init_trainer(model)
        theta = state.model.theta.copy()
        with pytest.raises(NonFiniteLossError):
            train_step(state, env, config, np.random.default_rng(0))
    assert state.model.theta.tobytes() == theta.tobytes()
    assert not state.grad.any()


def test_infinite_episode_loss_raises_instead_of_logging_inf():
    # temperature 1000 samples the action whose probability is ~1e-304, so
    # -A log pi(a) overflows while the gradient stays finite; the step used
    # to log loss = inf, bound = inf
    env = ToyEnvironment(2, 1, TableReward(np.array([[1e307, 1e307]])))
    config = TrainerConfig(objective=ObjectiveKind.REINFORCE, learning_rate=0.1, steps=1, seed=4, temperature=1000.0)
    model = tabular_policy(env.n_states, env.vocab_size, init_logits=np.array([0.0, 700.0]))
    with np.errstate(all="ignore"):
        error = assert_steps_identical(model, env, config, steps=1)
        assert error == (NonFiniteLossError, "inf episode loss at step 0 (objective REINFORCE)")
        state = init_trainer(model)
        theta = state.model.theta.copy()
        with pytest.raises(NonFiniteLossError):
            train_step(state, env, config, np.random.default_rng(4))
    assert state.model.theta.tobytes() == theta.tobytes()
    assert not state.grad.any()
