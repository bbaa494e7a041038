import dataclasses
import hashlib
import inspect
import itertools
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lco_lab import dist, policy
from lco_lab.config import ConfigError, build_trainer, parse_config
from lco_lab.convexity import BOUND_SLACK
from lco_lab.dist import softmax, total_variation
from lco_lab.envs import MatchReward, TableReward, ToyEnvironment
from lco_lab.errors import InvalidInputError, NonFiniteGradientError, NonFiniteModelError, StepSizeError
from lco_lab.objectives import OBJECTIVES, ObjectiveKind, evaluate
from lco_lab.policy import Family, forward, linear_policy, mlp1_policy, tabular_policy
from lco_lab.targets import optimal_policy
from lco_lab.training import (
    ConvergeConfig,
    DynamicsRecord,
    TrainerConfig,
    TrainerState,
    converge_experiment,
    converge_violations,
    envelope_violations,
    episode_eval,
    init_trainer,
    rollout_episode,
    run_training,
    train_step,
)

from oracles import CURVATURE, jacobian, rel_close


def test_environment_state_indexing():
    env = ToyEnvironment(3, 3, MatchReward((0, 1, 2)))
    assert env.n_states == 1 + 3 + 9
    assert env.state_index(()) == 0
    assert env.state_index((0,)) == 1
    assert env.state_index((2,)) == 3
    assert env.state_index((1, 2)) == 4 + 1 * 3 + 2
    with pytest.raises(InvalidInputError):
        env.state_index((0, 1, 2))  # terminal sequences are not states


def test_environment_child_state_is_the_state_index_of_the_longer_prefix():
    env = ToyEnvironment(3, 4, MatchReward((0, 1, 2, 0)))
    for length in range(env.horizon - 1):  # every prefix with a child that is a state
        for prefix, action in itertools.product(itertools.product(range(3), repeat=length), range(3)):
            assert env._child(env.state_index(prefix), action) == env.state_index(prefix + (action,))
    for action in (-1, 3):
        with pytest.raises(InvalidInputError, match=f"action {action} outside vocabulary of size 3"):
            env._child(0, action)


def test_a_model_wider_than_the_environment_raises_at_the_next_state():
    # the rollout samples action 2 of a 3-wide model in a 2-wide environment;
    # the next state's index rejects it, as state_index does
    env = ToyEnvironment(2, 2, MatchReward((0, 1)))
    model = tabular_policy(env.n_states, 3, init_logits=[-50.0, -50.0, 50.0])
    config = TrainerConfig(objective=ObjectiveKind.REINFORCE, learning_rate=0.1, steps=1)
    with pytest.raises(InvalidInputError, match="action 2 outside vocabulary of size 2"):
        env.state_index((2,))
    with pytest.raises(InvalidInputError, match="action 2 outside vocabulary of size 2"):
        train_step(init_trainer(model), env, config, np.random.default_rng(0))


@pytest.mark.parametrize("vocab_size, horizon", [(2.5, 1), (3, 1.0), (True, 1), (3, "2"), (np.float64(3.0), 2)])
def test_environment_sizes_must_be_integers(vocab_size, horizon):
    # 2.5 once passed the range check and gave n_states == 1.0
    with pytest.raises(InvalidInputError, match="must be an integer"):
        ToyEnvironment(vocab_size, horizon, MatchReward((0,)))


def test_environment_sizes_and_target_read_as_ints():
    env = ToyEnvironment(np.int64(3), np.int32(2), MatchReward((np.int64(1), 2)))
    assert (env.vocab_size, env.horizon, env.n_states, env.reward.target) == (3, 2, 4, (1, 2))
    assert all(type(x) is int for x in (env.vocab_size, env.horizon, env.n_states, *env.reward.target))


def test_environment_rewards():
    env = ToyEnvironment(2, 2, MatchReward((1, 0)))
    assert env.terminal_reward((1, 0)) == 1.0
    assert env.terminal_reward((0, 0)) == -1.0
    assert env.step_reward(0, 1) == 0.0  # the verifier scores the whole sequence alone
    with pytest.raises(InvalidInputError, match="^sequence length must equal the horizon$"):
        env.terminal_reward((1,))
    table = ToyEnvironment(2, 2, TableReward(np.array([[0.5, -0.5], [1.0, 0.0]])))
    assert table.terminal_reward((1, 0)) == 0.5
    assert table.sampled_advantage((1, 0), 0) == -0.5


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ToyEnvironment(2, 0, MatchReward(())), r"^horizon must lie in \[1, 16\]$"),
        (lambda: ToyEnvironment(2, 17, MatchReward((0,) * 17)), r"^horizon must lie in \[1, 16\]$"),
        (lambda: ToyEnvironment(64, 4, MatchReward((0,) * 4)), "^prefix state space has 266305 states"),
        (lambda: ToyEnvironment(2, 2, MatchReward((0,))), "^target length must equal the horizon$"),
        (lambda: ToyEnvironment(2, 1, TableReward(np.zeros((1, 3)))), r"^table must have shape \(1, 2\)$"),
        (lambda: ToyEnvironment(2, 1, (0,)), "^reward must be MatchReward or TableReward$"),
    ],
)
def test_an_environment_outside_its_contract_is_refused(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


def test_identical_seeds_identical_trajectories():
    env = ToyEnvironment(3, 2, MatchReward((1, 2)))
    config = TrainerConfig(
        objective=ObjectiveKind.REINFORCE, learning_rate=0.2, steps=40, seed=9, snapshot_interval=5
    )
    model = tabular_policy(env.n_states, env.vocab_size)
    final_a, records_a = run_training(model, env, config)
    final_b, records_b = run_training(model, env, config)
    assert np.array_equal(final_a.theta, final_b.theta)
    assert [r.loss for r in records_a] == [r.loss for r in records_b]


def test_constant_dense_advantage_with_normalization_freezes_model():
    # every action scores the same, so centering yields zero advantage,
    # the target equals the behavioral logits, and the update vanishes
    env = ToyEnvironment(3, 1, TableReward(np.zeros((1, 3))))
    config = TrainerConfig(
        objective=ObjectiveKind.LCO_MSE,
        learning_rate=0.7,
        steps=5,
        scorer_table=np.full((1, 3), -1.7),
        normalize=True,
        seed=0,
    )
    model = tabular_policy(env.n_states, env.vocab_size, init_logits=np.array([0.3, -0.1, 0.5]))
    final, records = run_training(model, env, config)
    assert np.array_equal(final.theta, model.theta)
    assert all(r.loss == 0.0 and r.grad_norm_param == 0.0 for r in records)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("objective", list(ObjectiveKind))
def test_episode_gradient_matches_finite_differences(family, objective):
    env = ToyEnvironment(3, 2, MatchReward((1, 0)))
    config = TrainerConfig(
        objective=objective,
        learning_rate=0.1,
        steps=1,
        seed=3,
        temperature=0.9,
        top_p=1.0,
    )
    if family is Family.TABULAR:
        model = tabular_policy(env.n_states, env.vocab_size)
        model = model.with_theta(np.random.default_rng(1).uniform(-0.5, 0.5, model.n_params))
    elif family is Family.LINEAR:
        model = linear_policy(env.n_states, env.vocab_size, 3, seed=2)
        model = model.with_theta(np.random.default_rng(2).uniform(-0.5, 0.5, model.n_params))
    else:
        model = mlp1_policy(env.n_states, env.vocab_size, 3, hidden=6, seed=4)

    state = init_trainer(model)
    rollout = rollout_episode(state, env, config, np.random.default_rng(config.seed))
    episode_eval(state, env, config, rollout)

    step = 1e-5
    numeric = np.zeros(model.n_params)
    for i in range(model.n_params):
        bump = np.zeros(model.n_params)
        bump[i] = step
        hi = episode_eval(init_trainer(model.with_theta(model.theta + bump)), env, config, rollout).loss
        lo = episode_eval(init_trainer(model.with_theta(model.theta - bump)), env, config, rollout).loss
        numeric[i] = (hi - lo) / (2 * step)
    assert rel_close(state.grad, numeric, rel=1e-5, floor=1e-7)


def test_episode_eval_sums_into_the_state_gradient_buffer():
    env = ToyEnvironment(64, 3, MatchReward((1, 0, 2)))
    model = tabular_policy(env.n_states, env.vocab_size)
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, learning_rate=0.1, steps=1, seed=5)
    warm, state = init_trainer(model), init_trainer(model)
    rollout = rollout_episode(warm, env, config, np.random.default_rng(5))
    episode_eval(warm, env, config, rollout)  # warm caches outside the trace
    grad = state.grad
    tracemalloc.start()
    try:
        episode_eval(state, env, config, rollout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.grad is grad and state.grad.tobytes() == warm.grad.tobytes()
    assert peak < 0.5 * model.n_params * 8


def test_episode_eval_writes_only_its_spans_of_the_state_buffer():
    env = ToyEnvironment(8, 3, MatchReward((1, 0, 2)))
    config = TrainerConfig(objective=ObjectiveKind.PPO, learning_rate=0.1, steps=1, seed=5)
    for model in (
        tabular_policy(env.n_states, env.vocab_size),
        linear_policy(env.n_states, env.vocab_size, 3, seed=2),
        mlp1_policy(env.n_states, env.vocab_size, 3, hidden=6, seed=4),
    ):
        state = init_trainer(model)
        episode = episode_eval(state, env, config, rollout_episode(state, env, config, np.random.default_rng(5)))
        touched = np.zeros(model.n_params, dtype=bool)
        for start, stop in episode.spans:
            assert not touched[start:stop].any()  # disjoint
            touched[start:stop] = True
        assert state.grad[touched].any() and not state.grad[~touched].any()
        tabular = model.family is Family.TABULAR
        assert touched.sum() == (env.horizon * env.vocab_size if tabular else model.n_params)


def test_warm_train_step_allocates_no_parameter_sized_array():
    env = ToyEnvironment(64, 3, MatchReward((1, 0, 2)))
    model = tabular_policy(env.n_states, env.vocab_size)
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, learning_rate=0.1, steps=3, seed=5, snapshot_interval=2)
    state = init_trainer(model)
    rng = np.random.default_rng(5)
    state, _ = train_step(state, env, config, rng)  # warm caches outside the trace
    tracemalloc.start()
    try:
        for _ in range(2):  # the second of these refreshes the snapshot
            state, _ = train_step(state, env, config, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.step == 3
    assert peak < model.n_params * 8


def _count_calls(monkeypatch, functions) -> Counter:
    """Count the calls of each (module, name) function from now on, wherever ``lco_lab`` or numpy binds it."""
    calls = Counter()
    for module, name in functions:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        holders = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "lco_lab"] + [module]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("family", [Family.TABULAR, Family.LINEAR, Family.MLP1])
def test_warm_sparse_train_step_calls_no_checked_public_function(monkeypatch, kind, family):
    # the sparse advantages, the forward passes, the pullback into the buffer
    # and the logged record read kernels: a step checks each array once,
    # where it is made, and evaluates each visited state once per parameter
    # vector, MLP1's hidden layer included
    env = ToyEnvironment(4, 3, MatchReward((1, 0, 2)))
    if family is Family.TABULAR:
        model = tabular_policy(env.n_states, env.vocab_size)
    elif family is Family.LINEAR:
        model = linear_policy(env.n_states, env.vocab_size, 3, seed=2)
    else:
        model = mlp1_policy(env.n_states, env.vocab_size, 3, hidden=4, seed=2)
    config = TrainerConfig(objective=kind, learning_rate=0.1, steps=3)
    state = init_trainer(model)
    rng = np.random.default_rng(5)
    state, _ = train_step(state, env, config, rng)  # warm
    checked = [(dist, "as_advantages"), (dist, "as_logits"), (dist, "check_integer"), (policy, "pullback")]
    calls = _count_calls(monkeypatch, checked + [(np, "delete"), (np.linalg, "norm"), (np, "tanh")])
    for _ in range(2):
        state, _ = train_step(state, env, config, rng)
    assert state.step == 3
    # each step refreshes the snapshot, so each of its 3 states is evaluated
    # at the snapshot and at theta: MLP1's tanh layer twice, and the log-cosh
    # loss takes one tanh of its own per timestep
    per_state = 2 * (family is Family.MLP1) + (kind is ObjectiveKind.LCO_LCH)
    assert calls == Counter(tanh=2 * 3 * per_state)
    # the counters do count: each function through its module
    calls.clear()
    dist.as_advantages(np.zeros(2))
    dist.as_logits(np.zeros(2))
    dist.check_integer(1, "n")
    policy.pullback(model, 0, np.zeros(env.vocab_size))
    np.delete(np.zeros(2), 0)
    np.linalg.norm(np.zeros(2))
    np.tanh(0.0)
    # pullback evaluates MLP1's hidden layer
    mlp1 = family is Family.MLP1
    assert calls == Counter(as_advantages=1, as_logits=1, check_integer=1, pullback=1, delete=1, norm=1, tanh=1 + mlp1)


@pytest.mark.parametrize("ref", [False, True])
@pytest.mark.parametrize("normalize", [False, True])
def test_dense_train_steps_build_no_advantages(monkeypatch, ref, normalize):
    # the config checks each table row and builds its advantage vector once
    env = ToyEnvironment(4, 3, MatchReward((1, 0, 2)))
    rng = np.random.default_rng(3)
    tables = {"scorer_table": rng.normal(-1.5, 1.0, (3, 4))}
    if ref:
        tables["ref_table"] = rng.normal(-1.5, 1.0, (3, 4))
    config = TrainerConfig(
        objective=ObjectiveKind.LCO_KLD,
        learning_rate=0.1,
        steps=3,
        normalize=normalize,
        **tables,
    )
    state = init_trainer(tabular_policy(env.n_states, env.vocab_size))
    calls = _count_calls(monkeypatch, [(dist, "as_advantages"), (dist, "normalize_advantages")])
    for _ in range(3):
        state, _ = train_step(state, env, config, rng)
    assert state.step == 3
    assert calls == Counter()
    # the counters do count: normalize_advantages checks its input with as_advantages
    dist.normalize_advantages(np.zeros(2))
    assert calls == Counter(as_advantages=1, normalize_advantages=1)


def test_an_overflowing_gradient_norm_is_taken_scaled_and_the_clipped_step_moves():
    # both actions score 1e300, so at zero logits the gradient -A (e_a - pi)
    # has entries +/-5e299: finite, but their squares overflow
    env = ToyEnvironment(2, 1, TableReward(np.array([[1e300, 1e300]])))
    config = TrainerConfig(
        objective=ObjectiveKind.REINFORCE, learning_rate=0.1, steps=1, seed=0, grad_clip_norm=1.0
    )
    model = tabular_policy(env.n_states, env.vocab_size)
    action = rollout_episode(init_trainer(model), env, config, np.random.default_rng(0)).actions[0]
    z = forward(model, 0)
    gradient = policy.pullback(model, 0, evaluate(ObjectiveKind.REINFORCE, z, step=(action, 1e300)).logit_gradient)
    expected = math.hypot(*gradient)

    with np.errstate(over="ignore"):
        state, record = train_step(init_trainer(model), env, config, np.random.default_rng(0))
    assert abs(record.grad_norm_param - expected) <= 1e-15 * expected
    # clipped to unit norm, so the step is the learning rate long
    step = state.model.theta - model.theta
    assert abs(np.linalg.norm(step) - 0.1) <= 1e-15
    assert np.allclose(step, -0.1 * gradient / expected, rtol=1e-15, atol=0.0)


def test_a_gradient_norm_beyond_the_float_range_raises():
    # seed 4 samples action 1 (pi = 0.12), so the gradient 1.7e308 (pi - e_1)
    # has entries +/-1.497e308: finite, but even taken of g / max|g| and
    # scaled back, its 2-norm sqrt(2) * 1.497e308 is beyond the float range:
    # logged as inf, it would also clip the update to zero
    env = ToyEnvironment(2, 1, TableReward(np.array([[1.7e308, 1.7e308]])))
    config = TrainerConfig(
        objective=ObjectiveKind.REINFORCE, learning_rate=0.1, steps=1, seed=4, grad_clip_norm=1.0
    )
    model = tabular_policy(env.n_states, env.vocab_size, init_logits=[2.0, 0.0])
    state = init_trainer(model)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError) as raised:
        train_step(state, env, config, np.random.default_rng(config.seed))
    assert str(raised.value) == "gradient norm beyond the float range at step 0 (objective REINFORCE, loss inf)"
    assert state.model.theta.tobytes() == model.theta.tobytes()
    assert not state.grad.any()


def test_a_sigma_max_beyond_the_float_range_raises():
    # w2 entries of +/-1e160 give w2 diag(1 - h^2) a top singular value of
    # ~2.8e160, whose square is beyond the float range
    model = mlp1_policy(1, 2, 3, hidden=4, seed=0)
    theta = model.theta.copy()
    w2 = theta[4 * 3 + 4 : 4 * 3 + 4 + 2 * 4]
    w2[:] = np.where(np.arange(w2.size) % 2 == 0, 1e160, -1e160)
    model = model.with_theta(theta)
    with pytest.raises(InvalidInputError, match="sigma_max overflows"):
        policy.sigma_max(model, 0)

    env = ToyEnvironment(2, 1, TableReward(np.array([[0.5, -0.5]])))
    config = TrainerConfig(objective=ObjectiveKind.LCO_MSE, learning_rate=0.1, steps=1, seed=0)
    state = init_trainer(model)
    # theta's sigma_max: no argument is at fault, so the run names its step
    with pytest.raises(NonFiniteModelError, match="^sigma_max overflows: .* at step 0$"):
        train_step(state, env, config, np.random.default_rng(config.seed))
    assert state.model.theta.tobytes() == theta.tobytes()
    assert not state.grad.any()


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("horizon, vocab", [(1, 64), (3, 8), (16, 2)])
def test_an_episode_takes_each_states_sigma_max_bit_for_bit(family, horizon, vocab):
    rng = np.random.default_rng(horizon)
    env = ToyEnvironment(vocab, horizon, TableReward(rng.uniform(-1.0, 1.0, (horizon, vocab))))
    fresh = {
        Family.TABULAR: lambda: tabular_policy(env.n_states, vocab),
        Family.LINEAR: lambda: linear_policy(env.n_states, vocab, 3, seed=horizon),
        Family.MLP1: lambda: mlp1_policy(env.n_states, vocab, 3, hidden=16, seed=horizon),
    }[family]()
    model = fresh.with_theta(rng.uniform(-2.0, 2.0, fresh.n_params))
    config = TrainerConfig(objective=ObjectiveKind.LCO_MSE, steps=1, seed=horizon)
    for seed in range(5):
        state = init_trainer(model)
        rollout = rollout_episode(state, env, config, np.random.default_rng(seed))
        episode = episode_eval(state, env, config, rollout)
        sigmas = policy._sigma_maxes(model, rollout.states, [hidden for *_, hidden in episode.timesteps])
        per_state = [policy.sigma_max(model, s) for s in rollout.states]
        assert np.array(sigmas).tobytes() == np.array(per_state).tobytes()


@pytest.mark.parametrize("nan_at, overflow_at", [(2, None), (None, 2), (2, 1), (1, 2)])
def test_an_episode_raises_the_sigma_max_error_of_its_first_state_that_has_one(nan_at, overflow_at):
    # three MLP1 states of a V = 3 / H = 3 episode; B = w2 diag(1 - h^2) is NaN
    # where the state's features are, and overflows under w2 entries of
    # +/-1e160 where tanh does not saturate (saturated, 1 - h^2 and B are 0)
    model = mlp1_policy(13, 3, 3, hidden=4, seed=0)
    states = (0, 2, 7)
    theta, features = model.theta.copy(), model.features.copy()
    if overflow_at is not None:
        w2 = theta[4 * 3 + 4 : 4 * 3 + 4 + 3 * 4]
        w2[:] = np.where(np.arange(w2.size) % 2 == 0, 1e160, -1e160)
        features[[s for t, s in enumerate(states) if t != overflow_at]] *= 1e6
    if nan_at is not None:
        features[states[nan_at]] = np.nan
    model = dataclasses.replace(model.with_theta(theta), features=features)
    first = min(t for t in (nan_at, overflow_at) if t is not None)
    for state in states[:first]:
        assert math.isfinite(policy.sigma_max(model, state))
    with pytest.raises(InvalidInputError) as per_state:
        policy.sigma_max(model, states[first])
    hiddens = [policy._hidden(model, state) for state in states]
    with pytest.raises(InvalidInputError) as episode:
        policy._sigma_maxes(model, states, hiddens)
    assert str(episode.value) == str(per_state.value)
    assert str(episode.value).startswith("sigma_max overflows" if first == overflow_at else "sigma_max is undefined")


def _overflowing_target_setup():
    # t = 0 is pulled back into the buffer before the target at t = 1 overflows
    env = ToyEnvironment(4, 2, TableReward(np.array([[0.5, -0.5, 0.25, 0.0], [1e300] * 4])))
    config = TrainerConfig(objective=ObjectiveKind.LCO_MSE, learning_rate=0.1, steps=1, beta=1e-10, seed=3)
    return env, config, InvalidInputError


def _non_finite_gradient_setup():
    # the setup of test_non_finite_gradient_aborts
    env = ToyEnvironment(2, 1, TableReward(np.array([[0.0, -1e305]])))
    config = TrainerConfig(objective=ObjectiveKind.PPO, learning_rate=0.1, steps=1, seed=1, temperature=1000.0)
    return env, config, NonFiniteGradientError


@pytest.mark.parametrize("setup", [_overflowing_target_setup, _non_finite_gradient_setup])
def test_a_step_that_raises_leaves_theta_and_the_buffer_as_they_were(setup):
    env, config, error = setup()
    model = tabular_policy(env.n_states, env.vocab_size, init_logits=np.linspace(23.0, 0.0, env.vocab_size))
    state = init_trainer(model)
    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            before, step = state.model.theta.tobytes(), state.step
            try:
                state, _ = train_step(state, env, config, rng)
            except error:
                break
        else:
            pytest.fail("the step never raised")
    assert state.model.theta.tobytes() == before
    assert state.step == step
    assert not state.grad.any()

    # the next step matches one taken from fresh buffers holding the same values
    fresh = TrainerState(state.model.with_theta(state.model.theta.copy()), state.snapshot_theta.copy(), state.step)
    teacher = ToyEnvironment(env.vocab_size, env.horizon, MatchReward((0,) * env.horizon))
    sft = TrainerConfig(objective=ObjectiveKind.SFT, learning_rate=0.1, steps=1)
    after, record = train_step(state, teacher, sft, np.random.default_rng(0))
    expected, expected_record = train_step(fresh, teacher, sft, np.random.default_rng(0))
    assert record == expected_record
    assert after.model.theta.tobytes() == expected.model.theta.tobytes()
    assert after.snapshot_theta.tobytes() == expected.snapshot_theta.tobytes()
    assert not after.grad.any()


def test_a_step_advances_the_state_it_is_given():
    assert list(inspect.signature(TrainerState).parameters) == ["model", "snapshot_theta", "step"]
    env = ToyEnvironment(3, 2, MatchReward((1, 2)))
    config = TrainerConfig(objective=ObjectiveKind.REINFORCE, learning_rate=0.2, steps=1, seed=9, snapshot_interval=2)
    state = init_trainer(tabular_policy(env.n_states, env.vocab_size))

    def owned():
        return state.model.theta, state.snapshot_theta, state.grad, state.window, state.snapshot

    buffers, rng = owned(), np.random.default_rng(0)
    for step in range(1, 6):
        after, record = train_step(state, env, config, rng)
        assert after is state
        assert (state.step, record.step) == (step, step - 1)
        assert all(now is before for now, before in zip(owned(), buffers))


def test_training_never_writes_the_callers_model():
    env = ToyEnvironment(3, 2, MatchReward((1, 2)))
    config = TrainerConfig(objective=ObjectiveKind.REINFORCE, learning_rate=0.2, steps=5, seed=9, snapshot_interval=2)
    for model in (
        tabular_policy(env.n_states, env.vocab_size, init_logits=np.array([0.3, -0.2, 0.1])),
        mlp1_policy(env.n_states, env.vocab_size, 3, hidden=4, seed=1),
    ):
        before = model.theta.tobytes()
        state = init_trainer(model)
        assert not np.shares_memory(state.model.theta, model.theta)
        assert not np.shares_memory(state.snapshot_theta, model.theta)
        train_step(state, env, config, np.random.default_rng(0))
        final, _ = run_training(model, env, config)
        assert model.theta.tobytes() == before
        assert final.theta.tobytes() != before


def test_snapshot_constant_within_window():
    env = ToyEnvironment(2, 1, TableReward(np.array([[1.0, -1.0]])))
    config = TrainerConfig(
        objective=ObjectiveKind.REINFORCE, learning_rate=0.3, steps=1, seed=0, snapshot_interval=3
    )
    model = tabular_policy(env.n_states, env.vocab_size)
    state = init_trainer(model)
    rng = np.random.default_rng(0)
    snapshots = []
    for _ in range(7):
        state, _ = train_step(state, env, config, rng)
        snapshots.append(state.snapshot_theta.copy())
    assert np.array_equal(snapshots[0], snapshots[1]) and np.array_equal(snapshots[1], snapshots[2])
    assert not np.array_equal(snapshots[2], snapshots[3])  # refresh at the window edge
    assert np.array_equal(snapshots[3], snapshots[4]) and np.array_equal(snapshots[4], snapshots[5])


def test_kld_fixed_point_with_frozen_target():
    env = ToyEnvironment(4, 1, TableReward(np.zeros((1, 4))))
    advantages = np.array([0.8, -0.3, 0.1, -0.6])
    z_old = np.array([0.2, -0.5, 0.9, 0.0])
    pi_star = optimal_policy(softmax(z_old), advantages, 1.0)
    config = TrainerConfig(
        objective=ObjectiveKind.LCO_KLD,
        learning_rate=0.5,
        steps=1,
        scorer_table=advantages[None, :],
        seed=0,
        snapshot_interval=100,
    )
    # at the optimum the gradient vanishes
    at_target = tabular_policy(env.n_states, env.vocab_size, init_logits=z_old + advantages)
    away = tabular_policy(env.n_states, env.vocab_size, init_logits=z_old)
    rollout = rollout_episode(init_trainer(away), env, config, np.random.default_rng(0))
    state = init_trainer(at_target)
    episode_eval(state, env, config, rollout)
    assert np.abs(state.grad).max() < 1e-10
    # away from it the gradient does not
    state = init_trainer(away)
    episode_eval(state, env, config, rollout)
    assert np.abs(state.grad).max() > 1e-3
    assert total_variation(softmax(forward(at_target, 0)), pi_star) < 1e-12


def test_non_finite_gradient_aborts():
    # importance weight A / pi_old(a) overflows for a barely-representable
    # behavioral probability paired with an enormous advantage; the hot
    # sampling temperature still reaches that action
    env = ToyEnvironment(2, 1, TableReward(np.array([[0.0, -1e305]])))
    config = TrainerConfig(
        objective=ObjectiveKind.PPO,
        learning_rate=0.1,
        steps=1,
        seed=1,
        temperature=1000.0,
        top_p=1.0,
    )
    model = tabular_policy(env.n_states, env.vocab_size, init_logits=np.array([23.0, 0.0]))
    state = init_trainer(model)
    rng = np.random.default_rng(1)
    with pytest.raises(NonFiniteGradientError), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            state, _ = train_step(state, env, config, rng)


@pytest.mark.parametrize(
    "family, vocab_size, objective",
    [(Family.TABULAR, 64, ObjectiveKind.LCO_KLD), (Family.MLP1, 8, ObjectiveKind.PPO)],
)
def test_training_never_builds_the_dense_jacobian(family, vocab_size, objective):
    # the dense builder is a test oracle: no library module binds it
    for name, module in list(sys.modules.items()):
        if name.startswith("lco_lab"):
            assert not hasattr(module, "jacobian") and not hasattr(module, "JacobianInfo"), name

    env = ToyEnvironment(vocab_size, 3, MatchReward((1, 0, 2)))
    if family is Family.TABULAR:
        model = tabular_policy(env.n_states, vocab_size)
    else:
        model = mlp1_policy(env.n_states, vocab_size, 3, hidden=6, seed=4)
    config = TrainerConfig(objective=objective, learning_rate=0.1, steps=3, seed=5)
    final, records = run_training(model, env, config)
    assert len(records) == 3 and all(np.isfinite(r.bound_value) for r in records)
    assert not np.array_equal(final.theta, model.theta)


def test_grad_clip_norm_caps_the_update_and_logs_the_raw_norm(tmp_path):
    cfg = tmp_path / "clip.cfg"
    cfg.write_text(
        "[training]\nobjective = REINFORCE\nlearning_rate = 0.5\nsteps = 1\nseed = 2\ngrad_clip_norm = 0.01\n"
    )
    clipped = build_trainer(parse_config(cfg))
    assert clipped.grad_clip_norm == 0.01
    free = TrainerConfig(objective=ObjectiveKind.REINFORCE, learning_rate=0.5, steps=1, seed=2)

    env = ToyEnvironment(3, 2, MatchReward((1, 2)))
    model = tabular_policy(env.n_states, env.vocab_size)
    updates, raw_norms = [], []
    for config in (free, clipped):
        state, record = train_step(init_trainer(model), env, config, np.random.default_rng(2))
        updates.append(state.model.theta - model.theta)
        raw_norms.append(record.grad_norm_param)

    assert raw_norms[0] == raw_norms[1] > 0.01
    assert abs(np.linalg.norm(updates[0]) - 0.5 * raw_norms[0]) <= 1e-12 * raw_norms[0]
    assert abs(np.linalg.norm(updates[1]) - 0.5 * 0.01) <= 1e-15
    # clipping rescales the step, it does not turn it
    assert np.allclose(updates[1] * raw_norms[0] / 0.01, updates[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "ref, short",
    [
        (False, "scorer_table"),
        (True, "scorer_table"),
        (True, "ref_table"),
    ],
)
def test_table_shorter_than_the_horizon_is_rejected(ref, short):
    env = ToyEnvironment(3, 2, MatchReward((1, 2)))
    tables = {"scorer_table": np.full((2, 3), -1.1), "ref_table": np.full((2, 3), -1.0)}
    tables[short] = tables[short][:1]
    if not ref:
        del tables["ref_table"]
    config = TrainerConfig(objective=ObjectiveKind.LCO_MSE, learning_rate=0.1, steps=1, **tables)
    model = tabular_policy(env.n_states, env.vocab_size)
    with pytest.raises(InvalidInputError, match=rf"{short} has 1 rows but the horizon is 2"):
        train_step(init_trainer(model), env, config, np.random.default_rng(0))


def test_a_scorer_table_row_of_another_width_is_rejected():
    env = ToyEnvironment(2, 1, MatchReward((0,)))
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, steps=1, scorer_table=np.full((1, 3), -1.0))
    model = tabular_policy(env.n_states, env.vocab_size)
    with pytest.raises(InvalidInputError, match="^scorer_table rows must have length 2, got 3$"):
        train_step(init_trainer(model), env, config, np.random.default_rng(0))


VALID = dict(objective=ObjectiveKind.SFT, learning_rate=0.1, steps=3)


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", 0.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("steps", 0),
        ("steps", 2.5),
        ("steps", "3"),
        ("steps", True),
        ("snapshot_interval", 0),
        ("snapshot_interval", 2.0),
        ("beta", 0.0),
        ("beta", float("nan")),
        ("clip_epsilon", 0.0),
        ("clip_epsilon", 1.0),
        ("clip_epsilon", float("nan")),
        ("grad_clip_norm", 0.0),
        ("grad_clip_norm", -1.0),
        ("grad_clip_norm", float("nan")),
        ("grad_clip_norm", float("inf")),
        ("temperature", 0.0),
        ("temperature", -1.0),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("top_p", 0.0),
        ("top_p", 1.5),
        ("top_p", float("nan")),
        ("scorer_table", np.zeros(3)),
        ("ref_table", np.zeros((1, 2, 3))),
        ("seed", -1),
        ("seed", 2.0),
        ("seed", True),
    ],
)
def test_trainer_config_rejects_unusable_values(tmp_path, field, value):
    # rejected for SFT too, which never samples or builds a clipped-surrogate context
    with pytest.raises(InvalidInputError, match=field):
        TrainerConfig(**{**VALID, field: value})
    TrainerConfig(**VALID)
    if isinstance(value, float):
        # through a config file the error reaches the CLI as a ConfigError
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[training]\nobjective = SFT\n{field} = {value}\n")
        with pytest.raises(ConfigError, match=field):
            build_trainer(parse_config(cfg))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("ref_table", np.zeros((1, 3)), "ref_table is given without a scorer_table"),
        ("ref_table", np.full((1, 3), np.nan), "ref_table is given without a scorer_table"),
        ("normalize", True, "normalize is set without a scorer_table"),
    ],
)
def test_a_field_only_a_scorer_table_gives_meaning_is_rejected_without_one(name, value, message):
    # ignoring it would let a field with no effect, even a NaN table, pass unseen
    with pytest.raises(InvalidInputError, match=message):
        TrainerConfig(**VALID, **{name: value})
    # with a scorer table the run reads it
    TrainerConfig(**VALID, scorer_table=np.zeros((1, 3)), **{name: {"ref_table": np.zeros((1, 3))}.get(name, value)})


def test_sft_requires_match_reward():
    env = ToyEnvironment(2, 1, TableReward(np.zeros((1, 2))))
    config = TrainerConfig(objective=ObjectiveKind.SFT, learning_rate=0.1, steps=1)
    model = tabular_policy(env.n_states, env.vocab_size)
    with pytest.raises(InvalidInputError):
        rollout_episode(init_trainer(model), env, config, np.random.default_rng(0))


# --- convergence experiments -------------------------------------------------


def test_converge_tabular_mse_geometric_decay():
    config = ConvergeConfig(ObjectiveKind.LCO_MSE, advantages=np.array([1.0, -0.5, 0.25, 0.0]), eta=0.1, steps=50)
    result = converge_experiment(tabular_policy(1, 4), config)
    assert abs(result.rho - 0.95) < 1e-15
    assert converge_violations(result) == 0
    losses = result.loss.tolist()
    # per-step decay factor is exactly rho^2; the loss halves every ~6.76 steps
    for a, b in zip(losses, losses[1:]):
        assert abs(b / a - 0.95**2) < 1e-12
    assert abs(losses[7] / losses[0] - 0.95**14) < 1e-12


def test_converge_zero_advantage_stays_zero():
    config = ConvergeConfig(ObjectiveKind.LCO_MSE, advantages=np.zeros(3), eta=0.2, steps=20)
    result = converge_experiment(tabular_policy(1, 3), config)
    assert np.all(result.loss == 0.0)


def test_converge_linear_bound_holds_over_500_steps():
    rng = np.random.default_rng(31)
    config = ConvergeConfig(ObjectiveKind.LCO_MSE, advantages=rng.uniform(-1, 1, 3), eta=0.05, steps=500)
    result = converge_experiment(linear_policy(1, 3, 4, seed=8), config)
    assert result.rho < 1.0
    assert converge_violations(result) == 0


def test_converge_lch_bound_inside_neighborhood():
    config = ConvergeConfig(ObjectiveKind.LCO_LCH, advantages=np.array([0.4, -0.3, 0.2, -0.1]), eta=1.0, steps=300)
    result = converge_experiment(tabular_policy(1, 4), config)
    assert converge_violations(result) == 0
    assert np.all(result.residual_inf <= 0.5)


def test_converge_rejects_divergent_step_size():
    config = ConvergeConfig(ObjectiveKind.LCO_MSE, advantages=np.ones(4), eta=4.1, steps=10)
    with pytest.raises(StepSizeError) as excinfo:
        converge_experiment(tabular_policy(1, 4), config)
    assert excinfo.value.rho >= 1.0


def test_converge_rejects_wrong_kinds():
    wrong = "^objective must be LCO_MSE or LCO_LCH for a convergence run, got PPO$"
    with pytest.raises(InvalidInputError, match=wrong):
        ConvergeConfig(ObjectiveKind.PPO, advantages=np.ones(2), eta=0.1, steps=5)
    config = ConvergeConfig(ObjectiveKind.LCO_MSE, advantages=np.ones(2), eta=0.1, steps=5)
    with pytest.raises(InvalidInputError, match="J J\\^T = lam I"):
        converge_experiment(mlp1_policy(1, 2), config)


CONVERGE_VALID = dict(
    objective=ObjectiveKind.LCO_MSE, advantages=np.array([1.0, -0.5, 0.25, 0.0]), eta=0.1, steps=5
)


@pytest.mark.parametrize(
    "model, message",
    [
        (tabular_policy(1, 3), "advantages must be a 1-D vector of length 3"),
        (linear_policy(1, 5), "advantages must be a 1-D vector of length 5"),
        (tabular_policy(2, 4), "single-state model"),
    ],
)
def test_converge_rejects_a_model_the_config_does_not_fit(model, message):
    config = ConvergeConfig(**CONVERGE_VALID)
    with pytest.raises(InvalidInputError, match=message):
        converge_experiment(model, config)


@pytest.mark.parametrize(
    "field, value",
    [
        ("beta", 0.0),
        ("beta", -1.0),
        ("beta", float("nan")),
        ("eta", 0.0),
        ("eta", -0.1),
        ("eta", float("nan")),
        ("eta", float("inf")),
        ("steps", -3),
        ("steps", 0),
        ("steps", 2.5),
        ("steps", True),
        ("advantages", np.ones((2, 2))),
        ("advantages", np.array([1.0, np.nan, 0.0, 0.0])),
        ("z_old", np.zeros(5)),
        ("z_old", np.array([np.inf, 0.0, 0.0, 0.0])),
    ],
)
def test_converge_config_rejects_unusable_values(field, value):
    with pytest.raises(InvalidInputError, match=field):
        ConvergeConfig(**{**CONVERGE_VALID, field: value})
    ConvergeConfig(**CONVERGE_VALID)


@pytest.mark.parametrize("objective", [ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH])
@pytest.mark.parametrize("feature_dim", range(1, 9))
def test_converge_closed_form_matches_the_dense_jacobian_recursion(feature_dim, objective):
    # reference: rho from the spectrum of the dense J J^T, the start as the
    # least-squares solution of J theta = z_old, and the residual pushed
    # through r <- r - eta*c*J J^T r
    rng = np.random.default_rng(40 + feature_dim)
    v = int(rng.integers(2, 9))
    z_old = rng.uniform(-1.0, 1.0, v)
    advantages = rng.uniform(-2.0, 2.0, v)
    beta = float(rng.uniform(0.5, 2.0))
    seed = int(rng.integers(10_000))
    model = linear_policy(1, v, feature_dim, seed=seed)
    J = jacobian(model, 0).J
    gram = J @ J.T
    eigenvalues = np.linalg.eigvalsh(gram)
    c = (2.0 if objective is ObjectiveKind.LCO_MSE else 1.0) / v
    eta = float(rng.uniform(0.1, 1.9)) / (c * eigenvalues.max())
    rho = float(np.abs(1.0 - eta * c * eigenvalues).max())

    config = ConvergeConfig(objective, advantages, eta, steps=80, beta=beta, z_old=z_old)
    result = converge_experiment(model, config)
    assert abs(result.rho - rho) <= 1e-14
    theta_0 = np.linalg.lstsq(J, z_old, rcond=None)[0]
    residual = J @ theta_0 - (z_old + advantages / beta)
    for loss, residual_inf in zip(result.loss, result.residual_inf):
        assert rel_close(loss, evaluate(objective, residual, np.zeros(v)).value, rel=1e-12, floor=1e-300)
        assert rel_close(residual_inf, np.abs(residual).max(), rel=1e-12, floor=1e-300)
        residual = residual - eta * c * (gram @ residual)


def test_an_infinite_beta_anchors_the_run_at_z_old():
    # beta lies in (0, inf] wherever it is read: A / inf = 0, so the target is z_old itself
    config = ConvergeConfig(**{**CONVERGE_VALID, "beta": float("inf"), "z_old": np.array([0.5, 0.0, -0.5, 1.0])})
    result = converge_experiment(tabular_policy(1, 4), config)
    assert np.all(result.loss == 0.0) and np.all(result.bound == 0.0)
    assert converge_violations(result) == 0


def test_converge_rejects_an_overflowing_envelope_anchor():
    # A / beta = 1e170 is finite, ||A||^2 / beta^2 is not
    config = ConvergeConfig(**{**CONVERGE_VALID, "beta": 1e-170})
    with pytest.raises(InvalidInputError, match="beta"):
        converge_experiment(tabular_policy(1, 4), config)


# sha256 of the loss, bound, residual_inf and rho columns of the four runs
# (TABULAR and LINEAR x LCO_MSE and LCO_LCH) of each ``_pinned_draw``,
# recorded before the run took its model from the family constructors
PINNED_CONVERGENCE = (
    "c64203481518065ef4a54fc449ed0001a8b30d37093c55fc48a0d36661f07289",
    "46bfc3b9013e4ce947397caa82001908b40a16c48c939360bcd7b5bcf33a5722",
    "be4d947d2d7706dc8387ab92344a8c42550249df70d7acc5fc3016b890d8d7a7",
    "366c8229ed5667f1759cbee6060af8caf20d93b639531ce0e7123e78831c3851",
    "48083df50e0d5ff315215406c7cafd89918cd92ae78d3bf1f0975f3b68d0bbb8",
    "d4765af51f3daa0ddc1eb2d3c594d5f7d6ab87a40a870a53817ce51f0ef92f8a",
    "2846693269890538ddeeee8bd75597418adf533d6e07eb57261c9ed170bd5279",
    "521e6139b6c1a0adc7355c5d82a65993b22e370abeec208030328e3b1b7ec528",
    "185dfe08a47ac72c1418c152b55dd5c8bdab58e1c5e9bb01fca936b640e86ad3",
    "be6fc49b71329d9ca5295fbe650f8075d6747a9d04a738b7a39fabe3c398d357",
    "b21a2b075471d620c5f14b5b37ce7f87b3155ac3790193cd031665a741579958",
    "607c3af92853ed19bbcb61c76f5c63051c749952d5796aa0668ebcf7bcf522aa",
    "a1cca82428701a178cbb9483b811a71aa2f2bccace98cd0df2414801a1fee52e",
    "5a93c318888402afb05be234e9e76da637f14cd95eb4a2e9bff85014a1caaf42",
    "32e834540cefcd22e3545e17737077ddf9b66e3279c62663190eb148079b911b",
    "cf2128f8e64fb21cd660fb3ab592ee6fb94a3a88ac3e28bdcbe3920544dd130c",
    "f79dc2be8ff0ad0c6b593833d9234cc4f581b43cc1ce885af716b3cf6c86032a",
    "b4bbd5d141839a86c584187bccc73565e07cc94294b9f947a79bcbaa8fbdaa94",
    "b39024493aaf2203e9b2a336bc56573006f73be0fb6cf8c6a2e6e2f197e3aca6",
    "5e1df140115ae9fb81a4c11395488479d3b89b4a8db1d56d533da0942853a62b",
)


def _pinned_draw(index):
    rng = np.random.default_rng(index)
    v = round(2.0 ** rng.uniform(1.0, 6.0))  # 2 to 64, log-uniform
    feature_dim = int(rng.integers(1, 9))
    seed = int(rng.integers(10_000))
    advantages = rng.uniform(-2.0, 2.0, v)
    z_old = rng.uniform(-1.0, 1.0, v) if rng.random() < 0.8 else None
    beta = float(rng.uniform(0.5, 2.0))
    u = float(rng.uniform(0.1, 1.9))
    steps = int(rng.integers(1, 300))
    return v, feature_dim, seed, advantages, z_old, beta, u, steps


@pytest.mark.parametrize("index", range(len(PINNED_CONVERGENCE)))
def test_converge_reproduces_its_pinned_digests(index):
    v, feature_dim, seed, advantages, z_old, beta, u, steps = _pinned_draw(index)
    digest = hashlib.sha256()
    for model in (tabular_policy(1, v), linear_policy(1, v, feature_dim, seed=seed)):
        for objective in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH):
            # sigma_max^2 is the kernel scale lam up to its last bit, the same at either commit
            eta = u / (CURVATURE[objective] / v * policy.sigma_max(model, 0) ** 2)
            result = converge_experiment(model, ConvergeConfig(objective, advantages, eta, steps, beta, z_old))
            for column in (result.loss, result.bound, result.residual_inf, np.float64(result.rho)):
                digest.update(np.asarray(column).tobytes())
    assert digest.hexdigest() == PINNED_CONVERGENCE[index]


def test_envelope_violations_count_only_steps_beyond_the_slack():
    def record(grad_norm, bound):
        return DynamicsRecord(0, 1.0, grad_norm, 0.0, 0.0, 0.5, 0.5, "positive", bound)

    at_slack = 2.0 + BOUND_SLACK
    assert envelope_violations([record(at_slack, 2.0)]) == 0
    assert envelope_violations([record(np.nextafter(at_slack, np.inf), 2.0)]) == 1
    # a record without an envelope is never a violation
    assert envelope_violations([record(1e300, None), record(at_slack, 2.0), record(3.0, 2.0)]) == 1
