import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lco_lab import dist, policy
from lco_lab.config import ConfigError, build_trainer, parse_config
from lco_lab.dist import softmax, total_variation
from lco_lab.envs import MatchReward, TableReward, ToyEnvironment
from lco_lab.errors import InvalidInputError, NonFiniteGradientError, StepSizeError
from lco_lab.objectives import ObjectiveKind, evaluate
from lco_lab.policy import Family, forward, linear_policy, mlp1_policy, tabular_policy
from lco_lab.targets import EstimatorKind, optimal_policy
from lco_lab.training import (
    ConvergeConfig,
    TrainerConfig,
    TrainerState,
    converge_experiment,
    converge_violations,
    episode_eval,
    init_trainer,
    rollout_episode,
    run_training,
    train_step,
)

from oracles import jacobian, rel_close


def test_environment_state_indexing():
    env = ToyEnvironment(3, 3, MatchReward((0, 1, 2)))
    assert env.n_states == 1 + 3 + 9
    assert env.state_index(()) == 0
    assert env.state_index((0,)) == 1
    assert env.state_index((2,)) == 3
    assert env.state_index((1, 2)) == 4 + 1 * 3 + 2
    with pytest.raises(InvalidInputError):
        env.state_index((0, 1, 2))  # terminal sequences are not states


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
    table = ToyEnvironment(2, 2, TableReward(np.array([[0.5, -0.5], [1.0, 0.0]])))
    assert table.terminal_reward((1, 0)) == 0.5
    assert table.sampled_advantage((1, 0), 0) == -0.5


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
        estimator=EstimatorKind.DENSE_LOGPROB,
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
        estimator=EstimatorKind.SPARSE_SAMPLED,
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

    rollout = rollout_episode(model, env, config, np.random.default_rng(config.seed), {})
    episode = episode_eval(model, env, config, rollout, {})

    step = 1e-5
    numeric = np.zeros(model.n_params)
    for i in range(model.n_params):
        bump = np.zeros(model.n_params)
        bump[i] = step
        hi = episode_eval(model.with_theta(model.theta + bump), env, config, rollout, {}).loss
        lo = episode_eval(model.with_theta(model.theta - bump), env, config, rollout, {}).loss
        numeric[i] = (hi - lo) / (2 * step)
    assert rel_close(episode.grad_theta, numeric, rel=1e-5, floor=1e-7)


def test_episode_eval_sums_into_one_gradient_buffer():
    env = ToyEnvironment(64, 3, MatchReward((1, 0, 2)))
    model = tabular_policy(env.n_states, env.vocab_size)
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, learning_rate=0.1, steps=1, seed=5)
    rollout = rollout_episode(model, env, config, np.random.default_rng(5), {})
    episode_eval(model, env, config, rollout, {})  # warm caches outside the trace
    tracemalloc.start()
    try:
        episode = episode_eval(model, env, config, rollout, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert episode.grad_theta.nbytes == model.n_params * 8
    assert peak < 1.5 * model.n_params * 8


def test_episode_eval_into_out_writes_only_its_spans():
    env = ToyEnvironment(8, 3, MatchReward((1, 0, 2)))
    config = TrainerConfig(objective=ObjectiveKind.PPO, learning_rate=0.1, steps=1, seed=5)
    for model in (
        tabular_policy(env.n_states, env.vocab_size),
        linear_policy(env.n_states, env.vocab_size, 3, seed=2),
        mlp1_policy(env.n_states, env.vocab_size, 3, hidden=6, seed=4),
    ):
        rollout = rollout_episode(model, env, config, np.random.default_rng(5), {})
        fresh = episode_eval(model, env, config, rollout, {})
        out = np.zeros(model.n_params)
        episode = episode_eval(model, env, config, rollout, {}, out=out)
        assert episode.grad_theta is out and out.tobytes() == fresh.grad_theta.tobytes()
        touched = np.zeros(model.n_params, dtype=bool)
        for span in episode.spans:
            assert not touched[span].any()  # disjoint
            touched[span] = True
        assert not out[~touched].any()
        tabular = model.family is Family.TABULAR
        assert touched.sum() == (env.horizon * env.vocab_size if tabular else model.n_params)
        n = model.n_params
        for bad in (np.zeros(n + 1), np.zeros(n, dtype=np.float32), [0.0] * n):
            with pytest.raises(InvalidInputError, match="out must be"):
                episode_eval(model, env, config, rollout, {}, out=bad)


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
    # the sparse advantages, the pullback into the buffer and the logged
    # record read kernels: a step checks each array once, where it is made
    env = ToyEnvironment(4, 3, MatchReward((1, 0, 2)))
    if family is Family.TABULAR:
        model = tabular_policy(env.n_states, env.vocab_size)
    elif family is Family.LINEAR:
        model = linear_policy(env.n_states, env.vocab_size, 3, seed=2)
    else:
        model = mlp1_policy(env.n_states, env.vocab_size, 3, hidden=4, seed=2)
    config = TrainerConfig(objective=kind, learning_rate=0.1, steps=3, estimator=EstimatorKind.SPARSE_SAMPLED)
    state = init_trainer(model)
    rng = np.random.default_rng(5)
    state, _ = train_step(state, env, config, rng)  # warm
    calls = _count_calls(monkeypatch, [(dist, "as_advantages"), (policy, "pullback"), (np, "delete")])
    for _ in range(2):
        state, _ = train_step(state, env, config, rng)
    assert state.step == 3
    assert calls == Counter()
    # the counters do count: each function once through its module
    dist.as_advantages(np.zeros(2))
    policy.pullback(model, 0, np.zeros(env.vocab_size))
    np.delete(np.zeros(2), 0)
    assert calls == Counter(as_advantages=1, pullback=1, delete=1)


@pytest.mark.parametrize("estimator", [EstimatorKind.DENSE_LOGPROB, EstimatorKind.DENSE_DPO_RATIO])
@pytest.mark.parametrize("normalize", [False, True])
def test_dense_train_steps_build_no_advantages(monkeypatch, estimator, normalize):
    # the config checks each table row and builds its advantage vector once
    env = ToyEnvironment(4, 3, MatchReward((1, 0, 2)))
    rng = np.random.default_rng(3)
    tables = {"scorer_table": rng.normal(-1.5, 1.0, (3, 4))}
    if estimator is EstimatorKind.DENSE_DPO_RATIO:
        tables["ref_table"] = rng.normal(-1.5, 1.0, (3, 4))
    config = TrainerConfig(
        objective=ObjectiveKind.LCO_KLD,
        learning_rate=0.1,
        steps=3,
        estimator=estimator,
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
    action = rollout_episode(model, env, config, np.random.default_rng(0), {}).actions[0]
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
            before = state.model.theta.tobytes()
            try:
                state, _ = train_step(state, env, config, rng)
            except error:
                break
        else:
            pytest.fail("the step never raised")
    assert state.model.theta.tobytes() == before
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
        estimator=EstimatorKind.DENSE_LOGPROB,
        scorer_table=advantages[None, :],
        seed=0,
        snapshot_interval=100,
    )
    # at the optimum the gradient vanishes
    at_target = tabular_policy(env.n_states, env.vocab_size, init_logits=z_old + advantages)
    rollout = rollout_episode(
        tabular_policy(env.n_states, env.vocab_size, init_logits=z_old), env, config,
        np.random.default_rng(0), {},
    )
    grad = episode_eval(at_target, env, config, rollout, {}).grad_theta
    assert np.abs(grad).max() < 1e-10
    # away from it the gradient does not
    away = tabular_policy(env.n_states, env.vocab_size, init_logits=z_old)
    grad = episode_eval(away, env, config, rollout, {}).grad_theta
    assert np.abs(grad).max() > 1e-3
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
    "estimator, short",
    [
        (EstimatorKind.DENSE_LOGPROB, "scorer_table"),
        (EstimatorKind.DENSE_DPO_RATIO, "scorer_table"),
        (EstimatorKind.DENSE_DPO_RATIO, "ref_table"),
    ],
)
def test_table_shorter_than_the_horizon_is_rejected(estimator, short):
    env = ToyEnvironment(3, 2, MatchReward((1, 2)))
    tables = {"scorer_table": np.full((2, 3), -1.1), "ref_table": np.full((2, 3), -1.0)}
    tables[short] = tables[short][:1]
    if estimator is EstimatorKind.DENSE_LOGPROB:
        del tables["ref_table"]
    config = TrainerConfig(
        objective=ObjectiveKind.LCO_MSE, learning_rate=0.1, steps=1, estimator=estimator, **tables
    )
    model = tabular_policy(env.n_states, env.vocab_size)
    with pytest.raises(InvalidInputError, match=rf"{short} has 1 rows but the horizon is 2"):
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
    "estimator, name, table",
    [
        (EstimatorKind.SPARSE_SAMPLED, "scorer_table", np.full((1, 3), np.nan)),
        (EstimatorKind.SPARSE_SAMPLED, "ref_table", np.zeros((1, 3))),
        (EstimatorKind.DENSE_LOGPROB, "ref_table", np.full((1, 3), np.inf)),
    ],
)
def test_a_table_the_estimator_never_reads_is_rejected(estimator, name, table):
    # ignoring it would let a table with no effect, even a NaN one, pass unseen
    tables = {"scorer_table": np.zeros((1, 3))} if estimator is EstimatorKind.DENSE_LOGPROB else {}
    with pytest.raises(InvalidInputError, match=f"{name} is given but the {estimator.value} estimator does not read"):
        TrainerConfig(**VALID, estimator=estimator, **tables, **{name: table})


def test_sft_requires_match_reward():
    env = ToyEnvironment(2, 1, TableReward(np.zeros((1, 2))))
    config = TrainerConfig(objective=ObjectiveKind.SFT, learning_rate=0.1, steps=1)
    model = tabular_policy(env.n_states, env.vocab_size)
    with pytest.raises(InvalidInputError):
        rollout_episode(model, env, config, np.random.default_rng(0), {})


# --- convergence experiments -------------------------------------------------


def test_converge_tabular_mse_geometric_decay():
    config = ConvergeConfig(vocab_size=4, advantages=np.array([1.0, -0.5, 0.25, 0.0]), eta=0.1, steps=50)
    result = converge_experiment(Family.TABULAR, ObjectiveKind.LCO_MSE, config)
    assert abs(result.rho - 0.95) < 1e-15
    assert converge_violations(result) == 0
    losses = result.loss.tolist()
    # per-step decay factor is exactly rho^2; the loss halves every ~6.76 steps
    for a, b in zip(losses, losses[1:]):
        assert abs(b / a - 0.95**2) < 1e-12
    assert abs(losses[7] / losses[0] - 0.95**14) < 1e-12


def test_converge_zero_advantage_stays_zero():
    config = ConvergeConfig(vocab_size=3, advantages=np.zeros(3), eta=0.2, steps=20)
    result = converge_experiment(Family.TABULAR, ObjectiveKind.LCO_MSE, config)
    assert np.all(result.loss == 0.0)


def test_converge_linear_bound_holds_over_500_steps():
    rng = np.random.default_rng(31)
    config = ConvergeConfig(
        vocab_size=3, advantages=rng.uniform(-1, 1, 3), eta=0.05, steps=500, feature_dim=4, seed=8
    )
    result = converge_experiment(Family.LINEAR, ObjectiveKind.LCO_MSE, config)
    assert result.rho < 1.0
    assert converge_violations(result) == 0


def test_converge_lch_bound_inside_neighborhood():
    config = ConvergeConfig(vocab_size=4, advantages=np.array([0.4, -0.3, 0.2, -0.1]), eta=1.0, steps=300)
    result = converge_experiment(Family.TABULAR, ObjectiveKind.LCO_LCH, config)
    assert converge_violations(result) == 0
    assert np.all(result.residual_inf <= 0.5)


def test_converge_rejects_divergent_step_size():
    config = ConvergeConfig(vocab_size=4, advantages=np.ones(4), eta=4.1, steps=10)
    with pytest.raises(StepSizeError) as excinfo:
        converge_experiment(Family.TABULAR, ObjectiveKind.LCO_MSE, config)
    assert excinfo.value.rho >= 1.0


def test_converge_rejects_wrong_kinds():
    config = ConvergeConfig(vocab_size=2, advantages=np.ones(2), eta=0.1, steps=5)
    with pytest.raises(InvalidInputError):
        converge_experiment(Family.TABULAR, ObjectiveKind.PPO, config)
    with pytest.raises(InvalidInputError):
        converge_experiment(Family.MLP1, ObjectiveKind.LCO_MSE, config)


CONVERGE_VALID = dict(vocab_size=4, advantages=np.array([1.0, -0.5, 0.25, 0.0]), eta=0.1, steps=5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("beta", 0.0),
        ("beta", -1.0),
        ("beta", float("nan")),
        ("beta", float("inf")),
        ("eta", 0.0),
        ("eta", -0.1),
        ("eta", float("nan")),
        ("eta", float("inf")),
        ("steps", -3),
        ("steps", 0),
        ("steps", 2.5),
        ("steps", True),
        ("vocab_size", 1),
        ("vocab_size", 4.0),
        ("feature_dim", 0),
        ("seed", -1),
        ("advantages", np.ones(3)),
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
    # reference: rho from the spectrum of the dense J J^T and the residual
    # pushed through r <- r - eta*c*J J^T r, on the experiment's own model
    rng = np.random.default_rng(40 + feature_dim)
    v = int(rng.integers(2, 9))
    z_old = rng.uniform(-1.0, 1.0, v)
    advantages = rng.uniform(-2.0, 2.0, v)
    beta = float(rng.uniform(0.5, 2.0))
    seed = int(rng.integers(10_000))
    model = linear_policy(1, v, feature_dim, seed=seed)
    phi = model.features[0]
    model = model.with_theta((np.outer(z_old, phi) / float(phi @ phi)).ravel())
    J = jacobian(model, 0).J
    gram = J @ J.T
    eigenvalues = np.linalg.eigvalsh(gram)
    c = (2.0 if objective is ObjectiveKind.LCO_MSE else 1.0) / v
    eta = float(rng.uniform(0.1, 1.9)) / (c * eigenvalues.max())
    rho = float(np.abs(1.0 - eta * c * eigenvalues).max())

    config = ConvergeConfig(
        vocab_size=v, advantages=advantages, eta=eta, steps=80, beta=beta,
        feature_dim=feature_dim, seed=seed, z_old=z_old,
    )
    result = converge_experiment(Family.LINEAR, objective, config)
    assert abs(result.rho - rho) <= 1e-14
    residual = forward(model, 0) - (z_old + advantages / beta)
    for loss, residual_inf in zip(result.loss, result.residual_inf):
        assert rel_close(loss, evaluate(objective, residual, np.zeros(v)).value, rel=1e-12, floor=1e-300)
        assert rel_close(residual_inf, np.abs(residual).max(), rel=1e-12, floor=1e-300)
        residual = residual - eta * c * (gram @ residual)


def test_converge_rejects_an_overflowing_envelope_anchor():
    # A / beta = 1e170 is finite, ||A||^2 / beta^2 is not
    config = ConvergeConfig(**{**CONVERGE_VALID, "beta": 1e-170})
    with pytest.raises(InvalidInputError, match="beta"):
        converge_experiment(Family.TABULAR, ObjectiveKind.LCO_MSE, config)
