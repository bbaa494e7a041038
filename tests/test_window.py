"""The trainer's snapshot window: what it stores, what a rollout that raises
leaves in it, and that a step reading from it equals a step computing
everything afresh."""

import itertools

import numpy as np
import pytest

from lco_lab.envs import TableReward, ToyEnvironment
from lco_lab.errors import NonFiniteModelError
from lco_lab.objectives import ObjectiveKind
from lco_lab.policy import Family, tabular_policy
from lco_lab.training import WINDOW_CAP, TrainerConfig, TrainerState, init_trainer, rollout_episode, train_step

from test_step_identity import _log_prob_table, _model, assert_steps_identical

# each family at a frozen and a refreshing snapshot, under a policy target,
# a logit target and no target, with sparse and dense advantages
WINDOW_CASES = [
    (family, interval, (ObjectiveKind.LCO_KLD, ObjectiveKind.LCO_LCH, ObjectiveKind.PPO)[i % 3], i // 2 % 2 == 1)
    for i, (family, interval) in enumerate(itertools.product(Family, (10**6, 3)))
]


@pytest.mark.parametrize("case", range(len(WINDOW_CASES)))
def test_window_steps_match_the_public_reference(case):
    family, interval, kind, dense = WINDOW_CASES[case]
    rng = np.random.default_rng(500 + case)
    env = ToyEnvironment(3, 2, TableReward(rng.uniform(-1.0, 1.0, (2, 3))))
    config = TrainerConfig(
        objective=kind,
        learning_rate=0.3,
        steps=1,
        beta=0.5,
        normalize=dense,
        seed=case,
        snapshot_interval=interval,
        temperature=0.7,
        top_p=0.9,
        scorer_table=_log_prob_table(rng, 2, 3) if dense else None,
    )
    assert assert_steps_identical(_model(family, env, rng), env, config, steps=200) is None


def _copy(state):
    """The same iterate on fresh buffers, with an empty window."""
    return TrainerState(state.model.with_theta(state.model.theta.copy()), state.snapshot_theta.copy(), state.step)


def test_changing_the_config_between_steps_matches_a_fresh_state():
    # the nucleus is kept per (temperature, top_p), a target per (form, beta, A)
    env = ToyEnvironment(4, 2, TableReward(np.random.default_rng(1).uniform(-1.0, 1.0, (2, 4))))
    model = tabular_policy(env.n_states, env.vocab_size, init_logits=np.array([0.9, 0.3, -0.2, 0.1]))
    base = dict(learning_rate=0.2, steps=1, snapshot_interval=10**6)
    state, rng = init_trainer(model), np.random.default_rng(0)
    for _ in range(30):
        state, _ = train_step(state, env, TrainerConfig(objective=ObjectiveKind.LCO_KLD, **base), rng)
    assert state.window
    for kind, beta, temperature, top_p in (
        (ObjectiveKind.LCO_KLD, 1.0, 0.2, 1.0),
        (ObjectiveKind.LCO_KLD, 1.0, 1.0, 0.4),
        (ObjectiveKind.LCO_KLD, 0.3, 3.0, 0.6),
        (ObjectiveKind.LCO_MSE, 0.3, 3.0, 0.6),
        (ObjectiveKind.LCO_KLD, 1.0, 1.0, 1.0),
    ):
        config = TrainerConfig(objective=kind, beta=beta, temperature=temperature, top_p=top_p, **base)
        seed = int(rng.integers(2**31))
        fresh = _copy(state)
        cached = rollout_episode(state, env, config, np.random.default_rng(seed))
        afresh = rollout_episode(_copy(fresh), env, config, np.random.default_rng(seed))
        assert cached.actions == afresh.actions
        for _ in range(5):
            state, record = train_step(state, env, config, np.random.default_rng(seed))
            fresh, expected = train_step(fresh, env, config, np.random.default_rng(seed))
            assert record == expected
            assert state.model.theta.tobytes() == fresh.model.theta.tobytes()


def _seed_drawing(*actions):
    """The first seed whose uniforms pick ``actions`` from a uniform V = 2 sampler."""
    return next(
        seed
        for seed in itertools.count()
        if [int(u >= 0.5) for u in np.random.default_rng(seed).random(len(actions))] == list(actions)
    )


def _visit_bytes(visit):
    z, p, (sampler, kept, bounds) = visit
    return z.tobytes(), p.tobytes(), sampler, kept.tobytes(), bounds.tobytes()


def test_a_rollout_that_raises_keeps_what_a_fresh_evaluation_computes():
    env = ToyEnvironment(2, 3, TableReward(np.random.default_rng(3).uniform(-1.0, 1.0, (3, 2))))
    theta = np.zeros(env.n_states * env.vocab_size)
    bad, new = env.state_index((1, 1)), env.state_index((1,))
    theta[bad * 2 : (bad + 1) * 2] = np.inf  # every state but the one after actions (1, 1) is finite
    state = init_trainer(tabular_policy(env.n_states, env.vocab_size).with_theta(theta))
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, learning_rate=0.3, steps=1, snapshot_interval=10**6)
    state, _ = train_step(state, env, config, np.random.default_rng(_seed_drawing(0, 0)))
    kept = dict(state.window)
    assert 0 in kept and new not in kept
    with pytest.raises(NonFiniteModelError, match=rf"^non-finite snapshot logits at step 1 \(state {bad}\)$"):
        train_step(state, env, config, np.random.default_rng(_seed_drawing(1, 1)))
    assert state.step == 1 and not state.grad.any()
    # the rollout stored its one new visit before the next state raised ...
    assert state.window.keys() - kept.keys() == {new}
    assert all(state.window[key] is value for key, value in kept.items())
    # ... as a rollout of the same snapshot on an empty window makes it
    fresh = _copy(state)
    rollout_episode(fresh, env, config, np.random.default_rng(_seed_drawing(1, 0)))
    assert _visit_bytes(state.window[new]) == _visit_bytes(fresh.window[new])
    # and the next step, which reads it, is the step of a fresh window
    fresh = _copy(state)
    for _ in range(3):
        seed = _seed_drawing(1, 0)
        state, record = train_step(state, env, config, np.random.default_rng(seed))
        fresh, expected = train_step(fresh, env, config, np.random.default_rng(seed))
        assert record == expected
        assert state.model.theta.tobytes() == fresh.model.theta.tobytes()


def test_a_long_frozen_run_stays_within_the_cap():
    v, horizon = 64, 3
    rng = np.random.default_rng(7)
    env = ToyEnvironment(v, horizon, TableReward(rng.uniform(-1.0, 1.0, (horizon, v))))
    model = tabular_policy(env.n_states, v, init_logits=rng.uniform(-1.0, 1.0, v))
    config = TrainerConfig(objective=ObjectiveKind.LCO_MSE, learning_rate=0.1, steps=1, snapshot_interval=10**6)
    state = init_trainer(model)
    window = state.window
    sizes = []
    for _ in range(400):
        state, _ = train_step(state, env, config, rng)
        sizes.append(len(state.window))
    assert state.window is window
    assert max(sizes) == WINDOW_CAP and sizes[-1] == WINDOW_CAP
    assert sizes == sorted(sizes)  # a frozen window only grows


def test_window_arrays_are_read_only():
    env = ToyEnvironment(3, 2, TableReward(np.random.default_rng(2).uniform(-1.0, 1.0, (2, 3))))
    model = tabular_policy(env.n_states, env.vocab_size)
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, learning_rate=0.3, steps=1, snapshot_interval=10**6)
    state, rng = init_trainer(model), np.random.default_rng(0)
    for _ in range(10):
        state, _ = train_step(state, env, config, rng)
    arrays = []
    for value in state.window.values():
        arrays += [value] if isinstance(value, np.ndarray) else [value[0], value[1], *value[2][1:]]
    rollout = rollout_episode(state, env, config, rng)
    arrays += [*rollout.z_old, *rollout.pi_old]
    assert len(arrays) > 10
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_the_window_clears_when_the_snapshot_refreshes():
    env = ToyEnvironment(2, 1, TableReward(np.array([[1.0, -1.0]])))
    config = TrainerConfig(objective=ObjectiveKind.LCO_MSE, learning_rate=0.3, steps=1, snapshot_interval=3)
    state, rng = init_trainer(tabular_policy(env.n_states, env.vocab_size)), np.random.default_rng(0)
    logits = []
    for _ in range(7):
        state, _ = train_step(state, env, config, rng)
        logits.append(state.window[0][0])
    # one entry per window: the same array inside it, a new one after each refresh
    assert logits[0] is logits[1] is logits[2] and logits[3] is logits[4] is logits[5]
    assert logits[2] is not logits[3] and logits[5] is not logits[6]
    assert not np.array_equal(logits[2], logits[3])


def test_a_run_builds_its_snapshot_model_once():
    env = ToyEnvironment(3, 1, TableReward(np.array([[1.0, -1.0, 0.5]])))
    config = TrainerConfig(objective=ObjectiveKind.LCO_KLD, learning_rate=0.3, steps=1, snapshot_interval=2)
    state, rng = init_trainer(tabular_policy(env.n_states, env.vocab_size)), np.random.default_rng(0)
    snapshot = state.snapshot
    assert snapshot.theta is state.snapshot_theta
    for _ in range(5):
        theta = state.model.theta.copy()
        refresh = state.step % config.snapshot_interval == 0
        state, _ = train_step(state, env, config, rng)
        # refreshed in place, so the one model still reads the live snapshot
        assert state.snapshot is snapshot
        if refresh:
            assert np.array_equal(snapshot.theta, theta)
