import numpy as np
import pytest

from lco_lab.dist import Advantages, softmax
from lco_lab.errors import DegenerateRatioError, InvalidInputError
from lco_lab.convexity import hessian_analytic, hessian_numeric, ppo_witness
from lco_lab.objectives import (
    LCO_KINDS,
    OBJECTIVES,
    ObjectiveKind,
    TimestepContext,
    lco_kld_eval,
    lco_lch_eval,
    lco_mse_eval,
    ppo_active,
    ppo_eval,
    reinforce_eval,
    sft_eval,
)

from oracles import central_diff, log_cosh_hp, rel_close


def sparse(value, action, v):
    values = np.zeros(v)
    values[action] = value
    return Advantages(values, sparse_mask=frozenset({action}))


def make_ctx(z_old, action, adv, eps=0.2, beta=1.0):
    return TimestepContext.from_logits(z_old, action, sparse(adv, action, len(z_old)), beta, eps)


# --- SFT -------------------------------------------------------------------


def test_sft_symmetric_point():
    e = sft_eval([0.0, 0.0], 0)
    assert abs(e.value - np.log(2)) < 1e-15
    assert np.allclose(e.logit_gradient, [-0.5, 0.5], atol=1e-15)


def test_sft_near_optimum():
    z = np.array([40.0, 0.0, 0.0])
    e = sft_eval(z, 0)
    assert e.value < 1e-12
    assert np.abs(e.logit_gradient).max() < 1e-12


def test_sft_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.uniform(-2, 2, int(rng.integers(2, 8)))
        target = int(rng.integers(z.size))
        e = sft_eval(z, target)
        assert rel_close(e.logit_gradient, central_diff(lambda q: sft_eval(q, target).value, z))
        assert abs(e.logit_gradient.sum()) <= 1e-12


# --- PPO -------------------------------------------------------------------


def test_ppo_gating():
    ctx = make_ctx([0.0, 0.0], 0, 1.0)
    assert ppo_active(ctx, [0.0, 0.0])  # on-policy, positive advantage

    # push the ratio past 1 + eps: positive advantage clips
    z_hi = np.array([2.0, 0.0])
    assert not ppo_active(ctx, z_hi)

    ctx_neg = make_ctx([0.0, 0.0], 0, -1.0)
    z_lo = np.array([-2.0, 0.0])
    assert not ppo_active(ctx_neg, z_lo)

    assert not ppo_active(make_ctx([0.0, 0.0], 0, 0.0), [0.0, 0.0])  # zero advantage


def test_ppo_hand_worked_gradient():
    # two actions, behavioral probability one half, negative unit advantage
    ctx = make_ctx([0.0, 0.0], 0, -1.0)
    e = ppo_eval(ctx, [0.0, 0.0])
    assert np.allclose(e.logit_gradient, [0.5, -0.5], atol=1e-15)
    assert abs(e.value - 1.0) < 1e-15  # -min(r*A, clip*A) = -A at r = 1


def test_ppo_zero_advantage():
    e = ppo_eval(make_ctx([0.3, -0.3], 0, 0.0), [0.3, -0.3])
    assert e.value == 0.0
    assert np.array_equal(e.logit_gradient, [0.0, 0.0])


def test_ppo_clipped_region_zero_gradient_and_clipped_value():
    ctx = make_ctx([0.0, 0.0], 0, 1.0, eps=0.2)
    z = np.array([2.0, 0.0])  # ratio ~1.76 > 1.2
    e = ppo_eval(ctx, z)
    assert np.array_equal(e.logit_gradient, [0.0, 0.0])
    assert abs(e.value - (-1.2)) < 1e-15  # clipped branch -(1+eps)*A


def test_ppo_gradient_matches_unclipped_surrogate():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 20:
        v = int(rng.integers(2, 6))
        z_old = rng.uniform(-2, 2, v)
        action = int(rng.integers(v))
        adv = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
        ctx = make_ctx(z_old, action, adv)
        z = z_old + rng.uniform(-0.05, 0.05, v)
        if not ppo_active(ctx, z):
            continue
        surrogate = lambda q: -(softmax(q)[action] / ctx.pi_old[action]) * adv
        e = ppo_eval(ctx, z)
        assert rel_close(e.logit_gradient, central_diff(surrogate, z))
        assert abs(e.logit_gradient.sum()) <= 1e-12
        checked += 1


def test_ppo_degenerate_ratio():
    z_old = np.array([800.0, 0.0])  # behavioral probability of action 1 underflows
    ctx = TimestepContext.from_logits(z_old, 1, sparse(1.0, 1, 2))
    with pytest.raises(DegenerateRatioError):
        ppo_eval(ctx, z_old)


# --- REINFORCE -------------------------------------------------------------


def test_reinforce_zero_advantage():
    e = reinforce_eval(make_ctx([0.1, -0.2], 1, 0.0), [0.1, -0.2])
    assert e.value == 0.0
    assert np.array_equal(e.logit_gradient, [0.0, 0.0])


def test_reinforce_unit_advantage_equals_sft():
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = int(rng.integers(2, 9))
        z = rng.uniform(-2, 2, v)
        action = int(rng.integers(v))
        a_eval = reinforce_eval(make_ctx(rng.uniform(-1, 1, v), action, 1.0), z)
        b_eval = sft_eval(z, action)
        assert abs(a_eval.value - b_eval.value) <= 1e-12
        assert np.abs(a_eval.logit_gradient - b_eval.logit_gradient).max() <= 1e-12


def test_reinforce_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = int(rng.integers(2, 8))
        z = rng.uniform(-2, 2, v)
        ctx = make_ctx(rng.uniform(-1, 1, v), int(rng.integers(v)), float(rng.uniform(-2, 2)))
        e = reinforce_eval(ctx, z)
        assert rel_close(e.logit_gradient, central_diff(lambda q: reinforce_eval(ctx, q).value, z))


# --- LCO objectives --------------------------------------------------------


def test_lco_mse_values():
    z = np.array([1.0, -2.0, 0.5, 3.0])
    e = lco_mse_eval(z, z)
    assert e.value == 0.0 and np.array_equal(e.logit_gradient, np.zeros(4))

    e = lco_mse_eval(np.array([1.0, 0, 0, 0]), np.zeros(4))
    assert abs(e.value - 0.25) < 1e-15
    assert np.allclose(e.logit_gradient, [0.5, 0, 0, 0], atol=1e-15)


def test_lco_lch_overflow_safe():
    e = lco_lch_eval(np.array([50.0, 0.0]), np.zeros(2))
    assert abs(e.value - (50.0 - np.log(2.0)) / 2.0) < 1e-12
    assert abs(e.value - log_cosh_hp(50.0) / 2.0) < 1e-12
    huge = lco_lch_eval(np.array([2000.0, 0.0]), np.zeros(2))
    assert np.isfinite(huge.value)
    assert abs(huge.value - (2000.0 - np.log(2.0)) / 2.0) < 1e-9


def test_lco_lch_small_residual_accuracy():
    e = lco_lch_eval(np.array([1e-8, 0.0]), np.zeros(2))
    # logcosh(x) ~ x^2/2 must keep relative accuracy at tiny residuals
    assert abs(e.value - 0.25e-16) < 1e-20


def test_lco_kld_values():
    z = np.array([0.4, -1.0, 2.0])
    e = lco_kld_eval(z, softmax(z))
    assert e.value == 0.0
    assert np.abs(e.logit_gradient).max() < 1e-15

    e = lco_kld_eval(np.array([np.log(3.0), 0.0]), np.array([0.5, 0.5]))
    assert np.allclose(e.logit_gradient, [0.25, -0.25], atol=1e-12)


def test_lco_kld_value_stays_nonnegative_near_convergence():
    z = np.array([0.7, -0.1, 0.4])
    pi = softmax(z)
    shifted = pi + np.array([1e-13, -1e-13, 0.0])
    shifted /= shifted.sum()
    e = lco_kld_eval(z, shifted)
    assert e.value >= 0.0
    assert e.value < 1e-20


def test_lco_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(20):
        v = int(rng.integers(2, 9))
        z = rng.uniform(-3, 3, v)
        z_star = rng.uniform(-3, 3, v)
        pi_star = softmax(rng.uniform(-2, 2, v))
        for evaluate, f in (
            (lambda q: lco_mse_eval(q, z_star), lambda q: lco_mse_eval(q, z_star).value),
            (lambda q: lco_lch_eval(q, z_star), lambda q: lco_lch_eval(q, z_star).value),
            (lambda q: lco_kld_eval(q, pi_star), lambda q: lco_kld_eval(q, pi_star).value),
        ):
            e = evaluate(z)
            assert rel_close(e.logit_gradient, central_diff(f, z))
    e = lco_kld_eval(z, pi_star)
    assert abs(e.logit_gradient.sum()) <= 1e-12


def test_context_validates_cached_distribution():
    with pytest.raises(InvalidInputError):
        TimestepContext(
            np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0, Advantages(np.zeros(2)), 1.0, 0.2
        )
    with pytest.raises(InvalidInputError):
        make_ctx([0.0, 0.0], 0, 1.0, eps=1.5)


# --- action indices ------------------------------------------------------------


def _action_entry_points(action):
    """Every public way an action index reaches ``check_action``, at V = 3."""
    z = np.array([0.1, 0.5, -0.3])
    ppo_step = (action, 1.0, float(softmax(z)[1]), 0.2)
    return {
        "sft_eval": lambda: sft_eval(z, action),
        "TimestepContext": lambda: TimestepContext.from_logits(z, action, np.zeros(3)),
        "ppo_witness": lambda: ppo_witness(softmax(z), action, 1),
        "hessian_analytic SFT": lambda: hessian_analytic(ObjectiveKind.SFT, z, step=(action,)),
        "hessian_numeric SFT": lambda: hessian_numeric(ObjectiveKind.SFT, z, step=(action,)),
        "hessian_analytic PPO": lambda: hessian_analytic(ObjectiveKind.PPO, z, step=ppo_step),
        "hessian_numeric PPO": lambda: hessian_numeric(ObjectiveKind.PPO, z, step=ppo_step),
    }


@pytest.mark.parametrize("action", [1.7, 1.0, np.float64(1.0), True, np.True_, "1", None, 1 + 0j])
def test_an_action_that_is_not_an_integer_is_rejected(action):
    # int() would truncate 1.7 and True to token 1
    for name, call in _action_entry_points(action).items():
        with pytest.raises(InvalidInputError, match="action must be an integer"):
            call()
            pytest.fail(name)


@pytest.mark.parametrize("action", [np.int64(1), np.int32(1), np.uint8(1), np.intp(1)])
def test_a_numpy_integer_action_reads_as_the_int(action):
    as_int = {name: call() for name, call in _action_entry_points(1).items()}
    for name, call in _action_entry_points(action).items():
        got = call()
        if name == "sft_eval":
            assert got.value == as_int[name].value and np.array_equal(got.logit_gradient, as_int[name].logit_gradient)
        elif name == "TimestepContext":
            assert got.sampled_action == 1 and type(got.sampled_action) is int
        elif name == "ppo_witness":
            assert np.array_equal(got, as_int[name])
        else:
            assert np.array_equal(got.matrix, as_int[name].matrix), name


@pytest.mark.parametrize("action", [-1, 3, np.int64(3)])
def test_an_action_outside_the_vocabulary_is_rejected(action):
    for call in _action_entry_points(action).values():
        with pytest.raises(InvalidInputError, match="outside vocabulary of size 3"):
            call()


# --- the objective table -----------------------------------------------------


def test_objective_table_has_one_entry_per_kind():
    assert list(OBJECTIVES) == list(ObjectiveKind)
    assert LCO_KINDS == tuple(kind for kind, objective in OBJECTIVES.items() if objective.target is not None)
    assert LCO_KINDS == (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH, ObjectiveKind.LCO_KLD)
    for kind, objective in OBJECTIVES.items():
        assert objective.target in (None, "logits", "policy")
        # an alignment objective has a public eval and a bound, the others neither
        assert (objective.align is None) == (objective.bound is None) == (kind not in LCO_KINDS)


@pytest.mark.parametrize("kind", [ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH])
@pytest.mark.parametrize("v", [2, 5, 64])
def test_curvature_constant_is_the_top_hessian_eigenvalue_at_the_target(kind, v):
    report = hessian_analytic(kind, np.zeros(v), np.zeros(v))
    assert OBJECTIVES[kind].curvature / v == report.max_eigenvalue


def test_only_the_logit_regressions_have_a_constant_curvature():
    curved = [kind for kind, objective in OBJECTIVES.items() if objective.curvature is not None]
    assert curved == [ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH]


@pytest.mark.parametrize("kind", LCO_KINDS)
def test_table_kernel_matches_the_public_eval_at_the_optimal_target(kind):
    rng = np.random.default_rng(5)
    objective = OBJECTIVES[kind]
    z_old, z, advantages = rng.uniform(-2.0, 2.0, (3, 6))
    target = objective.optimal_target(z_old, softmax(z_old), advantages, 0.7)
    kernel = objective.kernel(z, softmax(z), target, (2, float(advantages[2]), 0.1, 0.2))
    public = objective.align(z, target)
    assert kernel.value == public.value
    assert np.array_equal(kernel.logit_gradient, public.logit_gradient)
    # the logits z* = z_old + A/beta represent the same target
    assert np.abs(target - objective.target_at(z_old + advantages / 0.7)).max() <= 1e-12

