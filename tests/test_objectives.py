import ast
import re
from pathlib import Path

import numpy as np
import pytest

import lco_lab
from lco_lab.dist import log_softmax, softmax
from lco_lab.envs import MatchReward, ToyEnvironment
from lco_lab.errors import DegenerateRatioError, InvalidInputError
from lco_lab.convexity import hessian_analytic, hessian_numeric, ppo_witness
from lco_lab.objectives import LCO_KINDS, OBJECTIVES, ObjectiveKind, evaluate, pairwise_sum, ppo_active
from lco_lab.training import ConvergeConfig, _curvature

from oracles import CURVATURE, central_diff, log_cosh_hp, rel_close

SFT, PPO, REINFORCE = ObjectiveKind.SFT, ObjectiveKind.PPO, ObjectiveKind.REINFORCE
LCO_MSE, LCO_LCH, LCO_KLD = LCO_KINDS


def ppo_step(z_old, action, adv, eps=0.2):
    """PPO's step tuple for behavioral logits z_old."""
    return action, adv, float(softmax(z_old)[action]), eps


# --- SFT -------------------------------------------------------------------


def test_sft_symmetric_point():
    e = evaluate(SFT, [0.0, 0.0], step=(0,))
    assert abs(e.value - np.log(2)) < 1e-15
    assert np.allclose(e.logit_gradient, [-0.5, 0.5], atol=1e-15)


def test_sft_near_optimum():
    z = np.array([40.0, 0.0, 0.0])
    e = evaluate(SFT, z, step=(0,))
    assert e.value < 1e-12
    assert np.abs(e.logit_gradient).max() < 1e-12


def test_sft_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.uniform(-2, 2, int(rng.integers(2, 8)))
        target = int(rng.integers(z.size))
        e = evaluate(SFT, z, step=(target,))
        assert rel_close(e.logit_gradient, central_diff(lambda q: evaluate(SFT, q, step=(target,)).value, z))
        assert abs(e.logit_gradient.sum()) <= 1e-12


# --- PPO -------------------------------------------------------------------


def test_ppo_gating():
    step = ppo_step([0.0, 0.0], 0, 1.0)
    assert ppo_active([0.0, 0.0], step)  # on-policy, positive advantage

    # push the ratio past 1 + eps: positive advantage clips
    z_hi = np.array([2.0, 0.0])
    assert not ppo_active(z_hi, step)

    step_neg = ppo_step([0.0, 0.0], 0, -1.0)
    z_lo = np.array([-2.0, 0.0])
    assert not ppo_active(z_lo, step_neg)

    assert not ppo_active([0.0, 0.0], ppo_step([0.0, 0.0], 0, 0.0))  # zero advantage


def test_ppo_hand_worked_gradient():
    # two actions, behavioral probability one half, negative unit advantage
    e = evaluate(PPO, [0.0, 0.0], step=ppo_step([0.0, 0.0], 0, -1.0))
    assert np.allclose(e.logit_gradient, [0.5, -0.5], atol=1e-15)
    assert abs(e.value - 1.0) < 1e-15  # -min(r*A, clip*A) = -A at r = 1


def test_ppo_zero_advantage():
    e = evaluate(PPO, [0.3, -0.3], step=ppo_step([0.3, -0.3], 0, 0.0))
    assert e.value == 0.0
    assert np.array_equal(e.logit_gradient, [0.0, 0.0])


def test_ppo_clipped_region_zero_gradient_and_clipped_value():
    z = np.array([2.0, 0.0])  # ratio ~1.76 > 1.2
    e = evaluate(PPO, z, step=ppo_step([0.0, 0.0], 0, 1.0, eps=0.2))
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
        step = ppo_step(z_old, action, adv)
        z = z_old + rng.uniform(-0.05, 0.05, v)
        if not ppo_active(z, step):
            continue
        surrogate = lambda q: -(softmax(q)[action] / step[2]) * adv
        e = evaluate(PPO, z, step=step)
        assert rel_close(e.logit_gradient, central_diff(surrogate, z))
        assert abs(e.logit_gradient.sum()) <= 1e-12
        checked += 1


def test_ppo_degenerate_ratio():
    # a behavioral probability below MIN_BEHAVIORAL_PROB, yet positive, cannot form a ratio
    with pytest.raises(DegenerateRatioError):
        evaluate(PPO, [0.0, 0.0], step=(1, 1.0, 1e-310, 0.2))
    with pytest.raises(DegenerateRatioError):
        ppo_active([0.0, 0.0], (1, 1.0, 1e-310, 0.2))


def test_ppo_zero_behavioral_probability_is_not_a_point():
    # softmax([800, 0])[1] underflows to exactly 0, outside the step rule's (0, 1]
    step = ppo_step([800.0, 0.0], 1, 1.0)
    assert step[2] == 0.0
    with pytest.raises(InvalidInputError, match="behavioral probability"):
        evaluate(PPO, [800.0, 0.0], step=step)


# --- REINFORCE -------------------------------------------------------------


def test_reinforce_zero_advantage():
    e = evaluate(REINFORCE, [0.1, -0.2], step=(1, 0.0))
    assert e.value == 0.0
    assert np.array_equal(e.logit_gradient, [0.0, 0.0])


def test_reinforce_unit_advantage_equals_sft():
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = int(rng.integers(2, 9))
        z = rng.uniform(-2, 2, v)
        action = int(rng.integers(v))
        rng.uniform(-1, 1, v)  # behavioral logits, which REINFORCE never reads
        a_eval = evaluate(REINFORCE, z, step=(action, 1.0))
        b_eval = evaluate(SFT, z, step=(action,))
        assert abs(a_eval.value - b_eval.value) <= 1e-12
        assert np.abs(a_eval.logit_gradient - b_eval.logit_gradient).max() <= 1e-12


def test_reinforce_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = int(rng.integers(2, 8))
        z = rng.uniform(-2, 2, v)
        rng.uniform(-1, 1, v)  # behavioral logits, which REINFORCE never reads
        step = (int(rng.integers(v)), float(rng.uniform(-2, 2)))
        e = evaluate(REINFORCE, z, step=step)
        assert rel_close(e.logit_gradient, central_diff(lambda q: evaluate(REINFORCE, q, step=step).value, z))


# --- LCO objectives --------------------------------------------------------


def test_lco_mse_values():
    z = np.array([1.0, -2.0, 0.5, 3.0])
    e = evaluate(LCO_MSE, z, z)
    assert e.value == 0.0 and np.array_equal(e.logit_gradient, np.zeros(4))

    e = evaluate(LCO_MSE, np.array([1.0, 0, 0, 0]), np.zeros(4))
    assert abs(e.value - 0.25) < 1e-15
    assert np.allclose(e.logit_gradient, [0.5, 0, 0, 0], atol=1e-15)


def test_lco_lch_overflow_safe():
    e = evaluate(LCO_LCH, np.array([50.0, 0.0]), np.zeros(2))
    assert abs(e.value - (50.0 - np.log(2.0)) / 2.0) < 1e-12
    assert abs(e.value - log_cosh_hp(50.0) / 2.0) < 1e-12
    huge = evaluate(LCO_LCH, np.array([2000.0, 0.0]), np.zeros(2))
    assert np.isfinite(huge.value)
    assert abs(huge.value - (2000.0 - np.log(2.0)) / 2.0) < 1e-9


def test_lco_lch_small_residual_accuracy():
    e = evaluate(LCO_LCH, np.array([1e-8, 0.0]), np.zeros(2))
    # logcosh(x) ~ x^2/2 must keep relative accuracy at tiny residuals
    assert abs(e.value - 0.25e-16) < 1e-20


def test_lco_kld_values():
    z = np.array([0.4, -1.0, 2.0])
    e = evaluate(LCO_KLD, z, softmax(z))
    assert e.value == 0.0
    assert np.abs(e.logit_gradient).max() < 1e-15

    e = evaluate(LCO_KLD, np.array([np.log(3.0), 0.0]), np.array([0.5, 0.5]))
    assert np.allclose(e.logit_gradient, [0.25, -0.25], atol=1e-12)


def test_lco_kld_value_stays_nonnegative_near_convergence():
    z = np.array([0.7, -0.1, 0.4])
    pi = softmax(z)
    shifted = pi + np.array([1e-13, -1e-13, 0.0])
    shifted /= shifted.sum()
    e = evaluate(LCO_KLD, z, shifted)
    assert e.value >= 0.0
    assert e.value < 1e-20


def test_lco_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(20):
        v = int(rng.integers(2, 9))
        z = rng.uniform(-3, 3, v)
        z_star = rng.uniform(-3, 3, v)
        pi_star = softmax(rng.uniform(-2, 2, v))
        for kind, target in ((LCO_MSE, z_star), (LCO_LCH, z_star), (LCO_KLD, pi_star)):
            e = evaluate(kind, z, target)
            assert rel_close(e.logit_gradient, central_diff(lambda q: evaluate(kind, q, target).value, z))
    e = evaluate(LCO_KLD, z, pi_star)
    assert abs(e.logit_gradient.sum()) <= 1e-12


# --- the point evaluate checks -------------------------------------------------

Z = np.array([0.1, 0.5, -0.3])
# a (target, step) pair of each kind at Z, and malformed ones
GOOD_POINTS = {
    SFT: (None, (2,)),
    PPO: (None, (1, 0.7, 0.4, 0.2)),
    REINFORCE: (None, [1, -0.7]),
    LCO_MSE: ([0.3, 0.1, -0.2], ()),
    LCO_LCH: ([0.3, 0.1, -0.2], ()),
    LCO_KLD: ([0.2, 0.5, 0.3], ()),
}
BAD_POINTS = {
    SFT: [(None, ()), (None, (3,)), (None, np.array([2]))],
    PPO: [(None, (1, 0.7, 0.4)), (None, (1, 0.7, 0.0, 0.2)), (None, (1, 0.7, 1.5, 0.2)), (None, (1, 0.7, 0.4, 1.5))],
    REINFORCE: [(None, (1, np.inf)), (None, (1, "a")), (None, (1,))],
    LCO_MSE: [([0.3, 0.1], ()), ([0.3, np.nan, 0.1], ()), ([0.3, 0.1, -0.2], None)],
    LCO_LCH: [([0.3, 0.1, -0.2, 0.0], ()), (None, ())],
    LCO_KLD: [([0.2, 0.5, 0.4], ()), ([0.5, 0.5], ()), ([1.2, -0.2, 0.0], ())],
}


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_evaluate_is_the_kernel_at_the_checked_point(kind):
    objective = OBJECTIVES[kind]
    got = evaluate(kind, Z, *GOOD_POINTS[kind])
    z, target, step = objective.point(Z, *GOOD_POINTS[kind])
    want = objective.kernel(z, softmax(z), log_softmax(z), target, step)
    assert got.value == want.value
    assert np.array_equal(got.logit_gradient, want.logit_gradient)
    for target, step in BAD_POINTS[kind]:
        with pytest.raises(InvalidInputError):
            evaluate(kind, Z, target, step)
    with pytest.raises(InvalidInputError, match="^z must be finite"):
        evaluate(kind, [0.1, np.inf, 0.0], *GOOD_POINTS[kind])


# --- action indices ------------------------------------------------------------


def _action_entry_points(action):
    """Every public way an action index reaches ``check_action``, at V = 3."""
    z = np.array([0.1, 0.5, -0.3])
    step = (action, 1.0, float(softmax(z)[1]), 0.2)
    env = ToyEnvironment(3, 2, MatchReward((1, 2)))
    return {
        "target token": lambda: ToyEnvironment(3, 2, MatchReward((action, 2))).reward.target,
        "state_index token": lambda: env.state_index((action,)),
        "evaluate SFT": lambda: evaluate(SFT, z, step=step[:1]),
        "evaluate PPO": lambda: evaluate(PPO, z, step=step),
        "evaluate REINFORCE": lambda: evaluate(REINFORCE, z, step=step[:2]),
        "ppo_active": lambda: ppo_active(z, step),
        "ppo_witness": lambda: ppo_witness(softmax(z), action, 1),
        "hessian_analytic SFT": lambda: hessian_analytic(SFT, z, step=step[:1]),
        "hessian_numeric SFT": lambda: hessian_numeric(SFT, z, step=step[:1]),
        "hessian_analytic PPO": lambda: hessian_analytic(PPO, z, step=step),
        "hessian_numeric PPO": lambda: hessian_numeric(PPO, z, step=step),
    }


@pytest.mark.parametrize("action", [1.7, 1.0, np.float64(1.0), True, np.True_, "1", None, 1 + 0j])
def test_an_action_that_is_not_an_integer_is_rejected(action):
    # int() would truncate 1.7 and True to token 1; a match target reads its tokens as its own parameter
    for name, call in _action_entry_points(action).items():
        parameter = "target" if name == "target token" else "action"
        with pytest.raises(InvalidInputError, match=f"{parameter} must be an integer"):
            call()
            pytest.fail(name)


@pytest.mark.parametrize("action", [np.int64(1), np.int32(1), np.uint8(1), np.intp(1)])
def test_a_numpy_integer_action_reads_as_the_int(action):
    as_int = {name: call() for name, call in _action_entry_points(1).items()}
    for name, call in _action_entry_points(action).items():
        got = call()
        if name.startswith("evaluate"):
            assert got.value == as_int[name].value and np.array_equal(got.logit_gradient, as_int[name].logit_gradient)
        elif name in ("ppo_active", "target token", "state_index token"):
            assert got == as_int[name] and repr(got) == repr(as_int[name]), name
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


def test_an_objective_without_a_target_has_none_to_align_to():
    z_old = np.array([0.5, -0.5])
    for kind, objective in OBJECTIVES.items():
        target = objective.optimal_target(z_old, softmax(z_old), np.array([1.0, -1.0]), 1.0)
        assert (target is None) == (kind not in LCO_KINDS), kind


def test_a_pairwise_sum_of_nothing_is_zero():
    assert pairwise_sum([]) == 0.0 and pairwise_sum([2.5]) == 2.5


def test_objective_table_has_one_entry_per_kind():
    assert list(OBJECTIVES) == list(ObjectiveKind)
    assert LCO_KINDS == tuple(kind for kind, objective in OBJECTIVES.items() if objective.target is not None)
    assert LCO_KINDS == (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH, ObjectiveKind.LCO_KLD)
    # only supervised fine-tuning walks the environment's target sequence
    assert [kind for kind, objective in OBJECTIVES.items() if objective.teacher_forced] == [ObjectiveKind.SFT]
    for kind, objective in OBJECTIVES.items():
        assert objective.target in (None, "logits", "policy")
        # an alignment objective has a target and a bound, the others neither
        assert (objective.target is None) == (objective.bound is None) == (kind not in LCO_KINDS)


def _library_lines(pattern: str) -> list[str]:
    """Every line of the library's modules that ``pattern`` matches, as "module:line: text"."""
    found = re.compile(pattern)
    return [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(lco_lab.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if found.search(line)
    ]


def test_the_library_never_branches_on_an_objective_kind():
    # an objective's behaviour is its OBJECTIVES entry, not an if/elif ladder or a comparison of kinds
    hits = _library_lines(r"(\bif\b|\belif\b|\bis\b|==|!=).*(ObjectiveKind\.|LCO_KINDS)")
    assert not hits, "\n".join(hits)


def test_only_policy_branches_on_a_model_family():
    # a family's behaviour is stated in policy (J J^T = lam I in _kernel_scale), not restated by its callers
    hits = [hit for hit in _library_lines(r"(\bif\b|\belif\b).*Family\.") if not hit.startswith("policy.py:")]
    assert not hits, "\n".join(hits)


def test_only_config_builds_a_run_from_a_config():
    # train, dynamics and the dynamics suite all run a config through config.train
    hits = [
        hit
        for hit in _library_lines(r"\bbuild_(environment|model|trainer)\(")
        if not hit.startswith("config.py:")
    ]
    assert not hits, "\n".join(hits)


def test_only_run_steps_steps_a_run():
    # every run in the library is run_steps' loop, and a caller that stops early leaves it
    calls = []
    for path in sorted(Path(lco_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            name = getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None
            if name in ("init_trainer", "train_step"):
                # ast.walk is breadth first, so the innermost function holding the call comes last
                holders = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                calls.append((name, path.name, holders[-1] if holders else None))
    assert sorted(calls) == [("init_trainer", "training.py", "run_steps"), ("train_step", "training.py", "run_steps")]


def test_only_objectives_knows_the_clip_boundary():
    # PPO's gate and ratio are read through the table (its kernel, Hessian and
    # smoothness fact) and ppo_active, so the clip boundary is stated once
    hits = [hit for hit in _library_lines(r"\b(_ppo_gate|_ratio)\b") if not hit.startswith("objectives.py:")]
    assert not hits, "\n".join(hits)


@pytest.mark.parametrize("kind", [ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH])
@pytest.mark.parametrize("v", [2, 5, 64])
def test_curvature_constant_is_the_top_hessian_eigenvalue_at_the_target(kind, v):
    report = hessian_analytic(kind, np.zeros(v), np.zeros(v))
    assert _curvature(kind, v) == CURVATURE[kind] / v == report.max_eigenvalue


def test_only_the_logit_regressions_run_convergence_experiments():
    accepted = []
    for kind in ObjectiveKind:
        try:
            ConvergeConfig(kind, np.ones(2), 0.1)
        except InvalidInputError:
            continue
        accepted.append(kind)
    assert accepted == [ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH]


@pytest.mark.parametrize("kind", LCO_KINDS)
def test_table_kernel_matches_evaluate_at_the_optimal_target(kind):
    rng = np.random.default_rng(5)
    objective = OBJECTIVES[kind]
    z_old, z, advantages = rng.uniform(-2.0, 2.0, (3, 6))
    target = objective.optimal_target(z_old, softmax(z_old), advantages, 0.7)
    kernel = objective.kernel(z, softmax(z), log_softmax(z), target, (2, float(advantages[2]), 0.1, 0.2))
    public = evaluate(kind, z, target)
    assert kernel.value == public.value
    assert np.array_equal(kernel.logit_gradient, public.logit_gradient)
    # the logits z* = z_old + A/beta represent the same target
    assert np.abs(target - objective.target_at(z_old + advantages / 0.7)).max() <= 1e-12

