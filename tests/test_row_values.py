"""Row-batched objective values and the oracles that evaluate through them.

Each table entry's row value must equal its 1-D kernel's value row by row,
LCO-KLD's one-pass row value must equal ``kl_between`` row by row, and the
finite-difference gradient, the numeric Hessian and the convergence
experiment must each evaluate their points in one row-value call.
"""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from lco_lab import dist, objectives
from lco_lab.config import build_converge, parse_config
from lco_lab.convexity import hessian_analytic, hessian_numeric
from lco_lab.dist import _log_softmax, _softmax, kl_between, log_softmax, softmax
from lco_lab.objectives import LCH_NEIGHBORHOOD, OBJECTIVES, ObjectiveKind, evaluate, ppo_active
from lco_lab.policy import Family, forward, linear_policy, tabular_policy
from lco_lab.targets import optimal_logits
from lco_lab.training import (
    ENVELOPE_SLACK,
    UNDERFLOW_FLOOR,
    ConvergeConfig,
    converge_experiment,
    converge_violations,
)
from lco_lab.verify import CONFIGS, GRAD_STEP, _point, _ppo_case, central_gradient, suite_gradients

from oracles import CURVATURE

HESSIAN_KINDS = [kind for kind, objective in OBJECTIVES.items() if objective.hessian is not None]


def _stack(rng, kind, v, scale, n):
    """``n`` rows of logits and the (target, step) of one ``verify._point`` draw, whose z is row 0."""
    z, target, step = _point(rng, kind, v, scale)
    return np.vstack([z, rng.uniform(-scale, scale, (n - 1, v))]), target, step


def _assert_rows_equal_the_kernel(kind, z, target, step):
    objective = OBJECTIVES[kind]
    rows = objective.value(z, target, step)
    assert rows.shape == (z.shape[0],)
    for row, value in zip(z, rows):
        assert value == objective.kernel(row, softmax(row), log_softmax(row), target, step).value


@pytest.mark.parametrize("v", [2, 8, 64])
@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_row_value_equals_the_kernel_value_row_by_row(kind, v):
    rng = np.random.default_rng(v)
    for scale in (1.0, 10.0, 100.0):
        _assert_rows_equal_the_kernel(kind, *_stack(rng, kind, v, scale, 25))


@pytest.mark.parametrize("i", range(100))
def test_row_value_equals_the_kernel_value_at_seeded_sizes(i):
    # every entry at one V in 2-64 and one scale per seeded draw
    rng = np.random.default_rng(i)
    v = int(rng.integers(2, 65))
    scale = float(rng.choice([1.0, 10.0, 100.0]))
    for kind in ObjectiveKind:
        _assert_rows_equal_the_kernel(kind, *_stack(rng, kind, v, scale, 8))


def _kld_loop_rows(z, pi_star):
    """LCO-KLD's row value as ``kl_between`` per row, with the loop's warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = [kl_between(pi_star, q, log_q=log_q) for q, log_q in zip(_softmax(z), _log_softmax(z))]
    return values, {str(w.message) for w in caught}


def _kld_stacks(rng, v):
    """(z, pi*) pairs that reach every branch of ``kl_between``."""
    target = softmax(rng.uniform(-2.0, 2.0, v))
    sparse = target.copy()
    sparse[rng.permutation(v)[: max(1, v // 3)]] = 0.0  # zero-mass target entries
    sparse /= sparse.sum()
    near = np.log(target) + rng.uniform(-0.3, 0.3, (20, v))  # |p - q| < q / 2
    far = rng.uniform(-8.0, 8.0, (20, v))
    underflow = rng.uniform(-1000.0, 1000.0, (20, v))  # q = 0 where p > 0: log q is read
    yield np.vstack([near, far, underflow]), target
    yield np.vstack([near, far, underflow]), sparse
    # row 0 is the target's own logits: q == p bit for bit, every term is +0.0, and so is the total
    own = rng.uniform(-2.0, 2.0, (3, v))
    yield own, softmax(own[0])


@pytest.mark.parametrize("v", list(range(2, 17)) + [24, 32, 48, 64])
def test_kld_rows_equal_kl_between_row_by_row(v):
    rng = np.random.default_rng(100 + v)
    value = OBJECTIVES[ObjectiveKind.LCO_KLD].value
    for z, pi_star in _kld_stacks(rng, v):
        loop, loop_warnings = _kld_loop_rows(z, pi_star)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = value(z, pi_star, ())
        assert {str(w.message) for w in caught} <= loop_warnings
        assert rows.shape == (z.shape[0],)
        assert rows.tolist() == loop
        assert [math.copysign(1.0, x) for x in rows.tolist()] == [math.copysign(1.0, x) for x in loop]


def test_kld_rows_reach_every_branch():
    # the stacks above hit the zero-mass, near and far branches and read an underflowed q
    rng = np.random.default_rng(116)
    hits = {"zero": 0, "near": 0, "far": 0, "underflow": 0, "zero total": 0}
    for z, pi_star in _kld_stacks(rng, 16):
        q = _softmax(z)
        d = np.abs(pi_star - q)
        hits["zero"] += int(np.count_nonzero((pi_star == 0.0) & (q > 0.0)))
        hits["near"] += int(np.count_nonzero((pi_star > 0.0) & (q > 0.0) & (d < 0.5 * q)))
        hits["far"] += int(np.count_nonzero((pi_star > 0.0) & ~((q > 0.0) & (d < 0.5 * q))))
        hits["underflow"] += int(np.count_nonzero((pi_star > 0.0) & (q == 0.0)))
        hits["zero total"] += int(np.count_nonzero(OBJECTIVES[ObjectiveKind.LCO_KLD].value(z, pi_star, ()) == 0.0))
    assert all(hits.values()), hits


def test_row_values_build_no_loss_eval_and_call_no_kl_between(monkeypatch):
    # the row values share the kernels' value arithmetic without building a
    # LossEval per row, and LCO-KLD's takes no per-row kl_between loop
    rng = np.random.default_rng(5)
    built, looped = [0], [0]

    class CountedLossEval(objectives.LossEval):
        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    def counted_kl_between(*args, **kwargs):
        looped[0] += 1
        return kl_between(*args, **kwargs)

    monkeypatch.setattr(objectives, "LossEval", CountedLossEval)
    monkeypatch.setattr(objectives, "kl_between", counted_kl_between)
    monkeypatch.setattr(dist, "kl_between", counted_kl_between)
    for kind in ObjectiveKind:
        for v in (2, 8, 64):
            OBJECTIVES[kind].value(*_stack(rng, kind, v, 1.0, 30))
    assert (built[0], looped[0]) == (0, 0)
    # the 1-D kernel keeps its loop, so the counters do count
    z = rng.uniform(-1.0, 1.0, 4)
    OBJECTIVES[ObjectiveKind.LCO_KLD].kernel(z, softmax(z), log_softmax(z), softmax(z[::-1]), ())
    assert (built[0], looped[0]) == (1, 1)


def _kld_kernel_cases(rng, v):
    """(z, pi*) pairs for the 1-D LCO-KLD kernel: every branch of ``kl_between``,
    pi* within rounding of pi, and probabilities so small that the Bregman
    branch's products underflow while the softmax does not."""
    for z, pi_star in _kld_stacks(rng, v):
        yield from ((row, pi_star) for row in z)
    for row in rng.uniform(-2.0, 2.0, (10, v)):
        # each entry one ulp off pi, toward 0 or 1, so |p - q| < q / 2 everywhere
        yield row, np.nextafter(softmax(row), np.where(rng.random(v) < 0.5, 0.0, 1.0))
    for row in rng.uniform(-700.0, 0.0, (10, v)):
        row[rng.integers(v)] = 0.0
        yield row, softmax(row + rng.uniform(-0.3, 0.3, v))


def _kld_loop_kernel(z, pi_star):
    """The kernel's work with the loop for its value: the softmax pass, ``kl_between`` and pi - pi*."""
    q, log_q = dist._softmax_and_log(z)
    return kl_between(pi_star, q, log_q=log_q), q - pi_star


def _raises_floating_point_error(compute) -> bool:
    try:
        compute()
    except FloatingPointError:
        return True
    return False


@pytest.mark.parametrize("v", [2, 3, 8, 14, 15, 16, 17, 20, 32, 47, 64])
def test_the_kld_kernel_equals_kl_between_bit_for_bit_on_both_sides_of_the_one_pass_size(v):
    # below KLD_ONE_PASS_FROM the kernel runs the loop, from it the one-pass
    # row form; either way evaluate's value is the loop's, sign bit included,
    # and under raised floating-point errors both forms raise or neither does
    rng = np.random.default_rng(200 + v)
    raised = []
    for z, pi_star in _kld_kernel_cases(rng, v):
        q, log_q = _softmax(z), _log_softmax(z)
        loop = kl_between(pi_star, q, log_q=log_q)
        got = evaluate(ObjectiveKind.LCO_KLD, z, pi_star)
        assert got.value == loop and math.copysign(1.0, got.value) == math.copysign(1.0, loop)
        assert got.logit_gradient.tobytes() == (q - pi_star).tobytes()
        with np.errstate(all="raise"):
            both = (
                _raises_floating_point_error(lambda: _kld_loop_kernel(z, pi_star)),
                _raises_floating_point_error(lambda: evaluate(ObjectiveKind.LCO_KLD, z, pi_star)),
            )
        assert both[0] == both[1]
        raised.append(both[0])
    # the draws reach both outcomes
    assert any(raised) and not all(raised)


def _analytic_and_numeric(rng, kind, v):
    """Both Hessians at one drawn (z, target, step) point."""
    point = (kind, *_point(rng, kind, v, 1.5))
    return hessian_analytic(*point), hessian_numeric(*point)


@pytest.mark.parametrize("kind", HESSIAN_KINDS)
def test_numeric_hessian_matches_the_analytic_one_at_v64(kind):
    # the agreement criterion of suite_hessian, at the vocabulary size it does not reach
    analytic, numeric = _analytic_and_numeric(np.random.default_rng(64), kind, 64)
    assert np.abs(analytic.matrix - numeric.matrix).max() <= 1e-5


def _reference_converge(model, config):
    """The convergence rows computed one step at a time through the public evals."""
    v = model.vocab_size
    z_old = np.zeros(v) if config.z_old is None else config.z_old
    if model.family is Family.TABULAR:
        model, lam = tabular_policy(1, v, init_logits=z_old), 1.0
    else:
        phi = model.features[0]
        lam = float(phi @ phi)
        model = model.with_theta((np.outer(z_old, phi) / lam).ravel())
    curvature = CURVATURE[config.objective]
    c = curvature / v
    rho = abs(1.0 - config.eta * c * lam)
    anchor = np.float64(config.advantages @ config.advantages) / np.float64(config.beta) ** 2
    residual = forward(model, 0) - optimal_logits(z_old, config.advantages, config.beta)
    rows = []
    for k in range(config.steps + 1):
        bound = float(curvature / (2.0 * v) * rho ** (2 * k) * anchor)
        rows.append((k, evaluate(config.objective, residual, np.zeros(v)).value, bound, float(np.abs(residual).max())))
        residual = residual - (config.eta * c) * (lam * residual)
    return rho, rows


def _random_converge(rng, family, objective):
    """A drawn single-state model of ``family`` and a convergence config that contracts on it."""
    v = int(rng.choice([2, 5, 16, 64]))
    feature_dim = int(rng.integers(1, 7))
    seed = int(rng.integers(10_000))
    lam = 1.0
    model = tabular_policy(1, v)
    if family is Family.LINEAR:
        model = linear_policy(1, v, feature_dim, seed=seed)
        phi = model.features[0]
        lam = float(phi @ phi)
    c = CURVATURE[objective] / v
    return model, ConvergeConfig(
        objective, advantages=rng.uniform(-3.0, 3.0, v), eta=float(rng.uniform(0.1, 1.9)) / (c * lam),
        steps=int(rng.integers(1, 400)), beta=float(rng.uniform(0.3, 3.0)), z_old=rng.uniform(-2.0, 2.0, v),
    )


def test_converge_matches_a_per_row_reference():
    rng = np.random.default_rng(12)
    runs = [build_converge(parse_config(CONFIGS / "converge_tabular_mse.cfg"))]
    for family in (Family.TABULAR, Family.LINEAR):
        for objective in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH):
            runs += [_random_converge(rng, family, objective) for _ in range(8)]
    for model, config in runs:
        result = converge_experiment(model, config)
        rho, rows = _reference_converge(model, config)
        assert result.rho == rho
        columns = (result.loss, result.bound, result.residual_inf)
        assert all(column.shape == (config.steps + 1,) for column in columns)
        assert list(zip(range(config.steps + 1), *(column.tolist() for column in columns))) == rows


def _violations_per_row(result):
    """``converge_violations`` one iterate at a time."""
    count = 0
    for loss, bound, residual_inf in zip(result.loss, result.bound, result.residual_inf):
        if result.objective is ObjectiveKind.LCO_LCH and residual_inf > LCH_NEIGHBORHOOD:
            continue
        if loss < UNDERFLOW_FLOOR:
            continue
        if loss > bound * (1.0 + ENVELOPE_SLACK):
            count += 1
    return count


def test_converge_violations_equal_a_per_row_count():
    rng = np.random.default_rng(21)
    counts = []
    for family in (Family.TABULAR, Family.LINEAR):
        for objective in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH):
            for _ in range(10):
                result = converge_experiment(*_random_converge(rng, family, objective))
                n = result.loss.size
                # columns at the edges of every test: the slack, the floor, the
                # neighborhood, NaN, and losses that leave the envelope
                edges = np.array([1.0, 1.0 + ENVELOPE_SLACK, 1.0 + 2.0 * ENVELOPE_SLACK, 10.0, np.nan])
                bound = np.where(rng.random(n) < 0.5, result.bound, rng.choice([1e-310, 1e-300, 1.0], n))
                edited = dataclasses.replace(
                    result,
                    loss=np.where(rng.random(n) < 0.5, result.loss, bound * rng.choice(edges, n)),
                    bound=bound,
                    residual_inf=np.where(
                        rng.random(n) < 0.5, result.residual_inf, rng.choice([0.1, LCH_NEIGHBORHOOD, 0.6, np.nan], n)
                    ),
                )
                for case in (result, edited):
                    counts.append(converge_violations(case))
                    assert counts[-1] == _violations_per_row(case)
    assert max(counts) > 0


def _count_calls(monkeypatch, kinds):
    """Wrap the row value of each of ``kinds`` in the table; returns the running call count."""
    calls = [0]
    for kind in kinds:
        value = OBJECTIVES[kind].value

        def counted(*args, value=value):
            calls[0] += 1
            return value(*args)

        monkeypatch.setitem(OBJECTIVES, kind, dataclasses.replace(OBJECTIVES[kind], value=counted))
    return calls


@pytest.mark.parametrize("v", [2, 16])
def test_each_oracle_makes_one_value_call(monkeypatch, v):
    calls = _count_calls(monkeypatch, list(ObjectiveKind))
    rng = np.random.default_rng(v)

    value = OBJECTIVES[ObjectiveKind.LCO_KLD].value
    target = softmax(rng.uniform(-1.0, 1.0, v))
    central_gradient(lambda points: value(points, target, ()), rng.uniform(-1.0, 1.0, v))
    assert calls[0] == 1

    for kind in HESSIAN_KINDS:
        calls[0] = 0
        _analytic_and_numeric(rng, kind, v)
        assert calls[0] == 1, kind

    for family in (Family.TABULAR, Family.LINEAR):
        for objective in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH):
            calls[0] = 0
            converge_experiment(*_random_converge(rng, family, objective))
            assert calls[0] == 1


def test_central_gradient_is_exact_on_quartics():
    # the five-point rule has an O(h^4) truncation error: nil up to degree 4
    coefficients = np.array([0.5, -1.0, 0.25])
    f = lambda points: (coefficients * points**4 - points**3).sum(axis=1)
    z = np.array([0.3, -0.7, 1.1])
    exact = 4.0 * coefficients * z**3 - 3.0 * z**2
    assert np.abs(central_gradient(f, z, step=0.125) - exact).max() < 1e-12


def test_gradient_suite_passes_at_seed_offsets_0_to_9():
    default = inspect.signature(suite_gradients).parameters["seed"].default
    for offset in range(10):
        result = suite_gradients(seed=default + offset)
        assert (result.cases, result.failures) == (1300, 0), offset


def test_ppo_gradient_stencil_stays_in_the_active_region():
    # the five-point stencil reaches z +/- 2h e_i; each of those points must
    # keep the clip gate open or the unclipped oracle is the wrong function
    rng = np.random.default_rng(3)
    for i in range(400):
        v = (2, 3, 5, 16)[i % 4]
        step, z = _ppo_case(rng, v)
        for offset in (-2.0, -1.0, 1.0, 2.0):
            for bump in offset * GRAD_STEP * np.eye(v):
                assert ppo_active(z + bump, step)

