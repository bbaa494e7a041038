"""Randomized property suites behind the ``verify`` subcommand.

Each suite draws seeded cases and checks one family of contracts.  It is
written as a generator that yields one verdict per case, truthy when that
case failed; ``_suite`` turns it into the public function that counts the
verdicts into a ``SuiteResult`` and registers it in ``SUITES`` under the
name after ``suite_``.  A suite therefore states only what it checks, and
cases are counted in one place.  The same suites back the acceptance
tests, so the CLI and the test harness cannot drift apart.

A suite that sweeps the objectives reads each one from its
``OBJECTIVES`` entry: ``_point`` draws a case's (z, target, step) from
the entry's facts alone, and the oracle is the entry's row value, so no
suite restates an objective.  ``suite_dynamics`` runs the shipped
configs through ``config.train``, as ``lco-lab train`` runs them, and
counts envelope violations with ``training.envelope_violations``, as
``lco-lab dynamics`` counts them.  ``suite_recovery`` runs each of its
runs as ``training.run_steps``, the loop every run is, and leaves it at
its stop rule: the first rising loss by ``training.rises``, the test of
``suite_convergence``'s monotone verdict, or the target reached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import config as cfg
from . import convexity, dist, objectives, targets
from .envs import TableReward, ToyEnvironment
from .errors import InvalidInputError, WitnessSearchError
from .objectives import OBJECTIVES, ObjectiveKind
from .policy import _kernel_scale, forward, linear_policy, mlp1_policy, pullback, sigma_max, tabular_policy
from .training import (
    ConvergeConfig,
    TrainerConfig,
    _curvature,
    converge_experiment,
    converge_violations,
    envelope_violations,
    rises,
    run_steps,
)

GRAD_STEP = 1e-3
GRAD_REL_TOL = 1e-6
GRAD_FLOOR = 1e-8

CONVERGENCE_RUNS = 20  # drawn layouts, each run for 2 families x 2 objectives
CONVERGENCE_STEPS = 500
RECOVERY_RUNS = 20
RECOVERY_MAX_STEPS = 10_000
SMOOTHING_WINDOW = 50  # trailing steps ``suite_dynamics`` averages gradient norms over

# the checkout's shipped configs, three of which ``suite_dynamics`` runs
CONFIGS = Path(__file__).resolve().parents[2] / "configs"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


# every suite, by name, in definition order
SUITES: dict[str, Callable[..., SuiteResult]] = {}


def _suite(verdicts: Callable[..., Iterator[object]]) -> Callable[..., SuiteResult]:
    """The public suite behind a generator of per-case verdicts, registered in ``SUITES``.

    Each yielded verdict is one case, and a truthy one is a failure, read
    as the ``if`` test it replaces would read it.  The suite keeps the
    generator's name, docstring and signature.
    """
    name = verdicts.__name__.removeprefix("suite_")

    @functools.wraps(verdicts)
    def suite(*args, **kwargs) -> SuiteResult:
        failed = [bool(verdict) for verdict in verdicts(*args, **kwargs)]
        return SuiteResult(name, len(failed), sum(failed))

    SUITES[name] = suite
    return suite


def central_gradient(
    f: Callable[[np.ndarray], np.ndarray], z: np.ndarray, step: float = GRAD_STEP
) -> np.ndarray:
    """Five-point central-difference gradient of a row-batched function at z.

    ``f`` maps an (n, V) stack of points to their n values.  The 4V stencil
    points z +/- h e_i and z +/- 2h e_i go to ``f`` in one call, and

        g_i = (f(z - 2h e_i) - 8 f(z - h e_i) + 8 f(z + h e_i) - f(z + 2h e_i)) / 12h,

    whose truncation error is O(h^4) (Fornberg 1988, Math. Comp. 51), so the
    step can be h = 1e-3 and its roundoff, ~eps |f| / h, stays near 1e-12.
    A three-point rule needs h ~ 1e-5 for the same truncation error, and its
    ~1e-11 roundoff fails gradient components of ~1e-5 at the 1e-6 relative
    tolerance.
    """
    offsets = np.multiply.outer(np.array([-2.0, -1.0, 1.0, 2.0]) * step, np.eye(z.size))
    values = f((z + offsets).reshape(-1, z.size)).reshape(4, z.size)
    return (values[0] - 8.0 * values[1] + 8.0 * values[2] - values[3]) / (12.0 * step)


def gradient_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> bool:
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = np.abs(analytic - numeric) > GRAD_REL_TOL * scale
    return bool(np.any(bad & (scale >= GRAD_FLOOR)))


# ---------------------------------------------------------------------------
# distribution primitives
# ---------------------------------------------------------------------------


@_suite
def suite_dist(seed: int = 101):
    rng = np.random.default_rng(seed)

    for _ in range(200):
        v = int(rng.integers(2, 17))
        z = rng.uniform(-4.0, 4.0, v)
        c = float(rng.uniform(-100.0, 100.0))
        yield np.abs(dist.softmax(z + c) - dist.softmax(z)).max() > 1e-12
        yield np.abs(np.exp(dist.log_softmax(z)) - dist.softmax(z)).max() > 1e-12

    for _ in range(1000):
        v = int(rng.integers(2, 17))
        p = dist.softmax(rng.uniform(-3.0, 3.0, v))
        q = dist.softmax(rng.uniform(-3.0, 3.0, v))
        kl = dist.kl_divergence(p, q)
        yield kl < 0.0 or (kl < 1e-15 and dist.total_variation(p, q) >= 1e-14)

    for _ in range(1000):
        v = int(rng.integers(2, 17))
        yield abs(float(dist.normalize_advantages(rng.uniform(-5.0, 5.0, v)).mean())) > 1e-12

    # the batched sampler must replay per-call draws on one generator exactly
    p = dist.softmax(np.array([0.3, -0.2, 0.8, 0.0]))
    per_call = np.random.default_rng(7)
    seq_a = [dist.sample_action(p, 0.7, 0.9, per_call) for _ in range(100)]
    seq_b = dist.sample_actions(p, 0.7, 0.9, np.random.default_rng(7), 100).tolist()
    yield seq_a != seq_b

    uniform = np.full(4, 0.25)
    n = 100_000
    draws = np.bincount(dist.sample_actions(uniform, 1.0, 1.0, np.random.default_rng(13), n), minlength=4)
    sigma = np.sqrt(n * 0.25 * 0.75)
    yield np.abs(draws - n * 0.25).max() > 3.0 * sigma


# ---------------------------------------------------------------------------
# gradient formulas (finite-difference oracle)
# ---------------------------------------------------------------------------


def _ppo_case(rng: np.random.Generator, v: int):
    """A PPO step tuple and logits near its behavioral ones, inside the active region by a margin."""
    while True:
        z_old = rng.uniform(-2.0, 2.0, v)
        action = int(rng.integers(v))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        adv_scalar = sign * float(rng.uniform(0.1, 2.0))
        behavioral = float(dist.softmax(z_old)[action])
        z = z_old + rng.uniform(-0.05, 0.05, v)
        ratio = dist.softmax(z)[action] / behavioral
        margin = 0.01
        active = (adv_scalar > 0 and ratio < 1.2 - margin) or (adv_scalar < 0 and ratio > 0.8 + margin)
        if active:
            return (action, adv_scalar, behavioral, 0.2), z


def _point(rng: np.random.Generator, kind: ObjectiveKind, v: int, scale: float):
    """A drawn point (z, target, step) of ``kind`` at vocabulary size v, from its table facts alone.

    An objective with a kink (``Objective.smooth`` set: PPO's clip gate)
    takes ``_ppo_case``'s point, inside its smooth region by a margin.  Any
    other draws logits and target logits in U(-scale, scale), the target
    in the entry's form (``target_at``; none without one), and reads the
    first ``reads`` values of (action, advantage in U(-2, 2)).
    """
    objective = OBJECTIVES[kind]
    if objective.smooth is not None:
        step, z = _ppo_case(rng, v)
        return z, None, step
    z = rng.uniform(-scale, scale, v)
    target = objective.target_at(rng.uniform(-scale, scale, v)) if objective.target else None
    return z, target, (int(rng.integers(v)), float(rng.uniform(-2.0, 2.0)))[: objective.reads]


def _gradient_fails(kind: ObjectiveKind, z: np.ndarray, target, step: tuple) -> bool:
    """Whether ``evaluate``'s logit gradient misses the row value's five-point one at the point.

    A gradient through the softmax must also sum to zero, as every gradient
    of a loss without a logit target does.
    """
    objective = OBJECTIVES[kind]
    gradient = objectives.evaluate(kind, z, target, step).logit_gradient
    oracle = central_gradient(lambda points: objective.value(points, target, step), z)
    return gradient_mismatch(gradient, oracle) or (objective.target != "logits" and abs(gradient.sum()) > 1e-12)


def _clipped_case(rng: np.random.Generator):
    """A positive-advantage PPO step and logits whose ratio is past 1 + eps by a margin."""
    while True:
        v = int(rng.integers(2, 6))
        z_old = rng.uniform(-1.0, 1.0, v)
        action = int(rng.integers(v))
        behavioral = float(dist.softmax(z_old)[action])
        z = z_old.copy()
        z[action] += 2.0
        # a large pi_old(a) leaves too little room for the ratio to pass 1 + eps
        if dist.softmax(z)[action] / behavioral > 1.0 + 0.2 + 0.01:
            return (action, 1.0, behavioral, 0.2), z


@_suite
def suite_gradients(seed: int = 202):
    """Analytic logit gradients against the five-point finite-difference oracle.

    The gradient under test is ``objectives.evaluate`` of each kind, whose
    table kernel looks up its arithmetic in ``objectives`` at call time; the
    oracle is always the objective table's row value, one call per case.
    Each case draws its point with ``_point``, so PPO's lies inside the clip
    gate by a margin, where its row value is the unclipped surrogate -r A.
    """
    rng = np.random.default_rng(seed)
    sizes = (2, 3, 5, 16)

    for i in range(200):
        for kind in OBJECTIVES:
            yield _gradient_fails(kind, *_point(rng, kind, sizes[i % len(sizes)], 2.0))

    # clipped region returns the exact zero vector
    for _ in range(50):
        step, z = _clipped_case(rng)
        evaluation = objectives.evaluate(ObjectiveKind.PPO, z, step=step)
        yield objectives.ppo_active(z, step) or np.any(evaluation.logit_gradient != 0.0)

    # the supervised loss at the vocabulary sizes the sweep above does not reach
    for _ in range(50):
        yield _gradient_fails(ObjectiveKind.SFT, *_point(rng, ObjectiveKind.SFT, int(rng.integers(17, 65)), 2.0))


# ---------------------------------------------------------------------------
# Hessians: PSD family, clipped-surrogate witnesses, numeric agreement
# ---------------------------------------------------------------------------


@_suite
def suite_hessian(seed: int = 303):
    rng = np.random.default_rng(seed)

    for kind in (ObjectiveKind.SFT, ObjectiveKind.LCO_KLD):
        for _ in range(1000):
            v = int(rng.integers(2, 17))
            z = rng.uniform(-3.0, 3.0, v)
            # both curvatures read pi = softmax(z) alone: any token, any target
            report = convexity.hessian_analytic(kind, z, dist.softmax(z), (0,))
            yield report.min_eigenvalue < -1e-9

    for _ in range(200):
        v = int(rng.integers(2, 17))
        report = convexity.hessian_analytic(ObjectiveKind.LCO_MSE, np.zeros(v), np.zeros(v))
        yield np.abs(report.matrix - (2.0 / v) * np.eye(v)).max() > 1e-12 or (
            abs(report.min_eigenvalue - 2.0 / v) > 1e-12 or abs(report.max_eigenvalue - 2.0 / v) > 1e-12
        )

    for _ in range(200):
        v = int(rng.integers(2, 17))
        residual = rng.uniform(-3.0, 3.0, v)
        report = convexity.hessian_analytic(ObjectiveKind.LCO_LCH, residual, np.zeros(v))
        radius = float(np.abs(residual).max())
        floor = 1.0 / (v * np.cosh(radius) ** 2)
        yield (
            report.min_eigenvalue <= 0.0
            or report.max_eigenvalue > 1.0 / v + 1e-15
            or report.min_eigenvalue < floor - 1e-12
        )

    # the clipped surrogate's convexity map: on-policy, its Hessian is
    # indefinite for A > 0 iff pi(a) < 1/2, and for A < 0 iff V >= 3 or
    # pi(a) > 1/2; a witness must exist exactly there and certify it.  Half
    # the draws take V = 2, the only size with a PSD side for A < 0
    for sign in (1, -1):
        for _ in range(100):
            v = 2 if rng.random() < 0.5 else int(rng.integers(3, 65))
            pi = dist.softmax(rng.uniform(-4.0, 4.0, v))
            # half the draws take the likeliest action, the one whose pi(a) can pass 1/2
            action = int(np.argmax(pi)) if rng.random() < 0.5 else int(rng.integers(v))
            pi_a = float(pi[action])
            indefinite = pi_a < 0.5 if sign > 0 else (v >= 3 or pi_a > 0.5)
            try:
                witness = convexity.ppo_witness(pi, action, sign)
            except WitnessSearchError:
                yield indefinite
                continue
            hess = convexity.ppo_hessian_matrix(pi, action, float(sign), pi_a)
            yield not indefinite or float(witness @ hess @ witness) >= -1e-8

    # the analytic and the numeric Hessian at one drawn point per case
    for kind in [kind for kind, objective in OBJECTIVES.items() if objective.hessian is not None]:
        for _ in range(100):
            point = (kind, *_point(rng, kind, int(rng.choice([2, 3, 5])), 1.5))
            analytic, numeric = convexity.hessian_analytic(*point), convexity.hessian_numeric(*point)
            yield np.abs(analytic.matrix - numeric.matrix).max() > 1e-5


# ---------------------------------------------------------------------------
# closed-form targets
# ---------------------------------------------------------------------------


@_suite
def suite_targets(seed: int = 404):
    rng = np.random.default_rng(seed)

    for _ in range(500):
        v = int(rng.integers(2, 9))
        z_old = rng.uniform(-2.0, 2.0, v)
        advantages = rng.uniform(-2.0, 2.0, v)
        beta = float(rng.uniform(0.3, 3.0))
        z_star = targets.optimal_logits(z_old, advantages, beta)
        pi_star = targets.optimal_policy(dist.softmax(z_old), advantages, beta)
        yield np.abs(dist.softmax(z_star) - pi_star).max() > 1e-10

    for _ in range(200):
        v = int(rng.integers(2, 7))
        pi_old = dist.softmax(rng.uniform(-2.0, 2.0, v))
        advantages = rng.uniform(-2.0, 2.0, v)
        beta = float(rng.uniform(0.3, 3.0))
        pi_star = targets.optimal_policy(pi_old, advantages, beta)
        gaps = _objective_gaps(_perturbations(rng, pi_star, 10_000), pi_star, pi_old, advantages, beta)
        yield not np.all(gaps < 0.0)

    for _ in range(200):
        v = int(rng.integers(2, 10))
        advantages = rng.uniform(-3.0, 3.0, v)
        shift = targets.optimal_shift(advantages)
        yield abs(shift - _vertex_shift(advantages)) > 1e-6
        yield abs(targets.optimal_shift(dist.normalize_advantages(advantages))) > 1e-12
        # the optimal shift beats 100 random competitors
        best_norm = float(((advantages + shift) ** 2).sum())
        competitors = rng.uniform(-5.0, 5.0, 100)
        yield np.any(((advantages[None, :] + competitors[:, None]) ** 2).sum(axis=1) < best_norm - 1e-12)


def _objective_gaps(
    p: np.ndarray, q: np.ndarray, pi_old: np.ndarray, advantages: np.ndarray, beta: float
) -> np.ndarray:
    """J(p) - J(q) for each column p of a (V, n) stack, where J(p) = p.A - beta KL(p || pi_old).

    Taken as delta.(g - q.g) - beta KL(p || q), with delta = p - q and
    g = A - beta log(q / pi_old), which holds for any q, and so keeps the
    O(TV^2) gap near the optimum that a difference of two O(1) values
    loses to roundoff.  KL(p || q) = sum(p log1p(delta / q) - delta), with
    p log(p / q) = 0 where p = 0.  Each sum over the V actions runs down
    axis 0, across n-long rows.
    """
    g = advantages - beta * np.log(q / pi_old)
    delta = p - q[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(p > 0.0, p * np.log1p(delta / q[:, None]), 0.0) - delta
    return (g - q @ g) @ delta - beta * kl.sum(axis=0)


def _perturbations(rng: np.random.Generator, pi_star: np.ndarray, count: int) -> np.ndarray:
    """Up to ``count`` distributions near and far from pi*, as the columns of a C-contiguous (V, n) stack.

    A quarter are Dirichlet(1) draws; the rest are pi* under multiplicative
    noise at three scales, renormalized.  Columns within 1e-9 of pi* in
    total variation are dropped.
    """
    v = pi_star.size
    quarters = count // 4
    blocks = [rng.dirichlet(np.ones(v), size=count - 3 * quarters).T]
    for scale in (1e-3, 1e-2, 0.3):
        noise = np.ascontiguousarray(rng.standard_normal((quarters, v)).T)
        noisy = pi_star[:, None] * np.exp(scale * noise)
        blocks.append(noisy / noisy.sum(axis=0))
    perturbed = np.hstack(blocks)
    # keep only genuine perturbations; strict optimality needs a gap
    tv = 0.5 * np.abs(perturbed - pi_star[:, None]).sum(axis=0)
    return perturbed.compress(tv > 1e-9, axis=1)


def _vertex_shift(advantages: np.ndarray) -> float:
    """Vertex of the exact parabola C -> ||A + C*1||^2 through its samples at C = -1, 0, 1."""
    y_minus, y_zero, y_plus = (float(((advantages + c) ** 2).sum()) for c in (-1.0, 0.0, 1.0))
    return (y_minus - y_plus) / (2.0 * (y_minus - 2.0 * y_zero + y_plus))


# ---------------------------------------------------------------------------
# gradient-norm bounds and directionality
# ---------------------------------------------------------------------------


def _random_model(rng: np.random.Generator, v: int):
    pick = int(rng.integers(3))
    if pick == 0:
        model = tabular_policy(1, v)
        model = model.with_theta(rng.uniform(-2.0, 2.0, model.n_params))
    elif pick == 1:
        model = linear_policy(1, v, int(rng.integers(2, 7)), seed=int(rng.integers(10_000)))
        model = model.with_theta(rng.uniform(-1.0, 1.0, model.n_params))
    else:
        model = mlp1_policy(
            1, v, int(rng.integers(2, 5)), hidden=int(rng.integers(4, 17)), seed=int(rng.integers(10_000))
        )
    return model


@_suite
def suite_bounds(seed: int = 505):
    rng = np.random.default_rng(seed)
    for kind in objectives.LCO_KINDS:
        target_at = OBJECTIVES[kind].target_at
        for _ in range(500):
            v = int(rng.integers(2, 9))
            model = _random_model(rng, v)
            z = forward(model, 0)
            offset = rng.uniform(-2.0, 2.0, v)
            evaluation = objectives.evaluate(kind, z, target_at(z + offset))
            grad_theta = pullback(model, 0, evaluation.logit_gradient)
            check = convexity.bound_check(
                kind, float(np.linalg.norm(grad_theta)), max(evaluation.value, 0.0), sigma_max(model, 0), v
            )
            yield not check.satisfied


@_suite
def suite_directionality(seed: int = 606):
    rng = np.random.default_rng(seed)

    for _ in range(500):
        v = int(rng.integers(2, 9))
        z = rng.uniform(-3.0, 3.0, v)
        z_star = rng.uniform(-3.0, 3.0, v)
        yield convexity.directionality(ObjectiveKind.LCO_KLD, z, z_star) < -1e-12

    for _ in range(200):
        v = int(rng.integers(2, 9))
        z = rng.uniform(-3.0, 3.0, v)
        z_star = rng.uniform(-3.0, 3.0, v)
        value = convexity.directionality(ObjectiveKind.LCO_MSE, z, z_star)
        identity = 2.0 / v * float(((z - z_star) ** 2).sum())
        yield value < -1e-12 or abs(value - identity) > 1e-10 * max(identity, 1.0)
        value = convexity.directionality(ObjectiveKind.LCO_LCH, z, z_star)
        yield value < -1e-12

    # any constant shift of the representative target logits is invisible
    for _ in range(200):
        v = int(rng.integers(2, 9))
        z = rng.uniform(-3.0, 3.0, v)
        z_star = rng.uniform(-3.0, 3.0, v)
        c = float(rng.uniform(-5.0, 5.0))
        pi_star = dist.softmax(z_star)
        base = convexity.directionality(ObjectiveKind.LCO_KLD, z, z_star, pi_star=pi_star)
        shifted = convexity.directionality(ObjectiveKind.LCO_KLD, z, z_star + c, pi_star=pi_star)
        yield abs(base - shifted) > 1e-9

    # on an exactly linear model the parameter-space inner product inherits
    # the sign with zero linearization residual
    for _ in range(200):
        v = int(rng.integers(2, 7))
        model = linear_policy(1, v, int(rng.integers(2, 6)), seed=int(rng.integers(10_000)))
        model = model.with_theta(rng.uniform(-1.0, 1.0, model.n_params))
        z = forward(model, 0)
        z_star = z + rng.uniform(-2.0, 2.0, v)
        # the least-norm step to logits z*: J^T (z* - z) over lam of J J^T = lam I
        theta_star = model.theta + pullback(model, 0, z_star - z) / _kernel_scale(model, 0)
        kind = objectives.LCO_KINDS[int(rng.integers(3))]
        grad_z = objectives.evaluate(kind, z, OBJECTIVES[kind].target_at(z_star)).logit_gradient
        grad_theta = pullback(model, 0, grad_z)
        yield float(grad_theta @ (model.theta - theta_star)) < -1e-10


# ---------------------------------------------------------------------------
# convergence envelopes and target recovery
# ---------------------------------------------------------------------------


def _slope_misses(kind: ObjectiveKind, v: int, c: float) -> bool:
    """Whether c, read from the Hessian at the target, misses the slope of ``evaluate``'s gradient there.

    The slope is g(h e_0)[0] / h at h = 2^-20 against a zero target: exact
    for LCO-MSE's (2/V) r, and tanh(h) / (V h) = (1 - h^2/3 + ...) / V, about
    3e-13 below c, for LCO-LCH's.  A Hessian and a gradient that disagree on
    the scale miss by far more than 1e-9 c.
    """
    h = 2.0**-20
    slope = objectives.evaluate(kind, h * np.eye(v)[0], np.zeros(v)).logit_gradient[0] / h
    return abs(slope - c) > 1e-9 * c


@_suite
def suite_convergence(seed: int = 707):
    rng = np.random.default_rng(seed)
    for _ in range(CONVERGENCE_RUNS):
        v = int(rng.choice([2, 3, 4, 8]))
        advantages = rng.uniform(-1.0, 1.0, v) * 2.0
        beta = float(rng.uniform(0.5, 2.0))
        z_old = rng.uniform(-1.0, 1.0, v)
        u = float(rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 1.9)]))
        model_seed = int(rng.integers(100_000))
        feature_dim = int(rng.integers(2, 6))
        for model in (tabular_policy(1, v), linear_policy(1, v, feature_dim, seed=model_seed)):
            lam = _kernel_scale(model, 0)
            for objective in (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH):
                c = _curvature(objective, v)
                config = ConvergeConfig(
                    objective, advantages, eta=u / (c * lam), steps=CONVERGENCE_STEPS, beta=beta, z_old=z_old
                )
                result = converge_experiment(model, config)
                yield converge_violations(result) > 0 or _slope_misses(objective, v, c)
                yield np.any(rises(result.loss[:-1], result.loss[1:]))


@_suite
def suite_recovery(seed: int = 808):
    rng = np.random.default_rng(seed)
    for _ in range(RECOVERY_RUNS):
        v = int(rng.integers(2, 7))
        z_old = rng.uniform(-1.0, 1.0, v)
        advantages = rng.uniform(-1.0, 1.0, v)
        pi_star = targets.optimal_policy(dist.softmax(z_old), advantages, 1.0)

        env = ToyEnvironment(v, 1, TableReward(np.zeros((1, v))))
        config = TrainerConfig(
            objective=ObjectiveKind.LCO_KLD,
            learning_rate=0.5,
            steps=RECOVERY_MAX_STEPS,
            beta=1.0,
            seed=int(rng.integers(100_000)),
            snapshot_interval=RECOVERY_MAX_STEPS + 1,
            scorer_table=advantages[None, :],
        )
        model = tabular_policy(env.n_states, v, init_logits=z_old)
        reached, previous = False, np.inf
        for state, record in run_steps(model, env, config):
            # the logit Hessian diag(pi) - pi pi^T has lambda_max <= 1/2 and J J^T = I,
            # so at eta = 0.5 < 4 a working run descends monotonically, and the
            # first rising loss ends a run as failed
            if rises(previous, record.loss):
                break
            previous = record.loss
            # the arithmetic of total_variation(softmax(forward(model, 0)), pi*) on the
            # trainer's own theta row, without re-checking arrays the trainer made
            if reached := dist._total_variation(dist._softmax(state.model.theta[:v]), pi_star) < 1e-6:
                break
        yield not reached


# ---------------------------------------------------------------------------
# qualitative training dynamics
# ---------------------------------------------------------------------------


def smoothed(series: list[float]) -> list[float]:
    """Trailing mean of each entry over the last ``SMOOTHING_WINDOW`` entries."""
    out = []
    for i in range(len(series)):
        lo = max(0, i - SMOOTHING_WINDOW + 1)
        out.append(float(np.mean(series[lo : i + 1])))
    return out


def _shipped_run(name: str):
    """The dynamics records of one shipped config, as ``lco-lab train`` runs it."""
    return cfg.train(cfg.parse_config(CONFIGS / name))[1]


@_suite
def suite_dynamics():
    # supervised decay: smoothed gradient norm non-increasing late in training
    records = _shipped_run("sft_decay.cfg")
    grads = [r.grad_norm_param for r in records]
    smooth = smoothed(grads)
    start = max(50, int(0.2 * len(smooth)) + 1)
    yield any(smooth[i] > smooth[i - 1] + 1e-12 for i in range(start, len(smooth)))

    # clipped surrogate: the gradient swells well past its early level, then
    # the gate closes and updates stop dead
    records = _shipped_run("ppo_clip_spike.cfg")
    grads = [r.grad_norm_param for r in records]
    initial = float(np.mean(grads[:50]))
    spike_steps = [i for i, g in enumerate(grads) if g > 2.0 * initial]
    yield not spike_steps or not any(g <= 1e-15 for g in grads[spike_steps[0] + 1 :])

    # the distribution-matching objective on the same task stays under its
    # loss-anchored envelope and decays to a small fraction of its peak
    records = _shipped_run("kld_negative.cfg")
    grads = [r.grad_norm_param for r in records]
    yield envelope_violations(records)
    smooth = smoothed(grads)
    tail = smooth[-max(1, len(smooth) // 10) :]
    yield max(tail) >= 0.2 * max(smooth)


def run_suites(names: list[str] | None = None) -> list[SuiteResult]:
    selected = names or list(SUITES)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise InvalidInputError(f"names must name suites of SUITES, got unknown {', '.join(unknown)}")
    return [SUITES[name]() for name in selected]
