"""Logit-space Hessians, curvature certificates, and gradient-norm bounds.

A loss is "logits convex" when its Hessian with respect to the logit vector
is positive semi-definite.  This module builds those Hessians analytically
for every objective, cross-checks them with second differences, certifies
non-convexity of the clipped surrogate with explicit witness directions,
and evaluates the loss-anchored gradient-norm bounds of the LCO objectives.
The analytic Hessians, curvature constants and bounds are entries of
``objectives.OBJECTIVES``, which documents their forms; this module looks
them up.  Both Hessians take the table's point (z, target, step), the
input form of every objective's kernel and row value, and check it once
with ``Objective.point``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import _softmax, as_logits, as_probs, check_action, check_integer
from .errors import InvalidInputError, KinkError, WitnessSearchError
from .linalg import require_symmetric
from .objectives import OBJECTIVES, Objective, ObjectiveKind, _ppo_gate, _ratio, evaluate, ppo_hessian_matrix

WITNESS_TOL = 1e-8
WITNESS_SEED = 0  # the random search of ``ppo_witness`` is seeded, so a certificate is reproducible
BOUND_SLACK = 1e-9  # absolute roundoff allowance of ``bound_check``


@dataclass(frozen=True)
class HessianReport:
    """Symmetric logit-space Hessian with its extreme eigenvalues.

    ``witness`` is populated only when a direction of curvature below
    -1e-8 exists; its quadratic form then certifies non-convexity.
    """

    matrix: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float
    witness: np.ndarray | None = None


@dataclass(frozen=True)
class BoundCheck:
    actual_gradient_norm: float
    bound_value: float
    satisfied: bool
    objective: ObjectiveKind
    sigma_max: float


def _report(matrix: np.ndarray) -> HessianReport:
    matrix = require_symmetric(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    witness = None
    if eigenvalues[0] < -WITNESS_TOL:
        witness = eigenvectors[:, 0].copy()
    return HessianReport(matrix, float(eigenvalues[0]), float(eigenvalues[-1]), witness)


def hessian_analytic(kind: ObjectiveKind, z, target=None, step=()) -> HessianReport:
    """Exact logit-space Hessian at the objective table's point (z, target, step).

    The point is checked by ``Objective.point``: SFT reads its target token
    from ``step``, PPO the whole step tuple and must lie in its active
    region, and the alignment objectives read their target.
    """
    objective = _with_hessian(kind)
    z, target, step = objective.point(z, target, step)
    return _report(objective.hessian(z, _softmax(z), target, step))


def hessian_numeric(kind: ObjectiveKind, z, target=None, step=(), h: float = 1e-3) -> HessianReport:
    """Second central differences of the scalar loss, symmetrized.

    At the same point as ``hessian_analytic``, H[i, i] comes from
    f(z +/- 2h e_i) and f(z), and H[i, j] (i < j) from the four corners
    f(z +/- h e_i +/- h e_j).  The whole stencil, 1 + 2V + 2V(V - 1) points,
    is evaluated in one call of the objective's row value
    (``Objective.value``), so the cost in Python does not grow with V^2.
    For PPO every stencil point must stay strictly inside the active
    region; a point across the clip boundary raises KinkError because the
    loss is not twice differentiable there.
    """
    objective = _with_hessian(kind)
    z, target, step = objective.point(z, target, step)
    if not h > 0.0:
        raise InvalidInputError("h must be positive")

    n = z.size
    bump = h * np.eye(n)
    rows, cols = np.triu_indices(n, 1)
    bi, bj = bump[rows], bump[cols]
    points = z + np.concatenate([np.zeros((1, n)), 2 * bump, -2 * bump, bi + bj, bi - bj, bj - bi, -bi - bj])
    if not np.isfinite(points).all():
        raise InvalidInputError("logits must be finite at every stencil point")
    if kind is ObjectiveKind.PPO:  # the one objective with a clip boundary
        a, adv, behavioral, eps = step
        if not all(_ppo_gate(adv, _ratio(float(p), behavioral), eps) for p in _softmax(points)[:, a]):
            raise KinkError("stencil point crossed the clip boundary")

    f = objective.value(points, target, step)
    center, plus, minus, corners = f[0], f[1 : n + 1], f[n + 1 : 2 * n + 1], f[2 * n + 1 :].reshape(4, -1)
    hess = np.empty((n, n))
    hess[np.diag_indices(n)] = (plus - 2 * center + minus) / (4 * h * h)
    hess[rows, cols] = hess[cols, rows] = (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * h * h)
    return _report(0.5 * (hess + hess.T))


def _with_hessian(kind: ObjectiveKind) -> Objective:
    objective = OBJECTIVES[kind]
    if objective.hessian is None:
        raise InvalidInputError(f"no Hessian for {kind!r}")
    return objective


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(require_symmetric(matrix))[0])


def ppo_witness(pi, action: int, advantage_sign: int, max_trials: int = 100_000) -> np.ndarray:
    """Direction v with v^T H v < -1e-8 for the clipped-surrogate Hessian.

    Basis candidates are tried first: e_a itself (negative curvature for a
    positive advantage whenever pi(a) < 1/2) and the non-sampled basis
    vectors (negative curvature for a negative advantage whenever some
    pi(j) < 1/2).  A seeded random search covers the rest of the budget.
    The on-policy Hessian (pi_old(a) = pi(a), |A| = 1) is used; positive
    scale factors cannot change the certified sign.
    """
    pi = as_probs(pi)
    action = check_action(action, pi.size)
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise InvalidInputError("witness search needs a non-degenerate distribution")
    if advantage_sign not in (1, -1):
        raise InvalidInputError("advantage_sign must be +1 or -1")

    hess = ppo_hessian_matrix(pi, action, float(advantage_sign), float(pi[action]))

    def form(v: np.ndarray) -> float:
        return float(v @ hess @ v)

    candidates = [np.eye(pi.size)[action]]
    for j in np.argsort(pi, kind="stable"):
        if int(j) != action:
            basis = np.zeros(pi.size)
            basis[int(j)] = 1.0
            candidates.append(basis)
    for v in candidates:
        if form(v) < -WITNESS_TOL:
            return v

    rng = np.random.default_rng(WITNESS_SEED)
    remaining = max_trials - len(candidates)
    for _ in range(max(remaining, 0)):
        v = rng.standard_normal(pi.size)
        if form(v) < -WITNESS_TOL:
            return v
    raise WitnessSearchError(
        f"no curvature below {-WITNESS_TOL} in {max_trials} trials "
        f"(pi(a) = {pi[action]:.6g}, sign {advantage_sign:+d})"
    )


def directionality(kind: ObjectiveKind, z, z_star, pi_star=None) -> float:
    """Inner product of the logit gradient with the displacement z - z*.

    Nonnegative for every convex objective by the first-order condition at
    a minimizer.  For LCO_KLD the representative target logits are used; any
    constant shift of them is invisible because that gradient sums to zero.
    """
    objective = OBJECTIVES[kind]
    if objective.target is None:
        raise InvalidInputError(f"directionality is defined for LCO objectives, not {kind!r}")
    z = as_logits(z)
    z_star = as_logits(z_star)
    target = pi_star if objective.target == "policy" and pi_star is not None else objective.target_at(z_star)
    return float(evaluate(kind, z, target).logit_gradient @ (z - z_star))


def gradient_norm_bound(kind: ObjectiveKind, loss_value: float, sigma_max: float, vocab_size: int) -> float:
    """Loss-anchored upper bound on the parameter-gradient norm.

    LCO_MSE: (2/V) sigma sqrt(V L); LCO_LCH: (1/V) sigma sqrt(V (1 - e^{-2L}));
    LCO_KLD: sigma sqrt(2 L).  Monotone increasing in the loss, so the bound
    dissipates as training closes in on the target.
    """
    bound = OBJECTIVES[kind].bound
    if bound is None:
        raise InvalidInputError(f"no gradient-norm bound for {kind!r}")
    if not (np.isfinite(loss_value) and loss_value >= 0.0):
        raise InvalidInputError(f"loss must be finite and nonnegative, got {loss_value!r}")
    if not (np.isfinite(sigma_max) and sigma_max >= 0.0):
        raise InvalidInputError(f"sigma_max must be finite and nonnegative, got {sigma_max!r}")
    return float(bound(loss_value, sigma_max, check_integer(vocab_size, "vocab_size", 2)))


def bound_check(
    kind: ObjectiveKind,
    actual_gradient_norm: float,
    loss_value: float,
    sigma_max: float,
    vocab_size: int,
) -> BoundCheck:
    bound = gradient_norm_bound(kind, loss_value, sigma_max, vocab_size)
    return BoundCheck(
        actual_gradient_norm=float(actual_gradient_norm),
        bound_value=bound,
        satisfied=bool(actual_gradient_norm <= bound + BOUND_SLACK),
        objective=kind,
        sigma_max=float(sigma_max),
    )
