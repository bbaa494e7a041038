"""Logit-space Hessians, curvature certificates, and gradient-norm bounds.

A loss is "logits convex" when its Hessian with respect to the logit vector
is positive semi-definite.  This module builds those Hessians analytically
for every objective, cross-checks them with second differences, certifies
non-convexity of the clipped surrogate with a witness direction, the
eigenvector of its Hessian's least eigenvalue, and evaluates the
loss-anchored gradient-norm bounds of the LCO objectives.
The analytic Hessians and bounds are entries of
``objectives.OBJECTIVES``, which documents their forms; this module looks
them up.  Both Hessians take the table's point (z, target, step), the
input form of every objective's kernel and row value, and check it once
with ``Objective.point``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import _softmax, as_logits, as_probs, check_action, check_integer, check_real
from .errors import InvalidInputError, KinkError, WitnessSearchError
from .linalg import require_symmetric
from .objectives import Objective, ObjectiveKind, entry, evaluate, ppo_hessian_matrix

WITNESS_TOL = 1e-8
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
    Every stencil point must lie where the objective's ``Objective.smooth``
    holds (for PPO, strictly inside the active region); a point across
    PPO's clip boundary raises KinkError because the loss is not twice
    differentiable there.
    """
    objective = _with_hessian(kind)
    z, target, step = objective.point(z, target, step)
    h = check_real(h, "h")

    n = z.size
    bump = h * np.eye(n)
    rows, cols = np.triu_indices(n, 1)
    bi, bj = bump[rows], bump[cols]
    points = z + np.concatenate([np.zeros((1, n)), 2 * bump, -2 * bump, bi + bj, bi - bj, bj - bi, -bi - bj])
    if not np.isfinite(points).all():
        raise InvalidInputError("z must stay finite at every stencil point, z +/- 2h e_i and z +/- h e_i +/- h e_j")
    if objective.smooth is not None and not objective.smooth(points, step):
        raise KinkError("stencil point crossed the clip boundary")

    f = objective.value(points, target, step)
    center, plus, minus, corners = f[0], f[1 : n + 1], f[n + 1 : 2 * n + 1], f[2 * n + 1 :].reshape(4, -1)
    hess = np.empty((n, n))
    hess[np.diag_indices(n)] = (plus - 2 * center + minus) / (4 * h * h)
    hess[rows, cols] = hess[cols, rows] = (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * h * h)
    return _report(0.5 * (hess + hess.T))


def _with_hessian(kind: ObjectiveKind) -> Objective:
    objective = entry(kind)
    if objective.hessian is None:
        raise InvalidInputError(f"no Hessian for {kind!r}")
    return objective


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(require_symmetric(matrix))[0])


def ppo_witness(pi, action: int, advantage_sign: int) -> np.ndarray:
    """Direction v with v^T H v < -1e-8 for the clipped-surrogate Hessian.

    The witness is the unit eigenvector of the least eigenvalue of the
    on-policy Hessian (pi_old(a) = pi(a), |A| = 1), as ``HessianReport``
    holds it; positive scale factors cannot change the certified sign.
    That Hessian is indefinite for A > 0 iff pi(a) < 1/2, and for A < 0 iff
    V >= 3 or pi(a) > 1/2.  Where the least eigenvalue is not below -1e-8,
    WitnessSearchError is raised with it.
    """
    pi = as_probs(pi, "pi")
    action = check_action(action, pi.size)
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise InvalidInputError("witness search needs a non-degenerate distribution")
    if advantage_sign not in (1, -1):
        raise InvalidInputError("advantage_sign must be +1 or -1")

    report = _report(ppo_hessian_matrix(pi, action, float(advantage_sign), float(pi[action])))
    if report.witness is None:
        raise WitnessSearchError(
            f"least eigenvalue {report.min_eigenvalue:.6g} is not below {-WITNESS_TOL} "
            f"(pi(a) = {pi[action]:.6g}, sign {advantage_sign:+d})"
        )
    return report.witness


def directionality(kind: ObjectiveKind, z, z_star, pi_star=None) -> float:
    """Inner product of the logit gradient with the displacement z - z*.

    Nonnegative for every convex objective by the first-order condition at
    a minimizer.  For LCO_KLD the representative target logits are used; any
    constant shift of them is invisible because that gradient sums to zero.
    """
    objective = entry(kind)
    if objective.target is None:
        raise InvalidInputError(f"directionality is defined for LCO objectives, not {kind!r}")
    z = as_logits(z, "z")
    z_star = as_logits(z_star, "z_star")
    if objective.target == "policy" and pi_star is not None:
        target = as_probs(pi_star, "pi_star")
    else:
        target = objective.target_at(z_star)
    return float(evaluate(kind, z, target).logit_gradient @ (z - z_star))


def gradient_norm_bound(kind: ObjectiveKind, loss_value: float, sigma_max: float, vocab_size: int) -> float:
    """Loss-anchored upper bound on the parameter-gradient norm.

    LCO_MSE: (2/V) sigma sqrt(V L); LCO_LCH: (1/V) sigma sqrt(V (1 - e^{-2L}));
    LCO_KLD: sigma sqrt(2 L).  Monotone increasing in the loss, so the bound
    dissipates as training closes in on the target.
    """
    bound = entry(kind).bound
    if bound is None:
        raise InvalidInputError(f"no gradient-norm bound for {kind!r}")
    _check_bound_inputs(loss_value, sigma_max)
    return float(bound(loss_value, sigma_max, check_integer(vocab_size, "vocab_size", 2)))


def _check_bound_inputs(loss_value: float, sigma_max: float) -> None:
    """The scalar checks of ``gradient_norm_bound``: the loss and sigma_max in their intervals."""
    check_real(loss_value, "loss_value", "loss")
    check_real(sigma_max, "sigma_max")


def bound_check(
    kind: ObjectiveKind,
    actual_gradient_norm: float,
    loss_value: float,
    sigma_max: float,
    vocab_size: int,
) -> BoundCheck:
    actual_gradient_norm = check_real(actual_gradient_norm, "actual_gradient_norm")
    bound = gradient_norm_bound(kind, loss_value, sigma_max, vocab_size)
    return BoundCheck(
        actual_gradient_norm=actual_gradient_norm,
        bound_value=bound,
        satisfied=actual_gradient_norm <= bound + BOUND_SLACK,
        objective=kind,
        sigma_max=float(sigma_max),
    )
