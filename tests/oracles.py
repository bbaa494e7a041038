"""Independent oracles used by the tests: extended-precision evaluation,
finite differences, a Cholesky-bisection eigenvalue bracket, the dense
policy Jacobian, and the row-major forms of the optimality suite's
perturbations and objective gaps.

These deliberately avoid the library's own code paths.  The dense Jacobian
reads the model's parameter layout through ``policy._mlp_unpack`` and
builds J entry by entry, the reference that ``pullback`` and ``sigma_max``
are checked against.
"""

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, exp, log

from lco_lab.policy import Family, PolicyModel, _check_state, _mlp_unpack, sigma_max

mp.dps = 50


def softmax_hp(z):
    zs = [mpf(float(x)) for x in z]
    m = max(zs)
    weights = [exp(x - m) for x in zs]
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


def log_softmax_hp(z):
    zs = [mpf(float(x)) for x in z]
    m = max(zs)
    lse = m + log(sum(exp(x - m) for x in zs))
    return np.array([float(x - lse) for x in zs])


def entropy_hp(p):
    return float(-sum(mpf(float(x)) * log(mpf(float(x))) for x in p if x > 0))


def kl_hp(p, q):
    return float(
        sum(mpf(float(a)) * log(mpf(float(a)) / mpf(float(b))) for a, b in zip(p, q) if a > 0)
    )


def tempered_hp(p, temperature):
    """Distribution proportional to exp(log p / T), exact from the float64 exponents.

    An exponent that overflows to -inf carries no mass; when every one does,
    the T -> 0 limit puts uniform mass on the most probable actions.
    """
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        exponents = np.log(p) / temperature
    finite = [mpf(float(e)) for e in exponents if np.isfinite(e)]
    if finite:
        m = max(finite)
        weights = [exp(mpf(float(e)) - m) if np.isfinite(e) else mpf(0) for e in exponents]
    else:
        weights = [mpf(1) if x == p.max() else mpf(0) for x in p]
    total = sum(weights)
    return [w / total for w in weights]


def log_cosh_hp(x):
    from mpmath import cosh

    return float(log(cosh(mpf(float(x)))))


def central_diff(f, x, step=1e-5):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = step
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * step)
    return grad


def rel_close(a, b, rel=1e-6, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    ok = (np.abs(a - b) <= rel * scale) | (scale < floor)
    return bool(np.all(ok))


def min_eigenvalue_bisect(matrix, tol=1e-10):
    """Smallest eigenvalue via bisection on Cholesky feasibility of A - t*I."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    radius = float(np.abs(matrix).sum(axis=1).max()) + 1.0  # Gershgorin envelope
    lo, hi = -radius, radius  # A - lo*I is PD, A - hi*I is not

    def is_pd(t):
        try:
            np.linalg.cholesky(matrix - t * np.eye(n))
            return True
        except np.linalg.LinAlgError:
            return False

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_pd(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class JacobianInfo:
    """Per-state logit Jacobian (V x n_params) and its largest singular value."""

    J: np.ndarray
    sigma_max: float


def jacobian(model: PolicyModel, state: int) -> JacobianInfo:
    """Dense analytic Jacobian d z / d theta at one state, with sigma_max.

    The reference that ``pullback`` and ``sigma_max`` are tested against;
    training and the verify suites use those two instead.
    """
    state = _check_state(model, state)
    v, p = model.vocab_size, model.n_params

    if model.family is Family.TABULAR:
        jac = np.zeros((v, p))
        for a in range(v):
            jac[a, state * v + a] = 1.0
    elif model.family is Family.LINEAR:
        phi = model.features[state]
        jac = np.kron(np.eye(v), phi)
    else:
        w1, b1, w2, _ = _mlp_unpack(model)
        phi = model.features[state]
        h = np.tanh(w1 @ phi + b1)
        gate = 1.0 - h**2  # sech^2 of the pre-activation
        jac = np.zeros((v, p))
        for a in range(v):
            back = w2[a] * gate
            jac[a, : w1.size] = np.outer(back, phi).ravel()
            jac[a, w1.size : w1.size + b1.size] = back
            jac[a, w1.size + b1.size + a * h.size : w1.size + b1.size + (a + 1) * h.size] = h
            jac[a, w1.size + b1.size + v * h.size + a] = 1.0

    return JacobianInfo(jac, sigma_max(model, state))


def perturbations_rows(rng, pi_star, count):
    """The optimality suite's perturbations as an (n, V) stack, one distribution per row.

    ``verify._perturbations`` draws the same numbers from ``rng`` in the
    same order and returns their transpose.
    """
    v = pi_star.size
    quarters = count // 4
    blocks = [rng.dirichlet(np.ones(v), size=count - 3 * quarters)]
    for scale in (1e-3, 1e-2, 0.3):
        noisy = pi_star[None, :] * np.exp(scale * rng.standard_normal((quarters, v)))
        blocks.append(noisy / noisy.sum(axis=1, keepdims=True))
    perturbed = np.vstack(blocks)
    tv = 0.5 * np.abs(perturbed - pi_star[None, :]).sum(axis=1)
    return perturbed[tv > 1e-9]


def objective_gaps_rows(p, q, pi_old, advantages, beta):
    """J(p) - J(q) for each row p of an (n, V) stack, J(p) = p.A - beta KL(p || pi_old).

    The row-major form of ``verify._objective_gaps``: delta.(g - q.g) -
    beta KL(p || q) with delta = p - q and g = A - beta log(q / pi_old).
    """
    g = advantages - beta * np.log(q / pi_old)
    delta = p - q
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(p > 0.0, p * np.log1p(delta / q), 0.0) - delta
    return delta @ (g - q @ g) - beta * kl.sum(axis=1)
