"""Independent oracles used by the tests: extended-precision evaluation,
finite differences, and a Cholesky-bisection eigenvalue bracket.

These deliberately avoid the library's own code paths.
"""

import numpy as np
from mpmath import mp, mpf, exp, log

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


def advantages_mask_error(values, mask):
    """The error a sparse-mask check must raise, or None, decided index by index."""
    indices = {int(i) for i in mask}
    if any(i < 0 or i >= len(values) for i in indices):
        return "sparse_mask index out of range"
    if any(float(values[i]) != 0.0 for i in range(len(values)) if i not in indices):
        return "unmasked advantage entries must be 0"
    return None
