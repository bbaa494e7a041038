"""Numerically stable probability primitives over finite action vocabularies.

All public functions operate on plain 1-D float64 numpy arrays.  A "logit
vector" is any finite real vector of length >= 2; a "probability vector" is
nonnegative and sums to one within 1e-12; an "advantage vector" is any finite
real vector of length >= 1.  ``as_logits``, ``as_probs`` and ``as_advantages``
are the one check of each.

Each public primitive validates its inputs and then calls a private kernel
(``_softmax``, ``_log_softmax``, ``_entropy``, ``_total_variation``, and
``_nucleus`` with ``_pick`` for the sampler) that holds its only copy of the
arithmetic; a caller that checked an array where it made it calls the kernel
directly, and a caller that draws repeatedly from one distribution can keep
the nucleus and call ``_pick`` alone.  ``_softmax`` and ``_log_softmax``
reduce over the last axis, so they also take an (n, V) stack of logit rows,
and each row comes out bit for bit as the 1-D call on it would.  They call
the reductions ``np.maximum.reduce`` and ``np.add.reduce`` directly, which
is what ``ndarray.max`` and ``ndarray.sum`` call behind a Python wrapper.

Everything here is a pure function of its inputs; RNG state is caller-owned.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceUndefinedError, InvalidInputError

PROB_ATOL = 1e-12


def as_logits(z) -> np.ndarray:
    """Validate and return a logit vector as a float64 array."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise InvalidInputError(f"logits must be a 1-D vector of length >= 2, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise InvalidInputError("logits must be finite")
    return z


def as_probs(p) -> np.ndarray:
    """Validate and return a probability vector as a float64 array."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise InvalidInputError(f"probabilities must be a 1-D vector of length >= 2, got shape {p.shape}")
    if not np.isfinite(p).all() or (p < 0.0).any():
        raise InvalidInputError("probabilities must be finite and nonnegative")
    if abs(float(p.sum()) - 1.0) > PROB_ATOL:
        raise InvalidInputError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def as_advantages(a, size: int | None = None) -> np.ndarray:
    """Validate and return an advantage vector as a float64 array, of length ``size`` when given."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size < 1 or (size is not None and a.size != size):
        length = "length >= 1" if size is None else f"length {size}"
        raise InvalidInputError(f"advantages must be a 1-D vector of {length}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("advantages must be finite")
    return a


def check_integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int: an integer (not a bool, nor a float ``int()`` would truncate) at or above ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    return value


def check_action(index: int, vocab_size: int) -> int:
    """An action index as an int: an integer (not a bool) in [0, vocab_size)."""
    index = check_integer(index, "action")
    if not 0 <= index < vocab_size:
        raise InvalidInputError(f"action {index} outside vocabulary of size {vocab_size}")
    return index


def softmax(z) -> np.ndarray:
    """Max-shifted softmax; invariant under adding a constant to all logits."""
    return _softmax(as_logits(z))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def log_softmax(z) -> np.ndarray:
    """z - max(z) - log(sum(exp(z - max(z)))); exp of this matches softmax(z)."""
    return _log_softmax(as_logits(z))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def entropy(p) -> float:
    """Shannon entropy in nats with the 0*log(0) := 0 convention."""
    return _entropy(as_probs(p))


def _entropy(p: np.ndarray) -> float:
    nz = p > 0.0
    return float(-(p[nz] * np.log(p[nz])).sum())


def kl_divergence(p, q) -> float:
    """Forward KL sum(p * log(p/q)) in nats.

    Requires q > 0 wherever p > 0; a support violation makes the divergence
    undefined rather than infinite.
    """
    p = as_probs(p)
    q = as_probs(q)
    if p.size != q.size:
        raise InvalidInputError("distributions must have equal length")
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        raise DivergenceUndefinedError("q has zero mass on the support of p")
    return kl_between(p, q)


def kl_between(p: np.ndarray, q: np.ndarray, log_q: np.ndarray | None = None) -> float:
    """KL(p || q) via the sign-definite Bregman form.

    Both arguments sum to one, so sum(p log(p/q)) equals
    sum(p log(p/q) - (p - q)) term by term nonnegative; evaluating the
    latter keeps relative accuracy when p is within rounding distance of q,
    where the plain form cancels to noise (and can even go negative).
    Zero-mass p coordinates contribute q there.  ``log_q``, when supplied,
    covers coordinates whose probability underflowed to zero.
    """
    total = 0.0
    for i, (pi, qi) in enumerate(zip(p, q)):
        if pi == 0.0:
            total += qi
            continue
        d = pi - qi
        if qi > 0.0 and abs(d) < 0.5 * qi:
            t = d / qi
            log1p_t = np.log1p(t)
            # p log1p(t) - q t with the linear parts cancelled analytically
            total += qi * (log1p_t - t) + d * log1p_t
        else:
            lq = float(log_q[i]) if log_q is not None else float(np.log(qi))
            total += pi * (np.log(pi) - lq) - d
    return max(float(total), 0.0)


def total_variation(p, q) -> float:
    """Half the L1 distance between two distributions; lies in [0, 1]."""
    p = as_probs(p)
    q = as_probs(q)
    if p.size != q.size:
        raise InvalidInputError("distributions must have equal length")
    return _total_variation(p, q)


def _total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p - q).sum())


def normalize_advantages(a) -> np.ndarray:
    """Advantages centered to mean zero; a mean or difference that overflows raises."""
    a = as_advantages(a)
    with np.errstate(over="ignore"):
        centered = a - a.mean()
    if not np.isfinite(centered).all():
        raise InvalidInputError("advantages overflow when centered")
    return centered


def _nucleus(p: np.ndarray, temperature: float, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Sampler kernel: the tempered nucleus of ``p`` as (kept actions, bounds).

    Temperature rescales log-probabilities (log p / T).  The support is then
    cut to the smallest descending-probability prefix whose mass reaches
    ``top_p`` (ties broken toward the lower index), never past the last
    action with positive tempered mass, and renormalized.  ``bounds`` is the
    cumulative kept mass without its last entry, so a uniform at or above a
    total that rounded below 1 still lands on the last kept action.
    """
    with np.errstate(divide="ignore", over="ignore"):
        logp = np.where(p > 0.0, np.log(np.maximum(p, 1e-320)), -np.inf)
        scaled = logp / temperature
    finite = np.isfinite(scaled)
    finite_scaled = scaled[finite]
    if finite_scaled.size:
        weights = np.where(finite, np.exp(scaled - finite_scaled.max()), 0.0)
    else:
        # log p / T overflowed everywhere: take the T -> 0 limit, uniform over the argmax set
        weights = (p == p.max()).astype(np.float64)
    q = weights / weights.sum()

    # stable argsort on -q keeps equal-probability ties in index order
    order = np.argsort(-q, kind="stable")
    cumulative = np.cumsum(q[order])
    # rounding can leave the cumulative mass short of top_p; zero-mass actions stay out
    cutoff = min(int(np.searchsorted(cumulative, top_p, side="left")), np.count_nonzero(q) - 1)
    kept = order[: cutoff + 1]
    mass = q[kept]
    return kept, np.cumsum(mass / mass.sum())[:-1]


def _pick(kept: np.ndarray, bounds: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sampler kernel: ``size`` draws over a nucleus made by ``_nucleus``.

    Each uniform is resolved against ``bounds`` by inverse CDF.
    """
    return kept[np.searchsorted(bounds, rng.random(size), side="right")]


def sample_actions(p, temperature: float, top_p: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` action indices with temperature and nucleus truncation.

    The nucleus is built once (``_nucleus``) and each draw resolves one
    uniform by inverse CDF (``_pick``).  ``rng.random(size)`` yields the
    same doubles as ``size`` calls of ``rng.random()``, so the result equals
    ``size`` successive ``sample_action`` calls on the same generator and
    leaves it in the same state.  Deterministic given the generator state.
    """
    size = check_integer(size, "size", 1)
    p = as_probs(p)
    if not temperature > 0.0:
        raise InvalidInputError("temperature must be positive")
    if not 0.0 < top_p <= 1.0:
        raise InvalidInputError("top_p must lie in (0, 1]")
    return _pick(*_nucleus(p, temperature, top_p), rng, size)


def sample_action(p, temperature: float, top_p: float, rng: np.random.Generator) -> int:
    """Draw one action index: the ``size=1`` case of ``sample_actions``."""
    return int(sample_actions(p, temperature, top_p, rng, 1)[0])
