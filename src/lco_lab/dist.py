"""Numerically stable probability primitives over finite action vocabularies.

All public functions operate on plain 1-D float64 numpy arrays.  A "logit
vector" is any finite real vector of length >= 2; a "probability vector" is
nonnegative and sums to one within 1e-12; an "advantage vector" is any finite
real vector of length >= 1.  ``as_logits``, ``as_probs`` and ``as_advantages``
are the one check of each.

Every numeric argument the library takes is read here, by one of two
readers: ``as_array`` turns a float-array argument into float64 of a stated
shape (the three vector checks above are its cases), and ``check_real``
checks a real number against its parameter's interval in ``INTERVALS``,
where each interval is written once.  A bad argument raises
``InvalidInputError`` whose message opens with the parameter's name.

Each public primitive validates its inputs and then calls a private kernel
(``_softmax``, ``_log_softmax``, ``_entropy``, ``_total_variation``, and
``_nucleus`` with ``_pick`` for the sampler) that holds its only copy of the
arithmetic; a caller that checked an array where it made it calls the kernel
directly, and a caller that draws repeatedly from one distribution can keep
the nucleus and call ``_pick`` alone.  ``_softmax`` and ``_log_softmax``
share one shift, exponential and sum (``_shifted_exp``), and a caller that
needs both takes them from one pass with ``_softmax_and_log``.  They reduce
over the last axis, so they also take an (n, V) stack of logit rows, and
each row comes out bit for bit as the 1-D call on it would.  They call the
reductions ``np.maximum.reduce`` and ``np.add.reduce`` directly, which is
what ``ndarray.max`` and ``ndarray.sum`` call behind a Python wrapper.

Everything here is a pure function of its inputs; RNG state is caller-owned.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .errors import DivergenceUndefinedError, InvalidInputError

PROB_ATOL = 1e-12


def as_array(value, name: str, shape: int | tuple[int, ...], min_size: int = 0, finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, finite unless told otherwise.

    ``shape`` is the exact shape, or the number of dimensions where any
    lengths will do.  The one reader of every float-array argument: a value
    numpy cannot read as floats (ragged, non-numeric), another shape, fewer
    than ``min_size`` entries or a non-finite entry raises
    ``InvalidInputError``, and every message opens with ``name``.
    """
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be an array of real numbers, got {reprlib.repr(value)}") from None
    got = array.shape
    if (len(got) != shape if type(shape) is int else got != shape) or array.size < min_size:
        if type(shape) is int:
            form = f"a 1-D vector of length >= {min_size}" if shape == 1 else f"a {shape}-D array"
        else:
            form = f"a 1-D vector of length {shape[0]}" if len(shape) == 1 else f"an array of shape {shape}"
        raise InvalidInputError(f"{name} must be {form}, got shape {got}")
    return _finite(array, name) if finite else array


def _finite(array: np.ndarray, name: str) -> np.ndarray:
    """The one check of ``as_array`` that a model's own output can fail: finiteness."""
    # the reduction ndarray.all calls, without its wrapper
    if not np.logical_and.reduce(np.isfinite(array), axis=None):
        raise InvalidInputError(f"{name} must be finite")
    return array


def as_logits(z, name: str = "logits") -> np.ndarray:
    """Validate and return a logit vector as a float64 array."""
    return as_array(z, name, 1, 2)


def as_probs(p, name: str = "probabilities") -> np.ndarray:
    """Validate and return a probability vector as a float64 array."""
    p = as_array(p, name, 1, 2)
    if (p < 0.0).any():
        raise InvalidInputError(f"{name} must be nonnegative")
    if abs(float(p.sum()) - 1.0) > PROB_ATOL:
        raise InvalidInputError(f"{name} sums to {p.sum()!r}, not 1")
    return p


def as_advantages(a, size: int | None = None, name: str = "advantages") -> np.ndarray:
    """Validate and return an advantage vector as a float64 array, of length ``size`` when given."""
    return as_array(a, name, 1 if size is None else (size,), 1)


# the interval of every real parameter, written once: ``check_real`` reads it
INTERVALS = {
    "learning_rate": "(0, inf)", "eta": "(0, inf)", "beta": "(0, inf]", "clip_epsilon": "(0, 1)",
    "temperature": "(0, inf)", "top_p": "(0, 1]", "grad_clip_norm": "(0, inf)", "h": "(0, inf)",
    "loss": "[0, inf)", "sigma_max": "[0, inf)", "actual_gradient_norm": "[0, inf]", "behavioral_prob": "(0, 1]",
    "advantage": "(-inf, inf)",
}
# each interval as (low, high, low is closed, high is closed)
_BOUNDS = {
    key: (*map(float, ends[1:-1].split(",")), ends[0] == "[", ends[-1] == "]") for key, ends in INTERVALS.items()
}


def check_real(value, name: str, interval: str | None = None) -> float:
    """``value`` as a float: a real number (not a bool) in ``INTERVALS[interval]``, ``INTERVALS[name]`` without one.

    A violation raises ``InvalidInputError``, whose message opens with ``name``.
    """
    key = interval or name
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise InvalidInputError(f"{name} must be a real number, got {reprlib.repr(value)}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf if value > 0 else -math.inf
    low, high, low_closed, high_closed = _BOUNDS[key]
    if not ((low < value or low_closed and value == low) and (value < high or high_closed and value == high)):
        raise InvalidInputError(f"{name} must lie in {INTERVALS[key]}, got {value!r}")
    return value


def check_integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int: an integer (not a bool, nor a float ``int()`` would truncate) at or above ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    return value


def check_action(index: int, vocab_size: int, name: str = "action") -> int:
    """An action index as an int: an integer (not a bool) in [0, vocab_size); messages open with ``name``."""
    index = check_integer(index, name)
    if not 0 <= index < vocab_size:
        raise InvalidInputError(f"{name} {index} outside vocabulary of size {vocab_size}")
    return index


def softmax(z) -> np.ndarray:
    """Max-shifted softmax; invariant under adding a constant to all logits."""
    return _softmax(as_logits(z, "z"))


def _softmax(z: np.ndarray) -> np.ndarray:
    _, e, total = _shifted_exp(z)
    return e / total


def log_softmax(z) -> np.ndarray:
    """z - max(z) - log(sum(exp(z - max(z)))); exp of this matches softmax(z)."""
    return _log_softmax(as_logits(z, "z"))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted, _, total = _shifted_exp(z)
    return shifted - np.log(total)


def _softmax_and_log(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(_softmax(z), _log_softmax(z))`` from one shift, exponential and sum."""
    shifted, e, total = _shifted_exp(z)
    return e / total, shifted - np.log(total)


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z - max(z), its exponential and that exponential's sum, over the last axis."""
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=-1, keepdims=True)


def entropy(p) -> float:
    """Shannon entropy in nats with the 0*log(0) := 0 convention."""
    return _entropy(as_probs(p, "p"))


def _entropy(p: np.ndarray) -> float:
    support = p[p > 0.0]
    return float(-np.add.reduce(support * np.log(support)))


def kl_divergence(p, q) -> float:
    """Forward KL sum(p * log(p/q)) in nats.

    Requires q > 0 wherever p > 0; a support violation makes the divergence
    undefined rather than infinite.
    """
    p = as_probs(p, "p")
    q = as_probs(q, "q")
    if p.size != q.size:
        raise InvalidInputError("q must have the length of p")
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
    p = as_probs(p, "p")
    q = as_probs(q, "q")
    if p.size != q.size:
        raise InvalidInputError("q must have the length of p")
    return _total_variation(p, q)


def _total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p - q).sum())


def normalize_advantages(a) -> np.ndarray:
    """Advantages centered to mean zero; a mean or difference that overflows raises."""
    a = as_advantages(a, name="a")
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
    # scaled holds no NaN.  Under a finite top its other entries are finite or
    # -inf, and exp(-inf - top) is exactly 0, the weight of an action left out
    top = np.maximum.reduce(scaled)
    if math.isfinite(top):
        weights = np.exp(scaled - top)
    else:
        # log p / T overflowed to -inf everywhere, or to +inf at an entry of p
        # just above 1 (every other entry then at -inf): take the T -> 0
        # limit, uniform over the argmax set
        weights = (p == p.max()).astype(np.float64)
    q = weights / np.add.reduce(weights)

    # stable argsort on -q keeps equal-probability ties in index order; the
    # sums, cumulative sums and search are the ufunc and array methods that
    # np.sum, np.cumsum and np.searchsorted call behind their wrappers
    order = (-q).argsort(kind="stable")
    cumulative = np.add.accumulate(q[order])
    # rounding can leave the cumulative mass short of top_p; zero-mass actions stay out
    cutoff = min(int(cumulative.searchsorted(top_p, side="left")), np.count_nonzero(q) - 1)
    kept = order[: cutoff + 1]
    mass = q[kept]
    return kept, np.add.accumulate(mass / np.add.reduce(mass))[:-1]


def _pick(kept: np.ndarray, bounds: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sampler kernel: ``size`` draws over a nucleus made by ``_nucleus``.

    Each uniform is resolved against ``bounds`` by inverse CDF.  With
    ``size=None`` the one draw is a scalar: ``rng.random()`` yields the
    double that ``rng.random(1)`` holds.
    """
    return kept[bounds.searchsorted(rng.random(size), side="right")]


def sample_actions(p, temperature: float, top_p: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` action indices with temperature and nucleus truncation.

    The nucleus is built once (``_nucleus``) and each draw resolves one
    uniform by inverse CDF (``_pick``).  ``rng.random(size)`` yields the
    same doubles as ``size`` calls of ``rng.random()``, so the result equals
    ``size`` successive ``sample_action`` calls on the same generator and
    leaves it in the same state.  Deterministic given the generator state.
    """
    size = check_integer(size, "size", 1)
    p = as_probs(p, "p")
    return _pick(*_nucleus(p, check_real(temperature, "temperature"), check_real(top_p, "top_p")), rng, size)


def sample_action(p, temperature: float, top_p: float, rng: np.random.Generator) -> int:
    """Draw one action index: the ``size=1`` case of ``sample_actions``."""
    return int(sample_actions(p, temperature, top_p, rng, 1)[0])
