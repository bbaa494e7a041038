"""Closed-form optimal targets of the KL-regularized advantage objective.

Maximizing E_pi[A] - beta * KL(pi || pi_old) over the simplex has the
closed-form solution pi*(i) proportional to pi_old(i) * exp(A_i / beta),
realized in logit space by the representative z* = z_old + A / beta.
This module computes both targets, the advantage estimators that feed them,
and the constant shift that minimizes ||A + C*1||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dist import Advantages, as_logits, as_probs, check_action, softmax
from .errors import EstimatorDomainError, InvalidInputError


@dataclass(frozen=True)
class OptimalTarget:
    """Matched pair of target distribution and representative target logits."""

    pi_star: np.ndarray
    z_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi_star", as_probs(self.pi_star))
        object.__setattr__(self, "z_star", as_logits(self.z_star))
        if np.abs(softmax(self.z_star) - self.pi_star).max() > 1e-10:
            raise InvalidInputError("z_star does not induce pi_star")


class EstimatorKind(Enum):
    SPARSE_SAMPLED = "SPARSE_SAMPLED"
    DENSE_LOGPROB = "DENSE_LOGPROB"
    DENSE_DPO_RATIO = "DENSE_DPO_RATIO"


@dataclass(frozen=True)
class AdvantageEstimator:
    """Advantage source: a sampled scalar, scorer log-probs, or a log-ratio.

    SPARSE_SAMPLED needs ``advantage`` and ``action``; DENSE_LOGPROB needs
    ``scorer_log_probs``; DENSE_DPO_RATIO needs ``scorer_log_probs`` (the
    tuned model) and ``ref_log_probs`` (the reference model).
    """

    kind: EstimatorKind
    advantage: float | None = None
    action: int | None = None
    scorer_log_probs: np.ndarray | None = None
    ref_log_probs: np.ndarray | None = None


def optimal_policy(pi_old, a: Advantages | np.ndarray, beta: float) -> np.ndarray:
    """Distribution maximizing expected advantage under a KL leash to pi_old.

    Computed in log space (log pi_old + A/beta, then a shifted exp) so large
    advantage-to-beta ratios cannot overflow; a ratio beyond the float range
    raises instead of returning NaN.
    """
    pi_old = as_probs(pi_old)
    return _optimal_policy(pi_old, _checked_advantages(a, beta, pi_old.size, "distribution"), beta)


def _optimal_policy(pi_old: np.ndarray, values: np.ndarray, beta: float) -> np.ndarray:
    scaled = _scaled(values, beta)
    with np.errstate(divide="ignore"):
        logits = np.where(pi_old > 0.0, np.log(np.maximum(pi_old, 5e-324)), -np.inf) + scaled
    shifted = logits - logits.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def optimal_logits(z_old, a: Advantages | np.ndarray, beta: float) -> np.ndarray:
    """Representative target logits z_old + A / beta."""
    z_old = as_logits(z_old)
    return _optimal_logits(z_old, _checked_advantages(a, beta, z_old.size, "logit"), beta)


def _optimal_logits(z_old: np.ndarray, values: np.ndarray, beta: float) -> np.ndarray:
    scaled = _scaled(values, beta)
    with np.errstate(over="ignore"):
        z_star = z_old + scaled
    if not np.all(np.isfinite(z_star)):
        raise InvalidInputError("target logits z_old + A/beta overflow")
    return z_star


def _checked_advantages(a: Advantages | np.ndarray, beta: float, size: int, against: str) -> np.ndarray:
    """Advantage values of the given length, finite, with a positive beta."""
    values = a.values if isinstance(a, Advantages) else np.asarray(a, dtype=np.float64)
    if values.size != size:
        raise InvalidInputError(f"advantage length must match {against} length")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("advantages must be finite")
    if not beta > 0.0:
        raise InvalidInputError("beta must be positive")
    return values


def _scaled(values: np.ndarray, beta: float) -> np.ndarray:
    """A / beta, checked finite so neither target can come out NaN or inf."""
    with np.errstate(over="ignore"):
        scaled = values / beta
    if not np.all(np.isfinite(scaled)):
        raise InvalidInputError("A/beta overflows")
    return scaled


def optimal_target(z_old, a: Advantages | np.ndarray, beta: float) -> OptimalTarget:
    z_star = optimal_logits(z_old, a, beta)
    return OptimalTarget(softmax(z_star), z_star)


def estimate_advantages(estimator: AdvantageEstimator, vocab_size: int) -> Advantages:
    """Build the per-action advantage vector for one timestep."""
    kind = estimator.kind
    if kind is EstimatorKind.SPARSE_SAMPLED:
        if estimator.advantage is None or estimator.action is None:
            raise InvalidInputError("sparse estimation needs a scalar advantage and an action")
        if not np.isfinite(estimator.advantage):
            raise InvalidInputError("advantage must be finite")
        action = check_action(estimator.action, vocab_size)
        values = np.zeros(vocab_size)
        values[action] = float(estimator.advantage)
        return Advantages(values, sparse_mask=frozenset({action}))

    if kind is EstimatorKind.DENSE_LOGPROB:
        logp = _dense_input(estimator.scorer_log_probs, vocab_size, "scorer_log_probs")
        return Advantages(logp.copy())

    if kind is EstimatorKind.DENSE_DPO_RATIO:
        tuned = _dense_input(estimator.scorer_log_probs, vocab_size, "scorer_log_probs")
        ref = _dense_input(estimator.ref_log_probs, vocab_size, "ref_log_probs")
        return Advantages(tuned - ref)

    raise InvalidInputError(f"unknown estimator kind {kind!r}")


def _dense_input(values, vocab_size: int, name: str) -> np.ndarray:
    if values is None:
        raise InvalidInputError(f"dense estimation needs {name}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (vocab_size,):
        raise InvalidInputError(f"{name} must have shape ({vocab_size},), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise EstimatorDomainError(f"{name} contains a non-finite entry (log of zero probability?)")
    return values


def optimal_shift(a: Advantages | np.ndarray) -> float:
    """Constant C minimizing ||A + C*1||^2, i.e. the negated mean of A."""
    values = a.values if isinstance(a, Advantages) else np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("advantages must be finite")
    return float(-values.mean())


def load_logprob_table(path: str | Path) -> np.ndarray:
    """Read a scorer table: one row per timestep of space-separated floats.

    Blank lines and '#' comments are skipped.  Every row must have the same
    width (the vocabulary size).
    """
    rows: list[list[float]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: not a float row: {raw!r}") from exc
    if not rows:
        raise InvalidInputError(f"{path}: table has no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidInputError(f"{path}: rows have inconsistent widths")
    return np.asarray(rows, dtype=np.float64)
