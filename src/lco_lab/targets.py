"""Closed-form optimal targets of the KL-regularized advantage objective.

Maximizing E_pi[A] - beta * KL(pi || pi_old) over the simplex has the
closed-form solution pi*(i) proportional to pi_old(i) * exp(A_i / beta),
realized in logit space by the representative z* = z_old + A / beta.
The advantage A is a plain float vector, checked by ``dist.as_advantages``.
This module computes both targets and the constant shift that minimizes
||A + C*1||^2, names the advantage estimators the trainer builds A with
(``EstimatorKind``), and reads their scorer tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dist import as_advantages, as_logits, as_probs, softmax
from .errors import InvalidInputError


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


def optimal_policy(pi_old, a, beta: float) -> np.ndarray:
    """Distribution maximizing expected advantage under a KL leash to pi_old.

    Computed in log space (log pi_old + A/beta, then a shifted exp) so large
    advantage-to-beta ratios cannot overflow; a ratio beyond the float range
    raises instead of returning NaN.
    """
    pi_old = as_probs(pi_old)
    return _optimal_policy(pi_old, _checked_advantages(a, beta, pi_old.size), beta)


def _optimal_policy(pi_old: np.ndarray, values: np.ndarray, beta: float) -> np.ndarray:
    scaled = _scaled(values, beta)
    with np.errstate(divide="ignore"):
        logits = np.where(pi_old > 0.0, np.log(np.maximum(pi_old, 5e-324)), -np.inf) + scaled
    shifted = logits - logits.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def optimal_logits(z_old, a, beta: float) -> np.ndarray:
    """Representative target logits z_old + A / beta."""
    z_old = as_logits(z_old)
    return _optimal_logits(z_old, _checked_advantages(a, beta, z_old.size), beta)


def _optimal_logits(z_old: np.ndarray, values: np.ndarray, beta: float) -> np.ndarray:
    scaled = _scaled(values, beta)
    with np.errstate(over="ignore"):
        z_star = z_old + scaled
    if not np.all(np.isfinite(z_star)):
        raise InvalidInputError("target logits z_old + A/beta overflow")
    return z_star


def _checked_advantages(a, beta: float, size: int) -> np.ndarray:
    """Advantages of the given length, with a positive beta."""
    values = as_advantages(a, size)
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


def optimal_target(z_old, a, beta: float) -> OptimalTarget:
    z_star = optimal_logits(z_old, a, beta)
    return OptimalTarget(softmax(z_star), z_star)


def optimal_shift(a) -> float:
    """Constant C minimizing ||A + C*1||^2, i.e. the negated mean of A."""
    values = as_advantages(a)
    with np.errstate(over="ignore"):
        mean = float(values.mean())
    if not math.isfinite(mean):
        raise InvalidInputError("the mean of the advantages overflows")
    return -mean


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
