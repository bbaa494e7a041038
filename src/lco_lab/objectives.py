"""Per-timestep losses and analytic logit-space gradients.

Six objectives share one evaluation shape: a scalar loss value plus its
gradient with respect to the logit vector.

  SFT        negative log-likelihood of a target token;
             grad[a'] = pi(a') - 1[a' = target]
  PPO        clipped importance-ratio surrogate on the sampled action;
             in the active region
             grad[a'] = (A / pi_old(a)) * pi(a) * (pi(a') - 1[a' = a]),
             outside it the gradient is exactly zero
  REINFORCE  advantage-weighted log-likelihood; grad = A * (pi - e_a)
  LCO_MSE    mean squared distance to target logits; grad = (2/V) (z - z*)
  LCO_LCH    mean log-cosh distance to target logits; grad = tanh(z - z*)/V
  LCO_KLD    forward KL from a target distribution; grad = softmax(z) - pi*

Each public ``*_eval`` checks its inputs and calls a private kernel of the
same name with a leading underscore, which holds the only copy of the
objective's arithmetic and takes pi = softmax(z) from its caller, so a
trainer that already holds both evaluates each state once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .dist import Advantages, _log_softmax, _softmax, as_logits, as_probs, check_action, kl_between
from .errors import DegenerateRatioError, InvalidInputError

MIN_BEHAVIORAL_PROB = 1e-300


class ObjectiveKind(Enum):
    SFT = "SFT"
    PPO = "PPO"
    REINFORCE = "REINFORCE"
    LCO_MSE = "LCO_MSE"
    LCO_LCH = "LCO_LCH"
    LCO_KLD = "LCO_KLD"


LCO_KINDS = (ObjectiveKind.LCO_MSE, ObjectiveKind.LCO_LCH, ObjectiveKind.LCO_KLD)


@dataclass(frozen=True)
class TimestepContext:
    """Behavioral snapshot plus the signals a per-timestep loss needs.

    ``pi_old`` is cached alongside ``z_old`` and must be its softmax image;
    the constructor checks the pair to 1e-12.
    """

    z_old: np.ndarray
    pi_old: np.ndarray
    sampled_action: int
    advantages: Advantages
    beta: float = 1.0
    clip_epsilon: float = 0.2

    def __post_init__(self):
        z_old = as_logits(self.z_old)
        pi_old = as_probs(self.pi_old)
        object.__setattr__(self, "z_old", z_old)
        object.__setattr__(self, "pi_old", pi_old)
        object.__setattr__(self, "sampled_action", check_action(self.sampled_action, z_old.size))
        if np.abs(pi_old - _softmax(z_old)).max() > 1e-12:
            raise InvalidInputError("pi_old is not the softmax of z_old")
        if self.advantages.vocab_size != z_old.size:
            raise InvalidInputError("advantage vector length mismatch")
        if not self.beta > 0.0:
            raise InvalidInputError("beta must be positive")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise InvalidInputError("clip_epsilon must lie in (0, 1)")

    @classmethod
    def from_logits(cls, z_old, sampled_action, advantages, beta=1.0, clip_epsilon=0.2):
        z_old = as_logits(z_old)
        if not isinstance(advantages, Advantages):
            advantages = Advantages(np.asarray(advantages, dtype=np.float64))
        return cls(z_old, _softmax(z_old), sampled_action, advantages, beta, clip_epsilon)

    @property
    def sampled_advantage(self) -> float:
        return float(self.advantages.values[self.sampled_action])


@dataclass(frozen=True)
class LossEval:
    value: float
    logit_gradient: np.ndarray


def sft_eval(z, target: int) -> LossEval:
    """Negative log-likelihood of the target token and its logit gradient."""
    z = as_logits(z)
    target = check_action(target, z.size)
    return _sft_eval(z, _softmax(z), target)


def _sft_eval(z: np.ndarray, pi: np.ndarray, target: int) -> LossEval:
    grad = pi.copy()
    grad[target] -= 1.0
    return LossEval(float(-_log_softmax(z)[target]), grad)


def _ratio(pi_sampled: float, behavioral: float) -> float:
    if behavioral < MIN_BEHAVIORAL_PROB:
        raise DegenerateRatioError("behavioral probability of the sampled action is ~0")
    return pi_sampled / behavioral


def _ppo_gate(adv: float, r: float, eps: float) -> bool:
    return (adv > 0.0 and r < 1.0 + eps) or (adv < 0.0 and r > 1.0 - eps)


def ppo_active(ctx: TimestepContext, z) -> bool:
    """Whether the clipped surrogate has a nonzero gradient at z.

    True iff (A > 0 and r < 1 + eps) or (A < 0 and r > 1 - eps); a zero
    advantage counts as inactive.
    """
    z = as_logits(z)
    a = ctx.sampled_action
    r = _ratio(float(_softmax(z)[a]), float(ctx.pi_old[a]))
    return _ppo_gate(ctx.sampled_advantage, r, ctx.clip_epsilon)


def ppo_eval(ctx: TimestepContext, z) -> LossEval:
    """Clipped surrogate loss for the sampled action.

    The value is -min(r*A, clip(r, 1-eps, 1+eps)*A) on both branches; the
    gradient is zero whenever the clip gate is closed.
    """
    z = as_logits(z)
    a = ctx.sampled_action
    return _ppo_eval(_softmax(z), a, ctx.sampled_advantage, float(ctx.pi_old[a]), ctx.clip_epsilon)


def _ppo_eval(pi: np.ndarray, a: int, adv: float, behavioral: float, eps: float) -> LossEval:
    r = _ratio(float(pi[a]), behavioral)
    clipped = min(max(r, 1.0 - eps), 1.0 + eps)
    value = -min(r * adv, clipped * adv)
    if not _ppo_gate(adv, r, eps):
        return LossEval(value, np.zeros_like(pi))
    grad = (adv / behavioral) * float(pi[a]) * pi
    grad[a] -= (adv / behavioral) * float(pi[a])
    return LossEval(value, grad)


def reinforce_eval(ctx: TimestepContext, z) -> LossEval:
    """Advantage-weighted log-likelihood loss -A * log pi(a)."""
    z = as_logits(z)
    return _reinforce_eval(z, _softmax(z), ctx.sampled_action, ctx.sampled_advantage)


def _reinforce_eval(z: np.ndarray, pi: np.ndarray, a: int, adv: float) -> LossEval:
    grad = adv * pi
    grad[a] -= adv
    return LossEval(float(-adv * _log_softmax(z)[a]), grad)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # two branches: the hyperbolic identity keeps small residuals accurate to
    # relative precision, the shifted form survives |x| beyond exp overflow
    ax = np.abs(x)
    small = ax < 20.0
    out = np.empty_like(ax)
    out[small] = np.log1p(2.0 * np.sinh(0.5 * ax[small]) ** 2)
    big = ~small
    out[big] = ax[big] + np.log1p(np.exp(-2.0 * ax[big])) - np.log(2.0)
    return out


def lco_mse_eval(z, z_star) -> LossEval:
    """Mean squared logit residual (1/V) sum((z - z*)^2)."""
    return _lco_mse_eval(*_residual_pair(z, z_star))


def _lco_mse_eval(z: np.ndarray, z_star: np.ndarray) -> LossEval:
    residual = z - z_star
    v = z.size
    return LossEval(float((residual**2).sum() / v), (2.0 / v) * residual)


def lco_lch_eval(z, z_star) -> LossEval:
    """Mean log-cosh logit residual; quadratic near zero, linear in the tails."""
    return _lco_lch_eval(*_residual_pair(z, z_star))


def _lco_lch_eval(z: np.ndarray, z_star: np.ndarray) -> LossEval:
    residual = z - z_star
    v = z.size
    return LossEval(float(_log_cosh(residual).sum() / v), np.tanh(residual) / v)


def _residual_pair(z, z_star) -> tuple[np.ndarray, np.ndarray]:
    z = as_logits(z)
    z_star = as_logits(z_star)
    if z.size != z_star.size:
        raise InvalidInputError("logit vectors must have equal length")
    return z, z_star


def lco_kld_eval(z, pi_star) -> LossEval:
    """Forward KL from the target distribution to softmax(z)."""
    z = as_logits(z)
    pi_star = as_probs(pi_star)
    if z.size != pi_star.size:
        raise InvalidInputError("lengths must match")
    return _lco_kld_eval(z, _softmax(z), pi_star)


def _lco_kld_eval(z: np.ndarray, pi: np.ndarray, pi_star: np.ndarray) -> LossEval:
    return LossEval(kl_between(pi_star, pi, log_q=_log_softmax(z)), pi - pi_star)


@dataclass(frozen=True)
class BatchItem:
    """Arguments for one timestep of a batched evaluation.

    Exactly the fields needed by the objective kind must be present:
    ``target`` for SFT, ``ctx`` for PPO/REINFORCE, ``z_star`` for the
    regression objectives, ``pi_star`` for the distribution objective.
    """

    z: np.ndarray
    target: int | None = None
    ctx: TimestepContext | None = None
    z_star: np.ndarray | None = None
    pi_star: np.ndarray | None = None


@dataclass(frozen=True)
class BatchEval:
    value: float
    per_step: tuple[LossEval, ...] = field(default_factory=tuple)


def _eval_item(kind: ObjectiveKind, item: BatchItem) -> LossEval:
    if kind is ObjectiveKind.SFT:
        return sft_eval(item.z, item.target)
    if kind is ObjectiveKind.PPO:
        return ppo_eval(item.ctx, item.z)
    if kind is ObjectiveKind.REINFORCE:
        return reinforce_eval(item.ctx, item.z)
    if kind is ObjectiveKind.LCO_MSE:
        return lco_mse_eval(item.z, item.z_star)
    if kind is ObjectiveKind.LCO_LCH:
        return lco_lch_eval(item.z, item.z_star)
    if kind is ObjectiveKind.LCO_KLD:
        return lco_kld_eval(item.z, item.pi_star)
    raise InvalidInputError(f"unknown objective kind {kind!r}")


def pairwise_sum(values: Sequence[float]) -> float:
    """Fixed-order pairwise reduction, independent of any work partitioning."""
    items = [float(v) for v in values]
    if not items:
        return 0.0
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def batch_eval(kind: ObjectiveKind, items: Sequence[BatchItem]) -> BatchEval:
    """Mean loss over timesteps, keeping every per-timestep evaluation.

    The value is a deterministic pairwise mean so batch results do not depend
    on how timesteps might be partitioned across workers.
    """
    if len(items) == 0:
        raise InvalidInputError("batch must contain at least one timestep")
    evals = tuple(_eval_item(kind, item) for item in items)
    value = pairwise_sum([e.value for e in evals]) / len(evals)
    return BatchEval(value, evals)
