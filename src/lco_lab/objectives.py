"""Per-timestep losses, their logit gradients and Hessians, and the objective table.

Six objectives share one evaluation shape: a scalar loss value plus its
gradient with respect to the logit vector.

  SFT        negative log-likelihood of a target token, REINFORCE's kernel
             at A = 1; grad[a'] = pi(a') - 1[a' = target]
  PPO        clipped importance-ratio surrogate on the sampled action,
             -min(r A, clip(r, 1 - eps, 1 + eps) A) with r = pi(a) / pi_old(a);
             in the active region
             grad[a'] = (A / pi_old(a)) * pi(a) * (pi(a') - 1[a' = a]),
             outside it the gradient is exactly zero
  REINFORCE  advantage-weighted log-likelihood; grad = A * (pi - e_a)
  LCO_MSE    mean squared distance to target logits; grad = (2/V) (z - z*)
  LCO_LCH    mean log-cosh distance to target logits; grad = tanh(z - z*)/V
  LCO_KLD    forward KL from a target distribution; grad = softmax(z) - pi*

``OBJECTIVES`` holds one ``Objective`` record per kind: its kernel, its
row-batched value, the closed-form target it aligns to, its analytic
Hessian and where the loss is smooth enough for it, its gradient-norm
bound and the residual radius within which the convergence envelope is
asserted.  A logit regression's Hessian at its target is c I, and the
convergence run reads c from it (``training._curvature``).  The trainer,
``convexity`` and ``verify`` look these facts up there, so a new
objective is one entry.
The kernel, the row value and the Hessian all read one point,
``(z, target, step)``, which ``Objective.point`` checks, and a public
function reads its kind with ``entry``.  The kernel holds
the only copy of the objective's arithmetic and takes pi = softmax(z), and
log pi where it reads it, from its caller (``Objective.policy`` makes both
from one shift, exponential and sum), so a trainer that already holds them
evaluates each state once.
``evaluate(kind, z, target, step)`` is the public form: it checks the
point and calls the kernel, as ``convexity.hessian_analytic`` checks the
same point and calls the Hessian.

The row value is the loss at every row of an (n, V) stack of logits, as an
(n,) array, so a finite-difference stencil or a whole convergence
trajectory is one call.  Where numpy can take the stack at once
(REINFORCE, LCO_MSE, LCO_LCH) a private ``_*_value`` function reducing over
the last axis holds the only copy of the value arithmetic, and the 1-D
kernel takes its ``value`` from the same function.  SFT calls REINFORCE's
kernel and row value at A = 1: 1.0 * pi is pi and -1.0 * x is -x exactly,
so it has no arithmetic of its own.  PPO's value is scalar
arithmetic on pi(a) alone: ``_ppo_value`` holds it, and the kernel and the
row value (once per row) both call it.  LCO_KLD's value is one sum in
two forms.  ``kl_between`` is a per-element Python loop whose cost grows
with V; ``_lco_kld_rows`` is its one-pass numpy form over the last axis,
with each of the loop's three branches on exactly the entries the loop
sends to it and each row summed left to right, so it equals the loop bit
for bit (``tests/test_row_values.py`` holds the two equal, row by row and
through ``evaluate``).  The row value calls the one-pass form on the whole
stack: a numeric Hessian at V = 64 evaluates 8193 rows, where the loop
per row costs about 0.7 s.  The 1-D kernel picks the faster form by size:
below ``KLD_ONE_PASS_FROM`` = 16 the loop, from it the one-pass form.  On
a 2-vCPU guest the loop took 2.7 us at V = 2, 11 us at V = 12, 15 us at
V = 16, 29 us at V = 32 and 55 us at V = 64, and the one-pass form 12-19
us at every size, so they cross between V = 12 and 16; the shipped
configs (V <= 4) keep the loop and the training ladder's V = 32 and 64
rungs take the one-pass form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .dist import _log_softmax, _softmax, _softmax_and_log, as_logits, as_probs, check_action, check_real, kl_between
from .errors import DegenerateRatioError, InactiveRegionError, InvalidInputError
from .targets import _optimal_logits, _optimal_policy

MIN_BEHAVIORAL_PROB = 1e-300
# the vocabulary size from which the LCO-KLD kernel sums in one numpy pass
# instead of the ``kl_between`` loop (see the module docstring)
KLD_ONE_PASS_FROM = 16
LCH_NEIGHBORHOOD = 0.5  # residual sup-norm inside which the log-cosh envelope is asserted


class ObjectiveKind(Enum):
    SFT = "SFT"
    PPO = "PPO"
    REINFORCE = "REINFORCE"
    LCO_MSE = "LCO_MSE"
    LCO_LCH = "LCO_LCH"
    LCO_KLD = "LCO_KLD"


@dataclass(frozen=True)
class LossEval:
    value: float
    logit_gradient: np.ndarray


def _ratio(pi_sampled: float, behavioral: float) -> float:
    if behavioral < MIN_BEHAVIORAL_PROB:
        raise DegenerateRatioError("behavioral probability of the sampled action is ~0")
    return pi_sampled / behavioral


def _ppo_gate(adv: float, r: float, eps: float) -> bool:
    return (adv > 0.0 and r < 1.0 + eps) or (adv < 0.0 and r > 1.0 - eps)


def _ppo_eval(pi: np.ndarray, a: int, adv: float, behavioral: float, eps: float) -> LossEval:
    pi_a = float(pi[a])
    r = _ratio(pi_a, behavioral)
    value = _ppo_value(r, adv, eps)
    if not _ppo_gate(adv, r, eps):
        return LossEval(value, np.zeros(pi.size))
    grad = (adv / behavioral) * pi_a * pi
    grad[a] -= (adv / behavioral) * pi_a
    return LossEval(value, grad)


def _ppo_value(r: float, adv: float, eps: float) -> float:
    clipped = min(max(r, 1.0 - eps), 1.0 + eps)
    return -min(r * adv, clipped * adv)


def _ppo_rows(z: np.ndarray, a: int, adv: float, behavioral: float, eps: float) -> np.ndarray:
    return np.array([_ppo_value(_ratio(pi_a, behavioral), adv, eps) for pi_a in _softmax(z)[:, a].tolist()])


def _ppo_open(z: np.ndarray, a: int, adv: float, behavioral: float, eps: float) -> bool:
    """Whether the clip gate is open at every row of an (n, V) stack of logits."""
    return all(_ppo_gate(adv, _ratio(pi_a, behavioral), eps) for pi_a in _softmax(z)[:, a].tolist())


def _reinforce_eval(pi: np.ndarray, log_pi: np.ndarray, a: int, adv: float) -> LossEval:
    grad = adv * pi
    grad[a] -= adv
    return LossEval(float(_reinforce_value(log_pi, a, adv)), grad)


def _reinforce_value(log_pi: np.ndarray, a: int, adv: float) -> np.ndarray:
    return -adv * log_pi[..., a]


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


def _lco_mse_eval(z: np.ndarray, z_star: np.ndarray) -> LossEval:
    residual = z - z_star
    return LossEval(float(_lco_mse_value(residual)), (2.0 / z.size) * residual)


def _lco_mse_value(residual: np.ndarray) -> np.ndarray:
    return (residual**2).sum(axis=-1) / residual.shape[-1]


def _lco_lch_eval(z: np.ndarray, z_star: np.ndarray) -> LossEval:
    residual = z - z_star
    return LossEval(float(_lco_lch_value(residual)), np.tanh(residual) / z.size)


def _lco_lch_value(residual: np.ndarray) -> np.ndarray:
    return _log_cosh(residual).sum(axis=-1) / residual.shape[-1]


def _lco_kld_eval(pi: np.ndarray, log_pi: np.ndarray, pi_star: np.ndarray) -> LossEval:
    if pi.size < KLD_ONE_PASS_FROM:
        value = kl_between(pi_star, pi, log_q=log_pi)
    else:
        value = float(_lco_kld_rows(pi_star, pi, log_pi))
    return LossEval(value, pi - pi_star)


def _lco_kld_rows(pi_star: np.ndarray, q: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """``kl_between(pi_star, q, log_q=log_q)`` over the last axis of q and log_q, in one pass.

    Each entry takes the loop's branch: q where the target has no mass, the
    Bregman form where q > 0 and |p - q| < q / 2, and p (log p - log q) - (p - q)
    elsewhere.  Each operation that can set a floating-point flag runs on
    the entries the loop runs it on alone (p - q, which the loop skips
    where p = 0, is exact there), so it sets no flag that the loop would
    not, and each row is summed left to right, as the loop sums it, then
    clipped at 0.
    """
    d = pi_star - q
    mass = pi_star != 0.0
    near = mass & (q > 0.0)
    near[near] = np.abs(d[near]) < 0.5 * q[near]
    far = mass ^ near  # near lies inside mass
    terms = q.copy()  # the zero-mass terms; the two branches fill the rest
    q_near, d_near = q[near], d[near]
    t = d_near / q_near
    log1p_t = np.log1p(t)
    terms[near] = q_near * (log1p_t - t) + d_near * log1p_t
    p_far = pi_star[far.nonzero()[-1]]  # the target's entry in each far entry's column
    terms[far] = p_far * (np.log(p_far) - log_q[far]) - d[far]
    return np.maximum(np.add.accumulate(terms, axis=-1)[..., -1], 0.0)


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


# ---------------------------------------------------------------------------
# logit-space Hessians (V = vocabulary size, pi = softmax(z), r = z - z*):
#
#   SFT, LCO_KLD  diag(pi) - pi pi^T
#   LCO_MSE       (2/V) I
#   LCO_LCH       diag(sech^2(r)) / V
#   PPO           (A / pi_old(a)) * pi(a) * [diag(pi) - pi pi^T - (e_a - pi)(e_a - pi)^T]
#                 in the active region, assembled entrywise (note the pi(a) factor)
#
# Each takes the kernel's point (z, pi, target, step) and reads only what
# its objective needs.
# ---------------------------------------------------------------------------


def softmax_curvature(pi: np.ndarray) -> np.ndarray:
    """diag(pi) - pi pi^T, the curvature of log-sum-exp."""
    return np.diag(pi) - np.outer(pi, pi)


def ppo_hessian_matrix(pi: np.ndarray, action: int, advantage: float, pi_old_a: float) -> np.ndarray:
    """Active-branch curvature of the clipped surrogate, built entrywise.

    H[a', a''] = -(A / pi_old(a)) * [ pi(a) (1[a=a''] - pi(a''))(1[a=a'] - pi(a'))
                                     - pi(a) pi(a') (1[a'=a''] - pi(a'')) ]
    """
    e = np.zeros(pi.size)
    e[action] = 1.0
    d = e - pi
    scale = advantage / pi_old_a * float(pi[action])
    return scale * (softmax_curvature(pi) - np.outer(d, d))


def _lco_lch_hessian(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    sech2 = 1.0 / np.cosh(np.minimum(np.abs(z - target), 350.0)) ** 2
    return np.diag(sech2 / z.size)


def _ppo_hessian(pi: np.ndarray, action: int, advantage: float, behavioral: float, eps: float) -> np.ndarray:
    ratio = _ratio(float(pi[action]), behavioral)
    if not _ppo_gate(advantage, ratio, eps):
        raise InactiveRegionError(f"ratio {ratio:.6g} with advantage {advantage:+.6g} is not in the active region")
    return ppo_hessian_matrix(pi, action, advantage, behavioral)


# ---------------------------------------------------------------------------
# the objective table
# ---------------------------------------------------------------------------


# each step value after the action (which must index z), in order: its name and its interval's
_STEP_VALUES = (
    ("step advantage", "advantage"),
    ("step behavioral probability", "behavioral_prob"),
    ("step clip_epsilon", "clip_epsilon"),
)


@dataclass(frozen=True)
class Objective:
    """The facts that set one objective apart from the others.

    ``kernel(z, pi, log_pi, target, step)`` evaluates the objective at
    logits z with pi = softmax(z) and log_pi = log_softmax(z), as ``policy``
    makes them (pi is None for a logit-target loss, which never reads it,
    and log_pi is None unless ``log_policy``: SFT, REINFORCE and LCO_KLD
    read it), its closed-form target (None without one) and ``step`` =
    (sampled action, its advantage, its behavioral probability, clip
    epsilon), of which it reads the first ``reads`` values: SFT only its
    target token, as REINFORCE's kernel at A = 1.  It makes no input
    checks; ``evaluate`` checks the point with ``point`` and calls it.
    ``value(z, target, step)`` is the same loss at every row of an (n, V)
    stack z, as an (n,) array equal row by row to the kernel's ``value``.  It
    makes no input checks and does not test PPO's clip gate.  Its arithmetic
    is shared with the kernel, never restated.  LCO_KLD's row value is the
    one-pass form the kernel calls from V = 16 up; below that the kernel
    calls ``kl_between``, held equal to it (see the module docstring).
    ``hessian(z, pi, target, step)`` is the analytic logit Hessian at the
    kernel's point; PPO's raises ``InactiveRegionError`` where the clip gate
    is closed.  ``smooth(z, step)`` says whether the loss is twice
    differentiable at every row of an (n, V) stack z; PPO's is its clip
    gate, open at every row.
    """

    kernel: Callable[[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None, tuple], LossEval]
    value: Callable[[np.ndarray, np.ndarray | None, tuple], np.ndarray]
    reads: int = 0  # how many values of ``step`` the objective reads
    # "logits" aligns to z* = z_old + A/beta, "policy" to pi* ~ pi_old e^{A/beta}
    target: str | None = None
    log_policy: bool = False  # the kernel reads log softmax(z)
    hessian: Callable[[np.ndarray, np.ndarray, np.ndarray | None, tuple], np.ndarray] | None = None
    bound: Callable[[float, float, int], float] | None = None  # (loss, sigma_max, V) -> envelope
    smooth: Callable[[np.ndarray, tuple], bool] | None = None  # None: twice differentiable everywhere
    envelope_radius: float = math.inf  # residual sup-norm within which the converge envelope is asserted
    teacher_forced: bool = False  # training walks the environment's target sequence instead of sampling

    def point(self, z, target=None, step=()) -> tuple[np.ndarray, np.ndarray | None, tuple]:
        """Check a (z, target, step) point and return it as the kernel reads it.

        The target is checked in this objective's form, of z's length (None
        without a form); ``step`` is a tuple or list of at least ``reads``
        values, its action checked by ``check_action`` and the rest by
        ``check_real`` against ``_STEP_VALUES``, and returned as its first
        ``reads``.  Every violation raises ``InvalidInputError``.
        """
        z = as_logits(z, "z")
        if self.target is None:
            target = None
        else:
            target = as_logits(target, "target") if self.target == "logits" else as_probs(target, "target")
            if target.size != z.size:
                raise InvalidInputError("target must have the length of z")
        if not isinstance(step, (tuple, list)) or len(step) < self.reads:
            raise InvalidInputError(f"step must be a tuple of at least {self.reads} values, got {step!r}")
        if not self.reads:
            return z, target, ()
        action = check_action(step[0], z.size)
        values = (check_real(value, *names) for value, names in zip(step[1 : self.reads], _STEP_VALUES))
        return z, target, (action, *values)

    def policy(self, z: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(softmax(z), log_softmax(z))`` as the kernel reads them, None for what it does not.

        A logit-target loss reads neither; a kernel that reads log pi takes
        both from one pass (``dist._softmax_and_log``).
        """
        if self.log_policy:
            return _softmax_and_log(z)
        return (None if self.target == "logits" else _softmax(z)), None

    def optimal_target(self, z_old: np.ndarray, pi_old: np.ndarray, values: np.ndarray, beta: float):
        """The closed-form target of the advantages ``values``, None without one."""
        if self.target == "logits":
            return _optimal_logits(z_old, values, beta)
        if self.target == "policy":
            return _optimal_policy(pi_old, values, beta)
        return None

    def target_at(self, z_star: np.ndarray) -> np.ndarray:
        """The target represented by the logits ``z_star``, in this objective's form."""
        return z_star if self.target == "logits" else _softmax(z_star)


OBJECTIVES: dict[ObjectiveKind, Objective] = {
    ObjectiveKind.SFT: Objective(
        kernel=lambda z, pi, log_pi, target, step: _reinforce_eval(pi, log_pi, step[0], 1.0),
        value=lambda z, target, step: _reinforce_value(_log_softmax(z), step[0], 1.0),
        reads=1,
        log_policy=True,
        hessian=lambda z, pi, target, step: softmax_curvature(pi),
        teacher_forced=True,
    ),
    ObjectiveKind.PPO: Objective(
        kernel=lambda z, pi, log_pi, target, step: _ppo_eval(pi, *step),
        value=lambda z, target, step: _ppo_rows(z, *step),
        reads=4,
        hessian=lambda z, pi, target, step: _ppo_hessian(pi, *step),
        smooth=lambda z, step: _ppo_open(z, *step),
    ),
    ObjectiveKind.REINFORCE: Objective(
        kernel=lambda z, pi, log_pi, target, step: _reinforce_eval(pi, log_pi, *step[:2]),
        value=lambda z, target, step: _reinforce_value(_log_softmax(z), *step[:2]),
        reads=2,
        log_policy=True,
    ),
    ObjectiveKind.LCO_MSE: Objective(
        kernel=lambda z, pi, log_pi, target, step: _lco_mse_eval(z, target),
        value=lambda z, target, step: _lco_mse_value(z - target),
        target="logits",
        hessian=lambda z, pi, target, step: (2.0 / z.size) * np.eye(z.size),
        bound=lambda loss, sigma, v: 2.0 / v * sigma * np.sqrt(v * loss),
    ),
    ObjectiveKind.LCO_LCH: Objective(
        kernel=lambda z, pi, log_pi, target, step: _lco_lch_eval(z, target),
        value=lambda z, target, step: _lco_lch_value(z - target),
        target="logits",
        hessian=lambda z, pi, target, step: _lco_lch_hessian(z, target),
        bound=lambda loss, sigma, v: sigma / v * np.sqrt(v * (-np.expm1(-2.0 * loss))),
        envelope_radius=LCH_NEIGHBORHOOD,
    ),
    ObjectiveKind.LCO_KLD: Objective(
        kernel=lambda z, pi, log_pi, target, step: _lco_kld_eval(pi, log_pi, target),
        value=lambda z, target, step: _lco_kld_rows(target, *_softmax_and_log(z)),
        target="policy",
        log_policy=True,
        hessian=lambda z, pi, target, step: softmax_curvature(pi),
        bound=lambda loss, sigma, v: sigma * np.sqrt(2.0 * loss),
    ),
}

# the logit-convex alignment members: the kinds that align to a target
LCO_KINDS = tuple(kind for kind, objective in OBJECTIVES.items() if objective.target is not None)


def entry(kind, name: str = "kind") -> Objective:
    """The ``OBJECTIVES`` entry of ``kind``, the one reader of an objective kind at the library boundary.

    Anything but an ``ObjectiveKind`` (its name as a string, None) raises
    ``InvalidInputError``, whose message opens with ``name``.
    """
    if not isinstance(kind, ObjectiveKind):
        raise InvalidInputError(f"{name} must be an ObjectiveKind, got {kind!r}")
    return OBJECTIVES[kind]


def evaluate(kind: ObjectiveKind, z, target=None, step=()) -> LossEval:
    """The loss of ``kind`` and its logit gradient at the table's point (z, target, step).

    The point is checked by ``Objective.point``, as ``hessian_analytic``
    checks it: SFT reads its target token from ``step``, PPO the whole step
    tuple, REINFORCE its action and advantage, and the alignment objectives
    their target, z* for LCO_MSE and LCO_LCH and pi* for LCO_KLD.  A
    logit-target loss never takes the softmax, as in the trainer.
    """
    objective = entry(kind)
    z, target, step = objective.point(z, target, step)
    return objective.kernel(z, *objective.policy(z), target, step)


def ppo_active(z, step) -> bool:
    """Whether the clipped surrogate has a nonzero gradient at PPO's point (z, step).

    True iff (A > 0 and r < 1 + eps) or (A < 0 and r > 1 - eps); a zero
    advantage counts as inactive.
    """
    z, _, (a, adv, behavioral, eps) = OBJECTIVES[ObjectiveKind.PPO].point(z, None, step)
    return _ppo_gate(adv, _ratio(float(_softmax(z)[a]), behavioral), eps)
