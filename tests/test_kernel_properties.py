"""Seeded property tests of the probability kernels and the closed-form targets.

The trainer calls ``_softmax``, ``_log_softmax``, ``_entropy``,
``kl_between`` and the target kernels ``_optimal_logits`` /
``_optimal_policy`` without input checks, so these tests hold them to the
mpmath oracles of ``oracles.py`` directly.  Each of the ``RUNS`` cases is
drawn from its own ``np.random.default_rng(i)``: a vocabulary size V from 2
to 64 and a stack of logit rows whose scale runs from 1e-3 to 1e3, with
ties, one logit at +/-1000, and pairs of rows within rounding distance of
each other among the draws.  Every logit lies in [-1000, 1000].

Each bound is the rounding error of the kernel's own arithmetic, in units
of eps = 2^-52: a softmax entry carries the rounding of its shift z - max(z)
(relative error up to eps * |z - max(z)|), a sum of V terms up to V eps of
its size, and an entry that underflows to a subnormal an absolute 1e-323.
The 1-D call of ``_softmax`` and ``_log_softmax`` must also equal each row
of the (n, V) stack call bit for bit, as ``dist``'s docstring promises.
"""

import numpy as np
import pytest

from lco_lab.dist import _entropy, _log_softmax, _softmax, kl_between
from lco_lab.errors import InvalidInputError
from lco_lab.targets import _optimal_logits, _optimal_policy

from oracles import (
    bregman_kl_hp,
    entropy_hp,
    kl_to_logits_hp,
    log_softmax_hp,
    optimal_logits_hp,
    optimal_policy_hp,
    softmax_hp,
)

RUNS = 100
ROWS = 3
EPS = np.finfo(np.float64).eps
SUBNORMAL = 1e-323  # absolute rounding allowance of a result that underflows


def _logits(rng, v):
    """A logit row at a scale from 1e-3 to 1e3, sometimes tied or with one logit at +/-1000."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    z = rng.uniform(-scale, scale, v)
    shape = rng.random()
    if shape < 0.2:
        z[rng.integers(v)] = rng.choice([-1000.0, 1000.0])
    elif shape < 0.3:
        z[rng.integers(v, size=v // 2 + 1)] = z[0]
    return z


def _case(index):
    """Case ``index``: V and an (ROWS, V) stack of logit rows."""
    rng = np.random.default_rng(index)
    v = int(rng.integers(2, 65))
    stack = np.array([_logits(rng, v) for _ in range(ROWS)])
    if rng.random() < 0.3:  # a row within rounding distance of the first
        stack[1] = stack[0] + 10.0 ** rng.uniform(-13.0, -3.0) * rng.standard_normal(v)
    return rng, v, np.clip(stack, -1000.0, 1000.0)


@pytest.mark.parametrize("index", range(RUNS))
def test_softmax_and_log_softmax_match_the_oracle_and_the_stack(index):
    _, v, stack = _case(index)
    p_stack, log_p_stack = _softmax(stack), _log_softmax(stack)
    for z, p_row, log_p_row in zip(stack, p_stack, log_p_stack):
        p, log_p = _softmax(z), _log_softmax(z)
        assert p.tobytes() == p_row.tobytes()
        assert log_p.tobytes() == log_p_row.tobytes()
        exact = softmax_hp(z)
        assert (np.abs(p - exact) <= EPS * (np.abs(z - z.max()) + v + 4.0) * exact + SUBNORMAL).all()
        exact_log = log_softmax_hp(z)
        assert np.isfinite(log_p).all()
        assert (np.abs(log_p - exact_log) <= 4.0 * EPS * (np.abs(exact_log) + 2.0)).all()


@pytest.mark.parametrize("index", range(RUNS))
def test_entropy_matches_the_oracle(index):
    _, v, stack = _case(index)
    for p in _softmax(stack):
        exact = entropy_hp(p)
        assert abs(_entropy(p) - exact) <= (v + 4.0) * EPS * exact + v * SUBNORMAL


@pytest.mark.parametrize("index", range(RUNS))
def test_kl_between_matches_the_oracle(index):
    # KL(p || q) from the target p = softmax(first row) to q = softmax(row),
    # in the trainer's form (log q from log_softmax) and, where q has mass on
    # p's support, in the plain one
    _, v, stack = _case(index)
    p = _softmax(stack[0])
    for z in stack:
        q, log_q = _softmax(z), _log_softmax(z)
        # each term's error: its logs' roundings, and eps |p - q| in the
        # cancellation of the Bregman form
        scale = np.abs(p - q).sum() + (p * (np.abs(np.log(np.maximum(p, 1e-320))) + np.abs(log_q))).sum()
        exact = kl_to_logits_hp(p, z)
        got = kl_between(p, q, log_q=log_q)
        assert got >= 0.0
        assert abs(got - exact) <= (v + 8.0) * EPS * (exact + scale) + v * SUBNORMAL
        if (q[p > 0.0] > 0.0).all():
            exact = bregman_kl_hp(p, q)
            assert abs(kl_between(p, q) - max(exact, 0.0)) <= (v + 8.0) * EPS * (exact + scale) + v * SUBNORMAL


@pytest.mark.parametrize("index", range(RUNS))
def test_targets_match_the_oracle(index):
    # z* = z_old + A / beta and pi* ~ pi_old exp(A / beta), at |A / beta| up to 1e4
    rng, v, stack = _case(index)
    beta = float(rng.choice([0.1, 1.0, 10.0]))
    advantages = rng.uniform(-1.0, 1.0, v) * 10.0 ** rng.uniform(-3.0, 3.0)
    for z_old in stack:
        scaled = advantages / beta
        z_star = _optimal_logits(z_old, advantages, beta)
        exact = optimal_logits_hp(z_old, advantages, beta)
        assert (np.abs(z_star - exact) <= EPS * (np.abs(scaled) + np.abs(exact))).all()

        pi_old = _softmax(z_old)
        pi_star = _optimal_policy(pi_old, advantages, beta)
        exact = optimal_policy_hp(pi_old, advantages, beta)
        # log pi_old, A / beta and the shift by the largest logit each round
        with np.errstate(divide="ignore"):
            log_pi_old = np.where(pi_old > 0.0, np.log(np.maximum(pi_old, 5e-324)), 0.0)
        size = np.abs(log_pi_old) + np.abs(scaled) + np.abs(log_pi_old + scaled).max()
        assert (np.abs(pi_star - exact) <= EPS * (size + v + 4.0) * exact + SUBNORMAL).all()


def _extreme_advantages(index):
    """Case ``index`` at |A / beta| from 1e4 to past the float range: (z_old, A, beta).

    log10 |A / beta| is drawn up to 309, half the time from 307.5, so some
    cases overflow; beta runs from 1e-300 to 0.1, so A itself stays finite.
    """
    rng, v, stack = _case(index)
    log_ratio = rng.uniform(4.0, 309.0) if rng.random() < 0.5 else rng.uniform(307.5, 309.0)
    log_beta = -rng.uniform(1.0, 300.0)
    advantages = rng.uniform(-1.0, 1.0, v) * 10.0 ** (log_ratio + log_beta)
    return stack[0], advantages, 10.0**log_beta


@pytest.mark.parametrize("index", range(RUNS))
def test_kl_between_stays_finite_out_to_the_largest_advantage_scale(index):
    # KL(pi* || pi) with pi* = pi exp(A / beta) normalized, in the trainer's
    # form, at the scales where pi* is one-hot to the last bit; where A / beta
    # overflows, the target refuses it
    z_old, advantages, beta = _extreme_advantages(index)
    v = z_old.size
    pi, log_pi = _softmax(z_old), _log_softmax(z_old)
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(advantages / beta).all()
    if overflows:
        with pytest.raises(InvalidInputError, match="A/beta overflows"):
            _optimal_policy(pi, advantages, beta)
        return
    pi_star = _optimal_policy(pi, advantages, beta)
    got = kl_between(pi_star, pi, log_q=log_pi)
    assert np.isfinite(got) and got >= 0.0
    scale = np.abs(pi_star - pi).sum() + (
        pi_star * (np.abs(np.log(np.maximum(pi_star, 1e-320))) + np.abs(log_pi))
    ).sum()
    exact = kl_to_logits_hp(pi_star, z_old)
    assert abs(got - exact) <= (v + 8.0) * EPS * (exact + scale) + v * SUBNORMAL


def test_the_extreme_advantage_cases_reach_both_sides_of_the_float_range():
    ratios = []
    for index in range(RUNS):
        _, advantages, beta = _extreme_advantages(index)
        with np.errstate(over="ignore"):
            ratios.append(np.abs(advantages / beta).max())
    ratios = np.array(ratios)
    assert ratios.min() < 1e6 and np.isinf(ratios).sum() >= 5 and (ratios[np.isfinite(ratios)] > 1e307).sum() >= 5
