import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lco_lab.dist import (
    _nucleus,
    _pick,
    as_advantages,
    entropy,
    kl_divergence,
    log_softmax,
    normalize_advantages,
    PROB_ATOL,
    sample_action,
    sample_actions,
    softmax,
    total_variation,
)
from lco_lab.errors import DivergenceUndefinedError, InvalidInputError

from oracles import entropy_hp, kl_hp, log_softmax_hp, nucleus_reference, softmax_hp, tempered_hp


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    assert np.allclose(softmax([0.0] * 4), [0.25] * 4, atol=1e-15)


def test_softmax_extreme_logits_match_high_precision():
    z = np.array([1000.0, 0.0])
    got = softmax(z)
    expected = softmax_hp(z)  # second entry ~5.08e-435, below float64 range
    assert np.all(np.isfinite(got))
    assert np.abs(got - expected).max() < 1e-15
    assert abs(got.sum() - 1.0) <= 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.uniform(-5, 5, int(rng.integers(2, 12)))
        c = float(rng.uniform(-200, 200))
        assert np.abs(softmax(z + c) - softmax(z)).max() <= 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        softmax([np.nan, 0.0])
    with pytest.raises(InvalidInputError):
        softmax([np.inf, 0.0])


def test_log_softmax_constants():
    assert np.allclose(log_softmax([0.0, 0.0]), [-np.log(2)] * 2, atol=1e-15)
    for a in (-7.0, 0.0, 123.5):
        assert np.allclose(log_softmax([a, a, a]), [-np.log(3)] * 3, atol=1e-12)


def test_log_softmax_matches_high_precision():
    z = np.array([3.0, 1.0, -2.0])
    # frozen from the 50-digit evaluation of z - logsumexp(z)
    frozen = np.array([-0.13284523372757555, -2.1328452337275756, -5.1328452337275756])
    got = log_softmax(z)
    assert np.abs(got - frozen).max() < 1e-14
    assert np.abs(got - log_softmax_hp(z)).max() < 1e-14


def test_log_softmax_exp_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.uniform(-6, 6, int(rng.integers(2, 10)))
        assert np.abs(np.exp(log_softmax(z)) - softmax(z)).max() <= 1e-12


def test_entropy_values():
    assert abs(entropy([0.25] * 4) - np.log(4)) < 1e-14
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    # frozen: -0.9 ln 0.9 - 0.1 ln 0.1 at 50 digits
    assert abs(entropy([0.9, 0.1]) - 0.3250829733914482) < 1e-15
    assert abs(entropy([0.9, 0.1]) - entropy_hp([0.9, 0.1])) < 1e-15


def test_entropy_range_and_validation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = int(rng.integers(2, 16))
        p = softmax(rng.uniform(-3, 3, v))
        h = entropy(p)
        assert 0.0 <= h <= np.log(v) + 1e-12
    with pytest.raises(InvalidInputError):
        entropy([0.7, 0.7])
    with pytest.raises(InvalidInputError):
        entropy([-0.1, 1.1])


def test_kl_trivial_and_frozen():
    p = softmax(np.random.default_rng(3).uniform(-2, 2, 6))
    assert kl_divergence(p, p) == 0.0
    assert abs(kl_divergence([1.0, 0, 0, 0], [0.25] * 4) - np.log(4)) < 1e-14

    rng = np.random.default_rng(42)
    a, b = rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5)
    p, q = softmax(a), softmax(b)
    assert abs(kl_divergence(p, q) - 0.5243869615468529) < 1e-14  # frozen 50-digit value
    assert abs(kl_divergence(p, q) - kl_hp(p, q)) < 1e-14


def test_kl_support_violation():
    with pytest.raises(DivergenceUndefinedError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_kl_of_vectors_of_unequal_length_is_refused():
    with pytest.raises(InvalidInputError, match="^q must have the length of p$"):
        kl_divergence([0.5, 0.5], [0.25, 0.25, 0.5])


def test_kl_nonnegative_near_equal():
    # cancellation regime: q is p plus a few ulps
    p = softmax(np.array([0.3, -0.4, 1.1]))
    q = p.copy()
    q[0] = np.nextafter(q[0], 1.0)
    q[1] -= q.sum() - 1.0
    assert kl_divergence(p, q) >= 0.0


def test_total_variation():
    p = softmax(np.array([1.0, 2.0, -1.0]))
    assert total_variation(p, p) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert abs(total_variation([0.7, 0.3], [0.3, 0.7]) - 0.4) < 1e-15
    with pytest.raises(InvalidInputError):
        total_variation([0.5, 0.5], [0.25, 0.25, 0.5])


def test_normalize_advantages():
    assert np.array_equal(normalize_advantages([1.0, -1.0]), [1.0, -1.0])
    assert np.array_equal(normalize_advantages([2.0, 2.0, 2.0]), [0.0, 0.0, 0.0])
    assert np.array_equal(normalize_advantages(np.array([3.0, 1.0, -1.0, 1.0])), [2.0, 0.0, -2.0, 0.0])


def test_normalize_advantages_rejects_an_overflow():
    with pytest.raises(InvalidInputError, match="overflow when centered"):  # the sum overflows
        normalize_advantages([1.7e308, 1.7e308, -1e308])
    with pytest.raises(InvalidInputError, match="overflow when centered"):  # a - mean overflows
        normalize_advantages([1.7e308, -1e308, -1e308])
    with pytest.raises(InvalidInputError, match="finite"):
        normalize_advantages([np.inf, 0.0])


def test_as_advantages_takes_a_finite_vector():
    a = np.array([0.5, -2.0])
    assert as_advantages(a) is a
    assert as_advantages([1], size=1).dtype == np.float64
    for bad in ([], 1.0, np.zeros((1, 2)), np.zeros((2, 1))):
        with pytest.raises(InvalidInputError, match="1-D vector"):
            as_advantages(bad)
    with pytest.raises(InvalidInputError, match=r"length 3, got shape \(2,\)"):
        as_advantages(a, size=3)
    for bad in ([np.inf, 0.0], [0.0, np.nan]):
        with pytest.raises(InvalidInputError, match="advantages must be finite"):
            as_advantages(bad)


def test_sample_one_hot_is_deterministic():
    rng = np.random.default_rng(5)
    for temperature in (0.25, 1.0, 4.0):
        for top_p in (0.1, 0.5, 1.0):
            assert sample_action([0.0, 1.0, 0.0], temperature, top_p, rng) == 1


def test_sample_determinism():
    p = softmax(np.array([0.4, -0.3, 0.9, 0.0]))
    seq_a = [sample_action(p, 0.6, 0.95, np.random.default_rng(11)) for _ in range(200)]
    seq_b = [sample_action(p, 0.6, 0.95, np.random.default_rng(11)) for _ in range(200)]
    assert seq_a == seq_b


def test_sample_top_p_prefix():
    # smallest prefix reaching 0.7 is {0, 1}, renormalized to [0.625, 0.375]
    rng = np.random.default_rng(17)
    draws = np.array([sample_action([0.5, 0.3, 0.2], 1.0, 0.7, rng) for _ in range(4000)])
    assert set(draws.tolist()) <= {0, 1}
    freq0 = float(np.mean(draws == 0))
    assert abs(freq0 - 0.625) < 3.0 * np.sqrt(0.625 * 0.375 / 4000)


def test_sample_top_p_ties_break_toward_lower_index():
    # equal masses: the smallest prefix reaching 0.5 is the first two indices
    rng = np.random.default_rng(29)
    draws = {sample_action([0.25] * 4, 1.0, 0.5, rng) for _ in range(500)}
    assert draws == {0, 1}


def test_sample_temperature_sharpens():
    rng = np.random.default_rng(23)
    p = np.array([0.6, 0.4])
    cold = np.mean([sample_action(p, 0.1, 1.0, rng) == 0 for _ in range(2000)])
    assert cold > 0.95  # 0.6^10 dominates 0.4^10 at ~60:1


def test_sample_rejects_bad_parameters():
    with pytest.raises(InvalidInputError):
        sample_action([0.5, 0.5], 0.0, 1.0, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        sample_action([0.5, 0.5], 1.0, 0.0, np.random.default_rng(0))
    # log 0 / inf is NaN: an infinite temperature once drew action 0 every time
    # from [0.7, 0.3, 0.0], and drew uniformly from [0.7, 0.3]
    for p in ([0.7, 0.3, 0.0], [0.7, 0.3]):
        with pytest.raises(InvalidInputError, match=r"^temperature must lie in \(0, inf\), got inf$"):
            sample_action(p, np.inf, 1.0, np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match=r"^temperature must lie in \(0, inf\), got inf$"):
            sample_actions(p, np.inf, 1.0, np.random.default_rng(0), 10_000)


class _TopUniform:
    """Generator stub whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_sample_never_draws_zero_probability_action():
    # the cumulative mass of ten 0.1 entries rounds to 0.9999999999999999 < top_p
    p = [0.1] * 10 + [0.0]
    assert sample_action(p, 1.0, 1.0, _TopUniform()) == 9
    assert sample_actions(p, 1.0, 1.0, _TopUniform(), 3).tolist() == [9, 9, 9]


def test_sample_subnormal_temperature_takes_the_argmax_limit():
    # log p / T overflows to -inf for every entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng = np.random.default_rng(31)
        assert set(sample_actions([0.25] * 4, 1e-310, 1.0, rng, 400).tolist()) == {0, 1, 2, 3}
        assert set(sample_actions([0.4, 0.2, 0.4], 1e-310, 1.0, rng, 400).tolist()) == {0, 2}
        assert sample_action([0.1, 0.6, 0.3], 1e-310, 0.5, rng) == 1


def _vectors_with_zeros_and_ties(rng, v):
    counts = rng.integers(0, 4, v).astype(np.float64)  # small integers: many ties and zeros
    uniforms = rng.uniform(0.0, 1.0, v) * (rng.random(v) < 0.7)
    for weights in (counts, uniforms):
        if weights.sum() == 0.0:
            weights[0] = 1.0
        yield weights / weights.sum()


@pytest.mark.parametrize("v", [2, 3, 16, 64])
def test_sample_actions_replays_per_call_draws(v):
    rng = np.random.default_rng(100 + v)
    for p in _vectors_with_zeros_and_ties(rng, v):
        for temperature in (0.1, 0.5, 1.0, 2.0):
            for top_p in (0.3, 0.9, 1.0):
                seed = int(rng.integers(1 << 31))
                per_call, batched = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = [sample_action(p, temperature, top_p, per_call) for _ in range(100)]
                got = sample_actions(p, temperature, top_p, batched, 100)
                assert got.tolist() == expected
                assert per_call.random() == batched.random()


def test_draws_over_a_kept_nucleus_replay_sample_action():
    # the trainer builds a state's nucleus once and draws over it at every
    # later visit; that must be sample_action's draw, uniform for uniform
    rng = np.random.default_rng(2024)
    for case in range(3000):
        v = int(rng.integers(2, 65))
        weights = rng.uniform(0.0, 1.0, v) * (rng.random(v) < 0.7)  # about 30% zero mass
        if case % 5 == 0:
            weights = rng.integers(0, 3, v).astype(np.float64)  # ties
        if weights.sum() == 0.0:
            weights[int(rng.integers(v))] = 1.0
        p = weights / weights.sum()
        temperature = float(10.0 ** rng.uniform(-2.0, 1.0)) if case % 4 else float(rng.uniform(1e-320, 1e-308))
        top_p = float(rng.uniform(0.05, 1.0)) if case % 3 else 1.0
        seed = int(rng.integers(2**63))
        per_call, kept = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nucleus = _nucleus(p, temperature, top_p)
            expected = [sample_action(p, temperature, top_p, per_call) for _ in range(3)]
            got = [int(_pick(*nucleus, kept, 1)[0]) for _ in range(3)]
        assert got == expected, (case, p, temperature, top_p)
        assert kept.bit_generator.state == per_call.bit_generator.state


def _nucleus_probabilities(rng, v):
    """Probability vectors of length v: zero-mass actions, ties, one action
    holding nearly all the mass, and one just above 1 (``as_probs`` admits a
    sum within 1e-12 of 1)."""
    weights = rng.uniform(0.0, 1.0, v) * (rng.random(v) < 0.6)
    weights[int(rng.integers(v))] += 0.5  # at least one action has mass
    yield weights / weights.sum()
    ties = rng.integers(0, 3, v).astype(np.float64)
    ties[0] = 1.0
    yield ties / ties.sum()
    peaked = np.zeros(v)
    peaked[int(rng.integers(v))] = 1.0
    peaked[int(rng.integers(v))] += 1e-300
    yield peaked / peaked.sum()
    above = np.zeros(v)
    above[int(rng.integers(v))] = 1.0 + 5e-13
    yield above


@pytest.mark.parametrize("v", [2, 3, 8, 64])
def test_the_nucleus_matches_its_reference_form_bit_for_bit(v):
    # the nucleus takes its top over all of log p / T and weighs -inf entries
    # exp(-inf - top) = 0, where its reference gathered the finite entries and
    # zeroed the rest with a second np.where
    rng = np.random.default_rng(900 + v)
    for p in _nucleus_probabilities(rng, v):
        for temperature in (5e-324, 1e-310, 1e-3, 1.0, 1e300):
            for top_p in (1e-9, 0.9, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    kept, bounds = _nucleus(p, temperature, top_p)
                    want_kept, want_bounds = nucleus_reference(p, temperature, top_p)
                assert kept.tobytes() == want_kept.tobytes(), (p, temperature, top_p)
                assert bounds.tobytes() == want_bounds.tobytes(), (p, temperature, top_p)


def test_sample_actions_rejects_bad_size():
    rng = np.random.default_rng(0)
    for size in (0, -3, 2.5, "4", None, True):
        with pytest.raises(InvalidInputError):
            sample_actions([0.5, 0.5], 1.0, 1.0, rng, size)
    assert sample_actions([0.5, 0.5], 1.0, 1.0, rng, np.int64(5)).shape == (5,)


_weights = st.lists(
    st.one_of(st.integers(0, 20).map(float), st.floats(1e-300, 1.0)), min_size=2, max_size=64
)


@settings(derandomize=True, deadline=None, database=None)
@given(
    weights=_weights,
    # half the examples sit where log p / T overflows
    temperature=st.one_of(st.floats(1e-320, 1e-300), st.floats(-300.0, 3.0).map(lambda k: 10.0**k)),
    top_p=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_draws_lie_in_the_nucleus(weights, temperature, top_p, seed):
    weights = np.array(weights)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    p = weights / weights.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            draws = sample_actions(p, temperature, top_p, np.random.default_rng(seed), 64)
        except InvalidInputError:
            assert abs(float(p.sum()) - 1.0) > PROB_ATOL
            return
    q = tempered_hp(p, temperature)
    for a in set(draws.tolist()):
        assert p[a] > 0.0
        # every action strictly more probable than a is kept ahead of it
        ahead = sum(qb for qb in q if qb > q[a])
        assert ahead < top_p + 1e-9
