import inspect

import numpy as np
import pytest
from mpmath import log, mpf, workdps

from lco_lab.dist import normalize_advantages, softmax, total_variation
from lco_lab.envs import TableReward, ToyEnvironment
from lco_lab.errors import InvalidInputError
from lco_lab.objectives import ObjectiveKind
from lco_lab.targets import (
    OptimalTarget,
    load_logprob_table,
    optimal_logits,
    optimal_policy,
    optimal_shift,
    optimal_target,
)
from lco_lab.training import Rollout, TrainerConfig, _step_advantages
from lco_lab.verify import _objective_gaps, _perturbations, suite_targets

from oracles import objective_gaps_rows, perturbations_rows


def test_optimal_policy_zero_advantage_is_identity():
    pi_old = softmax(np.array([0.7, -0.2, 1.1]))
    assert np.abs(optimal_policy(pi_old, np.zeros(3), 1.0) - pi_old).max() < 1e-15


def test_optimal_policy_infinite_regularization_limit():
    pi_old = softmax(np.array([0.4, -1.0, 0.3, 2.0]))
    advantages = np.array([5.0, -3.0, 1.0, 0.5])
    pi_star = optimal_policy(pi_old, advantages, 1e9)
    assert total_variation(pi_star, pi_old) < 1e-8


def test_optimal_policy_uniform_prior_reduces_to_softmax():
    pi_star = optimal_policy([0.5, 0.5], np.array([1.0, -1.0]), 1.0)
    assert np.abs(pi_star - softmax(np.array([1.0, -1.0]))).max() < 1e-15


def test_optimal_policy_survives_huge_advantage_ratio():
    pi_old = softmax(np.array([0.0, 0.0]))
    pi_star = optimal_policy(pi_old, np.array([2000.0, 0.0]), 1.0)
    assert np.all(np.isfinite(pi_star))
    assert abs(pi_star[0] - 1.0) < 1e-12


def test_targets_reject_overflowing_advantage_ratio():
    advantages = np.array([1e308, -1e308])
    with pytest.raises(InvalidInputError):
        optimal_policy([0.5, 0.5], advantages, 1e-10)
    with pytest.raises(InvalidInputError):
        optimal_logits([0.0, 0.0], advantages, 1e-10)
    with pytest.raises(InvalidInputError):  # A/beta finite, the sum is not
        optimal_logits([1e308, 0.0], np.array([1e308, 0.0]), 1.0)


def test_optimal_logits_is_exact_adjustment():
    assert np.array_equal(optimal_logits([0.0, 0.0], np.array([1.0, -1.0]), 1.0), [1.0, -1.0])
    z_old = np.array([0.3, -0.7, 1.2])
    assert np.array_equal(optimal_logits(z_old, np.zeros(3), 2.0), z_old)


def test_targets_are_consistent():
    rng = np.random.default_rng(31)
    for _ in range(50):
        z_old = rng.uniform(-2, 2, 7)
        advantages = rng.uniform(-2, 2, 7)
        beta = float(rng.uniform(0.2, 5.0))
        z_star = optimal_logits(z_old, advantages, beta)
        pi_star = optimal_policy(softmax(z_old), advantages, beta)
        assert np.abs(softmax(z_star) - pi_star).max() < 1e-10


def test_optimal_target_pair_validation():
    target = optimal_target(np.array([0.1, -0.4]), np.array([0.5, 0.0]), 1.0)
    assert np.abs(softmax(target.z_star) - target.pi_star).max() < 1e-10
    with pytest.raises(InvalidInputError):
        OptimalTarget(np.array([0.9, 0.1]), np.array([0.0, 0.0]))


def _dense_rows(normalize=False, **tables):
    config = TrainerConfig(ObjectiveKind.LCO_KLD, 0.1, 1, normalize=normalize, **tables)
    return config._advantage_rows


def test_sparse_estimator():
    env = ToyEnvironment(5, 1, TableReward(np.array([[0.5, 0.5, 0.5, 2.0, 0.5]])))
    config = TrainerConfig(ObjectiveKind.LCO_KLD, 0.1, 1)
    assert config._advantage_rows is None
    rollout = Rollout((0,), (3,), (np.zeros(5),), (np.full(5, 0.2),))
    # without a scorer table, the sampled action's scalar alone
    assert np.array_equal(_step_advantages(env, config, rollout, 0), [0, 0, 0, 2.0, 0])
    # which is never centered, so asking for that is an error, not a no-op
    with pytest.raises(InvalidInputError, match="^normalize is set without a scorer_table"):
        TrainerConfig(ObjectiveKind.LCO_KLD, 0.1, 1, normalize=True)


def test_dpo_estimator_identical_models_is_zero():
    logp = np.log(softmax(np.array([0.2, -0.5, 1.0])))[None, :]
    (row,) = _dense_rows(scorer_table=logp, ref_table=logp)
    assert np.array_equal(row, np.zeros(3))


def test_logprob_estimator_uniform_centers_to_zero():
    logp = np.full((1, 4), -np.log(4.0))
    (row,) = _dense_rows(scorer_table=logp)
    assert np.allclose(row, -np.log(4.0))
    (centered,) = _dense_rows(normalize=True, scorer_table=logp)
    assert np.abs(centered).max() <= 1e-15


def test_tables_outside_the_dense_rule_s_domain():
    # a log of zero probability is a non-finite entry, which the array reader rejects
    with pytest.raises(InvalidInputError, match="^scorer_table must be finite"):
        _dense_rows(scorer_table=np.array([[-np.inf, -1.0]]))
    with pytest.raises(InvalidInputError, match="^ref_table must be finite"):
        _dense_rows(scorer_table=np.zeros((1, 2)), ref_table=np.array([[np.nan, 0]]))
    with pytest.raises(InvalidInputError, match=r"^ref_table must have the scorer_table's width 2, got \(1, 3\)"):
        _dense_rows(scorer_table=np.zeros((1, 2)), ref_table=np.zeros((1, 3)))
    with pytest.raises(InvalidInputError, match="^ref_table is given without a scorer_table"):
        _dense_rows(ref_table=np.zeros((1, 2)))
    huge = np.array([[1e308, 0.0]])
    with pytest.raises(InvalidInputError, match="advantages must be finite"):  # the DPO difference overflows
        _dense_rows(scorer_table=huge, ref_table=-huge)


def test_targets_reject_an_advantage_vector_of_the_wrong_shape():
    # a (1, 2) array has the size of a length-2 vector, but not its shape
    with pytest.raises(InvalidInputError, match=r"length 2, got shape \(1, 2\)"):
        optimal_policy([0.5, 0.5], np.zeros((1, 2)), 1.0)
    with pytest.raises(InvalidInputError, match=r"length 2, got shape \(1, 2\)"):
        optimal_logits([0.0, 0.0], np.zeros((1, 2)), 1.0)
    with pytest.raises(InvalidInputError, match=r"length 3, got shape \(2,\)"):
        optimal_target([0.0, 0.0, 0.0], np.zeros(2), 1.0)


@pytest.mark.parametrize("bad", [[], np.zeros((2, 2)), 1.0, [np.nan, 0.0]])
def test_optimal_shift_rejects_what_is_not_an_advantage_vector(bad):
    with pytest.raises(InvalidInputError, match="^a must be"):
        optimal_shift(bad)


def test_optimal_shift_rejects_an_overflowing_mean():
    with pytest.raises(InvalidInputError, match="mean of the advantages overflows"):
        optimal_shift([1e308, 1e308])


def test_optimal_shift_values():
    assert optimal_shift(np.array([1.0, -1.0])) == 0.0
    assert optimal_shift(np.array([2.0, 2.0, 2.0])) == -2.0
    centered = normalize_advantages(np.random.default_rng(5).uniform(-3, 3, 9))
    assert abs(optimal_shift(centered)) <= 1e-12


def test_optimal_shift_against_grid_search():
    rng = np.random.default_rng(37)
    advantages = rng.uniform(-3, 3, 9)
    span = float(np.abs(advantages).max()) + 1.0
    grid = np.arange(-span, span, 1e-4)
    norms = ((advantages[None, :] + grid[:, None]) ** 2).sum(axis=1)
    i = int(np.argmin(norms))
    # quadratic refine through the bracketing samples
    x0, x1, x2 = grid[i - 1], grid[i], grid[i + 1]
    y0, y1, y2 = norms[i - 1], norms[i], norms[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    refined = -b / (2 * a)
    assert abs(optimal_shift(advantages) - refined) < 1e-6


def test_optimal_shift_minimizes_the_norm():
    rng = np.random.default_rng(41)
    advantages = rng.uniform(-4, 4, 6)
    best = ((advantages + optimal_shift(advantages)) ** 2).sum()
    for c in rng.uniform(-6, 6, 100):
        assert best <= ((advantages + c) ** 2).sum() + 1e-12


def test_load_logprob_table(tmp_path):
    table = tmp_path / "scores.txt"
    table.write_text("# scorer log-probs\n-1.0 -2.0 -0.5\n\n-0.1 -0.2 -0.3  # tail comment\n")
    loaded = load_logprob_table(table)
    assert loaded.shape == (2, 3)
    assert loaded[1, 2] == -0.3

    bad = tmp_path / "bad.txt"
    bad.write_text("-1.0 -2.0\n-1.0\n")
    with pytest.raises(InvalidInputError):
        load_logprob_table(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(InvalidInputError):
        load_logprob_table(empty)
    words = tmp_path / "words.txt"
    words.write_text("-1.0 -2.0\n-1.0 high\n")
    with pytest.raises(InvalidInputError, match=r"words.txt:2: not a float row: '-1.0 high'$"):
        load_logprob_table(words)


def _objective_hp(p, pi_old, advantages, beta):
    """J(p) = p.A - beta KL(p || pi_old) in 50-digit arithmetic, at the exact
    distribution p / sum(p) that the float64 vector p stands for."""
    with workdps(50):
        mass = sum(mpf(float(x)) for x in p)
        total = mpf(0)
        for x, q, a in zip(p, pi_old, advantages):
            x = mpf(float(x)) / mass
            total += x * mpf(float(a))
            if x > 0:
                total -= mpf(float(beta)) * x * log(x / mpf(float(q)))
        return total


def test_objective_gaps_equal_the_extended_precision_difference():
    # near the optimum J(p) - J(q) is O(TV^2), far below one ulp of J itself
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = int(rng.integers(2, 7))
        pi_old = softmax(rng.uniform(-2.0, 2.0, v))
        advantages = rng.uniform(-2.0, 2.0, v)
        beta = float(rng.uniform(0.3, 3.0))
        q = optimal_policy(pi_old, advantages, beta)
        for scale in (1e-7, 1e-4, 0.3):
            noisy = q * np.exp(scale * rng.standard_normal(v))
            p = noisy / noisy.sum()
            gap = _objective_gaps(p[:, None], q, pi_old, advantages, beta)[0]
            with workdps(50):
                exact = _objective_hp(p, pi_old, advantages, beta) - _objective_hp(q, pi_old, advantages, beta)
            exact = float(exact)
            assert gap < 0.0 and abs(gap - exact) <= 1e-6 * abs(exact) + 1e-30
    # a zero entry of p contributes no p log(p / q) term
    q = np.array([0.25, 0.75])
    gap = _objective_gaps(np.array([[0.0], [1.0]]), q, q, np.zeros(2), 1.0)[0]
    assert gap == pytest.approx(-np.log(1.0 / 0.75), rel=1e-15)


def test_column_perturbations_and_gaps_equal_the_row_major_oracle():
    # the suite's draws at V 2-6: the (V, n) stack is the transpose of the
    # row-major one, and each gap is the row-major gap bit for bit (below
    # V = 8 numpy sums a row left to right, as the column sum runs)
    rng = np.random.default_rng(404)
    for _ in range(60):
        v = int(rng.integers(2, 7))
        pi_old = softmax(rng.uniform(-2.0, 2.0, v))
        advantages = rng.uniform(-2.0, 2.0, v)
        beta = float(rng.uniform(0.3, 3.0))
        pi_star = optimal_policy(pi_old, advantages, beta)
        seed = int(rng.integers(2**31))
        columns = _perturbations(np.random.default_rng(seed), pi_star, 10_000)
        rows = perturbations_rows(np.random.default_rng(seed), pi_star, 10_000)
        assert columns.flags.c_contiguous and columns.shape == rows.T.shape
        assert np.array_equal(columns, rows.T)
        gaps = _objective_gaps(columns, pi_star, pi_old, advantages, beta)
        assert gaps.tolist() == objective_gaps_rows(rows, pi_star, pi_old, advantages, beta).tolist()


def test_target_suite_passes_at_seed_offsets_0_to_9():
    default = inspect.signature(suite_targets).parameters["seed"].default
    for offset in range(10):
        result = suite_targets(seed=default + offset)
        assert (result.cases, result.failures) == (1300, 0), offset
