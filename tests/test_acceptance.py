"""Acceptance gate: one test per release criterion, each printed with its
case count and wall time and held to its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `lco-lab verify` for the same suites from the CLI.
"""

import inspect
import time

import pytest

from lco_lab.verify import (
    suite_bounds,
    suite_convergence,
    suite_directionality,
    suite_dist,
    suite_dynamics,
    suite_gradients,
    suite_hessian,
    suite_recovery,
    suite_targets,
)


def run_criterion(label, suite_fn, budget_seconds):
    start = time.perf_counter()
    result = suite_fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else f"FAIL ({result.failures} failing)"
    print(f"criterion {label}: {status} [{result.cases} cases, {elapsed:.1f}s / {budget_seconds}s]")
    assert result.failures == 0, f"{label}: {result.failures}/{result.cases} cases failed"
    assert elapsed < budget_seconds, f"{label}: {elapsed:.1f}s over the {budget_seconds}s budget"


def test_criterion_1_gradient_formulas():
    # analytic logit gradients vs central differences, 200 cases per
    # objective over vocabulary sizes {2, 3, 5, 16}, relative 1e-6
    run_criterion("1 gradient-formulas", suite_gradients, 10.0)


def test_criterion_2_convexity():
    # PSD spectra for the likelihood objectives, exact scaled-identity and
    # bounded-diagonal forms for the regression objectives, and negative
    # curvature witnesses for the clipped surrogate, both advantage signs
    run_criterion("2 convexity", suite_hessian, 30.0)


def test_criterion_3_optimal_targets():
    # softmax(z*) = pi* to 1e-10; pi* beats 10^4 perturbations per case on
    # the regularized objective; the optimal shift matches a grid search
    run_criterion("3 optimal-targets", suite_targets, 60.0)


def test_criterion_4_gradient_norm_bounds():
    # ||J^T grad|| under the loss-anchored envelope on 500 random
    # (model, target) pairs per objective, sigma_max in closed form
    run_criterion("4 gradient-norm-bounds", suite_bounds, 30.0)
    run_criterion("4b directionality", suite_directionality, 30.0)


def test_criterion_5_convergence_envelopes():
    # tabular and linear families, both regression objectives, 20 seeds,
    # 500 steps, loss under its geometric envelope and monotone
    run_criterion("5 convergence", suite_convergence, 60.0)


def test_criterion_6_target_recovery():
    # tabular distribution matching with frozen targets reaches
    # TV < 1e-6 within 10^4 steps at learning rate 0.5, 20 seeds; a run
    # fails at its first step whose loss rises past prev * (1 + 1e-12) + 5e-324
    run_criterion("6 target-recovery", suite_recovery, 60.0)


def test_criterion_7_dynamics_reproduction():
    # supervised decay, clip-gated gradient spike, and enveloped decay of
    # the distribution objective on the crafted negative-score task
    run_criterion("7 dynamics", suite_dynamics, 300.0)


def test_criterion_8_no_llm_scale_claims():
    # benchmark-scale results are explicitly out of scope at desk scale;
    # nothing here depends on them
    print("criterion 8 llm-scale-results: NOT APPLICABLE (desk-scale artifact by design)")


# The gate above runs each suite at its default seed.  These run the seeded
# suites at the next ten seeds too, so a pass is not an accident of one
# seed; gradients and targets have theirs in test_row_values and test_targets.
@pytest.mark.parametrize(
    "suite, cases",
    [
        (suite_dist, 2402),
        (suite_hessian, 3100),
        (suite_bounds, 1500),
        (suite_directionality, 1300),
        (suite_convergence, 160),
        (suite_recovery, 20),
    ],
    ids=lambda x: x.__name__ if callable(x) else None,
)
def test_suite_passes_at_seed_offsets_0_to_9(suite, cases):
    default = inspect.signature(suite).parameters["seed"].default
    for offset in range(10):
        result = suite(seed=default + offset)
        assert (result.cases, result.failures) == (cases, 0), offset
