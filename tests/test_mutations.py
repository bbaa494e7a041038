"""Mutation rows: a suite that goes blind to a wrong fact fails here.

Each row patches one fact of the library with ``monkeypatch`` (``src/`` is
untouched), names the suites that must catch it, and pins the exact
``(cases, failures)`` each one reads at its default seed.  A row whose
count moves is a change in what the suite sees, and is recorded as one.
"""

import dataclasses

import numpy as np
import pytest

from lco_lab import policy
from lco_lab.policy import Family
from lco_lab.verify import SUITES


def _sigma_max_without_the_feature_factor(monkeypatch):
    # MLP1's J J^T = (||h||^2 + 1) I + (||phi||^2 + 1) B B^T, read with
    # (||phi||^2 + 1) as 1: phi is zeroed after the hidden layer was taken
    original = policy._sigma_max

    def mutant(model, state, hidden):
        if model.family is Family.MLP1:
            model = dataclasses.replace(model, features=np.zeros_like(model.features))
        return original(model, state, hidden)

    monkeypatch.setattr(policy, "_sigma_max", mutant)


MUTATIONS = {
    "sigma_max without (||phi||^2 + 1)": (_sigma_max_without_the_feature_factor, {"bounds": (1500, 150)}),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_each_mutation_fails_its_suites_with_the_pinned_counts(monkeypatch, name):
    apply, expected = MUTATIONS[name]
    for suite in expected:
        clean = SUITES[suite]()
        assert (clean.cases, clean.failures) == (expected[suite][0], 0)
    apply(monkeypatch)
    for suite, counts in expected.items():
        result = SUITES[suite]()
        assert (result.cases, result.failures) == counts
