"""Mutation rows: a suite that goes blind to a wrong fact fails here.

Each row patches one fact of the library with ``monkeypatch`` (``src/`` is
untouched), names the suites that must catch it, and pins the exact
``(cases, failures)`` each one reads at its default seed.  A row whose
count moves is a change in what the suite sees, and is recorded as one.
A function the library imports by value is patched at every binding, so
the mutant is what a wrong line in its source would be.
"""

import dataclasses
import functools

import numpy as np
import pytest

from lco_lab import convexity, dist, objectives, policy, targets, training
from lco_lab.cli import main
from lco_lab.objectives import OBJECTIVES, LossEval, ObjectiveKind
from lco_lab.policy import Family
from lco_lab.verify import SUITES


def _rebind(monkeypatch, name, mutant, modules=(objectives,)):
    """Bind ``mutant(original)`` to ``name`` in each module that holds the original."""
    original = getattr(modules[0], name)
    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, mutant(original))


def _replace_entry(monkeypatch, kind, **changes):
    """Swap the OBJECTIVES entry of ``kind`` for a copy with ``changes``."""
    monkeypatch.setitem(OBJECTIVES, kind, dataclasses.replace(OBJECTIVES[kind], **changes))


def _halved_bound(monkeypatch, kind):
    bound = OBJECTIVES[kind].bound
    _replace_entry(monkeypatch, kind, bound=lambda loss, sigma, v: 0.5 * bound(loss, sigma, v))


def _scaled_hessian(monkeypatch, kind, scale):
    hessian = OBJECTIVES[kind].hessian
    _replace_entry(monkeypatch, kind, hessian=lambda z, pi, target, step: scale * hessian(z, pi, target, step))


def _scaled_gradient(scale):
    def mutation(kernel):
        def mutant(*args):
            evaluation = kernel(*args)
            return LossEval(evaluation.value, scale * evaluation.logit_gradient)

        return mutant

    return mutation


_negated_gradient = _scaled_gradient(-1.0)


def _negated(function):
    return lambda *args: -function(*args)


def _doubled_beta(optimal_policy):
    return lambda pi_old, values, beta: optimal_policy(pi_old, values, 2.0 * beta)


def _without_the_feature_factor(sigma_maxes):
    # MLP1's J J^T = (||h||^2 + 1) I + (||phi||^2 + 1) B B^T, read with
    # (||phi||^2 + 1) as 1: phi is zeroed after the hidden layers were taken
    def mutant(model, states, hiddens):
        if model.family is Family.MLP1:
            model = dataclasses.replace(model, features=np.zeros_like(model.features))
        return sigma_maxes(model, states, hiddens)

    return mutant


MUTATIONS = {
    "sigma_max without (||phi||^2 + 1)": (
        lambda mp: _rebind(mp, "_sigma_maxes", _without_the_feature_factor, modules=(policy, training)),
        {"bounds": (1500, 150)},
    ),
    # tanh(z* - z) / V in place of tanh(z - z*) / V
    "LCO-LCH gradient with the wrong tanh sign": (
        lambda mp: _rebind(mp, "_lco_lch_eval", _negated_gradient),
        {"gradients": (1300, 200), "directionality": (1300, 263)},
    ),
    "pi* built with 2 beta": (
        lambda mp: _rebind(mp, "_optimal_policy", _doubled_beta, modules=(targets, objectives)),
        {"targets": (1300, 700)},
    ),
    "a PPO clip gate that never closes": (
        lambda mp: _rebind(mp, "_ppo_gate", lambda f: lambda adv, r, eps: adv != 0.0),
        {"gradients": (1300, 50), "dynamics": (4, 1)},
    ),
    "a negated PPO Hessian": (
        lambda mp: _rebind(mp, "ppo_hessian_matrix", _negated, modules=(objectives, convexity)),
        {"hessian": (3100, 213)},
    ),
    "an LCO-LCH Hessian without sech^2": (
        lambda mp: _rebind(mp, "_lco_lch_hessian", lambda f: lambda z, target: np.eye(z.size) / z.size),
        {"hessian": (3100, 100)},
    ),
    # SFT is REINFORCE's kernel at A = 1, so the flip fails the 200 SFT and the
    # 200 REINFORCE cases of the sweep and the 50 SFT cases at V 17-64
    "a negated REINFORCE gradient": (
        lambda mp: _rebind(mp, "_reinforce_eval", _negated_gradient),
        {"gradients": (1300, 450)},
    ),
    "LCO-MSE's bound halved": (lambda mp: _halved_bound(mp, ObjectiveKind.LCO_MSE), {"bounds": (1500, 500)}),
    "LCO-KLD's bound halved": (lambda mp: _halved_bound(mp, ObjectiveKind.LCO_KLD), {"bounds": (1500, 187)}),
    # the convergence run reads its rate c from the Hessian at the target
    "an LCO-LCH Hessian scaled by 0.8": (
        lambda mp: _rebind(mp, "_lco_lch_hessian", lambda f: lambda z, target: 0.8 * f(z, target)),
        {"convergence": (160, 40), "hessian": (3100, 300)},
    ),
    # convergence checks c against the slope of the objective's own gradient at the target
    "an LCO-MSE Hessian scaled by 1.1": (
        lambda mp: _scaled_hessian(mp, ObjectiveKind.LCO_MSE, 1.1),
        {"convergence": (160, 40), "hessian": (3100, 300)},
    ),
    # (2/V) 0.95 r in place of (2/V) r; bounds reads 0 failures, since a shorter gradient stays under its bound
    "an LCO-MSE gradient scaled by 0.95": (
        lambda mp: _rebind(mp, "_lco_mse_eval", _scaled_gradient(0.95)),
        {"convergence": (160, 40), "gradients": (1300, 200), "directionality": (1300, 200)},
    ),
    "advantages left uncentered": (
        lambda mp: _rebind(mp, "normalize_advantages", lambda f: dist.as_advantages, modules=(dist, training)),
        {"dist": (2402, 1000)},
    ),
    "a log-softmax 1e-9 too high": (
        lambda mp: _rebind(mp, "_log_softmax", lambda f: lambda z: f(z) + 1e-9, modules=(dist, objectives)),
        {"dist": (2402, 200)},
    ),
    # pi* - pi in place of pi - pi*: recovery's runs climb away from pi*; bounds
    # reads 0 failures, since the flip keeps the gradient's norm
    "a negated LCO-KLD gradient": (
        lambda mp: _rebind(mp, "_lco_kld_eval", _negated_gradient),
        {"recovery": (20, 20), "gradients": (1300, 200), "directionality": (1300, 563), "dynamics": (4, 1)},
    ),
}


@functools.cache
def _clean(suite):
    result = SUITES[suite]()
    return result.cases, result.failures


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_each_mutation_fails_its_suites_with_the_pinned_counts(monkeypatch, name):
    apply, expected = MUTATIONS[name]
    for suite, (cases, _) in expected.items():
        assert _clean(suite) == (cases, 0)
    apply(monkeypatch)
    for suite, counts in expected.items():
        result = SUITES[suite]()
        assert (result.cases, result.failures) == counts


def test_every_suite_has_a_row():
    caught = {suite for _, expected in MUTATIONS.values() for suite in expected}
    assert set(SUITES) <= caught


def test_verify_prints_a_failing_suite_s_count_and_exits_1(monkeypatch, capsys):
    apply, _ = MUTATIONS["a negated LCO-KLD gradient"]
    apply(monkeypatch)
    assert main(["verify", "--suite", "recovery"]) == 1
    assert capsys.readouterr().out == "suite recovery: FAIL (20/20 cases failed)\n"
