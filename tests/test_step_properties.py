"""``train_step`` against the public-function reference step on drawn runs.

Each of the 300 runs is drawn from its own ``np.random.default_rng(i)``, so
the set is fixed: it does not depend on the modules loaded before it or on
the test order.  A run draws a tabular or linear model at V 2-8 and
horizon 1-3, an objective, its advantage tables (none, a scorer's, or a
scorer's and a reference's), a match or table reward with scores up to
+/-1e300, and a beta down to 1e-300, then steps ``train_step`` next to
``test_step_identity._ref_train_step``.  Where a step succeeds the two
must give ``==`` records and the same parameter bytes; where it raises,
the same exception type and message.  The draws reach the
error surfaces the reference meets through the checked public functions
(overflowing targets, a loss too large for its envelope, degenerate
importance ratios) and, under
``np.errstate(all="raise")``, the first floating-point event of a step.

One place differs on purpose.  The reference takes its norm with
``np.linalg.norm``, which overflows to inf for a finite gradient whose
squares do, while ``train_step`` then takes the norm of g / max|g| and
scales it back.  The reference therefore runs with ``_mended_norm``,
which returns ``np.linalg.norm``'s value wherever that is finite, and the
mended one on those draws only.
"""

import math
from unittest import mock

import numpy as np
import pytest

from lco_lab.envs import MatchReward, TableReward, ToyEnvironment
from lco_lab.objectives import ObjectiveKind
from lco_lab.policy import Family, linear_policy, tabular_policy
from lco_lab.training import TrainerConfig

from test_step_identity import assert_steps_identical

STEPS = 3

_norm = np.linalg.norm


def _mended_norm(x):
    """``np.linalg.norm(x)``, except a finite vector's overflowing 2-norm is max|x| * ||x / max|x|||."""
    norm = _norm(x)
    if np.isfinite(norm) or not np.isfinite(x).all():
        return norm
    peak = float(np.abs(x).max())
    scaled = x / peak
    return peak * math.sqrt(scaled.dot(scaled))

RUNS = 300


def _scale(rng):
    """A magnitude from 1e-300 to 1e300, half of the draws near 1."""
    if rng.random() < 0.5:
        return float(rng.uniform(0.1, 10.0))
    return 10.0 ** float(rng.uniform(-300.0, 300.0))


def _score(rng):
    if rng.random() < 0.5:
        return float(rng.uniform(-1.0, 1.0))
    return float(rng.choice([-1.0, 1.0])) * _scale(rng)


def _table(rng, h, v):
    return np.array([_score(rng) for _ in range(h * v)]).reshape(h, v)


def _run(index):
    """Run ``index``: a model, an environment, a config and an ``np.errstate`` mode."""
    rng = np.random.default_rng(index)
    family = (Family.TABULAR, Family.LINEAR)[int(rng.integers(2))]
    v = int(rng.integers(2, 9))
    h = int(rng.integers(1, 4))
    kind = list(ObjectiveKind)[int(rng.integers(len(ObjectiveKind)))]
    tables = int(rng.integers(3))  # 0: sampled advantages, 1: a scorer_table, 2: a ref_table too
    if kind is ObjectiveKind.SFT or rng.random() < 0.5:
        reward = MatchReward(tuple(int(a) for a in rng.integers(v, size=h)))
    else:
        reward = TableReward(_table(rng, h, v))
    env = ToyEnvironment(v, h, reward)
    learning_rate = _scale(rng)
    while learning_rate >= 1e300:
        learning_rate = _scale(rng)
    if rng.random() < 0.5:
        beta = 10.0 ** float(rng.uniform(-300.0, 1.0))
    else:
        beta = float(rng.choice([1e-300, 1.0]))
    config = TrainerConfig(
        objective=kind,
        learning_rate=learning_rate,
        steps=STEPS,
        beta=beta,
        clip_epsilon=float(rng.choice([0.05, 0.2, 0.9])),
        normalize=bool(rng.integers(2)) and tables > 0,
        grad_clip_norm=None if rng.random() < 0.5 else _scale(rng),
        seed=int(rng.integers(2**31)),
        snapshot_interval=int(rng.choice([1, 2, 10**6])),
        temperature=float(rng.choice([0.3, 1.0, 2.5, 1000.0])),
        top_p=float(rng.choice([0.5, 0.9, 1.0])),
        scorer_table=_table(rng, h, v) if tables > 0 else None,
        ref_table=_table(rng, h, v) if tables == 2 else None,
    )
    # logits up to +/-1000 put probabilities below the 1e-300 ratio floor
    spread = float(rng.choice([3.0, 30.0, 1000.0]))
    if family is Family.TABULAR:
        model = tabular_policy(env.n_states, v, init_logits=rng.uniform(-spread, spread, v))
    else:
        model = linear_policy(env.n_states, v, 3, seed=int(rng.integers(1000)))
        model = model.with_theta(rng.uniform(-spread, spread, model.n_params) / 3.0)
    return model, env, config, str(rng.choice(["ignore", "raise"]))


@pytest.mark.parametrize("index", range(RUNS))
def test_train_step_matches_the_reference_on_drawn_runs(index):
    # under "raise" every floating-point event is an error, so the two steps
    # must also meet the first overflow or underflow at the same operation
    model, env, config, floating_point = _run(index)
    with np.errstate(all=floating_point), mock.patch.object(np.linalg, "norm", _mended_norm):
        assert_steps_identical(model, env, config, steps=STEPS)
