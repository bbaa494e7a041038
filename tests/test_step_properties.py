"""``train_step`` against the public-function reference step on drawn runs.

Each example draws a tabular or linear model at V 2-8 and horizon 1-3, an
objective, an estimator with its tables, a match or table reward with scores
up to +/-1e300, and a beta down to 1e-300, then steps ``train_step`` next to
``test_step_identity._ref_train_step``.  Where a step succeeds the two must
give ``==`` records and the same parameter bytes; where it raises, the same
exception type and message.  The draws reach the error surfaces the
reference meets through the checked public functions (overflowing targets,
a loss too large for its envelope, degenerate importance ratios) and, under
``np.errstate(all="raise")``, the first floating-point event of a step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lco_lab.envs import MatchReward, TableReward, ToyEnvironment
from lco_lab.objectives import ObjectiveKind
from lco_lab.policy import Family, linear_policy, tabular_policy
from lco_lab.targets import EstimatorKind
from lco_lab.training import TrainerConfig

from test_step_identity import assert_steps_identical

STEPS = 3

# a magnitude from 1e-300 to 1e300, half of the draws near 1
_scale = st.one_of(st.floats(0.1, 10.0), st.floats(-300.0, 300.0).map(lambda k: 10.0**k))
_score = st.one_of(st.floats(-1.0, 1.0), st.builds(lambda s, m: s * m, st.sampled_from([-1.0, 1.0]), _scale))


@st.composite
def _runs(draw):
    family = draw(st.sampled_from([Family.TABULAR, Family.LINEAR]))
    v = draw(st.integers(2, 8))
    h = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(list(ObjectiveKind)))
    estimator = draw(st.sampled_from(list(EstimatorKind)))
    if kind is ObjectiveKind.SFT or draw(st.booleans()):
        reward = MatchReward(tuple(draw(st.lists(st.integers(0, v - 1), min_size=h, max_size=h))))
    else:
        reward = TableReward(np.array(draw(st.lists(_score, min_size=h * v, max_size=h * v))).reshape(h, v))
    env = ToyEnvironment(v, h, reward)

    def table():
        return np.array(draw(st.lists(_score, min_size=h * v, max_size=h * v))).reshape(h, v)

    config = TrainerConfig(
        objective=kind,
        learning_rate=draw(_scale.filter(lambda x: x < 1e300)),
        steps=STEPS,
        beta=draw(st.one_of(st.floats(-300.0, 1.0).map(lambda k: 10.0**k), st.sampled_from([1e-300, 1.0]))),
        clip_epsilon=draw(st.sampled_from([0.05, 0.2, 0.9])),
        estimator=estimator,
        normalize=draw(st.booleans()),
        grad_clip_norm=draw(st.one_of(st.none(), _scale)),
        seed=draw(st.integers(0, 2**31 - 1)),
        snapshot_interval=draw(st.sampled_from([1, 2, 10**6])),
        temperature=draw(st.sampled_from([0.3, 1.0, 2.5, 1000.0])),
        top_p=draw(st.sampled_from([0.5, 0.9, 1.0])),
        scorer_table=None if estimator is EstimatorKind.SPARSE_SAMPLED else table(),
        ref_table=table() if estimator is EstimatorKind.DENSE_DPO_RATIO else None,
    )
    # logits up to +/-1000 put probabilities below the 1e-300 ratio floor
    spread = draw(st.sampled_from([3.0, 30.0, 1000.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if family is Family.TABULAR:
        model = tabular_policy(env.n_states, v, init_logits=rng.uniform(-spread, spread, v))
    else:
        model = linear_policy(env.n_states, v, 3, seed=int(rng.integers(1000)))
        model = model.with_theta(rng.uniform(-spread, spread, model.n_params) / 3.0)
    return model, env, config, draw(st.sampled_from(["ignore", "raise"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run=_runs())
def test_train_step_matches_the_reference_on_drawn_runs(run):
    # under "raise" every floating-point event is an error, so the two steps
    # must also meet the first overflow or underflow at the same operation
    model, env, config, floating_point = run
    with np.errstate(all=floating_point):
        assert_steps_identical(model, env, config, steps=STEPS)
