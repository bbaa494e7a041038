"""The library boundary: every numeric argument is read by ``dist.as_array`` or ``dist.check_real``.

A float-array argument that is ragged, non-numeric or ``None`` (where
``None`` is not a documented value), and a real scalar that is not a real
number, raises ``InvalidInputError`` whose message opens with the
parameter's name, which ``config`` reads to put the config line on the
error.  Each parameter's interval is written once, in ``dist.INTERVALS``.
An objective kind is read by ``objectives.entry`` and a match target by
``MatchReward`` itself, and a kind given by its name or as ``None``, or a
target that is not a sequence of integers, raises the same way.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import lco_lab
from lco_lab import (
    Family,
    MatchReward,
    ObjectiveKind,
    OptimalTarget,
    PolicyModel,
    TableReward,
    bound_check,
    directionality,
    entropy,
    evaluate,
    gradient_norm_bound,
    hessian_analytic,
    hessian_numeric,
    kl_divergence,
    linear_policy,
    linearization_residual,
    log_softmax,
    min_eigenvalue,
    mlp1_policy,
    normalize_advantages,
    optimal_logits,
    optimal_policy,
    optimal_shift,
    optimal_target,
    ppo_active,
    ppo_witness,
    pullback,
    sample_action,
    sample_actions,
    softmax,
    tabular_policy,
    total_variation,
)
from lco_lab.dist import INTERVALS, as_array, check_real
from lco_lab.errors import InvalidInputError
from lco_lab.training import ConvergeConfig, TrainerConfig

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(lco_lab.__file__).parent

KLD, MSE, PPO = ObjectiveKind.LCO_KLD, ObjectiveKind.LCO_MSE, ObjectiveKind.PPO
P, Z, A = [0.25, 0.75], [0.5, -0.5], [1.0, -1.0]
Z0, PPO_STEP = [0.0, 0.0], (0, 1.0, 0.5, 0.2)  # on-policy, where PPO's Hessian is defined


def _model():
    return tabular_policy(1, 2)


# (the export, keyword arguments it accepts, {parameter: "array" | "real" | "step"}); a "step" parameter is
# PPO's point, whose advantage (step[1]) is corrupted
EXPORTS = [
    (softmax, dict(z=Z), {"z": "array"}),
    (log_softmax, dict(z=Z), {"z": "array"}),
    (entropy, dict(p=P), {"p": "array"}),
    (kl_divergence, dict(p=P, q=P), {"p": "array", "q": "array"}),
    (total_variation, dict(p=P, q=P), {"p": "array", "q": "array"}),
    (normalize_advantages, dict(a=A), {"a": "array"}),
    (
        sample_action,
        dict(p=P, temperature=1.0, top_p=1.0, rng=np.random.default_rng(0)),
        {"p": "array", "temperature": "real", "top_p": "real"},
    ),
    (
        sample_actions,
        dict(p=P, temperature=1.0, top_p=1.0, rng=np.random.default_rng(0), size=3),
        {"p": "array", "temperature": "real", "top_p": "real"},
    ),
    (evaluate, dict(kind=KLD, z=Z, target=P), {"kind": "kind", "z": "array", "target": "array"}),
    (evaluate, dict(kind=PPO, z=Z0, step=PPO_STEP), {"step": "step"}),
    (ppo_active, dict(z=Z0, step=PPO_STEP), {"z": "array", "step": "step"}),
    (hessian_analytic, dict(kind=MSE, z=Z, target=Z), {"kind": "kind", "z": "array", "target": "array"}),
    (hessian_analytic, dict(kind=PPO, z=Z0, step=PPO_STEP), {"step": "step"}),
    (hessian_numeric, dict(kind=MSE, z=Z, target=Z, h=1e-3), {
        "kind": "kind", "z": "array", "target": "array", "h": "real"
    }),
    (min_eigenvalue, dict(matrix=np.eye(2)), {"matrix": "array"}),
    (ppo_witness, dict(pi=P, action=0, advantage_sign=1), {"pi": "array"}),
    (directionality, dict(kind=KLD, z=Z, z_star=Z, pi_star=P), {
        "kind": "kind", "z": "array", "z_star": "array", "pi_star": "array"
    }),
    (gradient_norm_bound, dict(kind=KLD, loss_value=0.5, sigma_max=1.0, vocab_size=2), {
        "kind": "kind", "loss_value": "real", "sigma_max": "real"
    }),
    (bound_check, dict(kind=KLD, actual_gradient_norm=0.1, loss_value=0.5, sigma_max=1.0, vocab_size=2), {
        "kind": "kind", "actual_gradient_norm": "real", "loss_value": "real", "sigma_max": "real"
    }),
    (optimal_policy, dict(pi_old=P, a=A, beta=1.0), {"pi_old": "array", "a": "array", "beta": "real"}),
    (optimal_logits, dict(z_old=Z, a=A, beta=1.0), {"z_old": "array", "a": "array", "beta": "real"}),
    (optimal_target, dict(z_old=Z, a=A, beta=1.0), {"z_old": "array", "a": "array", "beta": "real"}),
    (optimal_shift, dict(a=A), {"a": "array"}),
    (OptimalTarget, dict(pi_star=[0.5, 0.5], z_star=[0.0, 0.0]), {"pi_star": "array", "z_star": "array"}),
    (tabular_policy, dict(n_states=1, vocab_size=2, init_logits=Z), {"init_logits": "array"}),
    (PolicyModel, dict(family=Family.TABULAR, theta=np.zeros(2), n_states=1, vocab_size=2), {"theta": "array"}),
    (pullback, dict(model=_model(), state=0, grad_z=Z), {"grad_z": "array"}),
    (linearization_residual, dict(model=_model(), theta=Z, theta_star=Z, state=0), {
        "theta": "array", "theta_star": "array"
    }),
    (TableReward, dict(table=[[0.0, 1.0]]), {"table": "array"}),
    (MatchReward, dict(target=(0,)), {"target": "tokens"}),
    (
        TrainerConfig,
        dict(objective=KLD, scorer_table=[[-0.5, -1.0]], ref_table=[[-0.7, -0.7]], grad_clip_norm=1.0),
        {name: "real" for name in ("learning_rate", "beta", "clip_epsilon", "grad_clip_norm", "temperature", "top_p")}
        | {"objective": "kind", "scorer_table": "array", "ref_table": "array"},
    ),
    (
        ConvergeConfig,
        dict(objective=MSE, advantages=A, eta=0.1, z_old=Z),
        {"objective": "kind", "advantages": "array", "eta": "real", "beta": "real", "z_old": "array"},
    ),
]
# the parameters whose documented default is None
NONE_IS_DOCUMENTED = {
    ("directionality", "pi_star"), ("tabular_policy", "init_logits"), ("TrainerConfig", "grad_clip_norm"),
    ("TrainerConfig", "scorer_table"), ("TrainerConfig", "ref_table"), ("ConvergeConfig", "z_old"),
}
# the bad value of each kind of parameter, by name: an array gets all three, an objective kind its name
# as a string, and a token sequence (a match reward's target) what is not a sequence of integers
BAD = {
    "array": {"ragged": [[1.0, 2.0], [3.0]], "non-numeric": ["a", "b"], "None": None},
    "real": {"non-numeric": "a", "None": None},
    "step": {"non-numeric": (0, "a", 0.5, 0.2), "None": (0, None, 0.5, 0.2)},
    "kind": {"string": "LCO_KLD", "None": None},
    "tokens": {"non-integer": (0.5,), "non-numeric": ("a",), "None": None},
}


def _cases():
    for function, kwargs, parameters in EXPORTS:
        for parameter, kind in parameters.items():
            for label, bad in BAD[kind].items():
                if label == "None" and (function.__name__, parameter) in NONE_IS_DOCUMENTED:
                    continue
                yield pytest.param(function, kwargs, parameter, bad, id=f"{function.__name__}-{parameter}-{label}")


@pytest.mark.parametrize("function, kwargs, parameter, bad", list(_cases()))
def test_a_bad_argument_raises_invalid_input_naming_its_parameter(function, kwargs, parameter, bad):
    function(**kwargs)  # the valid call
    with pytest.raises(InvalidInputError) as raised:
        function(**{**kwargs, parameter: bad})
    assert str(raised.value).startswith(f"{parameter} "), str(raised.value)


FEATURES = np.ones((1, 3))  # one state, three features
LINEAR = dict(family=Family.LINEAR, n_states=1, vocab_size=2, features=FEATURES)
MLP1 = dict(family=Family.MLP1, n_states=1, vocab_size=2, features=FEATURES, hidden=4)


@pytest.mark.parametrize(
    "fields, parameter",
    [
        # a TABULAR layout over one state and two actions has two parameters; this one returned one logit
        (dict(family=Family.TABULAR, theta=np.zeros(1), n_states=1, vocab_size=2), "theta"),
        (dict(family=Family.TABULAR, theta=np.zeros(4), n_states=1, vocab_size=2), "theta"),
        (dict(family=Family.TABULAR, theta=np.zeros(2), n_states=1, vocab_size=2, features=FEATURES), "features"),
        (dict(family=Family.TABULAR, theta=np.zeros(2), n_states=1, vocab_size=2, hidden=4), "hidden"),
        (dict(family=Family.TABULAR, theta=np.zeros(2), n_states=0, vocab_size=2), "n_states"),
        (dict(family=Family.TABULAR, theta=np.zeros(1), n_states=1, vocab_size=1), "vocab_size"),
        (dict(family="TABULAR", theta=np.zeros(2), n_states=1, vocab_size=2), "family"),
        # LINEAR needs its features: None was Python's TypeError
        (dict(family=Family.LINEAR, theta=np.zeros(6), n_states=1, vocab_size=2), "features"),
        (dict(family=Family.LINEAR, theta=np.zeros(6), n_states=2, vocab_size=2, features=FEATURES), "features"),
        (dict(family=Family.LINEAR, theta=np.zeros(6), n_states=1, vocab_size=2, features=np.ones(3)), "features"),
        (dict(LINEAR, theta=np.zeros(5)), "theta"),
        (dict(LINEAR, theta=np.zeros(6), hidden=1), "hidden"),
        # MLP1 at hidden 4: 4*3 + 4 + 2*4 + 2 = 26 parameters; a short theta was numpy's ValueError
        (dict(MLP1, theta=np.zeros(25)), "theta"),
        (dict(MLP1, theta=np.zeros(26), features=None), "features"),
        (dict(MLP1, theta=np.zeros(26), hidden=0), "hidden"),
        (dict(MLP1, theta=np.zeros(26), hidden=-4), "hidden"),
        (dict(MLP1, theta=np.zeros(26), hidden=4.0), "hidden"),
    ],
)
def test_a_layout_its_family_cannot_use_raises_invalid_input_naming_the_field(fields, parameter):
    with pytest.raises(InvalidInputError) as raised:
        PolicyModel(**fields)
    assert str(raised.value).startswith(f"{parameter} "), str(raised.value)


def test_the_constructors_layouts_are_the_ones_a_model_accepts():
    for model in (tabular_policy(3, 2), linear_policy(3, 2, 5, seed=1), mlp1_policy(3, 2, 5, hidden=4, seed=1)):
        assert PolicyModel(model.family, model.theta, 3, 2, model.features, model.hidden).n_params == model.n_params
        with pytest.raises(InvalidInputError, match="^theta must be a 1-D vector of length"):
            model.with_theta(np.zeros(model.n_params + 1))


def test_a_match_target_reads_as_a_tuple_of_python_ints():
    target = MatchReward((np.int64(1), 2)).target
    assert target == (1, 2) and all(type(token) is int for token in target)
    assert MatchReward([0, 1]).target == (0, 1)


def test_every_export_that_reads_a_float_array_or_a_real_scalar_is_probed():
    # a new export with a numeric parameter must join EXPORTS; the rest are enums, the records a call
    # returns, and exports whose parameters are integers, models, configs, generators or paths
    not_probed = {
        "Family", "ObjectiveKind", "LossEval", "BoundCheck", "HessianReport", "DynamicsRecord", "ConvergeResult",
        "ToyEnvironment", "linear_policy", "mlp1_policy", "forward", "sigma_max", "load_logprob_table",
        "run_training", "train_step", "converge_experiment", "converge_violations",
    }
    probed = {function.__name__ for function, _, _ in EXPORTS}
    exports = {name for name in dir(lco_lab) if not name.startswith("_") and callable(getattr(lco_lab, name))}
    assert exports == probed | not_probed


# --- the intervals, written once ---------------------------------------------


@pytest.mark.parametrize("name", sorted(INTERVALS))
def test_check_real_reads_each_interval_with_its_closed_and_open_ends(name):
    text = INTERVALS[name]
    low, high = (float(end) for end in text[1:-1].split(","))
    for end, closed in ((low, text[0] == "["), (high, text[-1] == "]")):
        if closed:
            assert check_real(end, name) == end
        else:
            with pytest.raises(InvalidInputError, match=rf"^{name} must lie in {re.escape(text)}, got "):
                check_real(end, name)
    inside = {(0.0, 1.0): 0.5, (0.0, math.inf): 1.0, (-math.inf, math.inf): 0.0}[low, high]
    assert check_real(inside, name) == inside
    with pytest.raises(InvalidInputError, match=rf"^{name} must lie in {re.escape(text)}, got nan$"):
        check_real(math.nan, name)


def test_check_real_returns_a_float_and_refuses_what_is_not_a_real_number():
    for value in (np.float32(0.5), np.float64(0.5), 1, np.int64(1)):
        got = check_real(value, "top_p")
        assert type(got) is float and got == float(value)
    for value in (True, "0.5", None, [0.5], 1j, np.array(0.5)):
        with pytest.raises(InvalidInputError, match="^top_p must be a real number"):
            check_real(value, "top_p")
    # an int beyond the float range lies beyond every finite bound
    with pytest.raises(InvalidInputError, match=r"^eta must lie in \(0, inf\), got inf$"):
        check_real(10**400, "eta")
    # a message names the parameter, the interval its kind
    with pytest.raises(InvalidInputError, match=r"^loss_value must lie in \[0, inf\), got -1.0$"):
        check_real(-1.0, "loss_value", "loss")


def test_as_array_reads_a_shape_or_a_number_of_dimensions():
    a = np.zeros((2, 3))
    assert as_array(a, "t", (2, 3)) is a and as_array(a, "t", 2) is a
    assert as_array([[1, 2]], "t", 2).dtype == np.float64
    with pytest.raises(InvalidInputError, match=r"^t must be an array of shape \(3, 2\), got shape \(2, 3\)$"):
        as_array(a, "t", (3, 2))
    with pytest.raises(InvalidInputError, match=r"^t must be a 3-D array, got shape \(2, 3\)$"):
        as_array(a, "t", 3)
    with pytest.raises(InvalidInputError, match=r"^t must be a 1-D vector of length >= 2, got shape \(1,\)$"):
        as_array([1.0], "t", 1, 2)
    with pytest.raises(InvalidInputError, match="^t must be finite$"):
        as_array([1.0, np.nan], "t", 1)
    assert np.isnan(as_array([1.0, np.nan], "t", 1, finite=False)[1])
    with pytest.raises(InvalidInputError, match=r"^t must be an array of real numbers, got \[\[1.0, 2.0\], \[3.0\]\]$"):
        as_array([[1.0, 2.0], [3.0]], "t", 2)


def test_beta_may_be_infinite_wherever_it_is_read():
    # A / inf = 0: the target is the old policy itself, in every caller's arithmetic
    assert np.array_equal(optimal_logits(Z, A, math.inf), Z)
    assert np.allclose(optimal_policy(P, A, math.inf), P, rtol=0.0, atol=1e-15)
    assert TrainerConfig(KLD, beta=math.inf).beta == math.inf
    assert ConvergeConfig(MSE, A, 0.1, beta=math.inf).beta == math.inf


def test_the_readme_states_each_interval_as_dist_writes_it():
    rows = re.findall(r"^\| `(\w+)` \| `([\[(][^`]*[\])])` \|", README.read_text(), re.M)
    assert dict(rows) == INTERVALS


# --- the readers are the only conversions ---------------------------------------------


def _enclosing_function(tree: ast.Module, lineno: int) -> str | None:
    """The innermost function whose lines hold ``lineno``; ast.walk is breadth first, so it is the last."""
    names = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.lineno <= lineno <= f.end_lineno]
    return names[-1] if names else None


def test_only_the_readers_and_the_text_parsers_convert_with_numpy():
    # every other site reads its float arrays through dist.as_array
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if re.search(r"\bnp\.(asarray|ndim)\(", line):
                found.add((path.name, _enclosing_function(tree, lineno)))
    assert found == {("dist.py", "as_array"), ("config.py", "_floats"), ("targets.py", "load_logprob_table")}
