"""Config sections read into the constructors they configure.

Every key of ``SECTIONS`` has a reader; a value it cannot read exits 2 at
its line.  A section passes only the keys it sets, so an absent key takes
its constructor's default, and a key the chosen family or reward rule
never reads exits 2 at its line.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from lco_lab.cli import main
from lco_lab.config import (
    COMMANDS,
    SECTIONS,
    ConfigError,
    build_converge,
    build_environment,
    build_model,
    build_trainer,
    parse_config,
)
from lco_lab.csvio import DYNAMICS_HEADER, NUMERIC_COLUMNS, format_float
from lco_lab.envs import MatchReward, ToyEnvironment
from lco_lab.objectives import ObjectiveKind
from lco_lab.policy import Family, linear_policy, mlp1_policy, tabular_policy
from lco_lab.training import ConvergeConfig, TrainerConfig, converge_experiment, run_training

# a runnable config per command, as {section: {key: text}}
TRAIN = {
    "environment": {"vocab_size": "3", "horizon": "2", "reward": "match", "target": "1, 2"},
    "model": {"family": "TABULAR"},
    "training": {"objective": "LCO_KLD", "learning_rate": "0.3", "steps": "4", "seed": "1"},
}
# dynamics trains its [dynamics] objectives, so its [training] sets none
DYNAMICS = {
    **TRAIN,
    "training": {key: text for key, text in TRAIN["training"].items() if key != "objective"},
    "dynamics": {"objectives": "PPO, LCO_KLD"},
}
# the run's model is [model]'s, TABULAR by default, with one action per advantage
CONVERGE = {"converge": {"objective": "LCO_MSE", "advantages": "1, -1", "eta": "0.1", "steps": "2"}}

# keys whose reader takes any text: a path
ANY_TEXT = {
    ("environment", "table"),
    ("training", "scorer_table"),
    ("training", "ref_table"),
    ("output", "directory"),
}


def write(tmp_path, sections, name="run.cfg"):
    """The config file of ``sections``, and the line of each key in it."""
    lines, at = [], {}
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, text in keys.items():
            lines.append(f"{key} = {text}")
            at[section, key] = len(lines)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path, at


def with_key(sections, section, key, text):
    return {**sections, section: {**sections.get(section, {}), key: text}}


def without(sections, section, key):
    return {**sections, section: {k: v for k, v in sections[section].items() if k != key}}


def run(command, cfg, out):
    return main([command, "--config", str(cfg), "--out", str(out)])


def runnable(section):
    """The command that reads ``section``, and a config it runs."""
    return {"dynamics": ("dynamics", DYNAMICS), "converge": ("converge", CONVERGE)}.get(section, ("train", TRAIN))


# --- every key has a reader ----------------------------------------------------


@pytest.mark.parametrize(
    "section, key",
    [(section, key) for section, keys in SECTIONS.items() for key in keys if (section, key) not in ANY_TEXT],
)
def test_an_unreadable_value_exits_2_at_its_line(tmp_path, capsys, section, key):
    command, base = runnable(section)
    cfg, at = write(tmp_path, with_key(base, section, key, "banana"))
    assert run(command, cfg, tmp_path / "o") == 2
    assert f"{cfg}:{at[section, key]}: " in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.csv"))


@pytest.mark.parametrize("section, key", [(section, key) for section, keys in SECTIONS.items() for key in keys])
def test_a_key_given_empty_exits_2_at_its_line(tmp_path, capsys, section, key):
    # each was once read as absent: an empty learning_rate trained at the default 0.1 and exited 0
    command, base = runnable(section)
    cfg, at = write(tmp_path, with_key(base, section, key, ""))
    out = tmp_path / "o"
    assert run(command, cfg, out) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{at[section, key]}: [{section}] {key} is given empty\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key", sorted(ANY_TEXT))
def test_the_keys_left_out_above_read_any_text(section, key):
    SECTIONS[section][key]("banana")


def test_every_section_runs_through_a_command():
    assert set(TRAIN) | set(DYNAMICS) | set(CONVERGE) | {"output"} == set(SECTIONS)
    assert set().union(*COMMANDS.values()) == set(SECTIONS)
    for reads in COMMANDS.values():
        assert all(set(unread) < set(SECTIONS[section]) for section, unread in reads.items())


def test_the_training_keys_are_the_trainer_s_parameters():
    # a field the trainer loses cannot leave its key behind, nor a new field go unreachable
    assert set(SECTIONS["training"]) == set(inspect.signature(TrainerConfig).parameters)


def test_the_model_keys_are_the_family_constructors_keyword_parameters():
    # n_states and vocab_size come from the environment; init_seed is the constructors' seed
    keywords = {
        name
        for constructor in (tabular_policy, linear_policy, mlp1_policy)
        for name, parameter in inspect.signature(constructor).parameters.items()
        if parameter.default is not parameter.empty
    }
    keys = {{"init_seed": "seed"}.get(key, key) for key in SECTIONS["model"] if key != "family"}
    assert keys == keywords


# --- defaults live in the constructors -----------------------------------------


def assert_same(built, direct):
    """Two config dataclasses field by field, arrays by value."""
    assert type(built) is type(direct)
    for field in dataclasses.fields(direct):
        a, b = getattr(built, field.name), getattr(direct, field.name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, field.name


def test_required_keys_alone_build_what_the_constructors_build(tmp_path):
    cfg, _ = write(
        tmp_path,
        {
            "environment": {"vocab_size": "3", "horizon": "2", "target": "1, 2"},
            "training": {"objective": "SFT"},
            "converge": {"objective": "LCO_MSE", "advantages": "1, 0, -1", "eta": "0.1"},
        },
    )
    raw = parse_config(cfg)
    env = build_environment(raw)
    assert env == ToyEnvironment(3, 2, MatchReward((1, 2)))
    # no [model] section: TABULAR
    assert np.array_equal(build_model(raw, env).theta, tabular_policy(env.n_states, 3).theta)
    assert build_trainer(raw) == TrainerConfig(ObjectiveKind.SFT)
    # one state, one action per advantage, and no [model] section: TABULAR too
    model, config = build_converge(raw)
    assert model.family is Family.TABULAR and (model.n_states, model.vocab_size) == (1, 3)
    assert np.array_equal(model.theta, tabular_policy(1, 3).theta)
    assert_same(config, ConvergeConfig(ObjectiveKind.LCO_MSE, np.array([1.0, 0.0, -1.0]), 0.1))


@pytest.mark.parametrize(
    "family, constructor", [("TABULAR", tabular_policy), ("LINEAR", linear_policy), ("MLP1", mlp1_policy)]
)
def test_a_family_alone_builds_its_constructor_s_default_model(tmp_path, family, constructor):
    cfg, _ = write(tmp_path, {**TRAIN, "model": {"family": family}})
    raw = parse_config(cfg)
    env = build_environment(raw)
    built, direct = build_model(raw, env), constructor(env.n_states, env.vocab_size)
    assert built.family is direct.family and built.hidden == direct.hidden
    assert np.array_equal(built.theta, direct.theta)
    assert (built.features is None and direct.features is None) or np.array_equal(built.features, direct.features)


@pytest.mark.parametrize(
    "family, keys, direct",
    [
        ("LINEAR", {"feature_dim": "3", "init_seed": "7"}, lambda n, v: linear_policy(n, v, 3, seed=7)),
        (
            "MLP1",
            {"feature_dim": "2", "hidden": "5", "init_seed": "9"},
            lambda n, v: mlp1_policy(n, v, 2, hidden=5, seed=9),
        ),
    ],
)
def test_train_runs_the_model_its_constructor_builds(tmp_path, family, keys, direct):
    cfg, _ = write(tmp_path, {**TRAIN, "model": {"family": family, **keys}})
    out = tmp_path / "o"
    assert run("train", cfg, out) == 0
    raw = parse_config(cfg)
    env = build_environment(raw)
    model = direct(env.n_states, env.vocab_size)
    built = build_model(raw, env)
    assert np.array_equal(built.theta, model.theta) and np.array_equal(built.features, model.features)
    assert built.hidden == model.hidden
    final, _ = run_training(model, env, TrainerConfig(ObjectiveKind.LCO_KLD, learning_rate=0.3, steps=4, seed=1))
    assert (out / "model.txt").read_text().splitlines()[1:] == [format_float(x) for x in final.theta]


@pytest.mark.parametrize("text, value", [("yes", True), ("off", False)])
def test_normalize_is_read_as_a_bool(tmp_path, text, value):
    (tmp_path / "scores.txt").write_text("-0.5 -1.0 -2.0\n-1.0 -1.5 -0.5\n")
    training = {"objective": "LCO_KLD", "scorer_table": "scores.txt", "normalize": text}
    cfg, _ = write(tmp_path, {**TRAIN, "training": training})
    config = build_trainer(parse_config(cfg))
    assert config.normalize is value
    assert [bool(abs(row.sum()) < 1e-12) for row in config._advantage_rows] == [value, value]


# --- a key the run never reads ---------------------------------------------------


@pytest.mark.parametrize(
    "family, key, text",
    [
        ("LINEAR", "init_logits", "5, 0, 0"),
        ("LINEAR", "hidden", "99"),
        ("TABULAR", "feature_dim", "0"),
        ("TABULAR", "init_seed", "-5"),
        ("TABULAR", "hidden", "16"),
        ("MLP1", "init_logits", "1, 0, 0"),
    ],
)
def test_a_model_key_the_family_never_reads_exits_2_at_its_line(tmp_path, capsys, family, key, text):
    # each was dropped unseen, invalid values included
    cfg, at = write(tmp_path, {**TRAIN, "model": {"family": family, key: text}})
    out = tmp_path / "o"
    assert run("train", cfg, out) == 2
    message = f"{cfg}:{at['model', key]}: [model] {key} is given but the {family} family does not read it"
    assert message in capsys.readouterr().err
    assert not (out / "dynamics.csv").exists()


@pytest.mark.parametrize("key, text", [("feature_dim", "7"), ("init_seed", "5")])
def test_a_converge_model_key_the_tabular_family_never_reads_exits_2_at_its_line(tmp_path, capsys, key, text):
    # the convergence run builds its model as [model] builds train's
    cfg, at = write(tmp_path, {"model": {key: text}, **CONVERGE})
    out = tmp_path / "o"
    assert run("converge", cfg, out) == 2
    message = f"{cfg}:{at['model', key]}: [model] {key} is given but the TABULAR family does not read it"
    assert message in capsys.readouterr().err
    assert not (out / "converge.csv").exists()


def test_converge_runs_the_linear_model_its_constructor_builds(tmp_path):
    # [model] once went unread by converge: a LINEAR family ran TABULAR and exited 0
    cfg, _ = write(tmp_path, {"model": {"family": "LINEAR", "feature_dim": "3", "init_seed": "7"}, **CONVERGE})
    out = tmp_path / "o"
    assert run("converge", cfg, out) == 0
    result = converge_experiment(
        linear_policy(1, 2, 3, seed=7), ConvergeConfig(ObjectiveKind.LCO_MSE, np.array([1.0, -1.0]), 0.1, steps=2)
    )
    assert result.family is Family.LINEAR
    rho = format_float(result.rho)
    rows = [f"{k},{format_float(loss)},{format_float(bound)},{rho}" for k, (loss, bound) in
            enumerate(zip(result.loss.tolist(), result.bound.tolist()))]
    assert (out / "converge.csv").read_text() == "\n".join(["step,loss,bound,rho", *rows]) + "\n"


def test_a_converge_family_without_a_scaled_identity_kernel_exits_2_at_its_line(tmp_path, capsys):
    cfg, at = write(tmp_path, {"model": {"family": "MLP1"}, **CONVERGE})
    out = tmp_path / "o"
    assert run("converge", cfg, out) == 2
    message = "family must have J J^T = lam I for a convergence run, which MLP1 lacks"
    assert capsys.readouterr().err == f"error: {cfg}:{at['model', 'family']}: [model] invalid: {message}\n"
    assert not (out / "converge.csv").exists()


@pytest.mark.parametrize(
    "command, sections, at_key, message",
    [
        (
            "converge",
            {"model": {"family": "LINEAR", "init_seed": "-5"}, **CONVERGE},
            ("model", "init_seed"),
            "seed must be >= 0",
        ),
        ("train", {**TRAIN, "model": {"family": "LINEAR", "init_seed": "-5"}}, ("model", "init_seed"), "seed must be"),
        ("train", {**TRAIN, "model": {"family": "MLP1", "init_seed": "-1"}}, ("model", "init_seed"), "seed must be"),
        ("converge", with_key(CONVERGE, "converge", "eta", "-0.1"), ("converge", "eta"), "eta must lie in (0, inf)"),
        ("train", with_key(TRAIN, "training", "clip_epsilon", "1.5"), ("training", "clip_epsilon"), "clip_epsilon"),
    ],
)
def test_a_value_its_constructor_rejects_exits_2_at_its_line(tmp_path, capsys, command, sections, at_key, message):
    # a negative LINEAR or MLP1 seed was numpy's ValueError, a traceback and exit 1
    cfg, at = write(tmp_path, sections)
    out = tmp_path / "o"
    assert run(command, cfg, out) == 2
    section, _ = at_key
    assert f"{cfg}:{at[at_key]}: [{section}] invalid: {message}" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("section", ["dynamics", "converge"])
def test_a_section_train_never_reads_exits_2_at_its_line(tmp_path, capsys, section):
    # each was dropped unseen
    cfg, _ = write(tmp_path, {**TRAIN, section: {}})
    out = tmp_path / "o"
    assert run("train", cfg, out) == 2
    line = 1 + sum(1 + len(keys) for keys in TRAIN.values())
    message = f"error: {cfg}:{line}: [{section}] is given but the train command does not read it\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("section", ["environment", "training", "dynamics"])
def test_a_section_converge_never_reads_exits_2_at_its_line(tmp_path, capsys, section):
    # each was dropped unseen: the run reads its model and its [converge] keys alone
    cfg, at = write(tmp_path, {**CONVERGE, section: DYNAMICS[section]})
    out = tmp_path / "o"
    assert run("converge", cfg, out) == 2
    line = min(number for (name, _), number in at.items() if name == section) - 1
    message = f"error: {cfg}:{line}: [{section}] is given but the converge command does not read it\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize(
    "command, sections, section, key",
    [
        # the [dynamics] objectives once overrode it without a word
        ("dynamics", with_key(DYNAMICS, "training", "objective", "SFT"), "training", "objective"),
        # the run starts at [converge] z_old and never reads theta
        ("converge", {"model": {"init_logits": "5, 0"}, **CONVERGE}, "model", "init_logits"),
        ("dynamics", with_key(DYNAMICS, "output", "plot_columns", "loss"), "output", "plot_columns"),
        ("converge", with_key(CONVERGE, "output", "plot_columns", "loss"), "output", "plot_columns"),
    ],
)
def test_a_key_its_command_never_reads_exits_2_at_its_line(tmp_path, capsys, command, sections, section, key):
    cfg, at = write(tmp_path, sections)
    out = tmp_path / "o"
    assert run(command, cfg, out) == 2
    message = f"error: {cfg}:{at[section, key]}: [{section}] {key} is given but the {command} command does not read it"
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "reward, unread, keys",
    [("table", "target", {"table": "scores.txt", "target": "7"}), ("match", "table", {"target": "1, 2", "table": "x"})],
)
def test_an_environment_key_the_reward_rule_never_reads_exits_2_at_its_line(tmp_path, capsys, reward, unread, keys):
    (tmp_path / "scores.txt").write_text("-0.5 -1.0 -2.0\n-1.0 -1.5 -0.5\n")
    environment = {"vocab_size": "3", "horizon": "2", "reward": reward, **keys}
    cfg, at = write(tmp_path, {**TRAIN, "environment": environment, "training": {"objective": "LCO_KLD"}})
    assert run("train", cfg, tmp_path / "o") == 2
    message = f"[environment] {unread} is given but the {reward} reward does not read it"
    assert f"{cfg}:{at['environment', unread]}: {message}" in capsys.readouterr().err


# --- a key the run needs ---------------------------------------------------------


@pytest.mark.parametrize(
    "command, sections, message",
    [
        ("train", without(TRAIN, "training", "objective"), "the trainer needs [training] objective"),
        ("train", without(TRAIN, "environment", "vocab_size"), "the environment needs [environment] vocab_size"),
        ("train", without(TRAIN, "environment", "target"), "the match reward needs [environment] target"),
        ("dynamics", without(TRAIN, "training", "objective"), "missing [dynamics] objectives"),
        ("converge", without(CONVERGE, "converge", "advantages"), "the convergence run needs [converge] advantages"),
        ("converge", without(CONVERGE, "converge", "objective"), "the convergence run needs [converge] objective"),
        ("converge", without(CONVERGE, "converge", "eta"), "the convergence run needs [converge] eta"),
    ],
)
def test_a_missing_key_exits_2(tmp_path, capsys, command, sections, message):
    cfg, _ = write(tmp_path, sections)
    assert run(command, cfg, tmp_path / "o") == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("objectives", ["PPO", "PPO, LCO_KLD, SFT", "PPO, PPO", "lco_kld, LCO_KLD"])
def test_dynamics_needs_exactly_two_objectives(tmp_path, capsys, objectives):
    # one objective named twice once trained twice, wrote one CSV and a two-line summary, and exited 0
    cfg, at = write(tmp_path, with_key(DYNAMICS, "dynamics", "objectives", objectives))
    out = tmp_path / "o"
    assert run("dynamics", cfg, out) == 2
    message = f"error: {cfg}:{at['dynamics', 'objectives']}: need exactly two objectives that differ\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


# --- errors met after the constructors --------------------------------------------

SCORED = with_key(TRAIN, "training", "scorer_table", "s.txt")


@pytest.mark.parametrize(
    "section, key, sections",
    [
        ("training", "scorer_table", with_key(TRAIN, "training", "scorer_table", "missing.txt")),
        ("training", "ref_table", with_key(SCORED, "training", "ref_table", "missing.txt")),
        ("environment", "table", {**TRAIN, "environment": {"vocab_size": "3", "horizon": "2", "reward": "table",
                                                           "table": "missing.txt"}}),
    ],
)
def test_a_table_file_that_cannot_be_read_exits_2_at_its_key_s_line(tmp_path, capsys, section, key, sections):
    # its OSError once reached the CLI bare: "error: [Errno 2] No such file or directory: ..."
    (tmp_path / "s.txt").write_text("-1.0 -2.0 -3.0\n-1.0 -2.0 -3.0\n")
    cfg, at = write(tmp_path, sections)
    assert run("train", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:{at[section, key]}: [{section}] {key}: [Errno 2] No such file or directory")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "keys, at_key, message",
    [
        ({"z_old": "1, -1, 0"}, "z_old", "z_old must be a 1-D vector of length 2, got shape (3,)"),
        ({"advantages": "1e308, -1e308", "beta": "1e-10"}, None, "A/beta overflows"),
        ({"advantages": "1e308, 0", "z_old": "1e308, 0"}, None, "target logits z_old + A/beta overflow"),
    ],
)
def test_a_converge_cross_key_failure_exits_2_naming_the_config(tmp_path, capsys, keys, at_key, message):
    # checked by ConvergeConfig and converge_experiment, once a bare message naming no file
    sections = CONVERGE
    for key, text in keys.items():
        sections = with_key(sections, "converge", key, text)
    cfg, at = write(tmp_path, sections)
    assert run("converge", cfg, tmp_path / "o") == 2
    line = f":{at['converge', at_key]}" if at_key else ""
    assert capsys.readouterr().err == f"error: {cfg}{line}: [converge] invalid: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_training_failure_of_a_key_s_value_exits_2_at_its_line(tmp_path, capsys):
    # the table is read when the config is, its row count against the horizon as the run starts
    (tmp_path / "s.txt").write_text("-1.0 -2.0 -3.0\n")
    cfg, at = write(tmp_path, with_key(TRAIN, "training", "scorer_table", "s.txt"))
    assert run("train", cfg, tmp_path / "o") == 2
    error = capsys.readouterr().err
    assert error.startswith(f"error: {cfg}:{at['training', 'scorer_table']}: [training] invalid: scorer_table has 1 rows")


# --- [output] --------------------------------------------------------------------


def test_the_output_directory_is_resolved_against_the_config(tmp_path, monkeypatch):
    cfg, _ = write(tmp_path, {**TRAIN, "output": {"directory": "runs/a"}})
    monkeypatch.chdir(tmp_path.parent)
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "runs" / "a" / "dynamics.csv").exists()


@pytest.mark.parametrize("columns", ["loss, nope", "adv_bucket", "grad_norm_param, rho"])
def test_plot_columns_are_read_against_the_dynamics_schema_before_training(tmp_path, capsys, columns):
    cfg, at = write(tmp_path, {**TRAIN, "output": {"plot_columns": columns}})
    out = tmp_path / "o"
    assert run("train", cfg, out) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{at['output', 'plot_columns']}: bad value for [output] plot_columns: {columns!r}" in err
    assert not out.exists()


def test_every_numeric_dynamics_column_can_be_plotted(tmp_path):
    cfg, _ = write(tmp_path, {**TRAIN, "output": {"plot_columns": ", ".join(NUMERIC_COLUMNS)}})
    assert run("train", cfg, tmp_path / "o") == 0
    assert (tmp_path / "o" / "dynamics.svg").exists()
    assert set(NUMERIC_COLUMNS) == set(DYNAMICS_HEADER) - {"adv_bucket"}


def test_no_output_directory_exits_2(tmp_path, capsys):
    cfg, _ = write(tmp_path, TRAIN)
    assert main(["train", "--config", str(cfg)]) == 2
    assert "no output directory" in capsys.readouterr().err



@pytest.mark.parametrize("second_header", [False, True])
def test_a_key_given_twice_in_a_section_exits_2_at_its_second_line(tmp_path, capsys, second_header):
    # the second value once won without a word: a learning rate of 50.0, not 0.5
    lines = ["[environment]", "vocab_size = 2", "horizon = 1", "target = 0"]
    lines += ["[training]", "objective = LCO_KLD", "learning_rate = 0.5", "steps = 5"]
    lines += ["[training]"] * second_header + ["learning_rate = 50"]
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    message = f"{cfg}:{len(lines)}: [training] learning_rate is given twice; first at line 7"
    with pytest.raises(ConfigError) as raised:
        parse_config(cfg)
    assert str(raised.value) == message
    assert run("train", cfg, tmp_path / "o") == 2
    assert message in capsys.readouterr().err
