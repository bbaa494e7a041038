import inspect
import math
import re
import shutil
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from lco_lab import dist
from lco_lab.cli import main
from lco_lab.config import ConfigError, parse_config
from lco_lab.csvio import DYNAMICS_HEADER, dynamics_rows, format_float
from lco_lab.errors import InvalidInputError, NonFiniteOutputError
from lco_lab.policy import forward, tabular_policy
from lco_lab.svgplot import render_chart
from lco_lab.training import DynamicsRecord
from lco_lab.verify import run_suites

CONFIG_DIR = "configs"

TRAIN_CFG = """
[environment]
vocab_size = 2
horizon = 1
reward = match
target = 0

[model]
family = TABULAR

[training]
objective = LCO_KLD
learning_rate = 0.3
steps = 6
seed = 3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- config parsing ----------------------------------------------------------


def test_parse_config_sections_and_comments(tmp_path):
    path = write_cfg(tmp_path, "# top\n[environment]\nvocab_size = 3  # inline\n\n[training]\nsteps = 7\n")
    raw = parse_config(path)
    assert raw.value("environment", "vocab_size") == 3
    assert raw.value("training", "steps") == 7
    assert raw.line("training", "steps") == 6


def test_parse_config_diagnostics(tmp_path):
    path = write_cfg(tmp_path, "[environment]\nvocab_size 3\n")
    with pytest.raises(ConfigError, match=r":2:"):
        parse_config(path)
    path = write_cfg(tmp_path, "orphan = 1\n")
    with pytest.raises(ConfigError, match="outside any"):
        parse_config(path)


@pytest.mark.parametrize(
    "line, typo, lineno, message",
    [
        ("learning_rate = 0.5", "learning_rat = 0.5", 14, "unknown key 'learning_rat' in [training]"),
        ("[output]", "[ouput]", 19, "unknown section [ouput]"),
    ],
)
def test_a_misspelled_config_name_exits_2_at_its_line(tmp_path, capsys, line, typo, lineno, message):
    # each typo once fell back silently: to the default learning rate 0.1, or to no [output] section
    shipped = (Path(CONFIG_DIR) / "sft_decay.cfg").read_text()
    assert shipped.splitlines()[lineno - 1] == line
    cfg = write_cfg(tmp_path, shipped.replace(line, typo))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:{lineno}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_an_empty_value_in_a_shipped_config_exits_2_at_its_line(tmp_path, capsys):
    # it was once read as absent: the run trained at the default learning rate 0.1 and exited 0
    shipped = (Path(CONFIG_DIR) / "kld_negative.cfg").read_text()
    assert shipped.splitlines()[15] == "learning_rate = 0.5"
    cfg = write_cfg(tmp_path, shipped.replace("learning_rate = 0.5", "learning_rate ="))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:16: [training] learning_rate is given empty\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, name",
    [("train", "kld_negative.cfg"), ("dynamics", "dynamics_ppo_vs_kld.cfg"), ("converge", "converge_tabular_mse.cfg")],
)
def test_an_empty_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, command, name):
    # --out "" once read as not given: the run wrote under the config's [output] directory and exited 0
    shutil.copytree(CONFIG_DIR, tmp_path / "configs", ignore=shutil.ignore_patterns("out"))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(tmp_path / "configs" / name), "--out", ""]) == 2
    assert capsys.readouterr().err == "error: --out is given empty\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["configs"]
    assert not (tmp_path / "configs" / "out").exists()


REJECTED_KEY_CFG = {
    "train": TRAIN_CFG.replace("family = TABULAR", "family = TABULAR\nhidden = 4"),
    "dynamics": TRAIN_CFG.replace("objective = LCO_KLD", "").replace("family = TABULAR", "family = TABULAR\nhidden = 4")
    + "\n[dynamics]\nobjectives = PPO, LCO_KLD\n",
    "converge": "[model]\nfamily = TABULAR\nfeature_dim = 7\n"
    "[converge]\nobjective = LCO_MSE\nadvantages = 1, -0.5, 0.25, 0\neta = 0.1\nsteps = 10\n",
}


@pytest.mark.parametrize("command", sorted(REJECTED_KEY_CFG))
def test_a_rejected_key_exits_2_and_leaves_no_output_path(tmp_path, capsys, command):
    # each command once made --out before building its config, and left it behind empty
    cfg = write_cfg(tmp_path, REJECTED_KEY_CFG[command])
    out = tmp_path / "nested" / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    rejected = "feature_dim is given but the TABULAR family" if command == "converge" else "hidden is given"
    assert f"{rejected} " in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


# --- train -------------------------------------------------------------------


def test_train_writes_csv_and_model(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0

    lines = (out / "dynamics.csv").read_text().splitlines()
    assert lines[0] == ",".join(DYNAMICS_HEADER)
    assert len(lines) == 1 + 6
    model_lines = (out / "model.txt").read_text().splitlines()
    assert model_lines[0].startswith("# TABULAR")
    assert len(model_lines) == 1 + 2  # one float per parameter


def test_train_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", str(cfg), "--out", str(out_a)])
    main(["train", "--config", str(cfg), "--out", str(out_b)])
    assert (out_a / "dynamics.csv").read_bytes() == (out_b / "dynamics.csv").read_bytes()
    assert (out_a / "model.txt").read_bytes() == (out_b / "model.txt").read_bytes()


def test_train_bad_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[environment]\nvocab_size = banana\nhorizon = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "vocab_size" in capsys.readouterr().err


def test_train_negative_seed_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG.replace("seed = 3", "seed = -1"))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (out / "dynamics.csv").exists()


def test_train_scorer_table_shorter_than_horizon_exits_2(tmp_path, capsys):
    (tmp_path / "scores.txt").write_text("-0.5 -1.0 -2.0\n")
    cfg = write_cfg(
        tmp_path,
        "[environment]\nvocab_size = 3\nhorizon = 2\nreward = match\ntarget = 0 1\n"
        "[training]\nobjective = LCO_KLD\nsteps = 2\nscorer_table = scores.txt\n",
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "scorer_table has 1 rows but the horizon is 2" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["config", "scorer_table", "csv"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, reader):
    # each reader decoded it with a UnicodeDecodeError traceback and exit 1
    config = "[environment]\nvocab_size = 3\nhorizon = 1\nreward = match\ntarget = 0\n[training]\nobjective = LCO_KLD\n"
    bad = tmp_path / "bad.txt"
    if reader == "config":
        bad.write_bytes(config.encode() + b"steps = 2 # \xff\n")
        argv = ["train", "--config", str(bad), "--out", str(tmp_path / "o")]
    elif reader == "scorer_table":
        bad.write_bytes(b"-0.5 -1.0 -2.0 # \xff\n")
        cfg = write_cfg(tmp_path, config + "scorer_table = bad.txt\n")
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o")]
    else:
        bad.write_bytes(b"step,loss\n0,1\xff\n")
        argv = ["plot", "--csv", str(bad), "--out", str(tmp_path / "o" / "chart.svg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "can't decode byte 0xff" in err
    assert not (tmp_path / "o").exists()


def test_train_scorer_table_with_a_non_finite_entry_exits_2(tmp_path, capsys):
    # every row is checked when the config is read, before any step
    (tmp_path / "scores.txt").write_text("-0.5 -1.0 -2.0\n-0.5 nan -2.0\n")
    cfg = write_cfg(
        tmp_path,
        "[environment]\nvocab_size = 3\nhorizon = 2\nreward = match\ntarget = 0 1\n"
        "[training]\nobjective = LCO_KLD\nsteps = 2\nscorer_table = scores.txt\n",
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg}:9: [training] invalid: scorer_table must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "dynamics.csv").exists()


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("ref_table", "unread.txt", "ref_table is given without a scorer_table"),
        ("normalize", "yes", "normalize is set without a scorer_table"),
    ],
)
def test_train_with_a_key_only_a_scorer_table_gives_meaning_exits_2_at_its_line(tmp_path, capsys, key, text, message):
    # the run never reads it; a NaN reference table would otherwise pass unseen
    (tmp_path / "unread.txt").write_text("-0.5 nan -2.0\n")
    cfg = write_cfg(
        tmp_path,
        "[environment]\nvocab_size = 3\nhorizon = 1\nreward = match\ntarget = 0\n"
        f"[training]\nobjective = LCO_KLD\nsteps = 2\n{key} = {text}\n",
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg}:9: [training] invalid: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# a REINFORCE run on one state whose table scores both tokens alike
SCORED_RUN_CFG = """
[environment]
vocab_size = 2
horizon = 1
reward = table
table = scores.txt

[model]
init_logits = {init_logits}

[training]
objective = REINFORCE
learning_rate = {learning_rate}
seed = 4
"""


@pytest.mark.parametrize(
    "score, logits, rate, extra, message",
    [
        # the case of test_a_gradient_norm_beyond_the_float_range_raises: the loss and
        # the gradient norm overflow, and the step's gradient check stops the run
        (
            "1.7e308", "2, 0", "0.1", "steps = 1\ngrad_clip_norm = 1.0\n",
            "gradient norm beyond the float range at step 0 (objective REINFORCE, loss inf)",
        ),
        # a finite step whose update overflows theta: the parent wrote inf to model.txt and exited 0
        (
            "-1.7e308", "1e308, 1e308", "1.0", "steps = 1\n",
            "inf cannot be written: a run overflowed, and outputs hold finite numbers",
        ),
        # the same update with a step after it, which draws under the refreshed snapshot:
        # the parent exited 2 with "[training] invalid: z must be finite", as if a key were at fault
        ("-1.7e308", "1e308, 1e308", "1.0", "steps = 2\n", "non-finite snapshot logits at step 1 (state 0)"),
        # and inside a snapshot window, where the step meets the overflow at theta
        (
            "-1.7e308", "1e308, 1e308", "1.0", "steps = 2\nsnapshot_interval = 2\n",
            "non-finite theta logits at step 1 (state 0)",
        ),
    ],
    ids=["gradient-norm", "theta-update", "theta-update-then-snapshot", "theta-update-then-theta"],
)
def test_a_run_that_overflows_exits_1_with_one_error_line(tmp_path, capsys, score, logits, rate, extra, message):
    # numpy's overflow warnings are silenced in a command, so the typed error is all it prints
    (tmp_path / "scores.txt").write_text(f"{score} {score}\n")
    cfg = write_cfg(tmp_path, SCORED_RUN_CFG.format(init_logits=logits, learning_rate=rate) + extra)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # every output is formatted before the first is written: the parent left dynamics.csv behind
    assert not out.exists() or not any(out.iterdir())


def test_a_step_without_a_bound_writes_an_empty_bound_cell():
    record = DynamicsRecord(3, 0.5, 0.25, 0.125, 0.0625, 0.5, 0.75, "positive")
    assert record.bound_value is None
    assert dynamics_rows([record])[1] == "3,0.5,0.25,0.125,0.0625,0.5,0.75,positive,"


def test_float_serialization_is_17_digits():
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteOutputError, match=f"^{value} cannot be written"):
            format_float(value)


def test_train_ppo_spike_csv_shape(tmp_path):
    # emitted CSV shows the gradient norm rising past its first value and a
    # later clip-gated step with exactly zero gradient
    out = tmp_path / "out"
    assert main(["train", "--config", f"{CONFIG_DIR}/ppo_clip_spike.cfg", "--out", str(out)]) == 0
    rows = (out / "dynamics.csv").read_text().splitlines()[1:]
    grads = [float(r.split(",")[2]) for r in rows]
    above = [i for i, g in enumerate(grads) if g > grads[0]]
    assert above, "gradient never exceeded its first value"
    assert any(g == 0.0 for g in grads[above[0] + 1 :]), "no clipped step after the rise"


# --- dynamics ----------------------------------------------------------------


def test_dynamics_comparison_envelope(tmp_path):
    out = tmp_path / "out"
    code = main(["dynamics", "--config", f"{CONFIG_DIR}/dynamics_ppo_vs_kld.cfg", "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text().splitlines()
    ppo_line = next(line for line in summary if line.startswith("PPO:"))
    kld_line = next(line for line in summary if line.startswith("LCO_KLD:"))
    assert int(ppo_line.rsplit("=", 1)[1]) >= 1
    assert int(kld_line.rsplit("=", 1)[1]) == 0
    assert (out / "dynamics_PPO.csv").exists()
    assert (out / "dynamics_LCO_KLD.csv").exists()


def test_dynamics_runs_an_objective_alike_in_either_place(tmp_path):
    # an objective's run does not depend on its place or its partner (one objective named twice exits 2)
    base = (
        "[environment]\nvocab_size = 2\nhorizon = 1\nreward = match\ntarget = 0\n"
        "[model]\nfamily = TABULAR\n"
        "[training]\nlearning_rate = 0.2\nsteps = 10\nseed = 5\n"
        "[dynamics]\nobjectives = {}\n"
    )
    summaries = []
    for name, objectives in (("first", "REINFORCE, PPO"), ("second", "PPO, REINFORCE")):
        cfg = write_cfg(tmp_path, base.format(objectives), f"{name}.cfg")
        assert main(["dynamics", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        summaries.append((tmp_path / name / "summary.txt").read_text().splitlines())
    (first_reinforce, first_ppo), (second_ppo, second_reinforce) = summaries
    assert first_reinforce == second_reinforce and first_ppo == second_ppo
    assert first_reinforce.startswith("REINFORCE:") and first_ppo.startswith("PPO:")


def test_a_dynamics_run_whose_second_objective_fails_writes_nothing(tmp_path, capsys):
    # SFT needs a match reward; the parent wrote the first objective's CSV before running the second
    (tmp_path / "scores.txt").write_text("-1.0 -2.0\n")
    cfg = write_cfg(
        tmp_path,
        "[environment]\nvocab_size = 2\nhorizon = 1\nreward = table\ntable = scores.txt\n"
        "[training]\nsteps = 3\n[dynamics]\nobjectives = LCO_KLD, SFT\n",
    )
    out = tmp_path / "o"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "objective SFT needs a match-reward environment" in capsys.readouterr().err
    assert not out.exists()


# --- converge ----------------------------------------------------------------


def test_converge_default_config_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["converge", "--config", f"{CONFIG_DIR}/converge_tabular_mse.cfg", "--out", str(out)])
    assert code == 0
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[0] == "step,loss,bound,rho"
    assert len(lines) == 1 + 501


def test_converge_divergent_step_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[converge]\nobjective = LCO_MSE\nadvantages = 1, 1, 1, 1\neta = 4.1\nsteps = 10\n",
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "spectral radius" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["beta = 0", "beta = 1e-170", "eta = nan", "eta = -0.1", "steps = -3", "steps = 2.5", "feature_dim = 0"],
)
def test_converge_unusable_value_exits_2(tmp_path, capsys, line):
    # a model key goes in [model], the rest in [converge]
    model, run = (line, "") if line.startswith("feature_dim") else ("", line)
    cfg = write_cfg(
        tmp_path,
        f"[model]\nfamily = LINEAR\n{model}\n[converge]\nobjective = LCO_MSE\n"
        f"advantages = 1, -0.5, 0.25, 0\neta = 0.1\nsteps = 10\n{run}\n",
    )
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not (out / "converge.csv").exists()


def test_converge_beta_scaling(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = (
        "[converge]\nobjective = LCO_MSE\nadvantages = 1.0, -0.5\neta = 0.1\nsteps = 3\nbeta = {beta}\n"
    )
    main(["converge", "--config", str(write_cfg(tmp_path, base.format(beta=1.0), "a.cfg")), "--out", str(out_a)])
    main(["converge", "--config", str(write_cfg(tmp_path, base.format(beta=2.0), "b.cfg")), "--out", str(out_b)])
    bound_a = float((out_a / "converge.csv").read_text().splitlines()[1].split(",")[2])
    bound_b = float((out_b / "converge.csv").read_text().splitlines()[1].split(",")[2])
    assert abs(bound_a / bound_b - 4.0) < 1e-12  # ||A||^2 / beta^2 at k = 0


# --- plot --------------------------------------------------------------------


def test_plot_from_training_csv(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out = tmp_path / "out"
    main(["train", "--config", str(cfg), "--out", str(out)])
    svg = tmp_path / "chart.svg"
    code = main(
        ["plot", "--csv", str(out / "dynamics.csv"), "--out", str(svg), "--columns", "loss,grad_norm_param"]
    )
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg ")
    assert body.count("<polyline") == 2
    # byte-stable on identical input
    again = tmp_path / "chart2.svg"
    main(["plot", "--csv", str(out / "dynamics.csv"), "--out", str(again), "--columns", "loss,grad_norm_param"])
    assert svg.read_bytes() == again.read_bytes()


def test_plot_header_only_csv_gives_axes(tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("step,loss\n")
    svg = tmp_path / "empty.svg"
    assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
    body = svg.read_text()
    assert "<line" in body and "<polyline" not in body


@pytest.mark.parametrize("text, message", [("", "empty file"), ("\n0,1\n", "missing header row")])
def test_plot_of_a_csv_without_a_header_exits_2(tmp_path, capsys, text, message):
    csv = tmp_path / "headless.csv"
    csv.write_text(text)
    assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "chart.svg")]) == 2
    assert capsys.readouterr().err == f"error: {csv}: {message}\n"
    assert not (tmp_path / "chart.svg").exists()


def test_plot_missing_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("step,loss\n0,1.0\n")
    assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "x.svg"), "--columns", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_plot_two_point_series_spans_plot_area(tmp_path):
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,1\n")
    svg = tmp_path / "seg.svg"
    assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
    body = svg.read_text()
    points = body.split('points="')[1].split('"')[0].split()
    (x0, y0), (x1, y1) = (tuple(map(float, p.split(","))) for p in points)
    assert x1 - x0 > 600 and y0 - y1 > 350  # covers most of the 800x500 canvas


def test_plot_non_numeric_cell_exits_2(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("step,loss\n0,0.5\n1,abc\n")
    assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "bad.svg")]) == 2
    err = capsys.readouterr().err
    assert str(csv) in err and "data row 2" in err and "'loss'" in err and "'abc'" in err
    assert not (tmp_path / "bad.svg").exists()


def _svg_numbers(body):
    """Every number in the chart: the polyline coordinates and the axis labels."""
    points = [float(c) for p in re.findall(r'points="([^"]*)"', body) for xy in p.split() for c in xy.split(",")]
    labels = [float(t) for t in re.findall(r'font-size="12">([^<]*)<', body) if t not in ("x", "y", "step")]
    return points, labels


def test_plot_data_spanning_the_float_range_stays_finite(tmp_path):
    csv = tmp_path / "wide.csv"
    csv.write_text("step,y\n0,1e308\n1,-1e308\n2,0\n")
    svg = tmp_path / "wide.svg"
    assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
    points, labels = _svg_numbers(svg.read_text())
    assert len(points) == 6 and all(np.isfinite(points)) and all(np.isfinite(labels))
    ys = points[1::2]
    # 1e308 at the top margin, -1e308 at the bottom margin, 0 in the middle
    assert ys[0] < ys[2] < ys[1] and abs(ys[2] - 235.0) < 0.01


def test_plot_constant_column_too_large_for_a_half_unit_pad(tmp_path):
    # 1e20 +- 0.5 rounds back to 1e20, which left a zero-height axis
    csv = tmp_path / "flat.csv"
    csv.write_text("step,y\n0,1e20\n1,1e20\n")
    svg = tmp_path / "flat.svg"
    assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
    points, labels = _svg_numbers(svg.read_text())
    assert points[1] == points[3] == 235.0 and all(np.isfinite(labels))


def test_plot_drops_points_with_a_non_finite_x(tmp_path):
    csv = tmp_path / "gap.csv"
    csv.write_text("step,y\n0,1\nnan,2\ninf,2.5\n2,3\n")
    svg = tmp_path / "gap.svg"
    assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
    body = svg.read_text()
    points, labels = _svg_numbers(body)
    assert len(points) == 4 and all(np.isfinite(points)) and all(np.isfinite(labels))
    assert "nan" not in body and "inf" not in body


def test_plot_escapes_the_column_names_it_writes(tmp_path):
    # a header of step,a&b,c<d once wrote an SVG that no XML parser reads
    csv = tmp_path / "r&d.csv"
    csv.write_text("st<e>p,a&b,c<d\n0,1,2\n1,3,0.5\n")
    svg = tmp_path / "chart.svg"
    assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 0
    texts = [node.firstChild.data for node in xml.dom.minidom.parse(str(svg)).getElementsByTagName("text")]
    assert {"st<e>p", "a&b", "c<d"} <= set(texts)
    twice = tmp_path / "twice.svg"
    assert main(["plot", "--csv", str(csv), "--csv", str(csv), "--out", str(twice)]) == 0
    texts = [node.firstChild.data for node in xml.dom.minidom.parse(str(twice)).getElementsByTagName("text")]
    assert {"r&d:a&b", "r&d:c<d"} <= set(texts)


@pytest.mark.parametrize("label", ["a\x01b", "\x1f", "a\uffffb"])
def test_plot_of_a_column_name_xml_cannot_hold_exits_2(tmp_path, capsys, label):
    # XML 1.0 has no escape for these: a header of step,a\x01b wrote an SVG no parser reads
    csv = tmp_path / "ctl.csv"
    csv.write_text(f"step,{label}\n0,1\n1,2\n", encoding="utf-8")
    svg = tmp_path / "ctl.svg"
    assert main(["plot", "--csv", str(csv), "--out", str(svg)]) == 2
    assert "which XML cannot hold" in capsys.readouterr().err
    assert not svg.exists()


def test_render_chart_is_pure():
    series = {"loss": ([0.0, 1.0, 2.0], [3.0, 1.0, 0.5])}
    assert render_chart(series) == render_chart(series)


# --- verify ------------------------------------------------------------------


# the suites as the benchmark harness reads them: registry order, function
# names, default seeds (through inspect.signature) and the lines of a full run
VERIFY_SUITES = {
    "dist": (101, 2402),
    "gradients": (202, 1300),
    "hessian": (303, 3100),
    "targets": (404, 1300),
    "bounds": (505, 1500),
    "directionality": (606, 1300),
    "convergence": (707, 160),
    "recovery": (808, 20),
    "dynamics": (None, 4),
}


def test_verify_keeps_its_suite_names_seeds_and_output(capsys):
    from lco_lab import verify

    assert list(verify.SUITES) == list(VERIFY_SUITES)
    for name, (seed, _) in VERIFY_SUITES.items():
        suite = verify.SUITES[name]
        assert suite is getattr(verify, f"suite_{name}") and suite.__name__ == f"suite_{name}"
        parameter = inspect.signature(suite).parameters.get("seed")
        assert (None if parameter is None else parameter.default) == seed
    assert main(["verify"]) == 0
    expected = [f"suite {name}: PASS ({cases} cases)" for name, (_, cases) in VERIFY_SUITES.items()]
    assert capsys.readouterr().out.splitlines() == expected


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "directionality"]) == 0
    out = capsys.readouterr().out
    assert "suite directionality: PASS" in out
    assert "gradients" not in out


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == 2
    # the library refuses it as a bad argument, not with Python's KeyError
    with pytest.raises(InvalidInputError, match="^names must name suites of SUITES, got unknown nope$"):
        run_suites(["nope"])


def test_verify_dynamics_without_the_config_directory_exits_2(tmp_path, monkeypatch, capsys):
    from lco_lab import verify

    missing = tmp_path / "no-configs"
    monkeypatch.setattr(verify, "CONFIGS", missing)
    assert main(["verify", "--suite", "dynamics"]) == 2
    assert str(missing / "sft_decay.cfg") in capsys.readouterr().err


def test_dist_suite_sweeps_pass():
    from lco_lab.verify import suite_dist

    result = suite_dist()
    assert result.failures == 0, f"{result.failures}/{result.cases} dist sweeps failed"


def test_recovery_stop_distance_equals_the_public_one():
    # suite_recovery stops on dist kernels over the trainer's theta row; they
    # must give the public total_variation(softmax(forward(...))) bit for bit
    rng = np.random.default_rng(4)
    for _ in range(300):
        v = int(rng.integers(2, 7))
        model = tabular_policy(1, v, init_logits=rng.uniform(-3.0, 3.0, v))
        pi_star = dist.softmax(rng.uniform(-1.0, 1.0, v))
        public = dist.total_variation(dist.softmax(forward(model, 0)), pi_star)
        assert dist._total_variation(dist._softmax(model.theta[:v]), pi_star) == public
