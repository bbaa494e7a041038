import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from lco_lab import dist, objectives
from lco_lab.cli import main
from lco_lab.config import ConfigError, parse_config
from lco_lab.csvio import DYNAMICS_HEADER, format_float
from lco_lab.objectives import LossEval, _sft_eval
from lco_lab.policy import forward, tabular_policy
from lco_lab.svgplot import render_chart
from lco_lab.verify import suite_gradients

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
estimator = SPARSE_SAMPLED
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
    assert raw.get("environment", "vocab_size") == "3"
    assert raw.get("training", "steps") == "7"
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
        "[training]\nobjective = LCO_KLD\nsteps = 2\nestimator = DENSE_LOGPROB\nscorer_table = scores.txt\n",
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "scorer_table has 1 rows but the horizon is 2" in capsys.readouterr().err


def test_train_scorer_table_with_a_non_finite_entry_exits_2(tmp_path, capsys):
    # every row is checked when the config is read, before any step
    (tmp_path / "scores.txt").write_text("-0.5 -1.0 -2.0\n-0.5 nan -2.0\n")
    cfg = write_cfg(
        tmp_path,
        "[environment]\nvocab_size = 3\nhorizon = 2\nreward = match\ntarget = 0 1\n"
        "[training]\nobjective = LCO_KLD\nsteps = 2\nestimator = DENSE_LOGPROB\nscorer_table = scores.txt\n",
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "non-finite entry" in capsys.readouterr().err
    assert not (tmp_path / "o" / "dynamics.csv").exists()


@pytest.mark.parametrize(
    "estimator, table, scores",
    [
        ("SPARSE_SAMPLED", "scorer_table", "-0.5 nan -2.0\n"),
        ("DENSE_LOGPROB", "ref_table", "-0.5 inf -2.0\n"),
    ],
)
def test_train_with_a_table_its_estimator_never_reads_exits_2(tmp_path, capsys, estimator, table, scores):
    (tmp_path / "scores.txt").write_text("-0.5 -1.0 -2.0\n")
    (tmp_path / "unread.txt").write_text(scores)
    read = "scorer_table = scores.txt\n" if estimator == "DENSE_LOGPROB" else ""
    cfg = write_cfg(
        tmp_path,
        "[environment]\nvocab_size = 3\nhorizon = 1\nreward = match\ntarget = 0\n"
        f"[training]\nobjective = LCO_KLD\nsteps = 2\nestimator = {estimator}\n{read}{table} = unread.txt\n",
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{table} is given but the {estimator} estimator does not read it" in capsys.readouterr().err
    assert not (tmp_path / "o" / "dynamics.csv").exists()


def test_float_serialization_is_17_digits():
    assert format_float(1.0 / 3.0) == "0.33333333333333331"


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


def test_dynamics_identical_objectives_identical_summaries(tmp_path):
    base = (
        "[environment]\nvocab_size = 2\nhorizon = 1\nreward = match\ntarget = 0\n"
        "[model]\nfamily = TABULAR\n"
        "[training]\nlearning_rate = 0.2\nsteps = 10\nseed = 5\n"
        "[dynamics]\nobjectives = REINFORCE, REINFORCE\n"
    )
    cfg = write_cfg(tmp_path, base)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    a, b = (out / "summary.txt").read_text().splitlines()
    assert a == b


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
        "[converge]\nfamily = TABULAR\nobjective = LCO_MSE\nvocab_size = 4\n"
        "advantages = 1, 1, 1, 1\neta = 4.1\nsteps = 10\n",
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "spectral radius" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["beta = 0", "beta = 1e-170", "eta = nan", "eta = -0.1", "steps = -3", "steps = 2.5", "feature_dim = 0"],
)
def test_converge_unusable_value_exits_2(tmp_path, capsys, line):
    cfg = write_cfg(
        tmp_path,
        "[converge]\nfamily = LINEAR\nobjective = LCO_MSE\nvocab_size = 4\n"
        f"advantages = 1, -0.5, 0.25, 0\neta = 0.1\nsteps = 10\n{line}\n",
    )
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not (out / "converge.csv").exists()


def test_converge_beta_scaling(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = (
        "[converge]\nfamily = TABULAR\nobjective = LCO_MSE\nvocab_size = 2\n"
        "advantages = 1.0, -0.5\neta = 0.1\nsteps = 3\nbeta = {beta}\n"
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


def test_gradient_suite_catches_sign_flip(monkeypatch):
    clean = suite_gradients()
    assert (clean.cases, clean.failures) == (1300, 0)

    def flipped(z, pi, target) -> LossEval:
        good = _sft_eval(z, pi, target)
        return LossEval(good.value, -good.logit_gradient)

    monkeypatch.setattr(objectives, "_sft_eval", flipped)
    result = suite_gradients()
    assert (result.cases, result.failures) == (1300, 250)


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
