"""Command-line runner: verify / train / dynamics / converge / plot.

Exit codes: 0 success, 1 failed checks or bound violations, or a run
that stopped on a typed library error (a non-finite loss, gradient or logit, or
a number no output can hold), 2 unusable configuration or input schema,
3 divergent step size in a convergence run.  All artifacts land inside
the output directory passed with --out (or the config's [output]
directory); --out given empty exits 2.  ``train``, ``dynamics`` and
``converge`` each format every file they make and hand them all to one
``_write``, which creates the directory and writes them, so a run that
stops on an error, or a number no output can hold, leaves no file
behind.  A config value is read when the config is parsed: one given
empty, or a section or key the command never reads
(``config.COMMANDS``), exits 2 at its line.

A command runs with numpy's overflow events silenced: each overflow a run
can meet is followed by a typed check (the step's loss and gradient
checks, the next step's logits check), and every number a command writes
goes through ``csvio.format_float``, which refuses one that is not finite,
so an overflow ends in the one ``error:`` line, not in numpy warnings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from .csvio import TEXT_COLUMNS, dynamics_rows, format_float, numeric_column, parse_csv, read_csv
from .errors import InvalidInputError, LcoLabError, StepSizeError
from .svgplot import render_chart, write_chart
from .training import converge_violations, envelope_violations
from .verify import SUITES, run_suites


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lco-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES), help="run only this suite")
    p.set_defaults(run=lambda args: cmd_verify(args.suite))

    for name, command in (("train", cmd_train), ("dynamics", cmd_dynamics), ("converge", cmd_converge)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(run=lambda args, command=command: command(args.config, args.out))

    p = sub.add_parser("plot", help="render CSV columns as an SVG line chart")
    p.add_argument("--csv", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--columns", default=None, help="comma-separated y columns")
    p.set_defaults(run=lambda args: cmd_plot(args.csv, args.out, args.columns))
    return parser


def cmd_verify(suites: list[str] | None) -> int:
    results = run_suites(suites)
    for result in results:
        if result.passed:
            print(f"suite {result.name}: PASS ({result.cases} cases)")
        else:
            print(f"suite {result.name}: FAIL ({result.failures}/{result.cases} cases failed)")
    return 0 if all(r.passed for r in results) else 1


def _write(out_dir: Path, files: dict[str, str]) -> None:
    """Each of ``files``, a name with its formatted text, written under ``out_dir``, created if missing."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)


def _model_text(model) -> str:
    lines = [f"# {model.family.value} n_states={model.n_states} vocab={model.vocab_size}"]
    lines.extend(format_float(x) for x in model.theta)
    return "\n".join(lines) + "\n"


def cmd_train(config_path: str, out: str | None) -> int:
    raw = cfg.parse_config(config_path, "train")
    out_dir = cfg.output_directory(raw, out)
    final_model, records = cfg.train(raw)
    rows = dynamics_rows(records)
    files = {"dynamics.csv": "\n".join(rows) + "\n", "model.txt": _model_text(final_model)}
    columns = raw.value("output", "plot_columns")
    if columns:
        series = _series([out_dir / "dynamics.csv"], list(columns), lambda path: parse_csv(rows, path))
        files["dynamics.svg"] = render_chart(*series)
    _write(out_dir, files)
    print(f"wrote {out_dir / 'dynamics.csv'} ({len(records)} steps)")
    return 0


def cmd_dynamics(config_path: str, out: str | None) -> int:
    raw = cfg.parse_config(config_path, "dynamics")
    out_dir = cfg.output_directory(raw, out)
    runs = [(kind, cfg.train(raw, kind)[1]) for kind in cfg.dynamics_objectives(raw)]
    files = {f"dynamics_{kind.value}.csv": "\n".join(dynamics_rows(records)) + "\n" for kind, records in runs}
    summary = "".join(
        f"{kind.value}: max_grad_norm={format_float(max(r.grad_norm_param for r in records))} "
        f"final_entropy={format_float(records[-1].entropy)} "
        f"final_sampled_prob={format_float(records[-1].sampled_prob)} "
        f"envelope_violations={envelope_violations(records)}\n"
        for kind, records in runs
    )
    _write(out_dir, {**files, "summary.txt": summary})
    print(summary, end="")
    return 0


def cmd_converge(config_path: str, out: str | None) -> int:
    raw = cfg.parse_config(config_path, "converge")
    out_dir = cfg.output_directory(raw, out)
    try:
        result = cfg.converge(raw)
    except StepSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rho = format_float(result.rho)
    lines = ["step,loss,bound,rho"]
    for step, (loss, bound) in enumerate(zip(result.loss.tolist(), result.bound.tolist())):
        lines.append(f"{step},{format_float(loss)},{format_float(bound)},{rho}")
    _write(out_dir, {"converge.csv": "\n".join(lines) + "\n"})
    violations = converge_violations(result)
    print(
        f"{result.family.value}/{result.objective.value}: rho={result.rho:.6g} "
        f"steps={result.loss.size - 1} violations={violations}"
    )
    return 0 if violations == 0 else 1


def _series(paths: list[Path], columns: list[str] | None, read=read_csv):
    """The chart series and x label of the CSVs at ``paths``, each read by ``read`` in turn."""
    series: dict[str, tuple[list[float], list[float]]] = {}
    x_label = "x"
    for path in paths:
        header, rows = read(path)
        if not header or not header[0]:
            raise InvalidInputError(f"{path}: missing header row")
        x_label = header[0]
        xs = numeric_column(header, rows, header[0], path)
        wanted = columns or [name for name in header[1:] if name not in TEXT_COLUMNS and name]
        for name in wanted:
            ys = numeric_column(header, rows, name, path)
            label = name if len(paths) == 1 else f"{path.stem}:{name}"
            series[label] = (xs, ys)
    return series, x_label


def cmd_plot(csv_paths: list[str], out: str, columns: str | None) -> int:
    wanted = [c.strip() for c in columns.split(",") if c.strip()] if columns else None
    write_chart(Path(out), *_series([Path(p) for p in csv_paths], wanted))
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(over="ignore"):  # see the module docstring
            return args.run(args)
    except (cfg.ConfigError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LcoLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
