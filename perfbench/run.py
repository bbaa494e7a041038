"""lco-lab benchmark: time to verdict, training-step latency and peak memory.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs single-process in fresh
interpreters (``worker.py``) with BLAS pinned to one thread:

--trace 0  the end-to-end metrics.  One interpreter repeats the workload's
           fixed work, untraced, for ``--seconds``; set-up is measured in it
           and in fresh interpreters started before and after it, and
           reported as the median.
--trace 1  the per-layer metrics: an untraced interpreter as above, then a
           traced one that does the fixed work once; the difference of their
           pass times is ``trace.overhead_s``.  Spans go to ``.perfbench/``.

Every metric is printed as ``name value unit``, with the run's metadata, and
the last line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when the run completed, whatever its checks found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as M
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
# one BLAS thread: the work is single-process, and a shared machine's spare
# cores would otherwise make the matrix products vary from run to run
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode, "--t0", repr(t0)]
    if seconds:
        argv += ["--seconds", repr(seconds)]
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"{workload} {mode} worker ran past the deadline")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def metadata(worker: dict) -> dict:
    src = sorted((ROOT / "src" / "lco_lab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = probe.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": CHILD_ENV,
    }


def setup_samples(workload: str, seed: int, count: int, deadline: float) -> list[float]:
    return [start_worker(workload, seed, "setup", 0.0, deadline)["setup_s"] for _ in range(count)]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, dict]:
    # set-up samples before and after the long run, so a slow spell of a
    # shared machine does not cover all of them
    setups = setup_samples(workload, seed, SETUP_SAMPLES // 2, deadline)
    run = start_worker(workload, seed, "run", seconds, deadline)
    setups.append(run["setup_s"])
    setups += setup_samples(workload, seed, SETUP_SAMPLES - len(setups), deadline)
    steps = M.step_metrics(run["step_s"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["pass_s"]),
        "step_p50_ms": steps["step_p50_ms"],
        "step_p99_ms": steps["step_p99_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "setup_samples": len(setups),
        "passes": len(run["pass_s"]),
        "step_samples": steps["step_samples"],
        "step_tail_percentile": steps["step_tail_percentile"],
    }
    return values, run, notes


def traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, dict]:
    baseline = start_worker(workload, seed, "run", seconds, deadline)
    trace = start_worker(workload, seed, "trace", 0.0, deadline)
    overhead = trace["pass_s"][0] - statistics.median(baseline["pass_s"])
    values = M.per_layer_values(trace["span_totals"], trace["counters"], trace["errors"], trace["suites"], overhead)
    trace["problems"] = baseline["problems"] + [p for p in trace["problems"] if p not in baseline["problems"]]
    notes = {"spans": trace["spans"], "spans_file": trace["spans_file"], "untraced_passes": len(baseline["pass_s"])}
    return values, trace, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    if trace:
        values, run, notes = traced(workload, seed, seconds, deadline)
        units = {m["name"]: m["unit"] for m in M.per_layer_spec()}
    else:
        values, run, notes = end_to_end(workload, seed, seconds, deadline)
        units = M.END_TO_END
    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {workload} seed {seed} trace {int(trace)}: {attempted} operations, {failed} failed")
    for name, value in values.items():
        print(f"  {name} {value!r} {units[name]}")
    # fail_ratio is 0 on a clean run, so it has no relative bound and is not
    # in BENCHMARK.json; the last line carries it as attempted and failed
    print(f"  fail_ratio {failed / attempted!r} 1")
    for problem in run["problems"]:
        print(f"  check failed: {problem}")
    print(f"  metadata {json.dumps({**metadata(run), **notes}, sort_keys=True)}")
    return {
        "correct": not run["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lco_lab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not an lco-lab checkout (no src/lco_lab or configs/)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic() + DEADLINE_S)
            for name in names
        }
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
