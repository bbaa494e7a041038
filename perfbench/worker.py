"""One workload in one fresh interpreter; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                --t0 MONOTONIC [--seconds S]

MODE ``setup`` imports ``lco_lab``, builds the workload's inputs and reports
the set-up time; ``run`` then repeats the workload's fixed work, untraced,
for as many whole passes as fit in ``--seconds`` (at least one) and until at
least 1000 step latencies are in; ``trace`` installs the span recorder
before set-up and does the fixed work exactly once, so its counts repeat
between runs.  ``--t0`` is the parent's CLOCK_MONOTONIC reading just before
it started this process, so set-up time includes interpreter start.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"
# enough train_step latencies that the 99th percentile has ten beyond it
MIN_STEP_SAMPLES = 1000


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import lco_lab
    import numpy

    if Path(lco_lab.__file__).resolve().parent != ROOT / "src" / "lco_lab":
        print(f"error: lco_lab imported from {lco_lab.__file__}, not this checkout", file=sys.stderr)
        return 2

    import tracer
    from workloads import WORKLOADS

    recorder = None
    if args.mode == "trace":
        recorder = tracer.SpanRecorder()
        recorder.install()
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "python": sys.version.split()[0], "numpy": numpy.__version__}
    try:
        if args.mode != "setup":
            report.update(run_passes(workload, recorder, args.seconds))
    finally:
        workload.close()
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None:
        left = tracer.wrapped_bindings()
        if left:
            report["problems"].append(f"still wrapped after the traced run: {left}")
        report["spans"] = len(recorder.name)
        report["span_totals"] = tracer.span_totals(recorder)
        report["counters"] = recorder.counters
        report["errors"] = tracer.module_errors(recorder)
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        recorder.write(path, {"workload": args.workload, "seed": args.seed})
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


def run_passes(workload, recorder, seconds: float) -> dict:
    pass_s, step_s, problems = [], [], []
    attempted = failed = 0
    suites = {}
    started = time.perf_counter()
    while True:
        start = time.perf_counter()
        result = workload.run_pass(recorder)
        pass_s.append(time.perf_counter() - start - result.probe_s)
        attempted += result.attempted
        failed += result.failed
        step_s.extend(result.step_s)
        problems.extend(p for p in result.problems if p not in problems)
        suites = result.suites
        if recorder is not None:
            break
        # start another pass only if it should end within ``seconds``, so a
        # pass slightly shorter than ``seconds`` does not double the run
        fits = time.perf_counter() - started + statistics.median(pass_s) <= seconds
        if not fits and len(step_s) >= MIN_STEP_SAMPLES:
            break
    return {
        "pass_s": pass_s,
        "step_s": step_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "suites": suites,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main())
