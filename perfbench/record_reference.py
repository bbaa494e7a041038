"""Record the reference outputs the workloads check against.

    python3 perfbench/record_reference.py

Writes ``reference/shipped_digests.json`` (sha256 of every file the shipped
commands write) and ``reference/ladder_seed0.json`` (per-rung loss and
grad_norm_param of train_ladder at seed 0).  Run it only on a commit whose
outputs are known good: the files are what later commits are held to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import LADDER_REL_TOL, REFERENCE, ShippedConfigs, TrainLadder, written_digests  # noqa: E402


def main() -> int:
    shipped = ShippedConfigs(ROOT, 0)
    try:
        out = shipped.tmp / "out"
        out.mkdir()
        codes = shipped.run_commands(out, [])
        digests = {name: written_digests(out, target) for name, code, target in codes}
    finally:
        shipped.close()
    bad = [(name, code) for name, code, _ in codes if code != 0]
    if bad:
        print(f"error: commands failed: {bad}", file=sys.stderr)
        return 1

    trajectories, failed = TrainLadder(ROOT, 0).trajectories([])
    if failed:
        print(f"error: {failed} ladder steps failed", file=sys.stderr)
        return 1

    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "shipped_digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    ladder = {"seed": 0, "rel_tol": LADDER_REL_TOL, "rungs": trajectories}
    (REFERENCE / "ladder_seed0.json").write_text(json.dumps(ladder, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
