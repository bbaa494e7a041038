"""The shipped configs, run as the README runs them, reproduce their recorded bytes.

``perfbench/reference/shipped_digests.json`` holds the sha256 of every file
the six commands write, recorded on a known-good commit; this test only
reads it.  Any change to the training arithmetic, the CSV format or the SVG
layout that moves a single byte of these outputs fails here.
"""

import hashlib
import json
from pathlib import Path

from lco_lab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "perfbench" / "reference" / "shipped_digests.json"

# name in the digest file -> (command line, what it writes under the output root)
COMMANDS = {
    "train_ppo": (["train", "--config", "configs/ppo_clip_spike.cfg", "--out", "{out}/ppo"], "ppo"),
    "train_kld": (["train", "--config", "configs/kld_negative.cfg", "--out", "{out}/kld"], "kld"),
    "train_sft": (["train", "--config", "configs/sft_decay.cfg", "--out", "{out}/sft"], "sft"),
    "dynamics": (["dynamics", "--config", "configs/dynamics_ppo_vs_kld.cfg", "--out", "{out}/compare"], "compare"),
    "converge": (["converge", "--config", "configs/converge_tabular_mse.cfg", "--out", "{out}/conv"], "conv"),
    "plot": (
        ["plot", "--csv", "{out}/ppo/dynamics.csv", "--out", "{out}/ppo.svg", "--columns", "grad_norm_param,bound"],
        "ppo.svg",
    ),
}


def _argv(template, out):
    args = [a.replace("{out}", str(out)) for a in template]
    if "--config" in args:
        i = args.index("--config") + 1
        args[i] = str(ROOT / args[i])
    return args


def _written(out, target):
    base = out / target
    files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def test_shipped_commands_reproduce_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(COMMANDS)
    for name, (template, target) in COMMANDS.items():  # in order: plot reads the ppo run's CSV
        assert main(_argv(template, tmp_path)) == 0, name
        assert _written(tmp_path, target) == recorded[name], name

