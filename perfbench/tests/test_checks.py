"""The workloads' output checks reject wrong outputs."""

import json
from pathlib import Path

import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent


def test_flipped_byte_in_shipped_output_fails_that_command():
    workload = workloads.ShippedConfigs(ROOT, 0)
    run_commands = workload.run_commands

    def run_then_corrupt(out, step_s, run_ids=None):
        codes = run_commands(out, step_s, run_ids)
        target = out / "ppo" / "dynamics.csv"
        data = bytearray(target.read_bytes())
        data[100] ^= 0x01
        target.write_bytes(bytes(data))
        return codes

    workload.run_commands = run_then_corrupt
    try:
        result = workload.run_pass()
    finally:
        workload.close()
    assert result.attempted == 6
    assert result.failed == 1
    assert any(p.startswith("train_ppo: ppo/dynamics.csv") for p in result.problems)


def test_command_problems_reports_exit_code_and_missing_files():
    assert workloads.command_problems(0, {"a": "1"}, {"a": "1"}) == []
    assert workloads.command_problems(2, {"a": "1"}, {"a": "1"}) == ["exit code 2"]
    assert len(workloads.command_problems(0, {}, {"a": "1"})) == 1
    assert len(workloads.command_problems(0, {"a": "1", "b": "2"}, {"a": "1"})) == 1


def test_trajectory_check_uses_relative_tolerance():
    want = {"r": {"loss": [1.0, 0.0]}}
    assert workloads.compare_trajectories({"r": {"loss": [1.0 + 1e-13, 0.0]}}, want, 1e-12) == []
    assert workloads.compare_trajectories({"r": {"loss": [1.0 + 1e-11, 0.0]}}, want, 1e-12)
    assert workloads.compare_trajectories({"r": {"loss": [None, 0.0]}}, want, 1e-12)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(999) == 98.0
    assert metrics.tail_percentile(200) == 95.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(metrics.END_TO_END.values())
    assert spec["per_layer"] == metrics.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
