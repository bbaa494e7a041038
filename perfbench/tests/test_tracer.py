"""Span arithmetic, wrapper placement and clean-up of the span recorder."""

import numpy as np

import tracer
from workloads import LADDER_REPLICAS, LADDER_STEPS, ShippedConfigs, TrainLadder, ladder_rungs

ROOT = tracer.Path(__file__).resolve().parent.parent.parent


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracer.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0  # self times partition the root span


def test_recorder_nests_spans_and_flags_errors():
    recorder = tracer.SpanRecorder()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf_span = recorder.wrap("dist.leaf", leaf)

    def outer(x):
        return leaf_span(x) + leaf_span(x)

    outer_span = recorder.wrap("objectives.outer", outer)
    assert outer_span(2) == 4
    try:
        outer_span(-1)
    except ValueError:
        pass
    spans = recorder.arrays()
    assert spans["parent"].tolist() == [-1, 0, 0, -1, 3]
    assert spans["error"].tolist() == [0, 0, 0, 1, 1]
    totals = tracer.span_totals(recorder)
    assert totals["dist.leaf"][0] == 3 and totals["objectives.outer"][0] == 2
    errors = tracer.module_errors(recorder)
    assert errors["dist"] == 1 and errors["objectives"] == 1


def test_install_reaches_names_imported_by_value_and_uninstall_restores():
    from lco_lab import policy, training, verify

    original = policy.jacobian
    recorder = tracer.SpanRecorder()
    recorder.install()
    try:
        assert hasattr(training.jacobian, tracer.MARKER)
        assert hasattr(verify.jacobian, tracer.MARKER)
        assert training.jacobian is policy.jacobian
        workload = TrainLadder(ROOT, 3)
        workload.rungs = workload.rungs[:4]
        workload.run_pass(recorder)
    finally:
        recorder.uninstall()
    assert tracer.wrapped_bindings() == []
    assert training.jacobian is original and verify.jacobian is original
    totals = tracer.span_totals(recorder)
    assert totals["training.train_step"][0] == 4 * LADDER_STEPS
    assert totals["policy.jacobian"][0] > 0


def test_traced_shipped_pass_leaves_nothing_wrapped():
    recorder = tracer.SpanRecorder()
    recorder.install()
    workload = ShippedConfigs(ROOT, 0)
    try:
        result = workload.run_pass(recorder)
    finally:
        workload.close()
        recorder.uninstall()
    assert result.failed == 0 and not result.problems
    assert tracer.wrapped_bindings() == []
    assert recorder.counters["csvio.write_dynamics_csv.bytes"] > 0


def test_ladder_grid_spreads_every_objective():
    rungs = ladder_rungs(0)
    assert len(rungs) == 27 * LADDER_REPLICAS
    for replica in range(LADDER_REPLICAS):
        grid = [r.label.split("/") for r in rungs if r.label.startswith(f"r{replica}/")]
        assert len({tuple(label[1:4]) for label in grid}) == 27
        assert {label[4] for label in grid} == {"SFT", "PPO", "REINFORCE", "LCO_MSE", "LCO_LCH", "LCO_KLD"}
