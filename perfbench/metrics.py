"""Metric names, units and how each is computed from a worker's output.

The names here are the ones ``BENCHMARK.json`` lists and later changes cite.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS
from workloads import VERIFY_CASES

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

SUITE_NAMES = tuple(VERIFY_CASES)

# per-layer metric -> the span names whose calls and self time it sums
SPAN_GROUPS = {
    "linalg.jacobi_eigh": ("linalg.jacobi_eigh",),
    "linalg.power_iteration_sym": ("linalg.power_iteration_sym",),
    "policy.jacobian": ("policy.jacobian",),
    "policy.forward": ("policy.forward",),
    "envs.state_index": ("envs.state_index",),
    "dist.softmax": ("dist.softmax",),
    "dist.sample_action": ("dist.sample_action",),
    "dist.kl_between": ("dist.kl_between",),
    "objectives.eval": tuple(
        f"objectives.{k}_eval" for k in ("sft", "ppo", "reinforce", "lco_mse", "lco_lch", "lco_kld")
    ),
    "targets.optimal": ("targets.optimal_logits", "targets.optimal_policy"),
    "targets.estimate_advantages": ("targets.estimate_advantages",),
    "convexity.hessian_analytic": ("convexity.hessian_analytic",),
    "convexity.hessian_numeric": ("convexity.hessian_numeric",),
    "convexity.ppo_witness": ("convexity.ppo_witness",),
    "convexity.min_eigenvalue": ("convexity.min_eigenvalue",),
    "convexity.gradient_norm_bound": ("convexity.gradient_norm_bound",),
    "training.train_step": ("training.train_step",),
    "training.rollout_episode": ("training.rollout_episode",),
    "training.episode_eval": ("training.episode_eval",),
    "training.converge_experiment": ("training.converge_experiment",),
    "training.spectral_radius": ("training.spectral_radius",),
    "config.parse_config": ("config.parse_config",),
    "config.build": tuple(
        f"config.build_{k}" for k in ("environment", "model", "trainer", "converge")
    ),
    "csvio.write_dynamics_csv": ("csvio.write_dynamics_csv",),
    "svgplot.write_chart": ("svgplot.write_chart",),
    "cli.main": ("cli.main",),
}
# summed probe counters (``tracer.PROBES``) reported next to a group: (suffix, unit)
COUNTERS = {
    "linalg.jacobi_eigh": ("n3", "count"),
    "policy.jacobian": ("bytes", "B"),
    "csvio.write_dynamics_csv": ("bytes", "B"),
    "svgplot.write_chart": ("bytes", "B"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric in the order a traced run reports it."""
    spec = []
    for group in SPAN_GROUPS:
        spec.append({"name": f"{group}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{group}.self_s", "unit": "s", "better": "lower"})
        if group in COUNTERS:
            suffix, unit = COUNTERS[group]
            spec.append({"name": f"{group}.{suffix}", "unit": unit, "better": "lower"})
    spec.append({"name": "training.train_step.useful_ratio", "unit": "1", "better": "higher"})
    for suite in SUITE_NAMES:
        spec.append({"name": f"verify.{suite}.s", "unit": "s", "better": "lower"})
        spec.append({"name": f"verify.{suite}.cases", "unit": "count", "better": "higher"})
        spec.append({"name": f"verify.{suite}.failures", "unit": "count", "better": "lower"})
    for layer in LAYERS:
        spec.append({"name": f"{layer}.errors", "unit": "count", "better": "lower"})
    spec.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return spec


def per_layer_values(totals, counters, errors, suites, overhead_s) -> dict[str, float]:
    """Per-layer values from span totals, probe counters and suite results."""
    values = {}
    for group, span_names in SPAN_GROUPS.items():
        calls = sum(totals.get(n, (0, 0.0))[0] for n in span_names)
        values[f"{group}.calls"] = calls
        values[f"{group}.self_s"] = sum(totals.get(n, (0, 0.0))[1] for n in span_names)
        if group in COUNTERS:
            name = f"{group}.{COUNTERS[group][0]}"
            values[name] = counters.get(name, 0.0)
    steps = values["training.train_step.calls"]
    values["training.train_step.useful_ratio"] = (
        counters.get("training.train_step.useful", 0.0) / steps if steps else 0.0
    )
    for suite in SUITE_NAMES:
        entry = suites.get(suite, {"s": 0.0, "cases": 0, "failures": 0})
        values[f"verify.{suite}.s"] = entry["s"]
        values[f"verify.{suite}.cases"] = entry["cases"]
        values[f"verify.{suite}.failures"] = entry["failures"]
    for layer in LAYERS:
        values[f"{layer}.errors"] = errors[layer]
    values["trace.overhead_s"] = overhead_s
    return values


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles, up to 99, with >= 10 samples beyond it."""
    for q in (99.0, 98.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def step_metrics(step_s: list[float]) -> dict:
    samples = np.asarray(step_s) * 1e3
    q = tail_percentile(samples.size)
    return {
        "step_p50_ms": float(np.percentile(samples, 50.0)),
        "step_p99_ms": float(np.percentile(samples, q)),
        "step_tail_percentile": q,
        "step_samples": int(samples.size),
    }
