"""Span recorder that wraps the public functions of every ``lco_lab`` layer.

A span is one call across a layer boundary: its name (``<module>.<function>``),
start and end on the ``perf_counter`` clock, the span that was open when it
started (its parent), the benchmark operation it belongs to (run id) and
whether an exception crossed the boundary.  Spans live in flat typed arrays
while the workload runs and are written out once at the end.

``install`` rebinds each wrapped function in every ``lco_lab`` namespace that
holds it (modules that did ``from .policy import jacobian`` included);
``uninstall`` puts the original objects back, so an untraced run afterwards
measures unwrapped code.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "dist",
    "objectives",
    "targets",
    "convexity",
    "linalg",
    "policy",
    "envs",
    "training",
    "verify",
    "config",
    "csvio",
    "svgplot",
    "cli",
)
# public methods wrapped as ``<module>.<method>`` spans: (module, class, method)
METHODS = (("envs", "ToyEnvironment", "state_index"),)
MARKER = "__perfbench_span__"


def _size_n3(args, kwargs, result) -> float:
    n = np.shape(args[0] if args else kwargs["matrix"])[0]
    return float(n) ** 3


def _jacobian_bytes(args, kwargs, result) -> float:
    model = args[0] if args else kwargs["model"]
    return 8.0 * model.vocab_size * model.n_params


def _written_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


def _useful_step(args, kwargs, result) -> float:
    return 1.0 if result[1].grad_norm_param != 0.0 else 0.0


# computed per-call quantities, summed into ``<span>.<counter>``
PROBES = {
    "linalg.jacobi_eigh": ("n3", _size_n3),
    "policy.jacobian": ("bytes", _jacobian_bytes),
    "csvio.write_dynamics_csv": ("bytes", _written_bytes),
    "svgplot.write_chart": ("bytes", _written_bytes),
    "training.train_step": ("useful", _useful_step),
}


class SpanRecorder:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.error = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = -1
        self.counters: dict[str, float] = {}
        self._bindings: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, span_name: str, fn):
        nid = self._name_id(span_name)
        names, parents, runs, errors = self.name, self.parent, self.run, self.error
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        recorder = self
        probe = PROBES.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(recorder.run_id)
            errors.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if probe is not None:
                key = f"{span_name}.{probe[0]}"
                recorder.counters[key] = recorder.counters.get(key, 0.0) + probe[1](args, kwargs, result)
            return result

        setattr(wrapper, MARKER, span_name)
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer wherever it is bound."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"lco_lab.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = vars(cls)[method]
            self._bindings.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{layer}.{method}", original))
        for namespace in lco_lab_modules():
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._bindings.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path, metadata: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), metadata=np.array(json.dumps(metadata)), **self.arrays())


def lco_lab_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lco_lab" or name.startswith("lco_lab."))
    ]


def wrapped_bindings() -> list[str]:
    """Every ``lco_lab`` binding that still points at a span wrapper."""
    found = []
    for module in lco_lab_modules():
        for attr, obj in vars(module).items():
            if hasattr(obj, MARKER):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{attr}.{m}" for m, o in vars(obj).items() if hasattr(o, MARKER))
    return found


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    their covered time is the sum of their durations.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - covered


def span_totals(recorder: SpanRecorder) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    spans = recorder.arrays()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    calls = np.bincount(spans["name"], minlength=len(recorder.names))
    self_s = np.bincount(spans["name"], weights=own, minlength=len(recorder.names))
    return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(recorder.names)}


def module_errors(recorder: SpanRecorder) -> dict[str, int]:
    spans = recorder.arrays()
    counts = np.bincount(spans["name"], weights=spans["error"], minlength=len(recorder.names))
    errors = {layer: 0 for layer in LAYERS}
    for i, name in enumerate(recorder.names):
        errors[name.split(".", 1)[0]] += int(counts[i])
    return errors
