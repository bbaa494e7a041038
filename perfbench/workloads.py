"""The three benchmark workloads: constructing one is its set-up, ``run_pass``
does its fixed work once and checks the outputs.

verify_suites    the nine ``verify.SUITES`` in-process, each default seed
                 shifted by the workload seed (``suite_dynamics`` takes none);
                 at offset 0 this is exactly ``lco-lab verify``.  Most time
                 goes to the Jacobi eigensolver through ``convexity``.
                 One operation is one suite case.  Step latencies come from
                 ``suite_dynamics``, run once more before every other suite
                 (outside the pass time) so they sample the whole pass.
train_ladder     ``training.train_step`` driven directly over family x V x
                 horizon, the grid laid out ``LADDER_REPLICAS`` times with
                 independently seeded objectives, rewards and models; the
                 dense ``policy.jacobian`` pullback dominates at tabular
                 V=64 / horizon 3.  One operation is one step.
shipped_configs  the six README commands through ``cli.main``: V is 2-4, so
                 per-call overhead dominates, and the write path (config,
                 csvio, svgplot) runs.  One operation is one command.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import lco_lab_modules

REFERENCE = Path(__file__).resolve().parent / "reference"


def read_reference(name: str):
    path = REFERENCE / name
    return json.loads(path.read_text()) if path.is_file() else None

# case counts of ``lco-lab verify`` at the suites' default seeds
VERIFY_CASES = {
    "dist": 2402,
    "gradients": 1300,
    "hessian": 3100,
    "targets": 1300,
    "bounds": 1500,
    "directionality": 1300,
    "convergence": 160,
    "recovery": 20,
    "dynamics": 4,
}

LADDER_FAMILIES = ("TABULAR", "LINEAR", "MLP1")
LADDER_VOCABS = (8, 32, 64)
LADDER_HORIZONS = (1, 2, 3)
# A step's cost depends on its inputs (power iteration runs until the
# spectrum converges), so one seeded layout of the grid gives a median step
# that moves by tens of percent from seed to seed.  Several independently
# seeded layouts per run average that out.
LADDER_REPLICAS = 4
LADDER_STEPS = 4
LADDER_FEATURE_DIM = 8
LADDER_HIDDEN = 16
LADDER_LEARNING_RATE = 0.1
LADDER_SNAPSHOT_INTERVAL = 2
# relative tolerance of the seed-0 trajectory check; a pullback that agrees
# with the dense Jacobian path to 1e-12 relative passes it
LADDER_REL_TOL = 1e-12
ENVELOPE_SLACK = 1e-9

# the README's commands; ``target`` is what each one writes under the output root
SHIPPED_COMMANDS = (
    ("train_ppo", ("train", "--config", "configs/ppo_clip_spike.cfg", "--out", "{out}/ppo"), "ppo"),
    ("train_kld", ("train", "--config", "configs/kld_negative.cfg", "--out", "{out}/kld"), "kld"),
    ("train_sft", ("train", "--config", "configs/sft_decay.cfg", "--out", "{out}/sft"), "sft"),
    ("dynamics", ("dynamics", "--config", "configs/dynamics_ppo_vs_kld.cfg", "--out", "{out}/compare"), "compare"),
    ("converge", ("converge", "--config", "configs/converge_tabular_mse.cfg", "--out", "{out}/conv"), "conv"),
    (
        "plot",
        ("plot", "--csv", "{out}/ppo/dynamics.csv", "--out", "{out}/ppo.svg", "--columns", "grad_norm_param,bound"),
        "ppo.svg",
    ),
)


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    suites: dict[str, dict] = field(default_factory=dict)
    # time the pass spent on measurement probes rather than its fixed work;
    # the pass time reported excludes it
    probe_s: float = 0.0


@contextlib.contextmanager
def timed_train_steps(latencies: list[float]):
    """Time every ``training.train_step`` call the program makes.

    Rebinds the function wherever ``lco_lab`` holds it, for the duration of
    the block only.
    """
    from lco_lab import training

    original = training.train_step
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(clock() - start)

    bound = [(m, attr) for m in lco_lab_modules() for attr, obj in vars(m).items() if obj is original]
    for module, attr in bound:
        setattr(module, attr, timed)
    try:
        yield
    finally:
        for module, attr in bound:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# verify_suites
# ---------------------------------------------------------------------------


class VerifySuites:
    def __init__(self, root: Path, seed: int):
        from lco_lab import verify

        self.verify = verify
        self.offset = seed
        self.calls = []
        for name, suite in verify.SUITES.items():
            seed_param = inspect.signature(suite).parameters.get("seed")
            kwargs = {} if seed_param is None else {"seed": seed_param.default + seed}
            self.calls.append((name, suite.__name__, kwargs))

    def step_probe(self, step_s: list[float]) -> float:
        """Time the steps of one extra ``suite_dynamics`` run; returns its duration.

        That suite takes no seed, so its 1400 steps are the same work at every
        offset, where the recovery suite's step count and sizes change with
        the seed.  Run before every suite, its steps sample the whole pass, not
        only its last second, so a slow spell of the machine does not decide
        the step metrics alone.
        """
        start = time.perf_counter()
        with timed_train_steps(step_s):
            self.verify.suite_dynamics()
        return time.perf_counter() - start

    def run_pass(self, run_ids=None) -> PassResult:
        out = PassResult()
        for op, (name, attr, kwargs) in enumerate(self.calls):
            # a traced pass does the suites' work only, so its counts are those
            # of ``lco-lab verify``
            if run_ids is None and name != "dynamics":
                out.probe_s += self.step_probe(out.step_s)
            if run_ids is not None:
                run_ids.run_id = op
            expected = VERIFY_CASES[name]
            steps = timed_train_steps(out.step_s) if name == "dynamics" else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with steps:
                    # looked up per call so a traced run reaches the wrapper
                    result = getattr(self.verify, attr)(**kwargs)
            except Exception as exc:  # a crashed suite fails all its cases
                out.suites[name] = {"s": time.perf_counter() - start, "cases": 0, "failures": expected}
                out.attempted += expected
                out.failed += expected
                out.problems.append(f"suite {name} raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            out.suites[name] = {"s": elapsed, "cases": result.cases, "failures": result.failures}
            out.attempted += result.cases
            out.failed += result.failures
            if result.cases != expected:
                out.problems.append(f"suite {name}: {result.cases} cases, expected {expected}")
            if self.offset == 0 and result.failures:
                out.problems.append(f"suite {name}: {result.failures} failures at offset 0")
        return out

    def close(self):
        pass


# ---------------------------------------------------------------------------
# train_ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rung:
    label: str
    env: object
    model: object
    config: object


def ladder_rungs(seed: int) -> list[Rung]:
    """``LADDER_REPLICAS`` copies of the family x V x horizon grid, each with
    its own seeded objective per rung."""
    from lco_lab import MatchReward, ObjectiveKind, TableReward, ToyEnvironment, TrainerConfig
    from lco_lab.policy import linear_policy, mlp1_policy, tabular_policy

    rng = np.random.default_rng(seed)
    grid = [(f, v, h) for f in LADDER_FAMILIES for v in LADDER_VOCABS for h in LADDER_HORIZONS]
    layout = []
    for replica in range(LADDER_REPLICAS):
        kinds = list(ObjectiveKind) * math.ceil(len(grid) / len(ObjectiveKind))
        kinds = [kinds[i] for i in rng.permutation(len(kinds))[: len(grid)]]
        layout += [(replica, *cell, kind) for cell, kind in zip(grid, kinds)]
    rungs = []
    for replica, family, v, h, kind in layout:
        if kind is ObjectiveKind.SFT:
            reward = MatchReward(tuple(int(a) for a in rng.integers(v, size=h)))
        else:
            reward = TableReward(rng.uniform(-1.0, 1.0, (h, v)))
        env = ToyEnvironment(v, h, reward)
        model_seed = int(rng.integers(2**31))
        if family == "TABULAR":
            model = tabular_policy(env.n_states, v, init_logits=rng.uniform(-1.0, 1.0, v))
        elif family == "LINEAR":
            model = linear_policy(env.n_states, v, LADDER_FEATURE_DIM, seed=model_seed)
            model = model.with_theta(rng.uniform(-0.3, 0.3, model.n_params))
        else:
            model = mlp1_policy(env.n_states, v, LADDER_FEATURE_DIM, hidden=LADDER_HIDDEN, seed=model_seed)
        config = TrainerConfig(
            objective=kind,
            learning_rate=LADDER_LEARNING_RATE,
            steps=LADDER_STEPS,
            seed=int(rng.integers(2**31)),
            snapshot_interval=LADDER_SNAPSHOT_INTERVAL,
        )
        rungs.append(Rung(f"r{replica}/{family}/V{v}/H{h}/{kind.value}", env, model, config))
    return rungs


def _record_values(record) -> list[float]:
    return [
        record.loss,
        record.grad_norm_param,
        record.grad_sampled_logit,
        record.grad_nonsampled_logit,
        record.entropy,
        record.sampled_prob,
        record.bound_value,
    ]


class TrainLadder:
    def __init__(self, root: Path, seed: int):
        from lco_lab import training
        from lco_lab.objectives import LCO_KINDS

        self.training = training
        self.lco_kinds = LCO_KINDS
        self.rungs = ladder_rungs(seed)
        self.check_reference = seed == 0
        self.reference = read_reference("ladder_seed0.json")
        self.first_pass = None

    def trajectories(self, step_s: list[float], run_ids=None):
        """Per-rung (loss, grad_norm_param) lists plus the failed-step count."""
        training = self.training
        clock = time.perf_counter
        out, failed, op = {}, 0, 0
        for rung in self.rungs:
            state = training.init_trainer(rung.model)
            sampler = np.random.default_rng(rung.config.seed)
            losses, norms = [], []
            for _ in range(LADDER_STEPS):
                if run_ids is not None:
                    run_ids.run_id = op
                op += 1
                start = clock()
                try:
                    # looked up per call so a traced run reaches the wrapper
                    state, record = training.train_step(state, rung.env, rung.config, sampler)
                except Exception:
                    step_s.append(clock() - start)
                    failed += 1
                    losses.append(None)
                    norms.append(None)
                    continue
                step_s.append(clock() - start)
                losses.append(record.loss)
                norms.append(record.grad_norm_param)
                if not all(x is not None and math.isfinite(x) for x in _record_values(record)):
                    failed += 1
                elif (
                    rung.config.objective in self.lco_kinds
                    and record.grad_norm_param > record.bound_value + ENVELOPE_SLACK
                ):
                    failed += 1
            out[rung.label] = {"loss": losses, "grad_norm_param": norms}
        return out, failed

    def run_pass(self, run_ids=None) -> PassResult:
        result = PassResult()
        trajectories, result.failed = self.trajectories(result.step_s, run_ids)
        result.attempted = len(self.rungs) * LADDER_STEPS
        if self.first_pass is None:
            self.first_pass = trajectories
        elif trajectories != self.first_pass:
            result.problems.append("trajectory differs from the first pass of this run")
        if self.check_reference:
            if self.reference is None:
                result.problems.append("no recorded seed-0 trajectory")
            else:
                result.problems.extend(compare_trajectories(trajectories, self.reference["rungs"], LADDER_REL_TOL))
        return result

    def close(self):
        pass


def compare_trajectories(got: dict, want: dict, rel_tol: float) -> list[str]:
    problems = []
    if list(got) != list(want):
        return [f"ladder rungs {list(got)} differ from reference {list(want)}"]
    for label, series in want.items():
        for key, values in series.items():
            for step, (a, b) in enumerate(zip(got[label][key], values)):
                if a is None or not abs(a - b) <= rel_tol * max(abs(a), abs(b)):
                    problems.append(f"{label} step {step} {key}: {a!r} vs reference {b!r}")
    return problems


# ---------------------------------------------------------------------------
# shipped_configs
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def written_digests(out: Path, target: str) -> dict[str, str]:
    """sha256 of every file a command wrote under ``out / target``."""
    base = out / target
    files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): sha256(p) for p in files}


def command_problems(exit_code, digests: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Why one command counts as failed: a nonzero exit or any output whose
    bytes differ from the recorded digests."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code!r}")
    for rel in sorted(set(digests) | set(expected)):
        if digests.get(rel) != expected.get(rel):
            problems.append(f"{rel}: sha256 {digests.get(rel)} != recorded {expected.get(rel)}")
    return problems


class ShippedConfigs:
    def __init__(self, root: Path, seed: int):
        from lco_lab import cli
        from lco_lab import config as cfg

        self.cli = cli
        # parse and build every shipped config up front: this is the
        # workload's input generation, and it fails early on a bad config
        for _, argv, _ in SHIPPED_COMMANDS:
            if "--config" not in argv:
                continue
            raw = cfg.parse_config(root / argv[argv.index("--config") + 1])
            if argv[0] == "converge":
                cfg.build_converge(raw)
                continue
            env = cfg.build_environment(raw)
            cfg.build_model(raw, env)
            kinds = cfg.dynamics_objectives(raw) if argv[0] == "dynamics" else (None,)
            for kind in kinds:
                cfg.build_trainer(raw, objective=kind)
        self.root = root
        self.expected = read_reference("shipped_digests.json") or {}
        scratch = root / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="shipped-", dir=scratch))

    def argv(self, template, out: Path) -> list[str]:
        args = [a.replace("{out}", str(out)) for a in template]
        if "--config" in args:
            i = args.index("--config") + 1
            args[i] = str(self.root / args[i])
        return args

    def run_commands(self, out: Path, step_s: list[float], run_ids=None) -> list[tuple[str, object, str]]:
        codes = []
        sink = io.StringIO()
        with timed_train_steps(step_s), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for op, (name, template, target) in enumerate(SHIPPED_COMMANDS):
                if run_ids is not None:
                    run_ids.run_id = op
                try:
                    code = self.cli.main(self.argv(template, out))
                except (Exception, SystemExit) as exc:  # argparse exits on a bad command line
                    code = repr(exc)
                codes.append((name, code, target))
        return codes

    def run_pass(self, run_ids=None) -> PassResult:
        result = PassResult()
        out = self.tmp / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        codes = self.run_commands(out, result.step_s, run_ids)
        for name, code, target in codes:
            problems = command_problems(code, written_digests(out, target), self.expected.get(name, {}))
            result.attempted += 1
            if problems:
                result.failed += 1
                result.problems.extend(f"{name}: {p}" for p in problems)
        return result

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "verify_suites": VerifySuites,
    "train_ladder": TrainLadder,
    "shipped_configs": ShippedConfigs,
}
