"""Flat key = value experiment configs with bracketed section headers.

No nesting, no quoting: a line is blank, a comment (#), a [section]
header, or ``key = value``.  ``SECTIONS`` holds every section, the keys
each may hold and the reader of each key's text, and ``parse_config``
reads each value once, at its line.  An unknown section or key is an
error, so a typo cannot fall back to a default, as is a key given empty,
so an empty value cannot either, and a key given twice in one section
(across repeated headers too), so a later line cannot silently override
an earlier one; a value its reader rejects exits at its line.
``COMMANDS`` holds the sections each command reads and the keys of them
it never reads, and a config parsed for a command that gives one of
those exits at its line too.  Paths are resolved relative to the config
file as they are read; a table file is loaded only once its key has
reached a constructor that reads it.

Each section is passed straight to the constructor it configures, with
only the keys the config sets: ``[environment]`` to the reward rule and
``ToyEnvironment``, ``[model]`` to the family's policy constructor
(``init_seed`` is its ``seed``), ``[training]`` to ``TrainerConfig``, and
``[converge]`` to ``ConvergeConfig``.  Every command's model comes from
``[model]``: over the environment's states and actions for ``train`` and
``dynamics``, and over one state and ``len(advantages)`` actions for
``converge``.  An absent key therefore takes the constructor's default,
which is stated there and nowhere here.  A key the chosen family or
reward rule has no parameter for is an error at its line, as a
misspelled key is; a key a required parameter needs and the config leaves
out is an error too, naming the config.  Parse failures
carry the offending line number so the CLI can exit with a usable
diagnostic, and so does an ``InvalidInputError`` that a constructor or a
run (``train``, ``converge``) raises: it names the config, and the line
of the key whose parameter its message opens with.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import NUMERIC_COLUMNS
from .envs import MatchReward, TableReward, ToyEnvironment
from .errors import InvalidInputError, LcoLabError
from .objectives import ObjectiveKind
from .policy import Family, PolicyModel, linear_policy, mlp1_policy, tabular_policy
from .targets import load_logprob_table
from .training import ConvergeConfig, ConvergeResult, DynamicsRecord, TrainerConfig, converge_experiment, run_training


class ConfigError(LcoLabError, ValueError):
    """Config file cannot be parsed or is missing required fields."""


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _floats(text: str) -> np.ndarray:
    return np.asarray([float(tok) for tok in text.replace(",", " ").split()], dtype=np.float64)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _columns(text: str) -> tuple[str, ...]:
    """Column names, each one of the dynamics CSV's numeric columns."""
    names = _names(text)
    if not set(names) <= set(NUMERIC_COLUMNS):
        raise ValueError(text)
    return names


def _member(enum):
    """The reader of one ``enum`` member, by its name in any case."""
    return lambda text: enum[text.upper()]


_objective = _member(ObjectiveKind)

# every section a config may hold, with the keys it may hold and the reader
# of each key's text; a reader that returns a Path is resolved against the
# config's directory
SECTIONS = {
    "environment": {"vocab_size": int, "horizon": int, "reward": str.lower, "target": _ints, "table": Path},
    "model": {"family": _member(Family), "feature_dim": int, "hidden": int, "init_seed": int, "init_logits": _floats},
    "training": {
        "objective": _objective, "learning_rate": float, "steps": int, "beta": float, "clip_epsilon": float,
        "scorer_table": Path, "ref_table": Path, "normalize": _bool, "grad_clip_norm": float, "seed": int,
        "snapshot_interval": int, "temperature": float, "top_p": float,
    },
    # cmd dynamics only: the two objectives it trains side by side
    "dynamics": {"objectives": lambda text: tuple(map(_objective, _names(text)))},
    # cmd converge only: the run on the one-state model [model] describes
    "converge": {
        "objective": _objective, "eta": float, "steps": int, "beta": float, "advantages": _floats, "z_old": _floats,
    },
    "output": {"directory": Path, "plot_columns": _columns},
}

# the sections each command reads, each with the keys of it that the command
# never reads: dynamics trains its [dynamics] objectives and plots nothing, and
# a convergence run starts at [converge] z_old, never at the model's theta
COMMANDS = {
    "train": {"environment": (), "model": (), "training": (), "output": ()},
    "dynamics": {
        "environment": (), "model": (), "training": ("objective",), "dynamics": (), "output": ("plot_columns",),
    },
    "converge": {"model": ("init_logits",), "converge": (), "output": ("plot_columns",)},
}
# the reward rule each [environment] reward names; its fields are the keys it reads
REWARDS = {"match": MatchReward, "table": TableReward}
FAMILIES = {Family.TABULAR: tabular_policy, Family.LINEAR: linear_policy, Family.MLP1: mlp1_policy}
# the constructor parameter a config key sets, where the two names differ
_PARAMETER = {"init_seed": "seed"}


@dataclass(frozen=True)
class RawConfig:
    path: Path
    sections: dict[str, dict[str, tuple[object, int]]]

    def line(self, section: str, key: str) -> int:
        return self.sections.get(section, {}).get(key, (None, 0))[1]

    def at(self, section: str, key: str) -> str:
        """``path:line`` of the key, where the config gives it; the bare path where not."""
        line = self.line(section, key)
        return f"{self.path}:{line}" if line else str(self.path)

    def value(self, section: str, key: str):
        """The key's value as its ``SECTIONS`` reader read it; None where it is absent."""
        return self.sections.get(section, {}).get(key, (None,))[0]

    def values(self, section: str) -> dict:
        """Every key the section sets, with its value."""
        return {key: value for key, (value, _) in self.sections.get(section, {}).items()}


def parse_config(path: str | Path, command: str | None = None) -> RawConfig:
    """The sections of the config at ``path``, each key with its value and line.

    Each value is read at its line by the key's ``SECTIONS`` reader, so a
    value given empty or that the reader rejects is an error at its line.
    Given the ``command`` that runs the config, a section or key of
    ``SECTIONS`` that ``COMMANDS`` says the command never reads is an
    error at its line, as an unknown one is.
    """
    path = Path(path)
    reads = COMMANDS[command] if command else dict.fromkeys(SECTIONS, ())
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sections: dict[str, dict[str, tuple[object, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in SECTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]; known: {', '.join(SECTIONS)}")
            if current not in reads:
                raise ConfigError(f"{path}:{lineno}: [{current}] is given but the {command} command does not read it")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, given = line.partition("=")
        key, given = key.strip().lower(), given.strip()
        if key not in SECTIONS[current]:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} in [{current}]; known: {', '.join(SECTIONS[current])}"
            )
        if key in reads[current]:
            raise ConfigError(
                f"{path}:{lineno}: [{current}] {key} is given but the {command} command does not read it"
            )
        if key in sections[current]:
            first = sections[current][key][1]
            raise ConfigError(f"{path}:{lineno}: [{current}] {key} is given twice; first at line {first}")
        if not given:
            raise ConfigError(f"{path}:{lineno}: [{current}] {key} is given empty")
        try:
            value = SECTIONS[current][key](given)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for [{current}] {key}: {given!r}") from exc
        sections[current][key] = (path.parent / value if isinstance(value, Path) else value, lineno)
    return RawConfig(path, sections)


def _construct(raw: RawConfig, section: str, constructor, given: dict, who: str, *args):
    """``constructor(*args, **given)``, with ``given`` checked against its signature first.

    A key with no parameter of ``constructor`` exits at its line; a
    parameter with no default that neither ``args`` nor ``given`` sets is a
    missing key.  A path value names a log-prob table, which is loaded
    here: the constructors take the table, and a table that cannot be read
    exits at its key's line.  A library error is labelled by ``_labelled``.
    """
    parameters = inspect.signature(constructor).parameters
    kwargs = {}
    for key, value in given.items():
        name = _PARAMETER.get(key, key)
        if name not in parameters:
            raise ConfigError(f"{raw.at(section, key)}: [{section}] {key} is given but {who} does not read it")
        if isinstance(value, Path):
            try:
                value = load_logprob_table(value)
            except (OSError, InvalidInputError) as exc:
                raise ConfigError(f"{raw.at(section, key)}: [{section}] {key}: {exc}") from exc
        kwargs[name] = value
    missing = [
        name
        for name, parameter in list(parameters.items())[len(args):]
        if parameter.default is parameter.empty and name not in kwargs
    ]
    if missing:
        raise ConfigError(f"{raw.path}: {who} needs [{section}] {', '.join(missing)}")
    with _labelled(raw, section):
        return constructor(*args, **kwargs)


@contextmanager
def _labelled(raw: RawConfig, *sections: str):
    """Re-raise an ``InvalidInputError`` of the library as a ConfigError of the config's ``sections``.

    A library error opens with the parameter it rejects, where it rejects
    one ("seed must be >= 0, ..."), so the error is put at the line of the
    key for that parameter, in the first of ``sections`` that sets one, and
    labelled with that section, or else with the first.
    """
    try:
        yield
    except InvalidInputError as exc:
        keyed = (
            (section, key)
            for section in sections
            for key in raw.sections.get(section, {})
            if str(exc).startswith(f"{_PARAMETER.get(key, key)} ")
        )
        section, key = next(keyed, (sections[0], None))
        raise ConfigError(f"{raw.at(section, key)}: [{section}] invalid: {exc}") from exc


def build_environment(raw: RawConfig) -> ToyEnvironment:
    given = raw.values("environment")
    rule = given.pop("reward", "match")
    if rule not in REWARDS:
        raise ConfigError(f"{raw.at('environment', 'reward')}: reward must be match or table")
    fields = {key: given.pop(key) for key in ("target", "table") if key in given}
    reward = _construct(raw, "environment", REWARDS[rule], fields, f"the {rule} reward")
    return _construct(raw, "environment", ToyEnvironment, {**given, "reward": reward}, "the environment")


def _policy(raw: RawConfig, n_states: int, vocab_size: int) -> PolicyModel:
    """The model ``[model]`` describes, over ``n_states`` states and ``vocab_size`` actions; TABULAR by default."""
    given = raw.values("model")
    family = given.pop("family", Family.TABULAR)
    return _construct(raw, "model", FAMILIES[family], given, f"the {family.value} family", n_states, vocab_size)


def build_model(raw: RawConfig, env: ToyEnvironment) -> PolicyModel:
    return _policy(raw, env.n_states, env.vocab_size)


def build_trainer(raw: RawConfig, objective: ObjectiveKind | None = None) -> TrainerConfig:
    given = raw.values("training")
    if objective is not None:
        given["objective"] = objective
    return _construct(raw, "training", TrainerConfig, given, "the trainer")


def train(raw: RawConfig, objective: ObjectiveKind | None = None) -> tuple[PolicyModel, list[DynamicsRecord]]:
    """The final model and the records of the training run the config describes.

    Builds the environment, the model and the trainer (``objective`` in
    place of the config's own, as ``build_trainer`` takes it) and runs them
    with ``run_training``.
    """
    env = build_environment(raw)
    model, config = build_model(raw, env), build_trainer(raw, objective)
    with _labelled(raw, "training"):
        return run_training(model, env, config)


def dynamics_objectives(raw: RawConfig) -> tuple[ObjectiveKind, ObjectiveKind]:
    kinds = raw.value("dynamics", "objectives")
    if kinds is None:
        raise ConfigError(f"{raw.path}: missing [dynamics] objectives")
    if len(kinds) != 2 or kinds[0] == kinds[1]:
        raise ConfigError(f"{raw.at('dynamics', 'objectives')}: need exactly two objectives that differ")
    return kinds


def build_converge(raw: RawConfig) -> tuple[PolicyModel, ConvergeConfig]:
    """The single-state model and the config of the convergence run the config describes.

    ``[converge]`` configures the run, and ``[model]`` builds its model as
    ``build_model`` builds it, over one state and ``len(advantages)`` actions.
    """
    config = _construct(raw, "converge", ConvergeConfig, raw.values("converge"), "the convergence run")
    return _policy(raw, 1, config.advantages.size), config


def converge(raw: RawConfig) -> ConvergeResult:
    """The convergence run the config describes, as ``converge_experiment`` runs it.

    Its cross-key checks (the target's range, the envelope anchor) are
    labelled as the constructors' checks are; a divergent step size still
    raises ``StepSizeError``.
    """
    model, config = build_converge(raw)
    with _labelled(raw, "converge", "model"):
        return converge_experiment(model, config)


def output_directory(raw: RawConfig, override: str | None) -> Path:
    """``--out`` where it is given, else ``[output] directory``; ``--out`` given empty is an error."""
    if override == "":
        raise ConfigError("--out is given empty")
    directory = raw.value("output", "directory") if override is None else Path(override)
    if directory is None:
        raise ConfigError(f"{raw.path}: no output directory (pass --out or set [output] directory)")
    return directory
