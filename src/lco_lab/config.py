"""Flat key = value experiment configs with bracketed section headers.

No nesting, no quoting: a line is blank, a comment (#), a [section]
header, or ``key = value``.  Paths are resolved relative to the config
file.  The sections and the keys each may hold are ``SECTIONS``; an
unknown section or key is an error, so a typo cannot fall back to a
default.  Parse failures carry the offending line number so the CLI can
exit with a usable diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .envs import MatchReward, TableReward, ToyEnvironment
from .errors import LcoLabError
from .objectives import ObjectiveKind
from .policy import Family, PolicyModel, linear_policy, mlp1_policy, tabular_policy
from .targets import EstimatorKind, load_logprob_table
from .training import ConvergeConfig, DynamicsRecord, TrainerConfig, run_training


class ConfigError(LcoLabError, ValueError):
    """Config file cannot be parsed or is missing required fields."""


# every section a config may hold, with the keys it may hold
SECTIONS = {
    "environment": ("vocab_size", "horizon", "reward", "target", "table"),  # reward = match|table
    "model": ("family", "feature_dim", "hidden", "init_seed", "init_logits"),
    "training": (
        "objective", "learning_rate", "steps", "beta", "clip_epsilon", "estimator", "scorer_table",
        "ref_table", "normalize", "grad_clip_norm", "seed", "snapshot_interval", "temperature", "top_p",
    ),
    "dynamics": ("objectives",),  # objectives = KIND_A, KIND_B (cmd dynamics only)
    "converge": (  # cmd converge only
        "family", "objective", "vocab_size", "eta", "steps", "beta", "advantages", "feature_dim", "seed", "z_old",
    ),
    "output": ("directory", "plot_columns"),
}


@dataclass(frozen=True)
class RawConfig:
    path: Path
    sections: dict[str, dict[str, tuple[str, int]]]

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        entry = self.sections.get(section, {}).get(key)
        return entry[0] if entry is not None else default

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"{self.path}: missing [{section}] {key}")
        return value

    def line(self, section: str, key: str) -> int:
        return self.sections.get(section, {}).get(key, ("", 0))[1]


def parse_config(path: str | Path) -> RawConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in SECTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]; known: {', '.join(SECTIONS)}")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in SECTIONS[current]:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} in [{current}]; known: {', '.join(SECTIONS[current])}"
            )
        sections[current][key] = (value.strip(), lineno)
    return RawConfig(path, sections)


def _typed(raw: RawConfig, section: str, key: str, caster, default=None):
    text = raw.get(section, key)
    if text is None or text == "":
        return default
    try:
        return caster(text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(
            f"{raw.path}:{raw.line(section, key)}: bad value for [{section}] {key}: {text!r}"
        ) from exc


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _floats(text: str) -> np.ndarray:
    return np.asarray([float(tok) for tok in text.replace(",", " ").split()], dtype=np.float64)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _resolve(raw: RawConfig, text: str) -> Path:
    candidate = Path(text)
    return candidate if candidate.is_absolute() else raw.path.parent / candidate


def build_environment(raw: RawConfig) -> ToyEnvironment:
    vocab = _typed(raw, "environment", "vocab_size", int)
    horizon = _typed(raw, "environment", "horizon", int)
    if vocab is None or horizon is None:
        raise ConfigError(f"{raw.path}: [environment] needs vocab_size and horizon")
    rule = (raw.get("environment", "reward") or "match").lower()
    if rule == "match":
        target = _typed(raw, "environment", "target", _ints)
        if target is None:
            raise ConfigError(f"{raw.path}: reward = match needs [environment] target")
        reward = MatchReward(target)
    elif rule == "table":
        table_path = raw.require("environment", "table")
        reward = TableReward(load_logprob_table(_resolve(raw, table_path)))
    else:
        raise ConfigError(
            f"{raw.path}:{raw.line('environment', 'reward')}: reward must be match or table"
        )
    try:
        return ToyEnvironment(vocab, horizon, reward)
    except LcoLabError as exc:
        raise ConfigError(f"{raw.path}: [environment] invalid: {exc}") from exc


def build_model(raw: RawConfig, env: ToyEnvironment) -> PolicyModel:
    family = _typed(raw, "model", "family", lambda s: Family[s.strip().upper()], Family.TABULAR)
    feature_dim = _typed(raw, "model", "feature_dim", int, 4)
    hidden = _typed(raw, "model", "hidden", int, 16)
    init_seed = _typed(raw, "model", "init_seed", int, 0)
    init_logits = _typed(raw, "model", "init_logits", _floats, None)
    try:
        if family is Family.TABULAR:
            return tabular_policy(env.n_states, env.vocab_size, init_logits=init_logits)
        if family is Family.LINEAR:
            return linear_policy(env.n_states, env.vocab_size, feature_dim, seed=init_seed)
        return mlp1_policy(env.n_states, env.vocab_size, feature_dim, hidden=hidden, seed=init_seed)
    except LcoLabError as exc:
        raise ConfigError(f"{raw.path}: [model] invalid: {exc}") from exc


def build_trainer(raw: RawConfig, objective: ObjectiveKind | None = None) -> TrainerConfig:
    kind = objective or _typed(
        raw, "training", "objective", lambda s: ObjectiveKind[s.strip().upper()]
    )
    if kind is None:
        raise ConfigError(f"{raw.path}: [training] needs objective")
    estimator = _typed(
        raw,
        "training",
        "estimator",
        lambda s: EstimatorKind[s.strip().upper()],
        EstimatorKind.SPARSE_SAMPLED,
    )
    scorer = raw.get("training", "scorer_table")
    ref = raw.get("training", "ref_table")
    try:
        return TrainerConfig(
            objective=kind,
            learning_rate=_typed(raw, "training", "learning_rate", float, 0.1),
            steps=_typed(raw, "training", "steps", int, 100),
            beta=_typed(raw, "training", "beta", float, 1.0),
            clip_epsilon=_typed(raw, "training", "clip_epsilon", float, 0.2),
            estimator=estimator,
            normalize=_typed(raw, "training", "normalize", _bool, False),
            grad_clip_norm=_typed(raw, "training", "grad_clip_norm", float, None),
            seed=_typed(raw, "training", "seed", int, 0),
            snapshot_interval=_typed(raw, "training", "snapshot_interval", int, 1),
            temperature=_typed(raw, "training", "temperature", float, 1.0),
            top_p=_typed(raw, "training", "top_p", float, 1.0),
            scorer_table=load_logprob_table(_resolve(raw, scorer)) if scorer else None,
            ref_table=load_logprob_table(_resolve(raw, ref)) if ref else None,
        )
    except LcoLabError as exc:
        raise ConfigError(f"{raw.path}: [training] invalid: {exc}") from exc


def train(raw: RawConfig, objective: ObjectiveKind | None = None) -> tuple[PolicyModel, list[DynamicsRecord]]:
    """The final model and the records of the training run the config describes.

    Builds the environment, the model and the trainer (``objective`` in
    place of the config's own, as ``build_trainer`` takes it) and runs them
    with ``run_training``.
    """
    env = build_environment(raw)
    return run_training(build_model(raw, env), env, build_trainer(raw, objective))


def dynamics_objectives(raw: RawConfig) -> tuple[ObjectiveKind, ObjectiveKind]:
    text = raw.require("dynamics", "objectives")
    names = [tok.strip().upper() for tok in text.split(",") if tok.strip()]
    if len(names) != 2:
        raise ConfigError(
            f"{raw.path}:{raw.line('dynamics', 'objectives')}: need exactly two objectives"
        )
    try:
        return ObjectiveKind[names[0]], ObjectiveKind[names[1]]
    except KeyError as exc:
        raise ConfigError(
            f"{raw.path}:{raw.line('dynamics', 'objectives')}: unknown objective {exc}"
        ) from exc


def build_converge(raw: RawConfig) -> tuple[Family, ObjectiveKind, ConvergeConfig]:
    family = _typed(raw, "converge", "family", lambda s: Family[s.strip().upper()])
    objective = _typed(raw, "converge", "objective", lambda s: ObjectiveKind[s.strip().upper()])
    vocab = _typed(raw, "converge", "vocab_size", int)
    advantages = _typed(raw, "converge", "advantages", _floats)
    eta = _typed(raw, "converge", "eta", float)
    if family is None or objective is None or vocab is None or advantages is None or eta is None:
        raise ConfigError(
            f"{raw.path}: [converge] needs family, objective, vocab_size, advantages, eta"
        )
    try:
        config = ConvergeConfig(
            vocab_size=vocab,
            advantages=advantages,
            eta=eta,
            steps=_typed(raw, "converge", "steps", int, 500),
            beta=_typed(raw, "converge", "beta", float, 1.0),
            feature_dim=_typed(raw, "converge", "feature_dim", int, 4),
            seed=_typed(raw, "converge", "seed", int, 0),
            z_old=_typed(raw, "converge", "z_old", _floats, None),
        )
    except LcoLabError as exc:
        raise ConfigError(f"{raw.path}: [converge] invalid: {exc}") from exc
    return family, objective, config


def output_directory(raw: RawConfig, override: str | None) -> Path:
    if override:
        return Path(override)
    configured = raw.get("output", "directory")
    if configured:
        return _resolve(raw, configured)
    raise ConfigError(f"{raw.path}: no output directory (pass --out or set [output] directory)")


def plot_columns(raw: RawConfig) -> tuple[str, ...]:
    text = raw.get("output", "plot_columns", "")
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())
