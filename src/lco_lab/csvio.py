"""Dynamics CSV persistence with a frozen schema.

Header order is part of the file contract; floats are serialized with 17
significant digits so files round-trip bit-exactly and identical runs
produce byte-identical output.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import InvalidInputError, NonFiniteOutputError

DYNAMICS_HEADER = (
    "step",
    "loss",
    "grad_norm_param",
    "grad_sampled_logit",
    "grad_nonsampled_logit",
    "entropy",
    "sampled_prob",
    "adv_bucket",
    "bound",
)
# the one column written as text, the advantage sign bucket; the rest are numbers
TEXT_COLUMNS = ("adv_bucket",)
NUMERIC_COLUMNS = tuple(name for name in DYNAMICS_HEADER if name not in TEXT_COLUMNS)


def format_float(value: float) -> str:
    """``value`` in 17 significant digits, the form of every number a command writes.

    A value that is not finite is what an overflow left in a run, and no
    output holds one: it raises ``NonFiniteOutputError``.
    """
    if not math.isfinite(value):
        raise NonFiniteOutputError(f"{value} cannot be written: a run overflowed, and outputs hold finite numbers")
    return f"{value:.17g}"


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else format_float(value)


def dynamics_rows(records) -> list[str]:
    # a DynamicsRecord's fields come in DYNAMICS_HEADER's column order
    return [",".join(DYNAMICS_HEADER)] + [",".join(map(_cell, vars(r).values())) for r in records]


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and raw string rows of a comma-separated UTF-8 file."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_csv(lines, path)


def parse_csv(lines: list[str], path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and raw string rows of the comma-separated ``lines`` of ``path``."""
    if not lines:
        raise InvalidInputError(f"{path}: empty file")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:] if line]


def numeric_column(header: list[str], rows: list[list[str]], name: str, path: str | Path) -> list[float]:
    """The named column of ``path``'s rows as floats; an empty or missing cell reads as NaN."""
    if name not in header:
        raise InvalidInputError(f"{path}: missing column {name!r}")
    idx = header.index(name)
    out = []
    for number, row in enumerate(rows, start=1):
        cell = row[idx] if idx < len(row) else ""
        try:
            out.append(float(cell) if cell else float("nan"))
        except ValueError:
            raise InvalidInputError(f"{path}: data row {number}, column {name!r}: {cell!r} is not a number") from None
    return out
