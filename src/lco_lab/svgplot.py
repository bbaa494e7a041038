"""Deterministic SVG line charts for run CSVs.

Fixed 800x500 canvas, linear axes auto-ranged to the data with 5% margins,
legend from series names (escaped, as is the x label, so a CSV header
makes well-formed XML or, holding a character XML cannot hold, raises).
Output is a pure function of the input series, so identical data yields
byte-identical files.  Points with a non-finite coordinate are left
out, and data spanning more than the float range (say -1e308 to 1e308)
is ranged and scaled through halved values, so every number written is
finite.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

from .errors import InvalidInputError

WIDTH, HEIGHT = 800, 500
PLOT = (70.0, 20.0, 770.0, 450.0)  # left, top, right, bottom
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
FLOAT_MAX = sys.float_info.max
# a character outside XML 1.0's Char production, which no escape can write
NOT_XML_CHAR = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _axis_range(values: list[float]) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        # past 2**52 a half is below the spacing of floats, so step by one spacing
        pad = max(0.5, math.ulp(lo))
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    margin = 0.05 * span if math.isfinite(span) else 0.1 * (hi / 2 - lo / 2)
    return max(lo - margin, -FLOAT_MAX), min(hi + margin, FLOAT_MAX)


def _fraction(value: float, lo: float, hi: float) -> float:
    """(value - lo) / (hi - lo), through halves where the span overflows."""
    span = hi - lo
    if math.isfinite(span):
        return (value - lo) / span
    return (value / 2 - lo / 2) / (hi / 2 - lo / 2)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _escape(text: str) -> str:
    """``text`` as XML character data, as ``xml.sax.saxutils.escape`` makes
    it; importing that module would load ``urllib.request`` with the package.

    A C0 control character other than tab, newline and carriage return (or
    U+FFFE, U+FFFF, a lone surrogate) is not allowed in XML 1.0 even as a
    character reference, so a label holding one raises ``InvalidInputError``.
    """
    bad = NOT_XML_CHAR.search(text)
    if bad:
        raise InvalidInputError(f"label {text!r} holds {bad.group()!r}, which XML cannot hold")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_chart(series: dict[str, tuple[list[float], list[float]]], x_label: str = "x") -> str:
    """SVG text for named (x, y) series; axes alone when there is no data."""
    left, top, right, bottom = PLOT
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys if math.isfinite(y)]
    x_lo, x_hi = _axis_range(all_x)
    y_lo, y_hi = _axis_range(all_y)

    def sx(x: float) -> float:
        return left + _fraction(x, x_lo, x_hi) * (right - left)

    def sy(y: float) -> float:
        return bottom - _fraction(y, y_lo, y_hi) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{left:.2f}" y="{bottom + 28:.2f}" font-size="12">{_fmt(x_lo)}</text>',
        f'<text x="{right - 40:.2f}" y="{bottom + 28:.2f}" font-size="12">{_fmt(x_hi)}</text>',
        f'<text x="{left - 62:.2f}" y="{bottom:.2f}" font-size="12">{_fmt(y_lo)}</text>',
        f'<text x="{left - 62:.2f}" y="{top + 10:.2f}" font-size="12">{_fmt(y_hi)}</text>',
        f'<text x="{(left + right) / 2:.2f}" y="{bottom + 28:.2f}" font-size="12">{_escape(x_label)}</text>',
    ]

    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)
        )
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
            )
        legend_y = top + 16 + 16 * i
        parts.append(
            f'<rect x="{right - 170:.2f}" y="{legend_y - 9:.2f}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{right - 155:.2f}" y="{legend_y:.2f}" font-size="12">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path: str | Path, series, x_label: str = "x") -> None:
    Path(path).write_text(render_chart(series, x_label))
