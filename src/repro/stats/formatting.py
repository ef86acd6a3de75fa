"""One stable number formatter for every rendered report surface.

Markdown fleet reports, figure CSVs and the HTML campaign report all
used to format numbers with ad-hoc f-strings
(``:.3f`` here, ``:.4g`` there).  ``%g``-style formats switch to
scientific notation for tiny magnitudes — a sweep whose geomean stdev
is ``3e-07`` rendered as ``3e-07`` in one table and ``0.000`` in the
next — and every new surface invented its own precision.  Rendered
reports are diffed byte-for-byte by the determinism gates, so *one*
formatter owns the rules:

* fixed-point decimal, **never** scientific notation;
* a bounded number of significant decimals, trailing zeros trimmed;
* integers (and integral floats) render without a decimal point;
* ``None``/NaN/inf render as explicit placeholders instead of
  propagating junk into a table.

Python 3 float repr is already platform-independent (shortest repr of
the IEEE-754 double), so routing every surface through this module
makes the rendered bytes a function of the data alone.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence

#: Placeholder for absent values in rendered tables.
MISSING = "—"


def format_number(
    value: Any,
    decimals: int = 6,
    thousands: bool = False,
) -> str:
    """Render one number in stable fixed-point decimal.

    ``decimals`` bounds the digits kept after the point (trailing
    zeros are trimmed, so ``1.5`` stays ``1.5``, not ``1.500000``).
    ``thousands`` adds ``,`` group separators to the integer part —
    cycle counts read better with them, ratios without.
    """
    if value is None:
        return MISSING
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return f"{value:,d}" if thousands else str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == int(value) and abs(value) < 1e15:
            return format_number(int(value), thousands=thousands)
        text = f"{value:,.{decimals}f}" if thousands else f"{value:.{decimals}f}"
        text = text.rstrip("0").rstrip(".")
        # Everything below the kept precision collapses to plain zero,
        # never "-0" or "0." fragments.
        if text in ("", "-", "-0"):
            return "0"
        return text
    return str(value)


def format_ratio(value: Optional[float], decimals: int = 3) -> str:
    """Speedups / fractions: fixed 3-decimal default, still exponent-free."""
    return format_number(value, decimals=decimals)


def format_count(value: Optional[float]) -> str:
    """Cycle/event counts: integer rendering with thousands separators."""
    if value is None:
        return MISSING
    if isinstance(value, float):
        value = int(round(value))
    return format_number(value, thousands=True)


def text_table(
    title: str, columns: Sequence[str], rows: Sequence[Mapping[str, Any]]
) -> str:
    """An aligned plain-text table: title, underline, header, one line
    per row.  Text aligns left; numbers align right, floats at 3 fixed
    decimals so their points line up."""

    def cell(value: Any) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, float) and math.isfinite(value):
            return f"{value:.3f}"
        return format_number(value)

    cells = [[cell(row.get(column)) for column in columns] for row in rows]
    right = [
        not any(isinstance(row.get(column), str) for row in rows)
        for column in columns
    ]
    widths = [
        max([len(column)] + [len(line[index]) for line in cells])
        for index, column in enumerate(columns)
    ]

    def line(values: Sequence[str]) -> str:
        return "  ".join(
            value.rjust(width) if numeric else value.ljust(width)
            for value, width, numeric in zip(values, widths, right)
        ).rstrip()

    lines = [title, "=" * len(title), line(columns)]
    lines.extend(line(values) for values in cells)
    if not rows:
        lines.append("(no data)")
    return "\n".join(lines)
