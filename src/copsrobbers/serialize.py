"""Deterministic JSON and CSV emission.

Output identity is part of the contract: the same run configuration must
produce byte-identical text regardless of thread count or platform. Keys are
sorted, floats are printed with exactly six decimals, and no volatile fields
(timestamps, wall-clock) are ever written by these helpers. A fraction too
large for a float is a ValueError, not a rounded or infinite figure.
"""

from __future__ import annotations

import json
from fractions import Fraction

FLOAT_DECIMALS = 6


def _atom(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        try:
            return f"{float(value):.{FLOAT_DECIMALS}f}"
        except OverflowError:
            raise ValueError(f"a fraction beyond a float's range has no {FLOAT_DECIMALS}-decimal form") from None
    if isinstance(value, float):
        return f"{value:.{FLOAT_DECIMALS}f}"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def stable_json(obj, indent: int | None = None) -> str:
    """Render obj as deterministic JSON text (sorted keys, fixed decimals)."""

    def render(value, depth):
        if isinstance(value, dict):
            items = sorted(value.items())
            if not items:
                return "{}"
            parts = [f"{json.dumps(str(k))}: {render(v, depth + 1)}" for k, v in items]
            return _wrap(parts, "{", "}", depth)
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            parts = [render(v, depth + 1) for v in value]
            return _wrap(parts, "[", "]", depth)
        return _atom(value)

    def _wrap(parts, open_ch, close_ch, depth):
        if indent is None:
            return open_ch + ", ".join(parts) + close_ch
        pad = " " * (indent * (depth + 1))
        closing = " " * (indent * depth)
        body = (",\n" + pad).join(parts)
        return f"{open_ch}\n{pad}{body}\n{closing}{close_ch}"

    return render(obj, 0)


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{FLOAT_DECIMALS}f}"
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_lines(header: list[str], rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(csv_cell(c) for c in row))
    return "\n".join(out) + "\n"
