"""Deterministic report emission: canonical JSON, CSV, and plain-text tables.

JSON output is byte-stable for identical inputs: dict key order is the
construction order and every float is rounded to nine significant digits as it
is written. NaN and infinities raise ValueError rather than being written as
the non-standard ``NaN``/``Infinity`` tokens.
"""

from __future__ import annotations

import io
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Sequence


def canonical_json(obj: Any) -> str:
    """``obj`` as JSON text with a two-space indent and a final newline.

    One walk over ``obj`` rounds each float to nine significant digits and
    writes the text. The result, errors included, is that of ``json.dumps``
    with ``indent=2`` and ``allow_nan=False`` on a copy of ``obj`` whose
    floats are rounded, plus a newline: strings are ASCII-escaped, tuples are
    lists, and NaN and infinities raise ValueError. Dict keys must be ``str``;
    any other key raises TypeError, where ``json.dumps`` would convert it.
    """
    parts: list[str] = []
    _emit(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _emit(obj: Any, newline: str, write: Callable[[str], Any]) -> None:
    """Write ``obj`` as JSON; ``newline`` is a newline and the indent of its line."""
    if isinstance(obj, float):
        write(_float_text(float(f"{obj:.9g}")))
    elif isinstance(obj, str):
        write(_quote(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            write(sep)
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            write(_quote(key))
            write(": ")
            _emit(value, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            write(sep)
            _emit(value, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    return float.__repr__(value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(f"{cell:.9g}")
            else:
                cells.append(str(cell))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def render_table(header: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    cells = [[str(h) for h in header]]
    for row in rows:
        cells.append([f"{c:.6g}" if isinstance(c, float) else str(c) for c in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
