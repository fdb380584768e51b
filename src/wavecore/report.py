"""Deterministic report emission: canonical JSON, CSV, and plain-text tables.

JSON output is byte-stable for identical inputs: dict key order is the
construction order and every float is rounded to nine significant digits
before encoding. NaN and infinities raise ValueError rather than being written
as the non-standard ``NaN``/``Infinity`` tokens.
"""

from __future__ import annotations

import io
import json
from typing import Any, Iterable, Sequence


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(_round_floats(obj), indent=2, allow_nan=False) + "\n"


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
