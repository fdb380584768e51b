import json
import math

import pytest

from wavecore.report import canonical_json, render_csv, render_table


def test_floats_rounded_to_nine_significant_digits():
    out = canonical_json({"x": 1.0 / 3.0, "y": [2.0 ** 0.5]})
    doc = json.loads(out)
    assert doc["x"] == 0.333333333
    assert doc["y"][0] == 1.41421356


def test_key_order_preserved():
    out = canonical_json({"b": 1, "a": 2})
    assert out.index('"b"') < out.index('"a"')


def test_repeated_dumps_byte_identical():
    payload = {"terms": [{"label": "fanout", "db": 24.082399653118497}], "total": 32.697399653118495}
    assert canonical_json(payload) == canonical_json(payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_rejected(value):
    with pytest.raises(ValueError):
        canonical_json({"x": [1.0, value]})


def test_csv_formatting():
    out = render_csv(("a", "b"), [("x", 1.5), ("y", 2.0)])
    assert out.splitlines() == ["a,b", "x,1.5", "y,2"]


def test_table_alignment():
    out = render_table(("name", "value"), [("long-name", 1.0)], title="t")
    lines = out.splitlines()
    assert lines[0] == "t"
    assert "long-name" in lines[3]
