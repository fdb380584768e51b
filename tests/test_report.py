import collections
import enum
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecore.report import canonical_json, render_csv, render_table


def _reference_round(obj):
    """The reference rounding: every float to nine significant digits, tuples to lists."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _reference_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_round(v) for v in obj]
    return obj


def reference_json(obj):
    return json.dumps(_reference_round(obj), indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e16, 1e-7, 1.0 / 3.0, 123456789.5, 1e300]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
INTS = st.integers() | st.sampled_from([2 ** 64, -(2 ** 63) - 1, 10 ** 30])
TEXT = st.text(max_size=8) | st.sampled_from(["", "\x00\x1f\x7f", "\"\\/", "\u2028 \U0001f600"])
LEAVES = st.none() | st.booleans() | INTS | FLOATS | TEXT
TREES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=24,
)


@given(TREES)
@settings(max_examples=300, deadline=None)
def test_matches_the_rounded_json_dumps_reference(doc):
    assert canonical_json(doc) == reference_json(doc)


class Level(enum.IntEnum):
    HIGH = 2


@pytest.mark.parametrize(
    "doc",
    [
        collections.OrderedDict(b=(1, [2.0]), a={}),
        {"level": Level.HIGH, "x": np.float64(1.0 / 3.0)},
        {"x": [1.0, math.nan]},
        {"x": [-math.inf]},
        {"x": [{1, 2}]},
        {"x": object()},
        [10 ** 5000],
    ],
    ids=["subclasses", "int_and_float_subclasses", "nan_value", "neg_inf_value", "set_value", "object_value",
         "too_long_int"],
)
def test_odd_inputs_and_errors_match_the_reference(doc):
    try:
        want = reference_json(doc)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            canonical_json(doc)
    else:
        assert canonical_json(doc) == want


@pytest.mark.parametrize(
    "doc",
    [
        {7: "a", 2.5: [1e-7], True: None, False: 0, None: 1, Level.HIGH: -0.0},
        {0.1234567891234: 0.1234567891234},
        {"x": {math.inf: 1}},
        {(1, 2): 3},
    ],
    ids=["odd_keys", "key_not_rounded", "inf_key", "tuple_key"],
)
def test_non_string_keys_raise_type_error(doc):
    # each top-level non-string key alone, then the whole document
    for part in [*({key: value} for key, value in doc.items() if not isinstance(key, str)), doc]:
        with pytest.raises(TypeError, match="^keys must be str, not "):
            canonical_json(part)


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
