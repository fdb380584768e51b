"""Boundary fuzz: drawn catalog fields, workload entries, variant parameters,
core sizes, clocks, ``simulate`` options and raw input file bytes through the
CLI, in process.

Every draw must end in exit 0, 1 or 2 without a traceback; JSON stdout must
parse without NaN or Infinity; an exit 1 must name what it rejects (option
text that is not a number at all is rejected naming the option); and an exit
2 must report an infeasible design point.
The examples are derandomized, so every run checks the same ones; for a
longer search, raise ``max_examples`` and drop ``derandomize``.
"""

import dataclasses
import json
import math
import re

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from wavecore.catalog import default_catalog_path
from wavecore.cli import main
from wavecore.linkbudget import VARIANTS

SHIPPED = json.loads(default_catalog_path().read_text())
CATALOG_FIELDS = [(name, key) for name, entry in SHIPPED.items() if isinstance(entry, dict) for key in entry]
WORKLOAD_FIELDS = ("c_in", "c_out", "kernel", "h_out", "w_out", "stride")
VARIANT_PARAMS = [(label, field.name) for label, cls in VARIANTS.items() for field in dataclasses.fields(cls)]
FORMATS = ("json", "table")

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

wrong_types = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 9), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), min_size=1, max_size=2),
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])   # written as NaN / Infinity literals
negatives = st.one_of(st.integers(-10**6, -1), st.floats(-1e6, -1e-6))
huge_integers = st.one_of(
    st.integers(10**15, 10**400),                                 # up to far beyond the float range
    st.integers(-10**400, -10**15),
)
large_floats = st.one_of(st.floats(1e15, 1.7e308), st.floats(-1.7e308, -1e15))
empty = st.sampled_from([[], {}, ""])
ordinary = st.one_of(st.integers(0, 300), st.floats(0.0, 100.0))
values = st.one_of(wrong_types, non_finite, negatives, huge_integers, large_floats, empty, ordinary)

# Every exit 1 is one "Error: <field>: ..." line; these are the fields a
# drawn input can be rejected under, and the options whose text click rejects.
ERROR_LINE = re.compile(
    r"^Error: (catalog|workload|variant|power|perf|link_budget|core|freq|noise|samples|--[a-z-]+): ", re.M
)

# option text: drawn values as the CLI sees them, and a few hand-picked forms
option_text = st.one_of(values.map(str), st.sampled_from(["", " ", "nan", "-inf", "1e400", "0x10", "1_0", " 3 "]))
junk = st.sampled_from(["", " ", "abc", "0x10", "1_0", "None", "[1]", "1.5"])    # click rejects most
# numbers as text, now and then text that is not a number
float_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e400", "-1e400", "1e-320"]), junk,
)
integer_text = st.one_of(st.integers(-10**6, 10**6).map(str), huge_integers.map(str), junk)
core_text = st.one_of(
    st.builds("{}x{}".format, st.one_of(st.integers(0, 600), option_text), st.one_of(st.integers(0, 600), option_text)),
    option_text,
    st.sampled_from(["9x8", "9X8", "x8", "9x", "9x8x2", " 9x8 ", "-9x8", "9x-8", "1e3x8"]),
)
# sample counts 0-64, negatives, non-integers and one count that numpy refuses
# before it allocates: never a count large enough to fill memory
sample_text = st.one_of(
    st.integers(0, 64).map(str),
    st.integers(-10**6, -1).map(str),
    st.one_of(st.floats(-64.0, 64.0).map(repr), st.sampled_from(["", "abc", "1e3", "nan"])),
    st.just("1" + "0" * 30),
)


def invoke(argv, fmt):
    result = CliRunner().invoke(main, [*argv, "--format", fmt])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    if fmt == "json" and result.exit_code != 1:
        doc = json.loads(result.stdout, parse_constant=lambda token: pytest.fail(f"{token} in JSON output"))
    if result.exit_code == 2:                   # only an infeasible design point
        infeasible = doc.get("feasible") is False if fmt == "json" else "INFEASIBLE: " in result.stdout
        assert infeasible, result.output
    if result.exit_code == 1:
        match = ERROR_LINE.search(result.output)
        assert match, result.output
        return match.group(1), result.output
    return None, result.output


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data(), fmt=st.sampled_from(FORMATS), electrical=st.booleans())
def test_catalog_fields(workdir, data, fmt, electrical):
    doc = json.loads(json.dumps(SHIPPED))
    drawn = data.draw(st.lists(st.sampled_from(CATALOG_FIELDS), min_size=1, max_size=3, unique=True))
    for name, key in drawn:
        if key == "area_um":
            value = data.draw(st.one_of(values, st.lists(values, min_size=2, max_size=2)))
        elif key == "energy_per_switch_fj":
            value = data.draw(st.one_of(values, st.dictionaries(st.sampled_from(["4", "6", "x"]), values, max_size=2)))
        else:
            value = data.draw(values)
        doc[name][key] = value
    path = workdir / "catalog.json"
    path.write_text(json.dumps(doc))
    argv = ["evaluate", "--catalog", str(path), "--workload", "resnet50", "--allow-overclock"]
    if electrical:
        argv += ["--wpe-mode", "electrical"]
    field, output = invoke(argv, fmt)
    if field == "catalog":
        assert any(f"{name}.{key}" in output for name, key in drawn), output


@FUZZ
@given(
    entries=st.lists(
        st.fixed_dictionaries(
            {"name": st.sampled_from(["conv_a", "conv_b"])},
            optional={
                **{key: st.one_of(values, st.integers(1, 64)) for key in WORKLOAD_FIELDS},
                "kind": st.one_of(st.sampled_from(["conv", "other"]), values),
                "bogus": values,
            },
        ),
        max_size=3,
    ),
    fmt=st.sampled_from(FORMATS),
)
def test_workload_entries(workdir, entries, fmt):
    path = workdir / "workload.json"
    path.write_text(json.dumps(entries))
    field, output = invoke(["evaluate", "--core", "18x16", "--workload", str(path)], fmt)
    if field == "workload" and entries:
        assert "workload entry" in output, output
        # a field at fault is named; two valid entries of one name are the one name error
        assert "name repeats entry" in output or any(
            key in output for entry in entries for key in entry if key != "name"
        ), output


@FUZZ
@given(
    data=st.data(),
    command=st.sampled_from(["linkbudget", "evaluate"]),
    fmt=st.sampled_from(FORMATS),
)
def test_variant_parameters(data, command, fmt):
    label, param = data.draw(st.sampled_from(VARIANT_PARAMS))
    value = data.draw(st.one_of(values.map(str), st.sampled_from(["", "1e400", "0x10", " 3 "])))
    key = data.draw(st.sampled_from([param, param.removesuffix("_db")]))
    field, output = invoke([command, "--variant", f"{label}:{key}={value}"], fmt)
    if field == "variant":
        assert key in output, output


@FUZZ
@given(
    content=st.one_of(st.binary(max_size=40), values.map(lambda v: json.dumps(v).encode())),
    option=st.sampled_from(["--catalog", "--workload"]),
    fmt=st.sampled_from(FORMATS),
)
def test_file_bytes(workdir, content, option, fmt):
    path = workdir / "input.json"
    path.write_bytes(content)
    field, _ = invoke(["evaluate", option, str(path)], fmt)
    assert field in (None, option.removeprefix("--"))


@FUZZ
@given(core=core_text, command=st.sampled_from(["linkbudget", "evaluate", "ablate", "simulate"]),
       fmt=st.sampled_from(FORMATS))
def test_core(core, command, fmt):
    argv = [command, "--core", core] + (["--samples", "2"] if command == "simulate" else [])
    field, output = invoke(argv, fmt)
    if field == "core":
        assert repr(core) in output, output


@FUZZ
@given(freq=float_text, command=st.sampled_from(["linkbudget", "evaluate", "ablate"]), fmt=st.sampled_from(FORMATS))
def test_freq(freq, command, fmt):
    field, output = invoke([command, "--core", "18x16", "--freq", freq], fmt)
    if field == "freq":
        assert "clock" in output, output


# each draw gives one simulate option a wild value and the rest ordinary ones
SIMULATE_WILD = {"--sigma-in": float_text, "--sigma-w": float_text, "--sigma-out": float_text,
                 "--seed": integer_text, "--samples": sample_text}


@settings(FUZZ, max_examples=100)
@given(data=st.data(), wild=st.sampled_from(sorted(SIMULATE_WILD)), fmt=st.sampled_from(FORMATS))
def test_simulate_options(data, wild, fmt):
    options = {
        **{name: data.draw(st.floats(0.0, 0.1).map(repr)) for name in ("--sigma-in", "--sigma-w", "--sigma-out")},
        "--seed": data.draw(st.integers(0, 10**6).map(str)),
        "--samples": data.draw(st.integers(1, 16).map(str)),
    }
    options[wild] = value = data.draw(SIMULATE_WILD[wild])
    field, output = invoke(["simulate", "--core", "9x8", *(text for item in options.items() for text in item)], fmt)
    if field is not None and field.startswith("--"):
        assert field == wild, output            # click rejected the text before the command ran
    elif field is not None:
        assert field == ("samples" if wild == "--samples" else "noise"), output
        assert (value if wild == "--samples" else wild.removeprefix("--").replace("-", "_")) in output, output
