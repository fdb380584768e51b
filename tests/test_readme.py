"""README.md's fenced ``python`` examples run as written, its list of lazily
loaded names is whole, and its Python floor is the package's."""

import re
import tomllib
from importlib.metadata import metadata
from pathlib import Path

import pytest

import wavecore

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    if "run_conv" in source:
        assert capsys.readouterr().out == "(4, 3, 6, 6)\n"


def test_lazy_simulator_names_match_the_export_table():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"The simulator names that `wavecore` exports\s*\((.*?)\)\s*load\s+`wavecore\.engine`", text, re.S)
    assert listed, "README no longer lists the simulator names that load wavecore.engine"
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == wavecore._ENGINE_NAMES


def _floor(spec: str) -> tuple[int, int]:
    match = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec.strip())
    assert match, f"not a plain lower bound: {spec!r}"
    return int(match.group(1)), int(match.group(2))


def test_python_floor_matches_pyproject_and_admits_numpy():
    requires = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floor = _floor(requires["requires-python"])
    stated = re.search(r"Requires Python (\d+)\.(\d+)\+", README.read_text(encoding="utf-8"))
    assert stated, "README no longer states the Python floor"
    assert (int(stated.group(1)), int(stated.group(2))) == floor
    # no lower than the installed numpy's own floor, or no install at the stated floor can resolve
    assert floor >= _floor(metadata("numpy")["Requires-Python"])
