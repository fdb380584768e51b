"""README.md's fenced ``python`` examples run as written, and its list of lazily loaded names is whole."""

import re
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
