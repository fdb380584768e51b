"""README.md's fenced ``python`` examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    if "run_conv" in source:
        assert capsys.readouterr().out == "(4, 3, 6, 6)\n"
