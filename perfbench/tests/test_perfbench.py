"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import designspace  # noqa: E402
import sims  # noqa: E402
from checks import Checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if section == "end_to_end":
        assert all(v > 0 for v in values)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "design-space", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _corrupting(call):
    """``call`` with one byte of every captured stdout flipped."""
    def corrupted(argv):
        out, rc = call(argv)
        i = len(out) // 2
        return out[:i] + chr(ord(out[i]) ^ 1) + out[i + 1:], rc
    return corrupted


def test_design_space_flags_a_flipped_stdout_byte(monkeypatch):
    recorded = json.loads((BENCH / "digests.json").read_text())["design-space"]
    clean = designspace.DesignSpace(0, True, recorded)
    clean.prepare()
    assert clean.checks.attempted > 0 and clean.checks.failed == 0

    monkeypatch.setattr(designspace, "call", _corrupting(designspace.call))
    corrupted = designspace.DesignSpace(0, True, recorded)
    corrupted.prepare()
    assert corrupted.checks.failed / corrupted.checks.attempted > 0


def test_invariants_flag_a_wrong_sweep_row():
    argv = ["sweep", "--cores", "9x8,144x256", "--format", "csv"]
    out, rc = designspace.call(argv)
    assert designspace.check_invariants(argv, out, rc)
    assert not designspace.check_invariants(argv, out.replace("144x256,", "144x256,1"), rc)


def test_resnet_oracle_flags_a_wrong_output(monkeypatch):
    real = sims.run_resnet_layer

    def off_by_one(*args):
        y = real(*args)
        y[0, 0, 0] += 1.0
        return y

    monkeypatch.setattr(sims, "run_resnet_layer", off_by_one)
    workload = sims.ResnetLayers(0, True, {})
    workload.prepare()
    assert workload.checks.failed == workload.checks.attempted == len(sims.RESNET_SHAPES)


def test_tinycnn_flags_a_flipped_stdout_byte(monkeypatch):
    clean = sims.TinyCnn(3, True, {})
    clean.prepare()
    assert clean.checks.failed == 0
    recorded = dict(clean.checks.seen)

    monkeypatch.setattr(sims, "call", _corrupting(sims.call))
    corrupted = sims.TinyCnn(3, True, recorded)
    corrupted.check_pass(corrupted.run_pass()["results"])
    assert corrupted.checks.failed > 0


def test_checks_count_disagreeing_digests():
    checks = Checks({"k": "aaaa"})
    checks.digest("k", "aaaa")
    checks.digest("k", "bbbb")
    checks.digest("other", "cccc")
    checks.digest("other", "cccc", valid=False)
    assert (checks.attempted, checks.failed) == (4, 2)
