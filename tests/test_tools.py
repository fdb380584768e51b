"""The repository's tools run as documented."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_parity_prints_one_count_and_digest():
    # the digest is not pinned: an intended output change moves it, and both sides of a change are compared
    result = subprocess.run([sys.executable, "-B", str(ROOT / "tools" / "parity.py")],
                            capture_output=True, text=True, timeout=300)
    assert (result.returncode, result.stderr) == (0, "")
    # the second line: the run_conv calls on the six ResNet shapes, smoke and full size, and their raw bytes' digest
    assert re.fullmatch(r"552 [0-9a-f]{64}\n12 [0-9a-f]{64}\n", result.stdout)


def test_stages_prints_each_stage_and_its_share_of_a_pass():
    result = subprocess.run([sys.executable, "-B", str(ROOT / "tools" / "stages.py"), "--passes", "1"],
                            capture_output=True, text=True, timeout=300)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[0] == "seed 0, 38 commands per pass, timed passes: 1"
    rows = {name: (float(ms), float(share)) for name, ms, share in (line.split() for line in lines[2:])}
    stages = ["load_catalog", "load_workload", "schedule_cores", "total_power_cores", "estimate_perf_cores",
              "canonical_json", "render_table", "render_csv"]
    assert list(rows) == [*stages, "other", "pass"]
    assert all(ms > 0.0 for ms, _ in rows.values())
    assert sum(rows[name][1] for name in stages) <= 1.0
