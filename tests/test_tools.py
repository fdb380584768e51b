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
