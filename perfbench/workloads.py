"""Workload registry, and the cold-start probe run in a fresh interpreter.

As a script, ``python3 perfbench/workloads.py <workload>`` imports what the
workload needs, makes one warm-up call and prints ``time.perf_counter()`` at
that moment; the parent subtracts its own clock reading taken just before
the spawn (both read the system-wide monotonic clock), which gives set-up
time from spawn to ready. ``python3 perfbench/workloads.py import`` instead
times ``import wavecore.cli`` alone and reports whether it loaded numpy.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "design-space": ("designspace", "DesignSpace"),
    "sim-resnet-layers": ("sims", "ResnetLayers"),
    "sim-tinycnn": ("sims", "TinyCnn"),
}


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def _probe(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    if name == "import":
        start = time.perf_counter()
        import wavecore.cli  # noqa: F401
        return {"import_cli_s": time.perf_counter() - start, "numpy_on_cli": "numpy" in sys.modules}
    workload_class(name).warmup()
    return {"ready": time.perf_counter()}


if __name__ == "__main__":
    print(json.dumps(_probe(sys.argv[1])))
