"""Output-parity check: one digest over the benchmark's commands, one over the simulator's bits.

    python tools/parity.py

Runs the design-space scripts (``perfbench/designspace.py``, ``build_script``)
and the tiny-CNN ``simulate`` grids (``perfbench/sims.py``, ``tiny_grid``) of
seeds 0-11 in this process, through ``wavecore.cli.main``, with the shipped
catalog. Prints the number of commands and one SHA-256 over each command's
argv, exit code, stdout and stderr, in order.

The second line is the number of ``conv.run_conv`` calls and one SHA-256 over
their raw output bytes: the six ResNet shapes of ``sim-resnet-layers``
(``sims.ResnetLayers``' seeded inputs and noise, seed 0), at smoke size and
then at full size. The benchmark's own digests round outputs to 1e-6, so only
this line sees a change in the last bit of the kernel.

Two trees whose programs give the same outputs print the same lines; run it
on both sides of a change. It writes no file: no bytecode cache either, since
the benchmark's timings depend on that state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(12)


def main() -> None:
    os.chdir(ROOT)  # the scripts name the bundled workload file by a relative path
    os.environ.pop("WAVECORE_CATALOG", None)
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or src/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from designspace import build_script
    from sims import IN_QUANT, W_QUANT, ResnetLayers, run_resnet_layer, tiny_grid
    from wavecore.cli import main as cli_main

    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for argv in [*build_script(seed, smoke=False), *tiny_grid(seed, smoke=False)]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv, standalone_mode=False)
            digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
            count += 1
    print(count, digest.hexdigest())

    kernel = hashlib.sha256()
    calls = 0
    for smoke in (True, False):
        bench = ResnetLayers(0, smoke, {})
        for (index, layer), (x, w) in zip(bench.layers, bench.inputs):
            y = run_resnet_layer(layer, index, x, w, IN_QUANT, W_QUANT, bench.noise)
            kernel.update(y.tobytes())
            calls += 1
    print(calls, kernel.hexdigest())


if __name__ == "__main__":
    main()
