"""Host-speed calibration for the timed calls.

The host this benchmark was written on changes speed by up to a factor of
1.6, in phases that last from seconds to minutes. That moves raw throughput
between runs far more than the changes the benchmark has to resolve. A fixed
kernel is therefore timed just before and just after every program call.
The call's duration is scaled by ``ref_s`` over the kernel's mean duration
around it. The result is the time the call would take on a host where the
kernel takes ``ref_s``. Each ``ref_s`` is the kernel's typical duration on
that host (2-vCPU Intel Xeon, 2.1 GHz, Python 3.11, numpy 2.4), so the
scaled figures read close to raw ones there.

The kernel runs in a long-lived sibling interpreter, queried between calls
while the benchmark process waits. Nothing the program does to its own
process (threads it leaves running, allocator or GC state, imports, hooks)
reaches the kernel, so the scaling cancels only what slows or speeds the
whole machine, and a change to the program moves the scaled time in full.

As a script, ``python3 perfbench/calibrate.py <kernel>`` is that sibling:
it runs the kernel once per line read from stdin and writes its duration in
seconds, one line each, until stdin closes.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import mmap
import statistics
import subprocess
import sys
import time
from pathlib import Path

WARMUP_RUNS = 20


@dataclasses.dataclass(frozen=True)
class _Row:
    label: str
    value: float
    share: float


def interpreter_kernel() -> None:
    """Interpreter-bound work like the analytic path's: frozen dataclasses,
    dict building, JSON encoding and decoding, float formatting."""
    rows = [_Row(f"term{i}", i * 1.2345678901, i / 97.0) for i in range(60)]
    doc = {"rows": [dataclasses.asdict(row) for row in rows], "total": sum(row.value for row in rows)}
    back = json.loads(json.dumps(doc, indent=2))
    ",".join(f"{row['value']:.9g}" for row in back["rows"])


def small_array_kernel() -> None:
    """Interpreter work and many calls on small arrays."""
    import numpy as np

    for i in range(2000):
        str(i)
    small = np.linspace(0.0, 1.0, 9 * 36).reshape(9, 36)
    for _ in range(30):
        np.pad(np.clip(small * 1.01, 0.0, 1.0), [(0, 1), (0, 0)]).sum(axis=0)


def large_array_kernel() -> None:
    """Fresh 8 MB arrays: page faults and memory bandwidth. The pages come
    straight from ``mmap``, so every run faults them in anew, whatever the
    allocator has kept from earlier runs."""
    import numpy as np

    for _ in range(2):
        with mmap.mmap(-1, 8 << 20) as buf:
            large = np.frombuffer(buf, dtype=np.float64)
            large[:] = 1.0
            (large * 1.5).sum()
            del large


KERNELS = {
    "interpreter": interpreter_kernel,
    "small-arrays": small_array_kernel,
    "large-arrays": large_array_kernel,
}
# Reference durations, seconds, of each kernel in its sibling on that host.
INTERPRETER = ("interpreter", 1.1e-3)
SMALL_ARRAYS = ("small-arrays", 1.5e-3)
LARGE_ARRAYS = ("large-arrays", 13.0e-3)


class Sibling:
    """A sibling interpreter that times one kernel on request."""

    def __init__(self, kernel: str):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), kernel],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration sibling exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


_siblings: dict[str, Sibling] = {}


def sibling(kernel: str) -> Sibling:
    """The run's sibling for ``kernel``, started on first use."""
    if kernel not in _siblings:
        if not _siblings:
            atexit.register(close_siblings)
        _siblings[kernel] = Sibling(kernel)
    return _siblings[kernel]


def close_siblings() -> None:
    """Stop every sibling and wait for it to end."""
    while _siblings:
        _siblings.popitem()[1].close()


class Clock:
    """Times one pass of program calls, raw and scaled to the reference host.

    ``seconds`` and ``ref_seconds`` hold one entry per call. The kernel run
    after one call also serves as the one before the next, so a pass of n
    calls runs the kernel n + 1 times; each reading is the median of
    ``samples`` kernel runs.
    """

    def __init__(self, calibration: tuple, samples: int = 1):
        kernel, self.ref_s = calibration
        self.sibling = sibling(kernel)
        self.samples = samples
        self.seconds: list[float] = []
        self.ref_seconds: list[float] = []
        self._last = self._kernel_seconds()

    def _kernel_seconds(self) -> float:
        return statistics.median(self.sibling.seconds() for _ in range(self.samples))

    def call(self, tracer, name: str, fn, *args):
        """Return ``fn(*args)``. With a tracer, the call runs inside a span
        ``name``, and pool threads report their spans to it."""
        start = time.perf_counter()
        if tracer is None:
            result = fn(*args)
        else:
            with tracer.span(name) as sid:
                tracer.command_span = sid
                result = fn(*args)
        self.add(time.perf_counter() - start)
        return result

    def add(self, elapsed: float) -> None:
        """Record ``elapsed`` seconds of something that ended just now."""
        after = self._kernel_seconds()
        self.seconds.append(elapsed)
        self.ref_seconds.append(elapsed * self.ref_s / ((self._last + after) / 2))
        self._last = after


def serve(kernel: str) -> None:
    run = KERNELS[kernel]
    for _ in range(WARMUP_RUNS):
        run()
    while sys.stdin.readline():
        start = time.perf_counter()
        run()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1])
