"""Span tracer that wraps the program's public functions from outside.

A traced pass replaces every public function of the listed wavecore modules,
in every wavecore namespace that binds it, with a wrapper that records a
span: name, start, end, parent span, thread and (optionally) the traced-heap
high-water mark reached inside the call. ``unwrap`` restores the originals,
so traced and untraced passes can alternate in one process.

Spans stay in memory; ``summarize`` turns one pass worth of spans into
per-name call counts, total time, self time and peak memory.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc

# Modules whose public functions are wrapped. ``cli`` is left out on purpose:
# the harness opens one span around each command, and cli's own time (click
# parsing, scenario build, thread pool) is that span's self time.
TRACED_MODULES = (
    "catalog", "linkbudget", "power", "area", "workload", "report",
    "conv", "engine", "rng", "synth",
)


class Tracer:
    def __init__(self, track_memory: bool):
        self.track_memory = track_memory
        # (id, name, start, end, parent, thread, peak_bytes)
        self.spans: list[tuple] = []
        self.command_span: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif threading.current_thread() is not threading.main_thread():
            # pool worker: attribute to the command that started the pool
            parent = self.command_span
        else:
            parent = None
        frame = [next(self._ids), name, parent, 0, 0, 0.0]  # id, name, parent, base, peak, start
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            for open_frame in stack:
                open_frame[4] = max(open_frame[4], peak)
            tracemalloc.reset_peak()
            frame[3] = frame[4] = current
        stack.append(frame)
        frame[5] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        peak_bytes = 0
        if self.track_memory:
            _, peak = tracemalloc.get_traced_memory()
            frame[4] = max(frame[4], peak)
            for open_frame in stack:
                open_frame[4] = max(open_frame[4], frame[4])
            peak_bytes = frame[4] - frame[3]
        self.spans.append(
            (frame[0], frame[1], frame[5], end, frame[2], threading.get_ident(), peak_bytes)
        )

    def span(self, name: str):
        return _Span(self, name)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    def wrap(self) -> None:
        """Wrap every public function of TRACED_MODULES wherever it is bound."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "wavecore" or n.startswith("wavecore."))]
        for short in TRACED_MODULES:
            module = sys.modules.get(f"wavecore.{short}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrapper(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, bound_name, fn))
                            setattr(ns, bound_name, traced)
        if self.track_memory:
            tracemalloc.start()

    def unwrap(self) -> None:
        for ns, bound_name, fn in reversed(self._patched):
            setattr(ns, bound_name, fn)
        self._patched.clear()
        if self.track_memory:
            tracemalloc.stop()


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.enter(self.name)
        return self.frame[0]

    def __exit__(self, *exc):
        self.tracer.exit(self.frame)
        return False


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, s (total duration), self_s, peak_mb, and the
    list of parent names (for attributing child counts)."""
    children: dict[int, list[tuple[float, float]]] = {}
    names = {}
    for sid, name, start, end, parent, _, _ in spans:
        names[sid] = name
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, parent, _, peak in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_mb": 0.0, "parents": {}})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
        row["peak_mb"] = max(row["peak_mb"], peak / 1e6)
        parent_name = names.get(parent)
        row["parents"][parent_name] = row["parents"].get(parent_name, 0) + 1
    return out

