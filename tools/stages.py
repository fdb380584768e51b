"""Wall-time share of each model stage in one design-space pass.

    python tools/stages.py [--seed S] [--passes N]

Runs a seed's design-space script (``perfbench/designspace.py``,
``build_script``) through ``wavecore.cli.main`` in this process, once
untimed, then ``N`` timed passes, with stdout captured and the shipped
catalog. Each stage the CLI calls is wrapped in a ``time.perf_counter``
timer: ``load_catalog``, ``load_workload``, ``schedule_cores``,
``total_power_cores`` (the call and the consumption of the iterator it
returns), ``estimate_perf_cores``, ``canonical_json``, ``render_table`` and
``render_csv``. A stage's time is its own: the time of a stage it calls, as
``estimate_perf_cores`` pulls each core's power report, is the inner stage's.
Prints each stage's milliseconds per pass and its share of the pass; the
rest of the pass is ``other``.

It times wall clock, not spans: nothing inside the stages is wrapped, so the
timers' cost is a few calls per command, and the shares are of an untraced
pass. It writes no file: no bytecode cache either, as ``tools/parity.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("load_catalog", "load_workload", "schedule_cores", "total_power_cores", "estimate_perf_cores",
          "canonical_json", "render_table", "render_csv")


class Timers:
    """Own time per stage name; a stage entered inside another takes its time out of the outer one's."""

    def __init__(self) -> None:
        self.own = dict.fromkeys(STAGES, 0.0)
        self._inner = [0.0]                    # time spent in inner stages, per open stage

    def run(self, name: str, fn, *args, **kwargs):
        self._inner.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.own[name] += elapsed - self._inner.pop()
            self._inner[-1] += elapsed

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.run(name, fn, *args, **kwargs)


class TimedIterator:
    """An iterator whose every ``next`` is timed as ``name``."""

    def __init__(self, timers: Timers, name: str, inner) -> None:
        self.timers, self.name, self.inner = timers, name, inner

    def __iter__(self):
        return self

    def __next__(self):
        return self.timers.run(self.name, next, self.inner)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Wall-time share of each stage in one design-space pass.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    os.chdir(ROOT)  # the scripts name the bundled workload file by a relative path
    os.environ.pop("WAVECORE_CATALOG", None)
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or src/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from designspace import build_script

    from wavecore import cli

    script = build_script(args.seed, smoke=False)
    timers = Timers()
    for name in STAGES:
        if name == "total_power_cores":
            power = cli.total_power_cores
            cli.total_power_cores = timers.wrap(
                name, lambda *a, **kw: TimedIterator(timers, "total_power_cores", power(*a, **kw)))
        else:
            setattr(cli, name, timers.wrap(name, getattr(cli, name)))

    def run_pass() -> float:
        total = 0.0
        for argv in script:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                cli.main(argv, standalone_mode=False)
                total += time.perf_counter() - start
        return total

    run_pass()  # untimed: first imports and the shipped catalog's cached entries
    timers.own = dict.fromkeys(STAGES, 0.0)
    wall = sum(run_pass() for _ in range(args.passes))

    per_pass = {name: seconds / args.passes for name, seconds in timers.own.items()}
    per_pass["other"] = (wall - sum(timers.own.values())) / args.passes
    wall_ms = wall / args.passes * 1e3
    print(f"seed {args.seed}, {len(script)} commands per pass, timed passes: {args.passes}")
    print(f"{'stage':<20} {'ms/pass':>9} {'share':>7}")
    for name, seconds in per_pass.items():
        print(f"{name:<20} {seconds * 1e3:9.3f} {seconds * 1e3 / wall_ms:7.3f}")
    print(f"{'pass':<20} {wall_ms:9.3f} {1.0:7.3f}")


if __name__ == "__main__":
    main()
