"""wavecore benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload design-space --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workload's inputs are drawn from ``--seed``. After an untimed, checked
preparation step, passes over the workload repeat until ``--seconds`` have
elapsed; only the program's calls are timed, one call at a time. Every
output is checked (see each workload module), and the last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: throughput
of a typical pass (each call's median over passes), median cold-start time
over fresh interpreters, both scaled to the reference host (see
``calibrate.py``), and the process's peak RSS. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, medians over traced passes, plus the
tracing overhead. Earlier stdout lines carry the environment and the output
digests; ``--smoke`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from calibrate import INTERPRETER, Clock
from spans import Tracer, summarize
from workloads import ROOT, WORKLOADS, workload_class

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"
SETUP_REPEATS = 16
SETUP_KERNEL_SAMPLES = 5
CHILD_TIMEOUT_S = 60
# peak_mem_mb is read after this many timed passes, not at the end: the
# program's thread pools make each pass's peak vary a little, and a peak
# taken over however many passes fit in the run would grow with host speed.
PEAK_MEM_PASSES = 3


def _spawn(arg: str) -> tuple[float, dict]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), arg], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {arg!r} failed:\n{proc.stderr[-2000:]}")
    return start, json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(workload: str, repeats: int) -> Clock:
    """Times from spawning a fresh interpreter to its first warm call
    returning, raw and scaled by the interpreter kernel timed around each."""
    clock = Clock(INTERPRETER, samples=SETUP_KERNEL_SAMPLES)
    for _ in range(repeats):
        start, doc = _spawn(workload)
        clock.add(doc["ready"] - start)
    return clock


def import_probe(repeats: int) -> dict[str, float]:
    docs = [_spawn("import")[1] for _ in range(repeats)]
    return {
        "import.cli_s": statistics.median(d["import_cli_s"] for d in docs),
        "import.numpy_on_cli": float(max(d["numpy_on_cli"] for d in docs)),
    }


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wavecore").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
    }


def pass_seconds(passes: list[dict], key: str) -> float:
    """Time of a typical pass: the sum over its calls of each call's median
    over passes. Every pass of a run makes the same calls, and a per-call
    median sets aside a slow phase that hit one call in one pass."""
    return sum(statistics.median(call) for call in zip(*(p[key] for p in passes)))


def layer_metrics(names: list[str], passes: list[dict], checks, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass span totals."""
    def one(name: str, p: dict) -> float:
        summary = p["summary"]
        if name == "report.render.s":
            return sum(summary.get(n, {}).get("s", 0.0) for n in ("report.render_csv", "report.render_table"))
        if name == "report.bytes_out":
            return p["bytes_out"]
        if name == "conv.tiles":
            return summary.get("engine.noisy_mvm", {}).get("parents", {}).get("conv.run_conv", 0)
        span, _, field = name.rpartition(".")
        if field not in ("calls", "s", "self_s", "peak_mb"):
            raise KeyError(f"no rule for per-layer metric {name!r}")
        return summary.get(span, {}).get(field, 0)

    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name == "failed_ratio":
            out[name] = checks.failed / max(1, checks.attempted)
        else:
            out[name] = statistics.median(one(name, p) for p in passes)
    return out


def write_spans(path: Path, spans: list[tuple]) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for sid, name, start, end, parent, thread, peak in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                                 "thread": thread, "peak_mb": peak / 1e6}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavecore" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'wavecore'} not found; run from a wavecore checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One CPU for this process, its set-up probes and the calibration
    # sibling: the host's CPUs change speed independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = [0]
    thread_start = threading.Thread.start

    def counting_start(thread):
        started[0] += 1
        return thread_start(thread)

    threading.Thread.start = counting_start

    repeats = 1 if args.smoke else SETUP_REPEATS
    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
    metrics: dict[str, float] = {}
    # Set-up probes run half before and half after the timed passes, so their
    # median spans more than one speed phase of the host.
    if args.trace:
        extra = import_probe(repeats)
    else:
        setup_before = setup_seconds(args.workload, (repeats + 1) // 2)

    cls = workload_class(args.workload)
    workload = cls(args.seed, args.smoke, recorded)
    workload.prepare()

    untraced, traced, spans_file = [], [], None
    peak_rss_kb = None
    start = time.perf_counter()
    while not untraced or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
        p = workload.run_pass()
        workload.check_pass(p.pop("results"))
        untraced.append(p)
        if len(untraced) == PEAK_MEM_PASSES:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            tracer = Tracer(track_memory=cls.TRACK_MEMORY)
            tracer.wrap()
            try:
                p = workload.run_pass(tracer)
            finally:
                tracer.unwrap()
            workload.check_pass(p.pop("results"))
            p["summary"] = summarize(tracer.spans)
            traced.append(p)
            if spans_file is None:
                spans_file = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
                write_spans(spans_file, tracer.spans)

    checks = workload.checks
    if args.trace:
        # raw host time: traced and untraced passes alternate, so both meet the same host phases
        extra["trace.overhead_frac"] = pass_seconds(traced, "seconds") / pass_seconds(untraced, "seconds") - 1.0
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_metrics(names, traced, checks, extra)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics["ops_per_s"] = untraced[0]["ops"] / pass_seconds(untraced, "ref_seconds")
        raw_ops_per_s = untraced[0]["ops"] / pass_seconds(untraced, "seconds")
        setup = [setup_before, setup_seconds(args.workload, repeats // 2)]
        metrics["setup_s"] = statistics.median(t for clock in setup for t in clock.ref_seconds)
        raw_setup_s = statistics.median(t for clock in setup for t in clock.seconds)
        metrics["peak_mem_mb"] = (peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, smoke=args.smoke,
               op=cls.OP, ops_per_pass=untraced[0]["ops"], untraced_passes=len(untraced),
               traced_passes=len(traced), threads_started=started[0],
               raw_ops_per_s=None if args.trace else raw_ops_per_s,
               raw_setup_s=None if args.trace else raw_setup_s,
               spans_file=str(spans_file.relative_to(ROOT)) if spans_file else None)
    print(json.dumps({"env": env}))
    print(json.dumps({"digests": dict(checks.seen)}))

    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
