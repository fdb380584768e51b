"""design-space workload: the analytic CLI path, driven in process.

One pass runs a script of ``linkbudget``, ``evaluate``, ``ablate`` and
``sweep`` commands through ``wavecore.cli.main`` with stdout captured, one
command at a time. The script is a fixed part, which covers every variant,
both profiles, all three formats, the bundled workload file, pointwise
packing off and an infeasible point (exit 2), plus a part drawn from the
seed with the same shape on every seed (same commands, formats and list
lengths; random geometries, variants, parameters and clocks), so the amount
of work per pass does not depend on the seed.

This module imports no numpy itself (the calibration kernel runs in a
sibling process), so whether the process loads numpy is up to the program
(at the seed commit, ``import wavecore.cli`` does).
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import click

from calibrate import INTERPRETER, Clock
from checks import Checks, strict_json, text_digest
from wavecore.cli import main as cli_main

BUNDLED_FILE = "src/wavecore/data/resnet50_256.json"
VARIANTS = ("baseline3d", "soa", "planar2d", "thermo", "mrr", "kcl", "coherent")
FORMATS = ("json", "csv", "table")
LADDER = [f"{9 * r}x{8 * c}" for r in (1, 2, 4, 8, 16, 32) for c in (1, 2, 4, 8, 16, 32, 64)]

# The README reference point, checked at the acceptance tests' tolerances.
REFERENCE_ARGV = ["evaluate", "--workload", "resnet50", "--profile", "pareto", "--format", "json"]

FIXED_SCRIPT = [
    REFERENCE_ARGV,
    ["evaluate", "--workload", "resnet50", "--format", "table"],
    ["evaluate", "--core", "9x8", "--workload", "resnet50", "--no-pack-pointwise", "--format", "json"],
    ["evaluate", "--core", "288x512", "--workload", BUNDLED_FILE, "--profile", "pareto", "--format", "csv"],
    ["evaluate", "--variant", "kcl", "--workload", "resnet50", "--format", "json"],  # exits 2
    ["evaluate", "--variant", "soa:fanout_before_amp=32", "--workload", "resnet50", "--profile", "pareto",
     "--format", "json"],
    ["evaluate", "--variant", "thermo", "--profile", "pareto", "--format", "table"],
    ["evaluate", "--core", "72x64", "--variant", "mrr:ring_loss=0.1", "--workload", "resnet50", "--format", "json"],
    ["evaluate", "--core", "36x32", "--variant", "coherent:stage_loss=0.5", "--workload", "resnet50",
     "--format", "json"],
    ["linkbudget", "--core", "9x8", "--format", "json"],
    ["linkbudget", "--core", "144x256", "--format", "table"],
    ["linkbudget", "--core", "288x512", "--variant", "planar2d:crossing_count=12,ybranch_count=4", "--format", "csv"],
    ["ablate", "--profile", "pareto", "--format", "csv"],
    ["ablate", "--core", "9x8", "--format", "json"],
    ["ablate", "--core", "288x512", "--profile", "pareto", "--format", "table", "--variants",
     "baseline3d,soa:fanout_before_amp=64,planar2d:crossing_count=300,thermo,mrr:ring_loss=0.2,kcl,coherent:stage_loss=1.5"],
    ["sweep", "--cores", ",".join(LADDER), "--profile", "pareto", "--format", "csv"],
    ["sweep", "--cores", ",".join(LADDER), "--no-pack-pointwise", "--format", "json"],
    ["sweep", "--cores", ",".join(reversed(LADDER)), "--variant", "soa", "--workload", BUNDLED_FILE,
     "--format", "table"],
]

SMOKE_SCRIPT = FIXED_SCRIPT[:2] + [FIXED_SCRIPT[4], FIXED_SCRIPT[12]]


def _random_geometry(rnd: random.Random) -> str:
    return f"{9 * rnd.randint(1, 32)}x{8 * rnd.randint(1, 64)}"


def _random_variant(rnd: random.Random, single_param: bool = False) -> str:
    name = rnd.choice(VARIANTS)
    if rnd.random() < 0.5:
        return name
    if name == "soa":
        return f"soa:fanout_before_amp={rnd.randint(1, 512)}"
    if name == "planar2d":
        params = [f"crossing_count={rnd.randint(0, 600)}", f"ybranch_count={rnd.randint(0, 520)}"]
        return "planar2d:" + ",".join(params[:1] if single_param else params)
    if name == "mrr":
        return f"mrr:ring_loss={rnd.uniform(0.05, 1.0):.3f}"
    if name == "coherent":
        return f"coherent:stage_loss={rnd.uniform(0.1, 3.0):.3f}"
    return name


def _scenario(rnd: random.Random) -> list[str]:
    argv = ["--core", _random_geometry(rnd), "--variant", _random_variant(rnd)]
    argv += ["--profile", rnd.choice(("default", "pareto"))]
    if rnd.random() < 0.3:
        argv.append("--no-pack-pointwise")
    return argv


def build_script(seed: int, smoke: bool) -> list[list[str]]:
    """The pass script for a seed: the fixed part, then the drawn part."""
    if smoke:
        return [list(argv) for argv in SMOKE_SCRIPT]
    rnd = random.Random(seed)
    drawn = []
    for i in range(4):
        cores = ",".join(_random_geometry(rnd) for _ in range(48))
        argv = ["sweep", "--cores", cores] + _scenario(rnd)[2:] + ["--format", FORMATS[i % 3]]
        if i == 0:
            argv += ["--workload", BUNDLED_FILE]
        drawn.append(argv)
    for i in range(8):
        drawn.append(["evaluate"] + _scenario(rnd) + ["--workload", "resnet50", "--format", FORMATS[i % 3]])
    for _ in range(2):
        freq = f"{rnd.uniform(0.2, 6.0):.4f}e9"
        drawn.append(["evaluate", "--core", _random_geometry(rnd), "--variant", _random_variant(rnd),
                      "--freq", freq, "--allow-overclock", "--workload", "resnet50", "--format", "json"])
    for i in range(3):
        variants = ",".join(_random_variant(rnd, single_param=True) for _ in range(7))
        drawn.append(["ablate"] + _scenario(rnd)[:2] + ["--profile", rnd.choice(("default", "pareto")),
                                                        "--variants", variants, "--format", FORMATS[i]])
    for i in range(3):
        drawn.append(["linkbudget"] + _scenario(rnd)[:4] + ["--format", FORMATS[i]])
    return [list(argv) for argv in FIXED_SCRIPT] + drawn


def option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def points(argv: list[str]) -> int:
    """Design points one command evaluates: one per (geometry, variant, clock)."""
    if argv[0] == "sweep":
        return len(option(argv, "--cores").split(","))
    if argv[0] == "ablate":
        return len(option(argv, "--variants", ",".join(VARIANTS)).split(","))
    return 1


def call(argv: list[str]) -> tuple[str, int]:
    """Run one CLI command in process; return (stdout, exit code)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli_main(argv, standalone_mode=False) or 0
        except SystemExit as exc:
            rc = exc.code
        except click.ClickException as exc:
            rc = exc.exit_code
    return buf.getvalue(), rc


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-12)


def _link_ok(link: dict) -> bool:
    return abs(link["total_db"] - sum(t["db"] for t in link["terms"])) <= 1e-6 * max(1.0, link["total_db"])


def _expected_sweep_rows(argv: list[str]) -> list[tuple[str, float, float, float]]:
    """Sweep rows recomputed through the library functions, one core at a time."""
    from wavecore.catalog import default_catalog
    from wavecore.cli import parse_variant
    from wavecore.linkbudget import CoreGeometry
    from wavecore.power import PrecisionSpec, total_power
    from wavecore.workload import DEFAULT_CLOCK_HZ, PARETO_CLOCK_HZ, estimate_perf, load_workload, schedule

    cat = default_catalog()
    variant = parse_variant(option(argv, "--variant", "baseline3d"))
    pareto = option(argv, "--profile", "default") == "pareto"
    f_hz = PARETO_CLOCK_HZ if pareto else DEFAULT_CLOCK_HZ
    layers = load_workload(option(argv, "--workload", "resnet50"))
    pack = "--no-pack-pointwise" not in argv
    rows = []
    for core in option(argv, "--cores").split(","):
        geom = CoreGeometry.parse(core)
        power = total_power(geom, cat, variant, PrecisionSpec(), f_hz, wpe=1.0)
        perf = estimate_perf(schedule(layers, geom, cat.pcm, pack_pointwise=pack), power, f_hz, cat,
                             allow_overclock=pareto)
        rows.append((geom.label, perf.fps, perf.energy_per_inference_j * 1e3, perf.total_power_w))
    return rows


def _rows_match(got: list[tuple], want: list[tuple]) -> bool:
    return len(got) == len(want) and all(
        g[0] == w[0] and all(_close(float(a), b) for a, b in zip(g[1:], w[1:])) for g, w in zip(got, want)
    )


def check_invariants(argv: list[str], out: str, rc: int) -> bool:
    """Checks that hold for any command of the script, digest or not."""
    cmd, fmt = argv[0], option(argv, "--format", "table")
    if rc not in ((0, 2) if cmd == "evaluate" else (0,)):
        return False
    stamp = "wavecore " if fmt == "table" else "# wavecore "
    if fmt != "json":
        lines = out.splitlines()
        if cmd == "evaluate":
            return lines[0].startswith("wavecore ") and ("INFEASIBLE" in out) == (rc == 2)
        if not lines[0].startswith(stamp):
            return False
        if cmd in ("ablate", "sweep"):
            body = lines[2:] if fmt == "csv" else lines[4:]
            if len(body) != points(argv):
                return False
        if cmd == "sweep" and fmt == "csv":
            return _rows_match([line.split(",") for line in body], _expected_sweep_rows(argv))
        return True
    doc = strict_json(out)
    if doc["header"]["tool"] != "wavecore":
        return False
    if cmd == "linkbudget":
        return _link_ok(doc["link_budget"])
    if cmd == "ablate":
        return len(doc["rows"]) == points(argv)
    if cmd == "sweep":
        got = [(r["core"], r["fps"], r["mj_per_inference"], r["total_w"]) for r in doc["rows"]]
        return _rows_match(got, _expected_sweep_rows(argv))
    power, perf = doc["power"], doc["perf"]
    ok = _link_ok(doc["link_budget"]) and doc["feasible"] == (rc == 0)
    ok = ok and _close(sum(e["watts"] for e in power["breakdown"]), power["total_w"])
    if perf is not None:
        ok = ok and _close(perf["fps"] * perf["latency_s"], 1.0)
        ok = ok and _close(perf["tops_per_w"] * perf["total_power_w"], perf["peak_tops"])
    return ok


def check_reference_point(out: str) -> bool:
    """README reference design point at the acceptance tests' tolerances."""
    doc = strict_json(out)
    perf = doc["perf"]
    return (
        abs(doc["link_budget"]["total_db"] - 32.7) <= 1.0
        and abs(doc["area"]["residual_mm2"] - 155.7) <= 0.5
        and abs(doc["power"]["total_w"] - 14.4) <= 1.5
        and math.isclose(perf["peak_tops"], 342.1, rel_tol=1e-9)
        and abs(perf["tops_per_w"] - 23.8) <= 2.0
        and 600.0 <= perf["fps"] <= 2400.0
        and 14.0 <= perf["energy_per_inference_mj"] <= 54.0
    )


# ---------------------------------------------------------------------------
# Workload interface
# ---------------------------------------------------------------------------

class DesignSpace:
    """Closed loop over the script; one op is one design point."""

    TRACK_MEMORY = False
    OP = "point"

    def __init__(self, seed: int, smoke: bool, recorded: dict[str, str]):
        self.script = build_script(seed, smoke)
        self.checks = Checks(recorded)

    @staticmethod
    def warmup() -> None:
        """What a CLI user waits for on a cold start: one evaluate of resnet50."""
        call(["evaluate", "--workload", "resnet50", "--format", "json"])

    def prepare(self) -> None:
        """One checked, untimed pass, so lazy set-up is done before timing."""
        self.check_pass(self.run_pass()["results"])

    def run_pass(self, tracer=None) -> dict:
        """One pass. Only the CLI calls are inside the timed region."""
        clock, results, ops = Clock(INTERPRETER), [], 0
        for argv in self.script:
            out, rc = clock.call(tracer, "cli", call, argv)
            ops += points(argv)
            results.append((argv, out, rc))
        return {"ops": ops, "seconds": clock.seconds, "ref_seconds": clock.ref_seconds, "results": results,
                "bytes_out": sum(len(out.encode()) for _, out, _ in results)}

    def check_pass(self, results) -> None:
        for argv, out, rc in results:
            key = " ".join(argv)
            first = key not in self.checks.seen
            valid = True
            if first and key not in self.checks.recorded:
                try:
                    valid = check_invariants(argv, out, rc)
                except (ValueError, KeyError, IndexError, TypeError):
                    valid = False
            if first and argv == REFERENCE_ARGV:
                try:
                    self.checks.count(check_reference_point(out))
                except (ValueError, KeyError, TypeError):
                    self.checks.count(False)
            self.checks.digest(key, text_digest(out, rc), valid)
