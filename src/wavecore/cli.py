"""Command-line surface: reproducible evaluations, ablations, and sweeps.

Exit codes: 0 for a feasible design point, 1 for configuration/validation
errors, usage errors included (with field-level diagnostics on stderr), 2
only for a design point the models flag as infeasible. All evaluations are
pure functions of their inputs. Only ``simulate`` loads the numpy simulator,
on first use.

``evaluate``, ``ablate`` and ``sweep`` run the power and perf models through
one roll-up, :func:`_roll_up`; ``evaluate --area`` runs no model. Each
command reads all its inputs first, then runs each core's power, then that
core's perf, before the next core's (ablation variants in the order given),
so the error reported is the first failing point's.

Each command's options are one module-level table of
:class:`~wavecore.options.Option` entries; :func:`wavecore.options.run`
reads the command line against them, renders the help text from them and
calls the command.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Sequence

from . import __version__
from .area import crossbar_area
from .catalog import DeviceCatalog, check_number, default_catalog_path, load_catalog
from .linkbudget import VARIANTS, ArchitectureVariant, CoreGeometry, critical_path_il
from .options import HELP, Option, Options, UsageError, run
from .power import PowerReport, total_power_cores
from .report import canonical_json, render_csv, render_table
from .workload import (
    DEFAULT_CLOCK_HZ,
    PARETO_CLOCK_HZ,
    ConvLayerSpec,
    PerfReport,
    estimate_perf_cores,
    load_workload,
    schedule_cores,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2

ABLATION_VARIANTS = tuple(VARIANTS)
DEFAULT_SWEEP_CORES = "9x8,18x16,36x32,72x64,144x128,144x256"


class ScenarioError(Exception):
    """An input error: exit 1, with ``Error: <message>`` on stderr. The
    message starts with the field or option at fault."""


def _model(field: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ValueError or an arithmetic error of
    the models (a result out of float range) as an exit 1 naming ``field``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}") from None
    except ArithmeticError:
        raise ScenarioError(f"{field}: a result is out of float range") from None


# Each variant's (field, caster) by parameter name; a ``_db`` field also goes without the suffix.
_VARIANT_PARAMS = {
    label: {alias: (param.name, int if param.type.startswith("int") else float)  # annotations are strings here
            for param in fields(cls) for alias in (param.name, param.name.removesuffix("_db"))}
    for label, cls in VARIANTS.items()
}


def parse_variant(text: str, field: str = "variant") -> ArchitectureVariant:
    """``NAME[:k=v,...]`` to a variant; parameters are the class's fields, and
    a ``_db`` field also takes its name without the suffix. An error exits 1
    naming ``field``."""
    name, _, params_text = text.partition(":")
    name = name.strip().lower()
    label = "baseline3d" if name == "baseline" else name
    cls = VARIANTS.get(label)
    if cls is None:
        raise ScenarioError(
            f"{field}: unknown name {name!r} (choose from {', '.join(sorted([*VARIANTS, 'baseline']))})"
        )
    params = _VARIANT_PARAMS[label]
    kwargs = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ScenarioError(f"{field}: malformed parameter {item!r} (expected k=v)")
            key = key.strip()
            param = params.get(key)
            if param is None:
                accepted = ", ".join(sorted(params)) or "none"
                raise ScenarioError(f"{field}: {cls.label} has no parameter {key!r} (accepts: {accepted})")
            param_name, caster = param
            if param_name in kwargs:
                raise ScenarioError(f"{field}: {cls.label} parameter {param_name!r} given twice ({key!r} repeats it)")
            try:
                kwargs[param_name] = caster(value)
            except ValueError:
                raise ScenarioError(f"{field}: cannot parse {item!r}") from None
    return _model(field, cls, **kwargs)


@dataclass(frozen=True)
class Scenario:
    """One fully-resolved design point: geometry, variant, clocking, workload."""

    catalog: DeviceCatalog
    geometry: CoreGeometry
    variant: ArchitectureVariant
    f_hz: float
    profile: str
    allow_overclock: bool
    wpe: float | None
    workload: str | None
    pack_pointwise: bool
    seed: int
    fmt: str


def _resolve_frequency(profile: str, freq: float | None, allow_overclock: bool) -> tuple[float, str, bool]:
    if freq is not None:
        _model("freq", check_number, "clock", freq, gt=0.0)
        return freq, "custom", allow_overclock
    if profile == "pareto":
        return PARETO_CLOCK_HZ, "pareto", True
    if profile == "default":
        return DEFAULT_CLOCK_HZ, "default", allow_overclock
    raise ScenarioError(f"profile: unknown profile {profile!r} (default, pareto)")


GROUP_DOC = "Design-space exploration for WDM photonic in-memory tensor cores."
SCENARIO_OPTIONS = (
    Option(("--catalog",), "catalog_path",
           help="Catalog JSON (defaults to $WAVECORE_CATALOG, then the shipped calibration)."),
    Option(("--core",), "core_text", default="144x256", help="Geometry HxW."),
    Option(("--variant",), "variant_text", default="baseline3d", help="Architecture variant NAME[:k=v,...]."),
    Option(("--profile",), "profile", default="default", help="Clock profile: default (1 GHz) or pareto (calibrated)."),
    Option(("--freq",), "freq", float, help="Explicit clock in Hz (overrides --profile)."),
    Option(("--allow-overclock",), "allow_overclock", None, False, help="Permit clocks above the modulator ceiling."),
    Option(("--wpe-mode",), "wpe_mode", default="budget", choices=("budget", "electrical"),
           help="Laser accounting: optical budget (wpe=1) or electrical (catalog wpe)."),
    Option(("--workload",), "workload", help="Workload name (resnet50) or JSON path."),
    Option(("--pack-pointwise", "--no-pack-pointwise"), "pack_pointwise", None, True,
           help="Pack nine pointwise channels per wavelength group."),
    Option(("--seed",), "seed", int, 0),
    Option(("--format",), "fmt", default="table", choices=("json", "csv", "table")),
)
LINKBUDGET_OPTIONS = Options(*SCENARIO_OPTIONS, HELP)
EVALUATE_OPTIONS = Options(*SCENARIO_OPTIONS, Option(
    ("--area",), "area_only", None, False, help="Print only the area section."), HELP)
ABLATE_OPTIONS = Options(*SCENARIO_OPTIONS, Option(
    ("--variants",), "variants_text", default=",".join(ABLATION_VARIANTS), help="Comma-separated variant list."), HELP)
SWEEP_OPTIONS = Options(*SCENARIO_OPTIONS, Option(
    ("--cores",), "cores_text", default=DEFAULT_SWEEP_CORES, help="Comma-separated core sizes HxW."), HELP)
SIMULATE_OPTIONS = Options(
    Option(("--model",), "model", default="tinycnn", help="Bundled model name."),
    Option(("--core",), "core_text", default="144x256", help="Geometry HxW; sets how the model's layers are tiled."),
    Option(("--sigma-in",), "sigma_in", float, 0.0031, help="Input modulation noise: std relative to each input."),
    Option(("--sigma-w",), "sigma_w", float, 0.01, help="PCM weight programming noise: std relative to each weight."),
    Option(("--sigma-out",), "sigma_out", float, 0.01, help="Detector readout noise: std relative to each reading."),
    Option(("--seed",), "seed", int, 0, help="Noise seed; image i draws from seed + i. The dataset is fixed."),
    Option(("--samples",), "samples", int, 60, help="Number of synthetic images to classify."),
    Option(("--format",), "fmt", default="table", choices=("json", "table")),
    HELP,
)


def _build_scenario(catalog_path, core_text, variant_text, profile, freq, allow_overclock,
                    wpe_mode, workload, pack_pointwise, seed, fmt) -> Scenario:
    cat = _model("catalog", load_catalog, default_catalog_path() if catalog_path is None else catalog_path)
    geom = _model("core", CoreGeometry.parse, core_text)
    variant = parse_variant(variant_text)
    # the Scenario fields f_hz, profile and allow_overclock, in that order
    clock = _resolve_frequency(profile, freq, allow_overclock)
    return Scenario(cat, geom, variant, *clock, wpe=1.0 if wpe_mode == "budget" else None, workload=workload,
                    pack_pointwise=pack_pointwise, seed=seed, fmt=fmt)


def _emit(scenario: Scenario, doc: dict, *tables) -> None:
    """One report in the scenario's format: ``doc`` under the JSON header, or
    a stamp of the tool version and catalog hash and the ``(header, rows,
    title)`` tables, as titled text tables or, for exactly one table, as CSV
    with lower-case column names."""
    write = sys.stdout.write
    sha256 = scenario.catalog.source_sha256
    if scenario.fmt == "json":
        header = {"tool": "wavecore", "version": __version__, "schema_version": 1, "catalog_sha256": sha256,
                  "seed": scenario.seed}
        write(canonical_json({"header": header, **doc}))
        return
    stamp = f"wavecore {__version__} catalog sha256:{sha256}\n"
    if scenario.fmt == "csv":
        ((header, rows, _),) = tables
        write(f"# {stamp}")
        write(render_csv([name.lower() for name in header], rows))
    else:
        write(stamp)
        for header, rows, title in tables:
            write(render_table(header, rows, title=title))


def _roll_up(scenario: Scenario, variant: ArchitectureVariant, geometries: Sequence[CoreGeometry],
             layers: tuple[ConvLayerSpec, ...] | None = None,
             field: str | None = None) -> tuple[PowerReport, ...] | tuple[PerfReport, ...]:
    """Each core's power report at ``variant`` or, with workload ``layers``,
    its perf report, which holds the power report; the one place the CLI runs
    these models. The power iterator is lazy, so each core's power, then its
    perf, runs before the next core's. An error exits 1 naming ``field``, or,
    without one, ``power`` or ``perf`` by the model that failed."""
    reports = _model(field or "power", total_power_cores, geometries, scenario.catalog, variant,
                     f_hz=scenario.f_hz, wpe=scenario.wpe)
    if layers is None:
        return _model(field or "power", tuple, reports)
    scheds = schedule_cores(layers, geometries, pack_pointwise=scenario.pack_pointwise)
    powers = reports if field else (_model("power", next, reports) for _ in geometries)
    return _model(field or "perf", estimate_perf_cores, scheds, powers, scenario.catalog,
                  allow_overclock=scenario.allow_overclock)


def linkbudget(**kwargs) -> None:
    """Critical-path insertion loss breakdown for one design point."""
    scenario = _build_scenario(**kwargs)
    report = _model("link_budget", critical_path_il, scenario.geometry, scenario.catalog, scenario.variant)
    _emit(scenario, {"link_budget": report.to_jsonable()},
          (("term", "dB"), [*report.terms, ("total", report.total_db)],
           f"critical path, {scenario.geometry.label} {report.variant_label}"))


def evaluate(area_only: bool, **kwargs) -> int:
    """Combined link budget + power + area (+ workload perf) report."""
    scenario = _build_scenario(**kwargs)
    # csv prints the text tables: evaluate has no one-table csv form yet (ROADMAP item 5)
    out = replace(scenario, fmt="table") if scenario.fmt == "csv" else scenario
    area = crossbar_area(scenario.geometry).to_jsonable()
    area_table = (("area", "value"), [
        ("crossbar", f"{area['crossbar_w_mm']:.3f} x {area['crossbar_h_mm']:.3f} mm"),
        ("total", f"{area['total_area_mm2']:.2f} mm^2"),
        ("fits_reticle", str(area["fits_reticle"])),
        ("residual", "n/a" if area["residual_mm2"] is None else f"{area['residual_mm2']:.1f} mm^2"),
    ], "area")
    if area_only:
        _emit(out, {"area": area}, area_table)
        return EXIT_OK
    layers = None if scenario.workload is None else _model("workload", load_workload, scenario.workload)
    (report,) = _roll_up(scenario, scenario.variant, (scenario.geometry,), layers)
    power, perf = (report, None) if layers is None else (report.power, report.to_jsonable())
    doc = {
        "scenario": {
            "core": scenario.geometry.label,
            "variant": scenario.variant.label,
            "profile": scenario.profile,
            "f_hz": scenario.f_hz,
            "wpe": power.wpe,
            "workload": scenario.workload,
            "pack_pointwise": scenario.pack_pointwise,
        },
        "link_budget": power.link.to_jsonable(),
        "power": power.to_jsonable(),
        "area": area,
        "perf": perf,
        "feasible": power.feasible,
    }
    tables = [
        (("term", "dB"), [*power.link.terms, ("total", power.link.total_db)], "link budget"),
        (("subsystem", "W", "fraction"), [*power.entries, ("total", power.total_w, 1.0)], "power"),
        area_table,
    ]
    if perf is not None:
        tables.append((("metric", "value"), [
            ("fps", perf["fps"]),
            ("latency_ms", perf["latency_s"] * 1e3),
            ("peak_tops", perf["peak_tops"]),
            ("tops_per_w", perf["tops_per_w"]),
            ("fps_per_w", perf["fps_per_w"]),
            ("energy_mj", perf["energy_per_inference_mj"]),
            ("energy_with_erase_mj", perf["energy_with_erase_mj"]),
        ], "performance"))
    _emit(out, doc, *tables)
    if not power.feasible:
        if scenario.fmt != "json":
            sys.stdout.write(f"INFEASIBLE: {power.infeasible_reason}\n")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _entries(field: str, text: str) -> list[tuple[str, str]]:
    """The non-blank entries of a comma-separated list, each named
    ``field[i]`` by its position ``i`` as typed; no entry exits 1."""
    entries = [(f"{field}[{i}]", item.strip()) for i, item in enumerate(text.split(",")) if item.strip()]
    if not entries:
        raise ScenarioError(f"{field}: empty list")
    return entries


def ablate(variants_text: str, **kwargs) -> None:
    """One row per architecture variant: loss, power, dominant contributor."""
    scenario = _build_scenario(**kwargs)
    variants = [(where, parse_variant(text, where)) for where, text in _entries("variants", variants_text)]
    reports = [_roll_up(scenario, variant, (scenario.geometry,), field=where)[0] for where, variant in variants]
    header = ("variant", "il_db", "total_w", "top_contributor", "fraction", "feasible")
    rows = [(rep.variant_label, rep.link.total_db, rep.total_w, *rep.top_contributor, rep.feasible)
            for rep in reports]
    _emit(scenario, {"rows": [dict(zip(header, row)) for row in rows]},
          (header, rows, f"ablation @ {scenario.geometry.label}"))


def sweep(cores_text: str, **kwargs) -> None:
    """Core-size sweep of a workload: fps and energy per inference."""
    if kwargs.get("workload") is None:
        kwargs["workload"] = "resnet50"
    scenario = _build_scenario(**kwargs)
    geometries = [_model(where, CoreGeometry.parse, text) for where, text in _entries("cores", cores_text)]
    layers = _model("workload", load_workload, scenario.workload)
    perfs = _roll_up(scenario, scenario.variant, geometries, layers, "sweep")
    header = ("core", "fps", "mj_per_inference", "total_w")
    rows = [(geom.label, perf.fps, perf.energy_per_inference_j * 1e3, perf.total_power_w)
            for geom, perf in zip(geometries, perfs)]
    _emit(scenario, {"rows": [dict(zip(header, row)) for row in rows]},
          (header, rows, f"core sweep ({scenario.workload})"))


def simulate(model: str, core_text: str, sigma_in: float, sigma_w: float, sigma_out: float,
             seed: int, samples: int, fmt: str) -> None:
    """Noise-injected inference of the bundled model on synthetic data."""
    import numpy as np

    from .engine import NoiseSpec
    from .rng import SEED_MAX, SEED_MIN
    from .synth import DATA_SEED, make_dataset, run_tinycnn

    if model != "tinycnn":
        raise ScenarioError(f"model: unknown model {model!r} (bundled: tinycnn)")
    geom = _model("core", CoreGeometry.parse, core_text)
    noise = _model("noise", NoiseSpec, sigma_in=sigma_in, sigma_w=sigma_w, sigma_out=sigma_out, seed=seed)
    _model("samples", check_number, "sample count", samples, integer=True, ge=1)
    if not SEED_MIN <= seed <= SEED_MAX - (samples - 1):
        raise ScenarioError(f"noise: image seeds seed to seed + {samples - 1} must lie in "
                            f"[-2**127, 2**127 - 1], got seed {seed}")
    too_many = f"samples: {samples} samples do not fit in memory"
    try:
        images, labels = make_dataset(samples, seed=DATA_SEED)
    except (ValueError, MemoryError) as exc:
        # numpy refuses to shape, or cannot hold, this many images
        raise ScenarioError(f"{too_many} ({exc})") from None
    # Overflow to inf/NaN is reported below as an exit 1, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            accuracy, _, stats = run_tinycnn(images, labels, geom, noise)
        except MemoryError as exc:
            raise ScenarioError(f"{too_many} ({exc})") from None
    if not all(math.isfinite(v) for s in stats for v in (s.mean, s.std, s.min, s.max)):
        raise ScenarioError(
            f"noise: sigma_in, sigma_w, sigma_out of {sigma_in}, {sigma_w}, {sigma_out} "
            "overflow the simulated datapath (non-finite layer statistics)"
        )
    if fmt == "json":
        doc = {
            "model": model,
            "core": geom.label,
            "noise": {"sigma_in": sigma_in, "sigma_w": sigma_w, "sigma_out": sigma_out, "seed": seed},
            "samples": samples,
            "accuracy": accuracy,
            "layers": [
                {"name": s.name, "mean": s.mean, "std": s.std, "min": s.min, "max": s.max}
                for s in stats
            ],
        }
        sys.stdout.write(canonical_json(doc))
    else:
        rows = [(s.name, s.mean, s.std, s.min, s.max) for s in stats]
        sys.stdout.write(render_table(("layer", "mean", "std", "min", "max"), rows, title="layer statistics"))
        sys.stdout.write(f"accuracy: {accuracy:.3f} ({samples} samples, seed {seed})\n")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

COMMANDS = {
    "ablate": (ablate, ABLATE_OPTIONS),
    "evaluate": (evaluate, EVALUATE_OPTIONS),
    "linkbudget": (linkbudget, LINKBUDGET_OPTIONS),
    "simulate": (simulate, SIMULATE_OPTIONS),
    "sweep": (sweep, SWEEP_OPTIONS),
}


def main(argv: list[str] | None = None, *, standalone_mode: bool = True) -> int:
    """Run one command line (``sys.argv[1:]`` by default); its exit code. An
    input error prints ``Error: <field>: ...`` on stderr and exits 1. With
    ``standalone_mode``, as the console script, exit the process with the code."""
    try:
        code = run("wavecore", __version__, GROUP_DOC, COMMANDS, sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except (UsageError, ScenarioError) as exc:
        sys.stderr.write(f"Error: {exc}\n")
        code = EXIT_CONFIG
    except BrokenPipeError:
        # the reader closed stdout: exit 1, and send what is still buffered to
        # devnull, so that the interpreter's last flush does not fail again
        if standalone_mode:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CONFIG
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        code = EXIT_CONFIG
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
