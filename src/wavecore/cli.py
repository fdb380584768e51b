"""Command-line surface: reproducible evaluations, ablations, and sweeps.

Exit codes: 0 for a feasible design point, 1 for configuration/validation
errors, click's usage errors included (with field-level diagnostics on
stderr), 2 only for a design point the models flag as infeasible. All
evaluations are pure functions of their inputs; ablation variants and
sweep points run one after another, in the order given. A sweep checks its
core-independent inputs once and reports the first failing core's error.
Only ``simulate`` loads the numpy simulator, on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import click

from . import __version__
from .area import crossbar_area
from .catalog import DeviceCatalog, check_number, default_catalog_path, load_catalog
from .linkbudget import VARIANTS, ArchitectureVariant, CoreGeometry, critical_path_il
from .power import PowerReport, PrecisionSpec, total_power, total_power_cores
from .report import canonical_json, render_csv, render_table
from .workload import (
    DEFAULT_CLOCK_HZ,
    PARETO_CLOCK_HZ,
    PerfReport,
    TileSchedule,
    estimate_perf,
    estimate_perf_cores,
    load_workload,
    schedule,
    schedule_cores,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2

ABLATION_VARIANTS = tuple(VARIANTS)
DEFAULT_SWEEP_CORES = "9x8,18x16,36x32,72x64,144x128,144x256"


class ScenarioError(click.ClickException):
    exit_code = EXIT_CONFIG


def _model(field: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ValueError or an arithmetic error of
    the models (a result out of float range) as an exit 1 naming ``field``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}") from None
    except ArithmeticError:
        raise ScenarioError(f"{field}: a result is out of float range") from None


def parse_variant(text: str, field: str = "variant") -> ArchitectureVariant:
    """``NAME[:k=v,...]`` to a variant; parameters are the class's fields, and
    a ``_db`` field also takes its name without the suffix. An error exits 1
    naming ``field``."""
    name, _, params_text = text.partition(":")
    name = name.strip().lower()
    cls = VARIANTS.get("baseline3d" if name == "baseline" else name)
    if cls is None:
        raise ScenarioError(
            f"{field}: unknown name {name!r} (choose from {', '.join(sorted([*VARIANTS, 'baseline']))})"
        )
    params = {}
    for param in fields(cls):
        params[param.name] = params[param.name.removesuffix("_db")] = param
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
            if param.name in kwargs:
                raise ScenarioError(f"{field}: {cls.label} parameter {param.name!r} given twice ({key!r} repeats it)")
            caster = int if param.type.startswith("int") else float  # annotations are strings here
            try:
                kwargs[param.name] = caster(value)
            except ValueError:
                raise ScenarioError(f"{field}: cannot parse {item!r}") from None
    return _model(field, cls, **kwargs)


@dataclass(frozen=True)
class Scenario:
    """One fully-resolved design point: geometry, variant, clocking, workload."""

    catalog: DeviceCatalog
    geometry: CoreGeometry
    variant: ArchitectureVariant
    precision: PrecisionSpec
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


def _scenario_options(fn):
    opts = [
        click.option("--catalog", "catalog_path", type=click.Path(), default=None,
                     help="Catalog JSON (defaults to $WAVECORE_CATALOG, then the shipped calibration)."),
        click.option("--core", "core_text", default="144x256", show_default=True, help="Geometry HxW."),
        click.option("--variant", "variant_text", default="baseline3d", show_default=True,
                     help="Architecture variant NAME[:k=v,...]."),
        click.option("--profile", default="default", show_default=True,
                     help="Clock profile: default (1 GHz) or pareto (calibrated)."),
        click.option("--freq", type=float, default=None, help="Explicit clock in Hz (overrides --profile)."),
        click.option("--allow-overclock", is_flag=True, help="Permit clocks above the modulator ceiling."),
        click.option("--wpe-mode", type=click.Choice(["budget", "electrical"]), default="budget",
                     show_default=True, help="Laser accounting: optical budget (wpe=1) or electrical (catalog wpe)."),
        click.option("--workload", default=None, help="Workload name (resnet50) or JSON path."),
        click.option("--pack-pointwise/--no-pack-pointwise", default=True, show_default=True,
                     help="Pack nine pointwise channels per wavelength group."),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="table",
                     show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _build_scenario(catalog_path, core_text, variant_text, profile, freq, allow_overclock,
                    wpe_mode, workload, pack_pointwise, seed, fmt) -> Scenario:
    cat = _model("catalog", load_catalog, catalog_path or default_catalog_path())
    geom = _model("core", CoreGeometry.parse, core_text)
    variant = parse_variant(variant_text)
    f_hz, profile_name, allow = _resolve_frequency(profile, freq, allow_overclock)
    return Scenario(
        catalog=cat,
        geometry=geom,
        variant=variant,
        precision=PrecisionSpec(),
        f_hz=f_hz,
        profile=profile_name,
        allow_overclock=allow,
        wpe=1.0 if wpe_mode == "budget" else None,
        workload=workload,
        pack_pointwise=pack_pointwise,
        seed=seed,
        fmt=fmt,
    )


def _header(scenario: Scenario) -> dict:
    return {
        "tool": "wavecore",
        "version": __version__,
        "schema_version": 1,
        "catalog_sha256": scenario.catalog.source_sha256,
        "seed": scenario.seed,
    }


def _stamp(scenario: Scenario) -> str:
    """Tool version + catalog hash line embedded in table and CSV output."""
    return f"wavecore {__version__} catalog sha256:{scenario.catalog.source_sha256}"


def _emit(scenario: Scenario, doc: dict, *tables) -> None:
    """One report in the scenario's format: ``doc`` under the JSON header, or
    the stamp and the ``(header, rows, title)`` tables, as titled text tables
    or, for exactly one table, as CSV with lower-case column names."""
    if scenario.fmt == "json":
        click.echo(canonical_json({"header": _header(scenario), **doc}), nl=False)
    elif scenario.fmt == "csv":
        ((header, rows, _),) = tables
        click.echo(f"# {_stamp(scenario)}")
        click.echo(render_csv([name.lower() for name in header], rows), nl=False)
    else:
        click.echo(_stamp(scenario))
        for header, rows, title in tables:
            click.echo(render_table(header, rows, title=title), nl=False)


def _power(scenario: Scenario, geom: CoreGeometry, variant: ArchitectureVariant) -> PowerReport:
    return total_power(geom, scenario.catalog, variant, scenario.precision, scenario.f_hz, wpe=scenario.wpe)


def _perf(scenario: Scenario, sched: TileSchedule, power: PowerReport) -> PerfReport:
    return estimate_perf(sched, power, scenario.f_hz, scenario.catalog, allow_overclock=scenario.allow_overclock)


def _input_error(exc: click.UsageError) -> ScenarioError:
    """A click usage error as an exit 1 naming the option at fault."""
    if isinstance(exc, click.BadParameter):
        return ScenarioError(f"{exc.param.opts[0]}: {exc.message}")
    option = getattr(exc, "option_name", None) or "command"
    return ScenarioError(f"{option}: {exc.format_message()}")


class _Commands(click.Group):
    """The command group. A usage error in the group's options or a command's
    (text that is not a number or a choice, an unknown option) exits 1 naming
    the option, as any other input error does, so that exit 2 means only
    infeasible. A bare ``wavecore`` prints the help and exits 1: a missing
    command is an input error too."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except click.exceptions.NoArgsIsHelpError as exc:
            exc.exit_code = EXIT_CONFIG
            raise
        except click.UsageError as exc:
            raise _input_error(exc) from None

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            raise _input_error(exc) from None


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="wavecore")
def main() -> None:
    """Design-space exploration for WDM photonic in-memory tensor cores."""


@main.command()
@_scenario_options
def linkbudget(**kwargs) -> None:
    """Critical-path insertion loss breakdown for one design point."""
    scenario = _build_scenario(**kwargs)
    report = _model("link_budget", critical_path_il, scenario.geometry, scenario.catalog, scenario.variant)
    _emit(scenario, {"link_budget": report.to_jsonable()},
          (("term", "dB"), [*report.terms, ("total", report.total_db)],
           f"critical path, {scenario.geometry.label} {report.variant_label}"))


@main.command()
@_scenario_options
@click.option("--area", "area_only", is_flag=True, help="Print only the area section.")
def evaluate(area_only: bool, **kwargs) -> None:
    """Combined link budget + power + area (+ workload perf) report."""
    scenario = _build_scenario(**kwargs)
    power = _model("power", _power, scenario, scenario.geometry, scenario.variant)
    area = crossbar_area(scenario.geometry).to_jsonable()
    perf = None
    if scenario.workload:
        layers = _model("workload", load_workload, scenario.workload)
        sched = schedule(layers, scenario.geometry, scenario.catalog.pcm, pack_pointwise=scenario.pack_pointwise)
        perf = _model("perf", _perf, scenario, sched, power).to_jsonable()
    area_table = (("area", "value"), [
        ("crossbar", f"{area['crossbar_w_mm']:.3f} x {area['crossbar_h_mm']:.3f} mm"),
        ("total", f"{area['total_area_mm2']:.2f} mm^2"),
        ("fits_reticle", str(area["fits_reticle"])),
        ("residual", "n/a" if area["residual_mm2"] is None else f"{area['residual_mm2']:.1f} mm^2"),
    ], "area")
    if area_only:
        doc, tables = {"area": area}, [area_table]
    else:
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
    # csv prints the text tables: evaluate has no one-table csv form yet (ROADMAP item 5)
    _emit(replace(scenario, fmt="table") if scenario.fmt == "csv" else scenario, doc, *tables)
    if not power.feasible:
        if scenario.fmt != "json" and not area_only:
            click.echo(f"INFEASIBLE: {power.infeasible_reason}")
        sys.exit(EXIT_INFEASIBLE)


@main.command()
@_scenario_options
@click.option("--variants", "variants_text", default=",".join(ABLATION_VARIANTS), show_default=True,
              help="Comma-separated variant list.")
def ablate(variants_text: str, **kwargs) -> None:
    """One row per architecture variant: loss, power, dominant contributor."""
    scenario = _build_scenario(**kwargs)
    names = [v.strip() for v in variants_text.split(",") if v.strip()]
    if not names:
        raise ScenarioError("variants: empty list")
    variants = [parse_variant(name, f"variants[{i}]") for i, name in enumerate(names)]
    reports = [_model(f"variants[{i}]", _power, scenario, scenario.geometry, variant)
               for i, variant in enumerate(variants)]
    header = ("variant", "il_db", "total_w", "top_contributor", "fraction", "feasible")
    rows = [(rep.variant_label, rep.link.total_db, rep.total_w, *rep.top_contributor, rep.feasible)
            for rep in reports]
    _emit(scenario, {"rows": [dict(zip(header, row)) for row in rows]},
          (header, rows, f"ablation @ {scenario.geometry.label}"))


@main.command()
@_scenario_options
@click.option("--cores", "cores_text", default=DEFAULT_SWEEP_CORES, show_default=True,
              help="Comma-separated core sizes HxW.")
def sweep(cores_text: str, **kwargs) -> None:
    """Core-size sweep of a workload: fps and energy per inference."""
    if kwargs.get("workload") is None:
        kwargs["workload"] = "resnet50"
    scenario = _build_scenario(**kwargs)
    core_texts = [c.strip() for c in cores_text.split(",") if c.strip()]
    if not core_texts:
        raise ScenarioError("cores: empty list")
    geometries = [_model(f"cores[{i}]", CoreGeometry.parse, text) for i, text in enumerate(core_texts)]
    layers = _model("workload", load_workload, scenario.workload)
    # one walk of the workload and one check of the core-independent inputs for every
    # core; the power iterator is lazy, so each core still runs power, then perf
    scheds = schedule_cores(layers, geometries, pack_pointwise=scenario.pack_pointwise)
    perfs = _model("sweep", lambda: estimate_perf_cores(
        scheds,
        total_power_cores(geometries, scenario.catalog, scenario.variant, scenario.precision, scenario.f_hz,
                          wpe=scenario.wpe),
        scenario.f_hz, scenario.catalog, allow_overclock=scenario.allow_overclock,
    ))
    header = ("core", "fps", "mj_per_inference", "total_w")
    rows = [(geom.label, perf.fps, perf.energy_per_inference_j * 1e3, perf.total_power_w)
            for geom, perf in zip(geometries, perfs)]
    _emit(scenario, {"rows": [dict(zip(header, row)) for row in rows]},
          (header, rows, f"core sweep ({scenario.workload})"))


@main.command()
@click.option("--model", default="tinycnn", show_default=True, help="Bundled model name.")
@click.option("--core", "core_text", default="144x256", show_default=True,
              help="Geometry HxW; sets how the model's layers are tiled.")
@click.option("--sigma-in", type=float, default=0.0031, show_default=True,
              help="Input modulation noise: std relative to each input.")
@click.option("--sigma-w", type=float, default=0.01, show_default=True,
              help="PCM weight programming noise: std relative to each weight.")
@click.option("--sigma-out", type=float, default=0.01, show_default=True,
              help="Detector readout noise: std relative to each reading.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Noise seed; image i draws from seed + i. The dataset is fixed.")
@click.option("--samples", type=int, default=60, show_default=True, help="Number of synthetic images to classify.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table", show_default=True)
def simulate(model: str, core_text: str, sigma_in: float, sigma_w: float, sigma_out: float,
             seed: int, samples: int, fmt: str) -> None:
    """Noise-injected inference of the bundled model on synthetic data."""
    import numpy as np

    from .engine import NoiseSpec
    from .synth import DATA_SEED, make_dataset, run_tinycnn

    if model != "tinycnn":
        raise ScenarioError(f"model: unknown model {model!r} (bundled: tinycnn)")
    geom = _model("core", CoreGeometry.parse, core_text)
    noise = _model("noise", NoiseSpec, sigma_in=sigma_in, sigma_w=sigma_w, sigma_out=sigma_out, seed=seed)
    _model("samples", check_number, "sample count", samples, integer=True, ge=1)
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
        click.echo(canonical_json(doc), nl=False)
    else:
        rows = [(s.name, s.mean, s.std, s.min, s.max) for s in stats]
        click.echo(render_table(("layer", "mean", "std", "min", "max"), rows, title="layer statistics"),
                   nl=False)
        click.echo(f"accuracy: {accuracy:.3f} ({samples} samples, seed {seed})")


if __name__ == "__main__":
    main()
