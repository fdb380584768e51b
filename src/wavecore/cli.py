"""Command-line surface: reproducible evaluations, ablations, and sweeps.

Exit codes: 0 for a feasible design point, 1 for configuration/validation
errors (with field-level diagnostics on stderr), 2 for a design point the
models flag as infeasible. All evaluations are pure functions of their
inputs; ablation variants and sweep points run one after another, in the
order given. Only ``simulate`` loads the numpy simulator, on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import click

from . import __version__
from .area import crossbar_area
from .catalog import CatalogError, DeviceCatalog, default_catalog_path, load_catalog
from .linkbudget import (
    ArchitectureVariant,
    Baseline3D,
    CoherentCombining,
    CoreGeometry,
    KclOnly,
    MrrAccumulation,
    Planar2D,
    SoaAssisted,
    ThermoOpticWeights,
    critical_path_il,
)
from .power import PowerReport, PrecisionSpec, total_power
from .report import canonical_json, render_csv, render_table
from .workload import (
    DEFAULT_CLOCK_HZ,
    PARETO_CLOCK_HZ,
    estimate_perf,
    load_workload,
    schedule,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2

_VARIANT_BUILDERS = {
    "baseline3d": Baseline3D,
    "baseline": Baseline3D,
    "soa": SoaAssisted,
    "planar2d": Planar2D,
    "thermo": ThermoOpticWeights,
    "mrr": MrrAccumulation,
    "kcl": KclOnly,
    "coherent": CoherentCombining,
}

_VARIANT_PARAM_TYPES = {
    "fanout_before_amp": int,
    "crossing_count": int,
    "ybranch_count": int,
    "ring_loss_db": float,
    "ring_loss": float,
    "stage_loss_db": float,
    "stage_loss": float,
}

ABLATION_VARIANTS = ("baseline3d", "soa", "planar2d", "thermo", "mrr", "kcl", "coherent")
DEFAULT_SWEEP_CORES = "9x8,18x16,36x32,72x64,144x128,144x256"


class ScenarioError(click.ClickException):
    exit_code = EXIT_CONFIG


def parse_variant(text: str) -> ArchitectureVariant:
    name, _, params_text = text.partition(":")
    name = name.strip().lower()
    if name not in _VARIANT_BUILDERS:
        raise ScenarioError(
            f"variant: unknown name {name!r} (choose from {', '.join(sorted(set(_VARIANT_BUILDERS)))})"
        )
    kwargs = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ScenarioError(f"variant: malformed parameter {item!r} (expected k=v)")
            key = key.strip()
            caster = _VARIANT_PARAM_TYPES.get(key)
            if caster is None:
                raise ScenarioError(f"variant: unknown parameter {key!r}")
            # accept the short aliases used on the command line
            if key in ("ring_loss", "stage_loss"):
                key += "_db"
            try:
                kwargs[key] = caster(value)
            except ValueError:
                raise ScenarioError(f"variant: cannot parse {item!r}") from None
    try:
        return _VARIANT_BUILDERS[name](**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"variant: {exc}") from None


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
        if not (math.isfinite(freq) and freq > 0.0):
            raise ScenarioError(f"freq: must be a finite clock > 0 Hz, got {freq}")
        return freq, "custom", allow_overclock
    if profile == "pareto":
        return PARETO_CLOCK_HZ, "pareto", True
    if profile == "default":
        return DEFAULT_CLOCK_HZ, "default", allow_overclock
    raise ScenarioError(f"profile: unknown profile {profile!r} (default, pareto)")


def _scenario_options(fn):
    opts = [
        click.option("--catalog", "catalog_path", type=click.Path(), default=None,
                     envvar="WAVECORE_CATALOG", help="Catalog JSON (defaults to the shipped calibration)."),
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
    try:
        cat = load_catalog(catalog_path) if catalog_path else load_catalog(default_catalog_path())
    except CatalogError as exc:
        raise ScenarioError(f"catalog: {exc}") from None
    try:
        geom = CoreGeometry.parse(core_text)
    except ValueError as exc:
        raise ScenarioError(f"core: {exc}") from None
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


def _evaluate_point(scenario: Scenario) -> tuple[dict, PowerReport]:
    power = total_power(
        scenario.geometry, scenario.catalog, scenario.variant, scenario.precision,
        scenario.f_hz, wpe=scenario.wpe,
    )
    area = crossbar_area(scenario.geometry)
    doc = {
        "header": _header(scenario),
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
        "area": area.to_jsonable(),
        "perf": None,
        "feasible": power.feasible,
    }
    if scenario.workload:
        try:
            layers = load_workload(scenario.workload)
        except ValueError as exc:
            raise ScenarioError(f"workload: {exc}") from None
        sched = schedule(layers, scenario.geometry, scenario.catalog.pcm,
                         pack_pointwise=scenario.pack_pointwise)
        try:
            perf = estimate_perf(sched, power, scenario.f_hz, scenario.catalog,
                                 allow_overclock=scenario.allow_overclock)
        except ValueError as exc:
            raise ScenarioError(f"perf: {exc}") from None
        doc["perf"] = perf.to_jsonable()
    return doc, power


@click.group()
@click.version_option(version=__version__, prog_name="wavecore")
def main() -> None:
    """Design-space exploration for WDM photonic in-memory tensor cores."""


@main.command()
@_scenario_options
def linkbudget(**kwargs) -> None:
    """Critical-path insertion loss breakdown for one design point."""
    scenario = _build_scenario(**kwargs)
    report = critical_path_il(scenario.geometry, scenario.catalog, scenario.variant)
    if scenario.fmt == "json":
        doc = {"header": _header(scenario), "link_budget": report.to_jsonable()}
        click.echo(canonical_json(doc), nl=False)
    elif scenario.fmt == "csv":
        rows = [(name, db) for name, db in report.terms] + [("total", report.total_db)]
        click.echo(f"# {_stamp(scenario)}")
        click.echo(render_csv(("term", "db"), rows), nl=False)
    else:
        rows = [(name, db) for name, db in report.terms] + [("total", report.total_db)]
        click.echo(_stamp(scenario))
        click.echo(
            render_table(("term", "dB"), rows,
                         title=f"critical path, {scenario.geometry.label} {report.variant_label}"),
            nl=False,
        )


@main.command()
@_scenario_options
@click.option("--area", "area_only", is_flag=True, help="Print only the area section.")
def evaluate(area_only: bool, **kwargs) -> None:
    """Combined link budget + power + area (+ workload perf) report."""
    scenario = _build_scenario(**kwargs)
    doc, power = _evaluate_point(scenario)
    area = doc["area"]
    area_rows = [
        ("crossbar", f"{area['crossbar_w_mm']:.3f} x {area['crossbar_h_mm']:.3f} mm"),
        ("total", f"{area['total_area_mm2']:.2f} mm^2"),
        ("fits_reticle", str(area["fits_reticle"])),
        ("residual", "n/a" if area["residual_mm2"] is None else f"{area['residual_mm2']:.1f} mm^2"),
    ]
    if scenario.fmt == "json":
        if area_only:
            doc = {"header": doc["header"], "area": area}
        click.echo(canonical_json(doc), nl=False)
    elif area_only:
        click.echo(_stamp(scenario))
        click.echo(render_table(("area", "value"), area_rows, title="area"), nl=False)
    else:
        click.echo(_stamp(scenario))
        link_rows = [(n, db) for n, db in power.link.terms] + [("total", power.link.total_db)]
        click.echo(render_table(("term", "dB"), link_rows, title="link budget"), nl=False)
        power_rows = [(n, w, f) for n, w, f in power.entries] + [("total", power.total_w, 1.0)]
        click.echo(render_table(("subsystem", "W", "fraction"), power_rows, title="power"), nl=False)
        click.echo(render_table(("area", "value"), area_rows, title="area"), nl=False)
        if doc["perf"] is not None:
            perf = doc["perf"]
            perf_rows = [
                ("fps", perf["fps"]),
                ("latency_ms", perf["latency_s"] * 1e3),
                ("peak_tops", perf["peak_tops"]),
                ("tops_per_w", perf["tops_per_w"]),
                ("fps_per_w", perf["fps_per_w"]),
                ("energy_mj", perf["energy_per_inference_mj"]),
                ("energy_with_erase_mj", perf["energy_with_erase_mj"]),
            ]
            click.echo(render_table(("metric", "value"), perf_rows, title="performance"), nl=False)
        if not power.feasible:
            click.echo(f"INFEASIBLE: {power.infeasible_reason}")
    if not power.feasible:
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
    variants = []
    for i, name in enumerate(names):
        try:
            variants.append(parse_variant(name))
        except ScenarioError as exc:
            raise ScenarioError(f"variants[{i}]: {exc.message}") from None
    reports = [
        total_power(scenario.geometry, scenario.catalog, variant, scenario.precision, scenario.f_hz,
                    wpe=scenario.wpe)
        for variant in variants
    ]

    rows = []
    for rep in reports:
        top, frac = rep.top_contributor
        rows.append((rep.variant_label, rep.link.total_db, rep.total_w, top, frac, rep.feasible))
    header = ("variant", "il_db", "total_w", "top_contributor", "fraction", "feasible")
    if scenario.fmt == "json":
        doc = {
            "header": _header(scenario),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        click.echo(canonical_json(doc), nl=False)
    elif scenario.fmt == "table":
        click.echo(_stamp(scenario))
        click.echo(render_table(header, rows, title=f"ablation @ {scenario.geometry.label}"), nl=False)
    else:
        click.echo(f"# {_stamp(scenario)}")
        click.echo(render_csv(header, rows), nl=False)


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
    geometries = []
    for i, text in enumerate(core_texts):
        try:
            geometries.append(CoreGeometry.parse(text))
        except ValueError as exc:
            raise ScenarioError(f"cores[{i}]: {exc}") from None
    try:
        layers = load_workload(scenario.workload)
    except ValueError as exc:
        raise ScenarioError(f"workload: {exc}") from None

    def run(geom: CoreGeometry):
        power = total_power(geom, scenario.catalog, scenario.variant, scenario.precision,
                            scenario.f_hz, wpe=scenario.wpe)
        sched = schedule(layers, geom, scenario.catalog.pcm, pack_pointwise=scenario.pack_pointwise)
        perf = estimate_perf(sched, power, scenario.f_hz, scenario.catalog,
                             allow_overclock=scenario.allow_overclock)
        return geom, perf

    try:
        results = [run(geom) for geom in geometries]
    except ValueError as exc:
        raise ScenarioError(f"sweep: {exc}") from None

    header = ("core", "fps", "mj_per_inference", "total_w")
    rows = [
        (geom.label, perf.fps, perf.energy_per_inference_j * 1e3, perf.total_power_w)
        for geom, perf in results
    ]
    if scenario.fmt == "json":
        doc = {"header": _header(scenario), "rows": [dict(zip(header, row)) for row in rows]}
        click.echo(canonical_json(doc), nl=False)
    elif scenario.fmt == "table":
        click.echo(_stamp(scenario))
        click.echo(render_table(header, rows, title=f"core sweep ({scenario.workload})"), nl=False)
    else:
        click.echo(f"# {_stamp(scenario)}")
        click.echo(render_csv(header, rows), nl=False)


@main.command()
@click.option("--model", default="tinycnn", show_default=True, help="Bundled model name.")
@click.option("--core", "core_text", default="144x256", show_default=True)
@click.option("--sigma-in", type=float, default=0.0031, show_default=True)
@click.option("--sigma-w", type=float, default=0.01, show_default=True)
@click.option("--sigma-out", type=float, default=0.01, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=60, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table", show_default=True)
def simulate(model: str, core_text: str, sigma_in: float, sigma_w: float, sigma_out: float,
             seed: int, samples: int, fmt: str) -> None:
    """Noise-injected inference of the bundled model on synthetic data."""
    import numpy as np

    from .engine import NoiseSpec
    from .synth import simulate_accuracy

    if model != "tinycnn":
        raise ScenarioError(f"model: unknown model {model!r} (bundled: tinycnn)")
    if samples < 1:
        raise ScenarioError(f"samples: must be >= 1, got {samples}")
    try:
        geom = CoreGeometry.parse(core_text)
        noise = NoiseSpec(sigma_in=sigma_in, sigma_w=sigma_w, sigma_out=sigma_out, seed=seed)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    # Overflow to inf/NaN is reported below as an exit 1, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        accuracy, _, _, stats = simulate_accuracy(geom, noise, n_samples=samples)
    if not all(math.isfinite(v) for s in stats for v in (s.mean, s.std, s.min, s.max)):
        raise ScenarioError(
            f"sigma_in, sigma_w, sigma_out: noise of {sigma_in}, {sigma_w}, {sigma_out} "
            "overflows the simulated datapath (non-finite layer statistics)"
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
