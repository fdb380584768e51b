"""System power roll-up: laser, converters, drivers, readout, and variant extras.

The electrical laser requirement is driven backward from detector
sensitivity through the critical-path loss, scaled for output resolution and
finite modulator extinction. Converter power follows the standard
resolution-rate law. Variant-specific static loads (amplifier drive, heater
hold) are added on top; non-volatile weighting contributes no static term.

Two wall-plug accounting modes are first-class:

* ``wpe=1.0`` (default): launch-power accounting used for variant
  comparisons, where totals are reported at the optical budget level.
* ``wpe=None``: divide by the catalog laser wall-plug efficiency, the
  documented electrical mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import DeviceCatalog
from .linkbudget import (
    ArchitectureVariant,
    Baseline3D,
    CoreGeometry,
    LinkBudgetReport,
    SoaAssisted,
    ThermoOpticWeights,
    critical_path_il,
    variant_feasibility,
)

_TOL_FRACTION = 1e-9


@dataclass(frozen=True)
class PrecisionSpec:
    """Datapath bit widths: modulator input, stored weight, readout output."""

    b_in: int = 6
    b_w: int = 7
    b_out: int = 8

    def __post_init__(self) -> None:
        for name in ("b_in", "b_w", "b_out"):
            bits = getattr(self, name)
            if not 1 <= bits <= 16:
                raise ValueError(f"{name} must be in [1, 16], got {bits}")


@dataclass(frozen=True)
class PowerReport:
    """Per-subsystem power breakdown with fractions; total equals the entry sum."""

    total_w: float
    entries: tuple[tuple[str, float, float], ...]
    geometry: CoreGeometry
    variant_label: str
    b_in: int
    b_out: int
    f_hz: float
    wpe: float
    link: LinkBudgetReport
    feasible: bool
    infeasible_reason: str = ""

    def __post_init__(self) -> None:
        total = sum(w for _, w, _ in self.entries)
        if not math.isclose(total, self.total_w, rel_tol=_TOL_FRACTION, abs_tol=0.0):
            raise ValueError(f"total {self.total_w} != entry sum {total}")
        frac_sum = sum(f for _, _, f in self.entries)
        if not (abs(frac_sum - 1.0) <= _TOL_FRACTION):
            raise ValueError(f"fractions sum to {frac_sum}, expected 1")
        for name, w, _ in self.entries:
            if w < 0.0:
                raise ValueError(f"entry {name} is negative ({w})")

    def watts(self, label: str) -> float:
        for name, w, _ in self.entries:
            if name == label:
                return w
        raise KeyError(label)

    def fraction(self, label: str) -> float:
        for name, _, f in self.entries:
            if name == label:
                return f
        raise KeyError(label)

    @property
    def top_contributor(self) -> tuple[str, float]:
        name, _, frac = max(self.entries, key=lambda e: e[1])
        return name, frac

    def to_jsonable(self) -> dict:
        return {
            "variant": self.variant_label,
            "core": self.geometry.label,
            "total_w": self.total_w,
            "feasible": self.feasible,
            "infeasible_reason": self.infeasible_reason,
            "assumptions": {
                "b_in": self.b_in,
                "b_out": self.b_out,
                "f_hz": self.f_hz,
                "wpe": self.wpe,
                "il_db": self.link.total_db,
            },
            "breakdown": [
                {"label": name, "watts": w, "fraction": f} for name, w, f in self.entries
            ],
        }


def laser_power(
    sensitivity_dbm: float,
    il_db: float,
    b_out: int,
    er_db: float,
    wpe: float,
) -> float:
    """Electrical laser power (W) needed to close the link at full output swing.

    The launch requirement is the detector sensitivity propagated backward
    through the path loss, times 2^b_out so the full-scale swing spans the
    output code range, corrected for the usable modulation depth of a finite
    extinction ratio, divided by the wall-plug efficiency.
    """
    if er_db <= 0.0:
        raise ValueError(f"extinction ratio must be > 0 dB, got {er_db!r} (modulator unusable)")
    if not 0.0 < wpe <= 1.0:
        raise ValueError(f"wpe must be in (0, 1], got {wpe!r}")
    launched_mw = 10.0 ** ((sensitivity_dbm + il_db) / 10.0)
    depth = 1.0 - 10.0 ** (-er_db / 10.0)
    return launched_mw * (2.0 ** b_out) / wpe / depth * 1e-3


def dac_power(bits: int, f_hz: float, p0_ws: float) -> float:
    """Converter power (W) under the resolution-rate scaling law p0 * 2^b/(b+1) * f."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if f_hz <= 0.0:
        raise ValueError(f"f_hz must be > 0, got {f_hz!r}")
    return p0_ws * (2.0 ** bits) / (bits + 1) * f_hz


def adc_power(bits: int, f_hz: float, p0_ws: float) -> float:
    return dac_power(bits, f_hz, p0_ws)


def vcsel_program_energy(e_opt_pj: float, gc_loss_db: float, eta_vcsel: float) -> float:
    """Electrical emitter energy (pJ) delivering ``e_opt_pj`` at the weight cell.

    Backs the optical write/erase energy out through the vertical coupler loss
    and the emitter wall-plug efficiency.
    """
    if not 0.0 < eta_vcsel <= 1.0:
        raise ValueError(f"eta_vcsel must be in (0, 1], got {eta_vcsel!r}")
    if e_opt_pj < 0.0:
        raise ValueError(f"optical energy must be >= 0, got {e_opt_pj!r}")
    return e_opt_pj * 10.0 ** (gc_loss_db / 10.0) / eta_vcsel


def total_power(
    geom: CoreGeometry,
    cat: DeviceCatalog,
    variant: ArchitectureVariant = Baseline3D(),
    precision: PrecisionSpec = PrecisionSpec(),
    f_hz: float = 1e9,
    *,
    wpe: float | None = 1.0,
) -> PowerReport:
    """Steady-state system power for one design point.

    Sums the inference laser (sized from the variant's critical-path loss),
    one DAC and modulator driver per row, one ADC and TIA per column, the
    per-row equalization trim bank, and variant extras: amplifier drive for
    amplified fanout, heater hold for thermo-optic weighting. Non-volatile
    weight variants add no static weight power.

    ``wpe=None`` selects the catalog laser wall-plug efficiency; the default
    ``1.0`` reports at the optical launch budget level (the variant-comparison
    convention).
    """
    if f_hz <= 0.0:
        raise ValueError(f"f_hz must be > 0, got {f_hz!r}")
    effective_wpe = cat.laser.wpe if wpe is None else wpe

    link = critical_path_il(geom, cat, variant)
    laser_w = laser_power(
        cat.pd.sensitivity_dbm, link.total_db, precision.b_out, cat.modulator.extinction_ratio_db, effective_wpe
    )

    entries: list[tuple[str, float]] = [("laser", laser_w)]
    entries.append(("input_dac", geom.rows * dac_power(precision.b_in, f_hz, cat.converters.p0_dac_ws)))
    entries.append(("mzm_driver", geom.rows * cat.modulator.switch_energy_fj(precision.b_in) * 1e-15 * f_hz))
    entries.append(("voa_bank", geom.rows * (cat.component("voa").static_power_mw or 0.0) * 1e-3))
    entries.append(("output_adc", geom.cols * adc_power(precision.b_out, f_hz, cat.converters.p0_adc_ws)))
    entries.append(("tia", geom.cols * (cat.component("tia").static_power_mw or 0.0) * 1e-3))

    if isinstance(variant, SoaAssisted):
        entries.append(("soa_drive", geom.rows * cat.soa.drive_power_mw * 1e-3))
    elif isinstance(variant, ThermoOpticWeights):
        entries.append(("heater_hold", geom.cells * cat.thermo.heater_hold_mw_per_weight * 1e-3))

    total = sum(w for _, w in entries)
    verdict = variant_feasibility(link, cat.laser, cat.pd)
    reason = "" if verdict.feasible else (
        f"single-channel link margin {verdict.margin_db:.1f} dB at {link.total_db:.1f} dB path loss"
    )

    return PowerReport(
        total_w=total,
        entries=tuple((name, w, w / total) for name, w in entries),
        geometry=geom,
        variant_label=variant.label,
        b_in=precision.b_in,
        b_out=precision.b_out,
        f_hz=f_hz,
        wpe=effective_wpe,
        link=link,
        feasible=verdict.feasible,
        infeasible_reason=reason,
    )
