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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .catalog import DeviceCatalog, check_number
from .linkbudget import (
    ArchitectureVariant,
    Baseline3D,
    CoreGeometry,
    LinkBudgetReport,
    critical_path_il,
)


@dataclass(frozen=True)
class PrecisionSpec:
    """Datapath bit widths: modulator input and readout output. The stored
    weight's resolution is the catalog's ``pcm.levels_bits``."""

    b_in: int = 6
    b_out: int = 8

    def __post_init__(self) -> None:
        check_number("b_in", self.b_in, integer=True, ge=1, le=16)
        check_number("b_out", self.b_out, integer=True, ge=1, le=16)


@dataclass(frozen=True)
class PowerReport:
    """Per-subsystem power breakdown. ``entry_watts`` holds the (name, watts)
    pairs; ``total_w`` is not passed in: it is their sum, made once when the
    report is built. Each entry's fraction of the total is computed when
    ``entries``, ``fraction`` or ``top_contributor`` is read. ``margin_db`` is
    the single-channel link margin, from which ``feasible`` and its reason
    are derived; the geometry and variant are ``link``'s."""

    entry_watts: tuple[tuple[str, float], ...]
    b_in: int
    b_out: int
    f_hz: float
    wpe: float
    link: LinkBudgetReport
    margin_db: float
    total_w: float = field(init=False)

    def __post_init__(self) -> None:
        check_number("f_hz", self.f_hz, gt=0.0)
        check_number("wpe", self.wpe, gt=0.0, le=1.0)
        total = sum([w for _, w in self.entry_watts])
        object.__setattr__(self, "total_w", total)
        try:
            check_number("total_w", total)
        except ValueError as exc:
            raise ValueError(f"{exc} (largest entry {self.top_contributor[0]})") from None
        for name, w in self.entry_watts:
            if w < 0.0:
                raise ValueError(f"entry {name} is negative ({w})")
        if total == 0.0:
            raise ValueError("total_w is 0, so the entries have no fractions")
        check_number("link margin_db", self.margin_db)

    @property
    def geometry(self) -> CoreGeometry:
        return self.link.geometry

    @property
    def variant_label(self) -> str:
        return self.link.variant_label

    @property
    def feasible(self) -> bool:
        return self.margin_db >= 0.0

    @property
    def infeasible_reason(self) -> str:
        if self.feasible:
            return ""
        return f"single-channel link margin {self.margin_db:.1f} dB at {self.link.total_db:.1f} dB path loss"

    @property
    def entries(self) -> tuple[tuple[str, float, float], ...]:
        """(name, watts, fraction of the total) per entry, in order."""
        total = self.total_w
        return tuple([(name, w, w / total) for name, w in self.entry_watts])

    def watts(self, label: str) -> float:
        for name, w in self.entry_watts:
            if name == label:
                return w
        raise KeyError(label)

    def fraction(self, label: str) -> float:
        return self.watts(label) / self.total_w

    @property
    def top_contributor(self) -> tuple[str, float]:
        name, w = max(self.entry_watts, key=lambda e: e[1])
        return name, w / self.total_w

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
    check_number("sensitivity_dbm", sensitivity_dbm)
    check_number("il_db", il_db)
    check_number("b_out", b_out, integer=True, ge=1, le=16)
    check_number("extinction ratio in dB", er_db, gt=0.0)
    check_number("wpe", wpe, gt=0.0, le=1.0)
    try:
        watts = _laser_w(sensitivity_dbm, il_db, 2.0 ** b_out, wpe, _modulation_depth(er_db))
    except OverflowError:
        watts = math.inf
    if watts == math.inf:
        raise ValueError(f"a result is out of float range: the laser power for il_db {il_db:.6g} dB "
                         f"at sensitivity_dbm {sensitivity_dbm:.6g} dBm")
    return watts


def _modulation_depth(er_db: float) -> float:
    """Usable modulation depth of a finite extinction ratio; a ratio so close
    to 0 dB that the depth rounds to 0.0 raises ValueError."""
    depth = 1.0 - 10.0 ** (-er_db / 10.0)
    if depth == 0.0:
        raise ValueError(f"extinction ratio in dB {er_db:.6g} gives no modulation depth (it rounds to 0.0)")
    return depth


def _laser_w(sensitivity_dbm: float, il_db: float, full_scale: float, wpe: float, depth: float) -> float:
    """The laser formula of :func:`laser_power`, on checked inputs; ``full_scale`` is 2^b_out."""
    launched_mw = 10.0 ** ((sensitivity_dbm + il_db) / 10.0)
    return launched_mw * full_scale / wpe / depth * 1e-3


def dac_power(bits: int, f_hz: float, p0_ws: float) -> float:
    """Converter power (W) under the resolution-rate scaling law p0 * 2^b/(b+1) * f."""
    check_number("bits", bits, integer=True, ge=1, le=16)
    check_number("f_hz", f_hz, gt=0.0)
    check_number("p0_ws", p0_ws, ge=0.0)
    return p0_ws * (2.0 ** bits) / (bits + 1) * f_hz


def vcsel_program_energy(e_opt_pj: float, gc_loss_db: float, eta_vcsel: float) -> float:
    """Electrical emitter energy (pJ) delivering ``e_opt_pj`` at the weight cell.

    Backs the optical write/erase energy out through the vertical coupler loss
    and the emitter wall-plug efficiency.
    """
    check_number("eta_vcsel", eta_vcsel, gt=0.0, le=1.0)
    check_number("e_opt_pj", e_opt_pj, ge=0.0)
    check_number("gc_loss_db", gc_loss_db)
    try:
        return e_opt_pj * 10.0 ** (gc_loss_db / 10.0) / eta_vcsel
    except OverflowError:
        raise ValueError(_write_out_of_range(gc_loss_db)) from None


def _write_out_of_range(gc_loss_db: float) -> str:
    return f"a result is out of float range: the write energy through a {gc_loss_db:.6g} dB grating_coupler loss"


def _write_energies_j(cells: int, cat: DeviceCatalog) -> tuple[float, float]:
    """Electrical program and erase energies (J) of writing ``cells`` weight
    cells once, each through :func:`vcsel_program_energy`. Their sum out of
    float range, in mJ, names the grating-coupler loss if the same write
    without that loss is in range."""
    pcm, gc_loss, eta = cat.pcm, cat.loss_db("grating_coupler"), cat.vcsel.efficiency
    program_j = cells * vcsel_program_energy(pcm.program_energy_pj, gc_loss, eta) * 1e-12
    erase_j = cells * vcsel_program_energy(pcm.erase_energy_pj, gc_loss, eta) * 1e-12
    if (math.isinf((program_j + erase_j) * 1e3)
            and math.isfinite(cells * (pcm.program_energy_pj + pcm.erase_energy_pj) / eta * 1e-9)):
        raise ValueError(_write_out_of_range(gc_loss))
    return program_j, erase_j


def total_power_cores(
    geometries: Iterable[CoreGeometry],
    cat: DeviceCatalog,
    variant: ArchitectureVariant = Baseline3D(),
    precision: PrecisionSpec = PrecisionSpec(),
    f_hz: float = 1e9,
    *,
    wpe: float | None = 1.0,
) -> Iterator[PowerReport]:
    """:func:`total_power` of each of ``geometries``, in order, as an iterator.

    The inputs that do not depend on the core are checked and derived once,
    when this is called: the clock, the wall-plug efficiency, the laser's
    sensitivity, modulation depth and 2^b_out, both converter powers, the
    driver's switch energy and the VOA and TIA static powers; so a bad
    ``wpe`` is reported before any core's link budget is built. Each core's
    link budget, laser power, entries and link margin are computed when the
    iterator reaches it, so a caller that interleaves other per-core work
    (as :func:`~wavecore.workload.estimate_perf_cores` does) sees the first
    failing core's error first.
    """
    check_number("f_hz", f_hz, gt=0.0)
    effective_wpe = cat.laser.wpe if wpe is None else wpe
    sensitivity, er_db = cat.pd.sensitivity_dbm, cat.modulator.extinction_ratio_db
    # laser_power's checks, less the path loss's: each core's LinkBudgetReport makes that one
    check_number("sensitivity_dbm", sensitivity)
    check_number("extinction ratio in dB", er_db, gt=0.0)
    check_number("wpe", effective_wpe, gt=0.0, le=1.0)
    full_scale = 2.0 ** precision.b_out
    depth = _modulation_depth(er_db)
    dac_w = dac_power(precision.b_in, f_hz, cat.converters.p0_dac_ws)
    adc_w = dac_power(precision.b_out, f_hz, cat.converters.p0_adc_ws)
    switch_fj = cat.modulator.switch_energy_fj(precision.b_in)
    voa_mw = cat.component("voa").static_power_mw or 0.0
    tia_mw = cat.component("tia").static_power_mw or 0.0
    channel_dbm = cat.laser.channel_power_dbm

    def reports() -> Iterator[PowerReport]:
        for geom in geometries:
            link = critical_path_il(geom, cat, variant)
            try:
                laser_w = _laser_w(sensitivity, link.total_db, full_scale, effective_wpe, depth)
            except OverflowError:
                name, db = link.largest_term
                raise ValueError(
                    f"a result is out of float range: the laser power for a {link.total_db:.6g} dB"
                    f" critical-path loss (largest term {name}, {db:.6g} dB)"
                ) from None
            rows, cols = geom.rows, geom.cols
            entries: list[tuple[str, float]] = [
                ("laser", laser_w),
                ("input_dac", rows * dac_w),
                ("mzm_driver", rows * switch_fj * 1e-15 * f_hz),
                ("voa_bank", rows * voa_mw * 1e-3),
                ("output_adc", cols * adc_w),
                ("tia", cols * tia_mw * 1e-3),
                *variant.extra_power(geom, cat),
            ]
            yield PowerReport(
                entry_watts=tuple(entries),
                b_in=precision.b_in,
                b_out=precision.b_out,
                f_hz=f_hz,
                wpe=effective_wpe,
                link=link,
                margin_db=channel_dbm - link.total_db - sensitivity,
            )

    return reports()


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

    This is :func:`total_power_cores` on the one core ``geom``.
    """
    return next(total_power_cores((geom,), cat, variant, precision, f_hz, wpe=wpe))
