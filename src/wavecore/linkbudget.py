"""Worst-case optical insertion loss from laser (post-equalization) to detector.

The critical path is the farthest column: it sees the full distribution
network (demux, interlayer transitions, MMI, the longest cascade of 1x2
splitter stages) plus the per-column accumulation chain and the ideal
1/W fanout division. Architecture variants swap individual terms in and
out of this chain; the report keeps every term labeled so breakdowns can
be plotted or diffed between variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .catalog import _FLOAT_MAX, WAVELENGTHS_PER_GROUP, DeviceCatalog, check_number

# Each 1x8 MMI feeds a bundle of eight columns.
COLS_PER_MMI = 8


@dataclass(frozen=True)
class CoreGeometry:
    """Crossbar dimensions: ``rows`` in groups of ``WAVELENGTHS_PER_GROUP``
    (one group per comb source), ``cols`` in bundles of ``COLS_PER_MMI`` (one
    1x8 MMI each). ``cols`` below ``COLS_PER_MMI`` is allowed for degenerate
    study cases; otherwise it must be a whole number of MMI bundles.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        rows, cols = self.rows, self.cols
        if not (type(rows) is type(cols) is int and 1 <= rows <= _FLOAT_MAX and 1 <= cols <= _FLOAT_MAX):
            check_number("rows", rows, integer=True, ge=1)  # only what it admits passes the test above
            check_number("cols", cols, integer=True, ge=1)
        if self.rows % WAVELENGTHS_PER_GROUP != 0:
            raise ValueError(f"rows ({self.rows}) must be divisible by the wavelength group size "
                             f"({WAVELENGTHS_PER_GROUP})")
        if self.cols >= COLS_PER_MMI and self.cols % COLS_PER_MMI != 0:
            raise ValueError(f"cols ({self.cols}) must be divisible by cols_per_mmi ({COLS_PER_MMI})")

    @property
    def groups(self) -> int:
        return self.rows // WAVELENGTHS_PER_GROUP

    @property
    def mmi_bundles(self) -> int:
        return max(1, -(-self.cols // COLS_PER_MMI))

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def label(self) -> str:
        return f"{self.rows}x{self.cols}"

    @staticmethod
    def parse(text: str) -> "CoreGeometry":
        try:
            rows_s, cols_s = text.lower().split("x")
            return CoreGeometry(rows=int(rows_s), cols=int(cols_s))
        except ValueError as exc:
            raise ValueError(f"cannot parse core geometry {text!r} (expected HxW): {exc}") from None


# ---------------------------------------------------------------------------
# Architecture variants
# ---------------------------------------------------------------------------

class ArchitectureVariant:
    """One point of the architecture ablation, defined wholly by its class.

    ``label`` names it on the command line and in reports; its dataclass
    fields are its parameters. A variant overrides ``loss_terms`` to swap
    terms of the baseline critical path and ``extra_power`` to add static
    loads (name, watts) to the power roll-up.
    """

    label: ClassVar[str]

    def loss_terms(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        return _baseline_terms(geom, cat, geom.cols)

    def extra_power(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        return []


@dataclass(frozen=True)
class Baseline3D(ArchitectureVariant):
    label = "baseline3d"


@dataclass(frozen=True)
class SoaAssisted(ArchitectureVariant):
    """Amplified fanout: the source drives only ``fanout_before_amp`` columns,
    one amplifier per row restores the budget for the rest. The reported path
    is the pre-amplifier section plus both amplifier facets; amplifier gain is
    assumed to exactly offset the post-amplifier loss (never below 0 dB net).
    """

    label = "soa"
    fanout_before_amp: int = 128

    def __post_init__(self) -> None:
        check_number("fanout_before_amp", self.fanout_before_amp, integer=True, ge=1)

    def loss_terms(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        terms = _baseline_terms(geom, cat, min(self.fanout_before_amp, geom.cols))
        return [*terms, ("soa_facets", 2 * cat.soa.facet_loss_db)]

    def extra_power(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        return [("soa_drive", geom.rows * cat.soa.drive_power_mw * 1e-3)]


@dataclass(frozen=True)
class Planar2D(ArchitectureVariant):
    """Single-layer topology: the critical path picks up a crossing per column
    (plus the accumulation spur) and a Y-branch per column. Counts default to
    cols + 8 crossings and cols Y-branches and can be overridden.
    """

    label = "planar2d"
    crossing_count: int | None = None
    ybranch_count: int | None = None

    def __post_init__(self) -> None:
        if self.crossing_count is not None:
            check_number("crossing_count", self.crossing_count, integer=True, ge=0)
        if self.ybranch_count is not None:
            check_number("ybranch_count", self.ybranch_count, integer=True, ge=0)

    def loss_terms(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        crossings = self.crossing_count if self.crossing_count is not None else geom.cols + 8
        ybranches = self.ybranch_count if self.ybranch_count is not None else geom.cols
        return [
            *super().loss_terms(geom, cat),
            ("crossings", crossings * cat.loss_db("crossing")),
            ("y_branches", ybranches * cat.loss_db("y_branch")),
        ]


@dataclass(frozen=True)
class ThermoOpticWeights(ArchitectureVariant):
    """Volatile thermo-optic weighting; loss-identical to the baseline path
    (the weighting element swap shows up in power, not loss)."""

    label = "thermo"

    def extra_power(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        return [("heater_hold", geom.cells * cat.thermo.heater_hold_mw_per_weight * 1e-3)]


@dataclass(frozen=True)
class MrrAccumulation(ArchitectureVariant):
    """Ring-based accumulation bus: two rings per row on the column path.

    The default per-ring loss is a calibration constant, not a measured
    device figure; at 144 rows it lands this variant deep in infeasible
    territory, which is the architectural point being made.
    """

    label = "mrr"
    ring_loss_db: float = 0.925

    def __post_init__(self) -> None:
        check_number("ring_loss_db", self.ring_loss_db, gt=0.0)

    def loss_terms(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        return [*_without_coupler_chain(geom, cat), ("ring_chain", 2 * geom.rows * self.ring_loss_db)]


@dataclass(frozen=True)
class KclOnly(ArchitectureVariant):
    """Per-site detection with photocurrent-only summation: optical
    accumulation is forfeited, so the distribution network must additionally
    split power across all rows (10log10(H))."""

    label = "kcl"

    def loss_terms(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        return [*_without_coupler_chain(geom, cat), ("row_fanout", fanout_loss(geom.rows))]


@dataclass(frozen=True)
class CoherentCombining(ArchitectureVariant):
    """Interferometric combiner tree of depth ceil(log2 H) with a worst-case
    per-stage alignment penalty."""

    label = "coherent"
    stage_loss_db: float = 3.0

    def __post_init__(self) -> None:
        check_number("stage_loss_db", self.stage_loss_db, gt=0.0)

    def loss_terms(self, geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
        stages = math.ceil(math.log2(geom.rows)) if geom.rows > 1 else 0
        return [*_without_coupler_chain(geom, cat), ("combiner_tree", stages * self.stage_loss_db)]


# Every variant by label, in ablation order.
VARIANTS: dict[str, type[ArchitectureVariant]] = {
    cls.label: cls
    for cls in (Baseline3D, SoaAssisted, Planar2D, ThermoOpticWeights, MrrAccumulation, KclOnly, CoherentCombining)
}


@dataclass(frozen=True)
class LinkBudgetReport:
    """Ordered per-term insertion-loss breakdown. ``total_db`` is not passed
    in: it is the sum of ``terms``, made once when the report is built."""

    terms: tuple[tuple[str, float], ...]
    geometry: CoreGeometry
    variant_label: str
    total_db: float = field(init=False)

    def __post_init__(self) -> None:
        total = sum([db for _, db in self.terms])
        object.__setattr__(self, "total_db", total)
        try:
            check_number("total_db", total)
        except ValueError as exc:
            raise ValueError(f"{exc} (largest term {self.largest_term[0]})") from None
        for name, db in self.terms:
            if db < 0.0:
                raise ValueError(f"term {name} is negative ({db})")

    def term(self, name: str) -> float:
        for label, db in self.terms:
            if label == name:
                return db
        raise KeyError(name)

    @property
    def largest_term(self) -> tuple[str, float]:
        return max(self.terms, key=lambda t: t[1])

    def to_jsonable(self) -> dict:
        return {
            "variant": self.variant_label,
            "core": self.geometry.label,
            "total_db": self.total_db,
            "terms": [{"label": name, "db": db} for name, db in self.terms],
        }


def fanout_loss(w: int) -> float:
    """Ideal power-division loss of a 1-to-w broadcast: 10log10(w)."""
    check_number("fanout width", w, ge=1)
    return 10.0 * math.log10(w)


# Interlayer transitions traversed on the distribution path.
_ESCALATORS = 5


def _baseline_terms(geom: CoreGeometry, cat: DeviceCatalog, fanout_cols: int) -> list[tuple[str, float]]:
    # every catalog holds these components, so they are read without loss_db's lookup guard
    comps = cat.components
    return [
        ("awg", comps["awg"].insertion_loss_db),
        ("escalators", _ESCALATORS * comps["escalator"].insertion_loss_db),
        ("mmi_1x8", comps["mmi_1x8"].insertion_loss_db),
        ("sl_mzm", cat.modulator.insertion_loss_db),
        ("splitter_stages", max(-(-fanout_cols // COLS_PER_MMI) - 1, 0) * comps["splitter_1x2"].insertion_loss_db),
        ("wsc_chain", (WAVELENGTHS_PER_GROUP - 1) * comps["wsc"].insertion_loss_db),
        ("pcm_cell", comps["pcm_cell"].insertion_loss_db),
        ("voa", comps["voa"].insertion_loss_db),
        ("fanout", fanout_loss(fanout_cols)),
    ]


def _without_coupler_chain(geom: CoreGeometry, cat: DeviceCatalog) -> list[tuple[str, float]]:
    """Baseline terms less the add-coupler accumulation chain."""
    return [term for term in _baseline_terms(geom, cat, geom.cols) if term[0] != "wsc_chain"]


def critical_path_il(
    geom: CoreGeometry,
    cat: DeviceCatalog,
    variant: ArchitectureVariant = Baseline3D(),
) -> LinkBudgetReport:
    """End-to-end worst-case insertion loss for a geometry under a variant.

    The accumulation chain crosses ``WAVELENGTHS_PER_GROUP - 1`` (8) add
    couplers. Variants that abandon coupler-based optical accumulation drop
    that term and substitute their own summation penalty.
    """
    return LinkBudgetReport(terms=tuple(variant.loss_terms(geom, cat)), geometry=geom, variant_label=variant.label)

