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
from dataclasses import dataclass
from typing import Union

from .catalog import DeviceCatalog, LaserSpec, PdSpec

_TOL_SUM_DB = 1e-9


@dataclass(frozen=True)
class CoreGeometry:
    """Crossbar dimensions and wavelength-group structure.

    Rows are organized in groups of ``wavelengths_per_group`` (one group per
    comb source); columns are fed in bundles of ``cols_per_mmi`` by one MMI
    each. ``cols`` below ``cols_per_mmi`` is allowed for degenerate study
    cases; otherwise it must be a whole number of MMI bundles.
    """

    rows: int
    cols: int
    wavelengths_per_group: int = 9
    cols_per_mmi: int = 8

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.rows}x{self.cols}")
        if self.wavelengths_per_group < 1 or self.cols_per_mmi < 1:
            raise ValueError("wavelengths_per_group and cols_per_mmi must be >= 1")
        if self.rows % self.wavelengths_per_group != 0:
            raise ValueError(
                f"rows ({self.rows}) must be divisible by the wavelength group size "
                f"({self.wavelengths_per_group})"
            )
        if self.cols >= self.cols_per_mmi and self.cols % self.cols_per_mmi != 0:
            raise ValueError(
                f"cols ({self.cols}) must be divisible by cols_per_mmi ({self.cols_per_mmi})"
            )

    @property
    def groups(self) -> int:
        return self.rows // self.wavelengths_per_group

    @property
    def mmi_bundles(self) -> int:
        return max(1, -(-self.cols // self.cols_per_mmi))

    @property
    def splitter_stages_excess(self) -> int:
        """Excess 1x2 stages on the critical path expanding one row to all bundles."""
        return self.mmi_bundles - 1

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

@dataclass(frozen=True)
class Baseline3D:
    label: str = "baseline3d"


@dataclass(frozen=True)
class SoaAssisted:
    """Amplified fanout: the source drives only ``fanout_before_amp`` columns,
    one amplifier per row restores the budget for the rest. The reported path
    is the pre-amplifier section plus both amplifier facets; amplifier gain is
    assumed to exactly offset the post-amplifier loss (never below 0 dB net).
    """

    fanout_before_amp: int = 128
    label: str = "soa"

    def __post_init__(self) -> None:
        if self.fanout_before_amp < 1:
            raise ValueError("fanout_before_amp must be >= 1")


@dataclass(frozen=True)
class Planar2D:
    """Single-layer topology: the critical path picks up a crossing per column
    (plus the accumulation spur) and a Y-branch per column. Counts default to
    cols + 8 crossings and cols Y-branches and can be overridden.
    """

    crossing_count: int | None = None
    ybranch_count: int | None = None
    label: str = "planar2d"

    def __post_init__(self) -> None:
        for name in ("crossing_count", "ybranch_count"):
            count = getattr(self, name)
            if count is not None and (type(count) is not int or count < 0):
                raise ValueError(f"{name} must be an integer >= 0, got {count!r}")


@dataclass(frozen=True)
class MrrAccumulation:
    """Ring-based accumulation bus: two rings per row on the column path.

    The default per-ring loss is a calibration constant, not a measured
    device figure; at 144 rows it lands this variant deep in infeasible
    territory, which is the architectural point being made.
    """

    ring_loss_db: float = 0.925
    label: str = "mrr"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ring_loss_db) and self.ring_loss_db > 0.0):
            raise ValueError(f"ring_loss_db must be finite and > 0, got {self.ring_loss_db!r}")


@dataclass(frozen=True)
class KclOnly:
    """Per-site detection with photocurrent-only summation: optical
    accumulation is forfeited, so the distribution network must additionally
    split power across all rows (10log10(H))."""

    label: str = "kcl"


@dataclass(frozen=True)
class CoherentCombining:
    """Interferometric combiner tree of depth ceil(log2 H) with a worst-case
    per-stage alignment penalty."""

    stage_loss_db: float = 3.0
    label: str = "coherent"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.stage_loss_db) and self.stage_loss_db > 0.0):
            raise ValueError(f"stage_loss_db must be finite and > 0, got {self.stage_loss_db!r}")


@dataclass(frozen=True)
class ThermoOpticWeights:
    """Volatile thermo-optic weighting; loss-identical to the baseline path
    (the weighting element swap shows up in power, not loss)."""

    label: str = "thermo"


ArchitectureVariant = Union[
    Baseline3D, SoaAssisted, Planar2D, MrrAccumulation, KclOnly, CoherentCombining, ThermoOpticWeights
]

VARIANT_LABELS = ("baseline3d", "soa", "planar2d", "thermo", "mrr", "kcl", "coherent")


@dataclass(frozen=True)
class LinkBudgetReport:
    """Ordered per-term insertion-loss breakdown; total equals the term sum."""

    total_db: float
    terms: tuple[tuple[str, float], ...]
    geometry: CoreGeometry
    variant_label: str

    def __post_init__(self) -> None:
        total = sum(db for _, db in self.terms)
        if not (abs(total - self.total_db) <= _TOL_SUM_DB):
            raise ValueError(f"report total {self.total_db} != term sum {total}")
        for name, db in self.terms:
            if db < 0.0:
                raise ValueError(f"term {name} is negative ({db})")

    def term(self, name: str) -> float:
        for label, db in self.terms:
            if label == name:
                return db
        raise KeyError(name)

    def to_jsonable(self) -> dict:
        return {
            "variant": self.variant_label,
            "core": self.geometry.label,
            "total_db": self.total_db,
            "terms": [{"label": name, "db": db} for name, db in self.terms],
        }


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    margin_db: float

    def to_jsonable(self) -> dict:
        return {"feasible": self.feasible, "margin_db": self.margin_db}


def fanout_loss(w: int) -> float:
    """Ideal power-division loss of a 1-to-w broadcast: 10log10(w)."""
    if w < 1:
        raise ValueError(f"fanout width must be >= 1, got {w}")
    return 10.0 * math.log10(w)


def _escalator_count() -> int:
    # Interlayer transitions traversed on the distribution path.
    return 5


def _baseline_terms(geom: CoreGeometry, cat: DeviceCatalog, fanout_cols: int) -> list[tuple[str, float]]:
    return [
        ("awg", cat.loss_db("awg")),
        ("escalators", _escalator_count() * cat.loss_db("escalator")),
        ("mmi_1x8", cat.loss_db("mmi_1x8")),
        ("sl_mzm", cat.modulator.insertion_loss_db),
        ("splitter_stages", max(-(-fanout_cols // geom.cols_per_mmi) - 1, 0) * cat.loss_db("splitter_1x2")),
        ("wsc_chain", (geom.wavelengths_per_group - 1) * cat.loss_db("wsc")),
        ("pcm_cell", cat.loss_db("pcm_cell")),
        ("voa", cat.loss_db("voa")),
        ("fanout", fanout_loss(fanout_cols)),
    ]


def critical_path_il(
    geom: CoreGeometry,
    cat: DeviceCatalog,
    variant: ArchitectureVariant = Baseline3D(),
) -> LinkBudgetReport:
    """End-to-end worst-case insertion loss for a geometry under a variant.

    The accumulation chain crosses ``wavelengths_per_group - 1`` add couplers
    (8 for 9-wavelength groups). Variants that abandon coupler-based optical
    accumulation drop that term and substitute their own summation penalty.
    """
    terms = _baseline_terms(geom, cat, geom.cols)

    def drop(name: str) -> float:
        nonlocal terms
        value = dict(terms)[name]
        terms = [(label, db) for label, db in terms if label != name]
        return value

    if isinstance(variant, (Baseline3D, ThermoOpticWeights)):
        pass
    elif isinstance(variant, SoaAssisted):
        terms = _baseline_terms(geom, cat, min(variant.fanout_before_amp, geom.cols))
        terms.append(("soa_facets", 2 * cat.soa.facet_loss_db))
    elif isinstance(variant, Planar2D):
        crossings = variant.crossing_count if variant.crossing_count is not None else geom.cols + 8
        ybranches = variant.ybranch_count if variant.ybranch_count is not None else geom.cols
        terms.append(("crossings", crossings * cat.loss_db("crossing")))
        terms.append(("y_branches", ybranches * cat.loss_db("y_branch")))
    elif isinstance(variant, MrrAccumulation):
        drop("wsc_chain")
        terms.append(("ring_chain", 2 * geom.rows * variant.ring_loss_db))
    elif isinstance(variant, KclOnly):
        drop("wsc_chain")
        terms.append(("row_fanout", fanout_loss(geom.rows)))
    elif isinstance(variant, CoherentCombining):
        drop("wsc_chain")
        stages = math.ceil(math.log2(geom.rows)) if geom.rows > 1 else 0
        terms.append(("combiner_tree", stages * variant.stage_loss_db))
    else:
        raise ValueError(f"unknown architecture variant {variant!r}")

    total = sum(db for _, db in terms)
    return LinkBudgetReport(
        total_db=total, terms=tuple(terms), geometry=geom, variant_label=variant.label
    )


def variant_feasibility(report: LinkBudgetReport, laser: LaserSpec, pd: PdSpec) -> FeasibilityVerdict:
    """Single-channel launch check: does one comb line survive the path?

    Margin is launched channel power minus path loss minus detector
    sensitivity, all in dB. A negative margin means the design point cannot
    close the link even before resolution scaling is considered.
    """
    margin = laser.channel_power_dbm - report.total_db - pd.sensitivity_dbm
    return FeasibilityVerdict(feasible=margin >= 0.0, margin_db=margin)
