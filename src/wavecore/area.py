"""Crossbar floorplan arithmetic and reticle feasibility.

The layout is a column of input conditioning strips (comb, demux, trim,
modulator) followed by the tiled compute array. Width grows by one group
pitch per MMI bundle of ``linkbudget.COLS_PER_MMI`` columns; height
grows by one unit-cell height per row plus a detector strip at the bottom.
Everything here is closed-form, there is no placement or routing model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linkbudget import CoreGeometry


@dataclass(frozen=True)
class AreaParams:
    """Layout constants in micrometers (defaults reproduce the reference floorplan)."""

    comb_strip_um: float = 500.0
    awg_strip_um: float = 1000.0
    voa_strip_um: float = 150.0
    mzm_strip_um: float = 250.0
    group_pitch_um: float = 700.0
    cell_width_um: float = 100.0
    cell_height_um: float = 200.0
    pd_strip_um: float = 100.0
    reticle_w_mm: float = 26.0
    reticle_h_mm: float = 33.0

    @property
    def input_strip_um(self) -> float:
        return self.comb_strip_um + self.awg_strip_um + self.voa_strip_um + self.mzm_strip_um


@dataclass(frozen=True)
class AreaReport:
    crossbar_w_mm: float
    crossbar_h_mm: float
    total_area_mm2: float
    reticle_w_mm: float
    reticle_h_mm: float
    residual_mm2: float | None
    fits_reticle: bool
    strips: tuple[tuple[str, float], ...]
    unit_cell_um: tuple[float, float]
    shortfall_mm: tuple[float, float] | None = None

    def to_jsonable(self) -> dict:
        return {
            "crossbar_w_mm": self.crossbar_w_mm,
            "crossbar_h_mm": self.crossbar_h_mm,
            "total_area_mm2": self.total_area_mm2,
            "reticle_w_mm": self.reticle_w_mm,
            "reticle_h_mm": self.reticle_h_mm,
            "fits_reticle": self.fits_reticle,
            "residual_mm2": self.residual_mm2,
            "shortfall_mm": list(self.shortfall_mm) if self.shortfall_mm else None,
            "strips_mm": [{"label": name, "mm": mm} for name, mm in self.strips],
            "unit_cell_um": list(self.unit_cell_um),
        }


def _reticle_fit(w_mm: float, h_mm: float, params: AreaParams) -> tuple[bool, tuple[float, float] | None]:
    rw, rh = params.reticle_w_mm, params.reticle_h_mm
    # Orientation swap is allowed: try both mountings.
    if (w_mm <= rw and h_mm <= rh) or (w_mm <= rh and h_mm <= rw):
        return True, None
    # Report shortfall for the orientation that comes closest.
    direct = (max(w_mm - rw, 0.0), max(h_mm - rh, 0.0))
    swapped = (max(w_mm - rh, 0.0), max(h_mm - rw, 0.0))
    short = min((direct, swapped), key=lambda s: s[0] + s[1])
    return False, short


def crossbar_area(geom: CoreGeometry, params: AreaParams = AreaParams()) -> AreaReport:
    """Floorplan footprint of a core; any valid geometry can be sized, even
    one too large for the reticle."""
    bundles = geom.mmi_bundles
    width_um = params.input_strip_um + bundles * params.group_pitch_um
    height_um = geom.rows * params.cell_height_um + params.pd_strip_um
    w_mm = width_um / 1000.0
    h_mm = height_um / 1000.0
    total = w_mm * h_mm

    fits, shortfall = _reticle_fit(w_mm, h_mm, params)
    reticle_area = params.reticle_w_mm * params.reticle_h_mm
    residual = reticle_area - total if fits else None

    strips = (
        ("comb", params.comb_strip_um / 1000.0),
        ("awg", params.awg_strip_um / 1000.0),
        ("voa", params.voa_strip_um / 1000.0),
        ("sl_mzm", params.mzm_strip_um / 1000.0),
        ("column_groups", bundles * params.group_pitch_um / 1000.0),
        ("pd_strip", params.pd_strip_um / 1000.0),
    )
    return AreaReport(
        crossbar_w_mm=w_mm,
        crossbar_h_mm=h_mm,
        total_area_mm2=total,
        reticle_w_mm=params.reticle_w_mm,
        reticle_h_mm=params.reticle_h_mm,
        residual_mm2=residual,
        fits_reticle=fits,
        strips=strips,
        unit_cell_um=(params.cell_width_um, params.cell_height_um),
        shortfall_mm=shortfall,
    )

