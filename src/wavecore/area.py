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


# Layout constants of the reference floorplan, in micrometers
COMB_STRIP_UM = 500.0
AWG_STRIP_UM = 1000.0
VOA_STRIP_UM = 150.0
MZM_STRIP_UM = 250.0
INPUT_STRIP_UM = COMB_STRIP_UM + AWG_STRIP_UM + VOA_STRIP_UM + MZM_STRIP_UM
GROUP_PITCH_UM = 700.0
CELL_WIDTH_UM = 100.0
CELL_HEIGHT_UM = 200.0
PD_STRIP_UM = 100.0
# the lithography reticle, in millimeters
RETICLE_W_MM = 26.0
RETICLE_H_MM = 33.0


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


def _reticle_fit(w_mm: float, h_mm: float) -> tuple[bool, tuple[float, float] | None]:
    rw, rh = RETICLE_W_MM, RETICLE_H_MM
    # Orientation swap is allowed: try both mountings.
    if (w_mm <= rw and h_mm <= rh) or (w_mm <= rh and h_mm <= rw):
        return True, None
    # Report shortfall for the orientation that comes closest.
    direct = (max(w_mm - rw, 0.0), max(h_mm - rh, 0.0))
    swapped = (max(w_mm - rh, 0.0), max(h_mm - rw, 0.0))
    short = min((direct, swapped), key=lambda s: s[0] + s[1])
    return False, short


def crossbar_area(geom: CoreGeometry) -> AreaReport:
    """Floorplan footprint of a core; any valid geometry can be sized, even
    one too large for the reticle."""
    bundles = geom.mmi_bundles
    width_um = INPUT_STRIP_UM + bundles * GROUP_PITCH_UM
    height_um = geom.rows * CELL_HEIGHT_UM + PD_STRIP_UM
    w_mm = width_um / 1000.0
    h_mm = height_um / 1000.0
    total = w_mm * h_mm

    fits, shortfall = _reticle_fit(w_mm, h_mm)
    residual = RETICLE_W_MM * RETICLE_H_MM - total if fits else None

    strips = (
        ("comb", COMB_STRIP_UM / 1000.0),
        ("awg", AWG_STRIP_UM / 1000.0),
        ("voa", VOA_STRIP_UM / 1000.0),
        ("sl_mzm", MZM_STRIP_UM / 1000.0),
        ("column_groups", bundles * GROUP_PITCH_UM / 1000.0),
        ("pd_strip", PD_STRIP_UM / 1000.0),
    )
    return AreaReport(
        crossbar_w_mm=w_mm,
        crossbar_h_mm=h_mm,
        total_area_mm2=total,
        reticle_w_mm=RETICLE_W_MM,
        reticle_h_mm=RETICLE_H_MM,
        residual_mm2=residual,
        fits_reticle=fits,
        strips=strips,
        unit_cell_um=(CELL_WIDTH_UM, CELL_HEIGHT_UM),
        shortfall_mm=shortfall,
    )
