"""Crossbar floorplan arithmetic and reticle feasibility.

The layout is a column of input conditioning strips (comb, demux, trim,
modulator) followed by the tiled compute array. Width grows by one group
pitch per MMI bundle of ``linkbudget.COLS_PER_MMI`` columns; height
grows by one unit-cell height per row plus a detector strip at the bottom.
Everything here is closed-form, there is no placement or routing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

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
    """The floorplan of one core. Only ``geometry`` is stored: the sizes,
    the reticle fit and the strips are computed from it when read."""

    geometry: CoreGeometry
    reticle_w_mm: ClassVar[float] = RETICLE_W_MM
    reticle_h_mm: ClassVar[float] = RETICLE_H_MM
    unit_cell_um: ClassVar[tuple[float, float]] = (CELL_WIDTH_UM, CELL_HEIGHT_UM)

    @property
    def crossbar_w_mm(self) -> float:
        return (INPUT_STRIP_UM + self.geometry.mmi_bundles * GROUP_PITCH_UM) / 1000.0

    @property
    def crossbar_h_mm(self) -> float:
        return (self.geometry.rows * CELL_HEIGHT_UM + PD_STRIP_UM) / 1000.0

    @property
    def total_area_mm2(self) -> float:
        return self.crossbar_w_mm * self.crossbar_h_mm

    @property
    def fits_reticle(self) -> bool:
        """Whether either mounting fits: the die may be turned a quarter."""
        w_mm, h_mm = self.crossbar_w_mm, self.crossbar_h_mm
        rw, rh = RETICLE_W_MM, RETICLE_H_MM
        return (w_mm <= rw and h_mm <= rh) or (w_mm <= rh and h_mm <= rw)

    @property
    def residual_mm2(self) -> float | None:
        return RETICLE_W_MM * RETICLE_H_MM - self.total_area_mm2 if self.fits_reticle else None

    @property
    def shortfall_mm(self) -> tuple[float, float] | None:
        """How far the mounting that comes closest overhangs the reticle, per
        axis; None when the core fits."""
        if self.fits_reticle:
            return None
        w_mm, h_mm = self.crossbar_w_mm, self.crossbar_h_mm
        rw, rh = RETICLE_W_MM, RETICLE_H_MM
        direct = (max(w_mm - rw, 0.0), max(h_mm - rh, 0.0))
        swapped = (max(w_mm - rh, 0.0), max(h_mm - rw, 0.0))
        return min((direct, swapped), key=lambda s: s[0] + s[1])

    @property
    def strips(self) -> tuple[tuple[str, float], ...]:
        return (
            ("comb", COMB_STRIP_UM / 1000.0),
            ("awg", AWG_STRIP_UM / 1000.0),
            ("voa", VOA_STRIP_UM / 1000.0),
            ("sl_mzm", MZM_STRIP_UM / 1000.0),
            ("column_groups", self.geometry.mmi_bundles * GROUP_PITCH_UM / 1000.0),
            ("pd_strip", PD_STRIP_UM / 1000.0),
        )

    def to_jsonable(self) -> dict:
        shortfall = self.shortfall_mm
        return {
            "crossbar_w_mm": self.crossbar_w_mm,
            "crossbar_h_mm": self.crossbar_h_mm,
            "total_area_mm2": self.total_area_mm2,
            "reticle_w_mm": self.reticle_w_mm,
            "reticle_h_mm": self.reticle_h_mm,
            "fits_reticle": self.fits_reticle,
            "residual_mm2": self.residual_mm2,
            "shortfall_mm": list(shortfall) if shortfall else None,
            "strips_mm": [{"label": name, "mm": mm} for name, mm in self.strips],
            "unit_cell_um": list(self.unit_cell_um),
        }


def crossbar_area(geom: CoreGeometry) -> AreaReport:
    """Floorplan footprint of a core; any valid geometry can be sized, even
    one too large for the reticle."""
    return AreaReport(geom)
