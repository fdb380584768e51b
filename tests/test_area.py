import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from wavecore import AreaReport, CoreGeometry, crossbar_area


class TestFootprint:
    def test_reference_core_exact(self, core_144x256):
        report = crossbar_area(core_144x256)
        assert report.crossbar_w_mm * 1000 == pytest.approx(24300.0, abs=1e-9)
        assert report.crossbar_h_mm * 1000 == pytest.approx(28900.0, abs=1e-9)
        assert report.total_area_mm2 == pytest.approx(24.3 * 28.9, rel=1e-12)
        assert report.unit_cell_um == (100.0, 200.0)

    def test_minimum_geometry(self, core_9x8):
        report = crossbar_area(core_9x8)
        assert report.crossbar_w_mm == pytest.approx(2.6, abs=1e-12)
        assert report.crossbar_h_mm == pytest.approx(1.9, abs=1e-12)

    def test_height_linear_in_rows(self):
        h1 = crossbar_area(CoreGeometry(144, 256)).crossbar_h_mm
        h2 = crossbar_area(CoreGeometry(153, 256)).crossbar_h_mm
        assert (h2 - h1) * 1000 == pytest.approx(9 * 200.0, abs=1e-9)

    def test_width_linear_in_column_bundles(self):
        w1 = crossbar_area(CoreGeometry(144, 256)).crossbar_w_mm
        w2 = crossbar_area(CoreGeometry(144, 264)).crossbar_w_mm
        assert (w2 - w1) * 1000 == pytest.approx(700.0, abs=1e-9)

    def test_strictly_increasing(self):
        a = crossbar_area(CoreGeometry(144, 256)).total_area_mm2
        assert crossbar_area(CoreGeometry(153, 256)).total_area_mm2 > a
        assert crossbar_area(CoreGeometry(144, 264)).total_area_mm2 > a


class TestReticle:
    def test_reference_core_fits_with_residual(self, core_144x256):
        report = crossbar_area(core_144x256)
        assert report.fits_reticle
        assert report.residual_mm2 == pytest.approx(155.7, abs=0.5)
        assert report.residual_mm2 == pytest.approx(26 * 33 - 24.3 * 28.9, rel=1e-12)

    def test_orientation_swap(self):
        swapped = crossbar_area(CoreGeometry(135, 288))
        # 27.1 x 27.1 cannot mount either way in 26 x 33
        assert (swapped.crossbar_w_mm, swapped.crossbar_h_mm) == pytest.approx((27.1, 27.1), abs=1e-9)
        assert not swapped.fits_reticle
        assert swapped.residual_mm2 is None
        assert swapped.shortfall_mm == pytest.approx((1.1, 0.0), abs=1e-9)
        tall = crossbar_area(CoreGeometry(126, 288))
        # swap allowed: 27.1 <= 33 and 25.3 <= 26
        assert (tall.crossbar_w_mm, tall.crossbar_h_mm) == pytest.approx((27.1, 25.3), abs=1e-9)
        assert tall.fits_reticle
        assert tall.residual_mm2 == pytest.approx(26.0 * 33.0 - 27.1 * 25.3, rel=1e-12)

    def test_oversized_core_reports_shortfall(self):
        report = crossbar_area(CoreGeometry(297, 512))
        assert not report.fits_reticle
        short_w, short_h = report.shortfall_mm
        assert short_w > 0 and short_h > 0
        assert report.residual_mm2 is None

    def test_narrow_die_fits_after_swap(self):
        # 27.1 mm x 1.9 mm footprint: width over 26 but under 33 after rotation
        report = crossbar_area(CoreGeometry(9, 288))
        assert report.crossbar_w_mm == pytest.approx(27.1, abs=1e-9)
        assert report.crossbar_h_mm == pytest.approx(1.9, abs=1e-9)
        assert report.fits_reticle


def _floorplan(rows: int, cols: int) -> dict:
    """``crossbar_area``'s JSON written out from the floorplan's numbers: a
    1.9 mm input strip, 0.7 mm per bundle of eight columns, 0.2 mm per row
    plus a 0.1 mm detector strip, and the 26 x 33 mm reticle in either
    mounting."""
    bundles = max(1, -(-cols // 8))
    w_mm = (1900.0 + bundles * 700.0) / 1000.0
    h_mm = (rows * 200.0 + 100.0) / 1000.0
    total = w_mm * h_mm
    fits = (w_mm <= 26.0 and h_mm <= 33.0) or (w_mm <= 33.0 and h_mm <= 26.0)
    shortfall = None
    if not fits:
        direct = (max(w_mm - 26.0, 0.0), max(h_mm - 33.0, 0.0))
        swapped = (max(w_mm - 33.0, 0.0), max(h_mm - 26.0, 0.0))
        shortfall = list(direct if direct[0] + direct[1] <= swapped[0] + swapped[1] else swapped)
    strips = [("comb", 0.5), ("awg", 1.0), ("voa", 0.15), ("sl_mzm", 0.25),
              ("column_groups", bundles * 700.0 / 1000.0), ("pd_strip", 0.1)]
    return {
        "crossbar_w_mm": w_mm,
        "crossbar_h_mm": h_mm,
        "total_area_mm2": total,
        "reticle_w_mm": 26.0,
        "reticle_h_mm": 33.0,
        "fits_reticle": fits,
        "residual_mm2": 26.0 * 33.0 - total if fits else None,
        "shortfall_mm": shortfall,
        "strips_mm": [{"label": label, "mm": mm} for label, mm in strips],
        "unit_cell_um": [100.0, 200.0],
    }


class TestDerivedValues:
    def test_the_geometry_is_the_only_field(self):
        assert [field.name for field in dataclasses.fields(AreaReport)] == ["geometry"]

    @given(rows=st.integers(1, 400).map(lambda g: 9 * g),
           cols=st.one_of(st.integers(1, 7), st.integers(1, 512).map(lambda n: 8 * n)))
    @example(rows=144, cols=256)   # fits as drawn
    @example(rows=126, cols=288)   # fits only turned
    @example(rows=135, cols=288)   # fits neither way; short in width only
    @example(rows=297, cols=512)   # short on both axes
    @settings(max_examples=300, deadline=None)
    def test_json_equals_the_floorplan_arithmetic(self, rows, cols):
        report = crossbar_area(CoreGeometry(rows, cols))
        assert report.to_jsonable() == _floorplan(rows, cols)
        assert report.fits_reticle == (report.shortfall_mm is None) == (report.residual_mm2 is not None)
