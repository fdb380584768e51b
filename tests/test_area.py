import pytest

from wavecore import CoreGeometry, crossbar_area, reticle_check
from wavecore.area import AreaParams


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

    def test_width_follows_cols_per_mmi(self):
        wide = crossbar_area(CoreGeometry(144, 256, cols_per_mmi=16))
        params = AreaParams()
        assert wide.crossbar_w_mm * 1000 == pytest.approx(params.input_strip_um + 16 * params.group_pitch_um, abs=1e-9)
        assert dict(wide.strips)["column_groups"] == pytest.approx(16 * params.group_pitch_um / 1000, abs=1e-12)

    def test_strictly_increasing(self):
        a = crossbar_area(CoreGeometry(144, 256)).total_area_mm2
        assert crossbar_area(CoreGeometry(153, 256)).total_area_mm2 > a
        assert crossbar_area(CoreGeometry(144, 264)).total_area_mm2 > a

    def test_cell_width_override(self, core_144x256):
        report = crossbar_area(core_144x256, AreaParams(cell_width_um=75.0))
        assert report.unit_cell_um[0] == 75.0


class TestReticle:
    def test_reference_core_fits_with_residual(self, core_144x256):
        report = crossbar_area(core_144x256)
        assert report.fits_reticle
        assert report.residual_mm2 == pytest.approx(155.7, abs=0.5)
        assert report.residual_mm2 == pytest.approx(26 * 33 - 24.3 * 28.9, rel=1e-12)

    def test_orientation_swap(self):
        report = crossbar_area(CoreGeometry(144, 256))
        swapped = reticle_check(report, (10.0, 27.0))
        # 24.3 x 28.9 cannot mount either way in 10 x 27
        assert not swapped.fits_reticle
        tall = reticle_check(report, (29.0, 25.0))
        # swap allowed: 24.3 <= 25 and 28.9 <= 29
        assert tall.fits_reticle

    def test_oversized_core_reports_shortfall(self):
        report = crossbar_area(CoreGeometry(297, 512))
        assert not report.fits_reticle
        short_w, short_h = report.shortfall_mm
        assert short_w > 0 and short_h > 0
        assert report.residual_mm2 is None

    def test_narrow_die_fits_after_swap(self):
        # 27 mm x 1.9 mm footprint: width over 26 but under 33 after rotation
        report = crossbar_area(CoreGeometry(9, 8), AreaParams(group_pitch_um=25100.0))
        assert report.crossbar_w_mm == pytest.approx(27.0, abs=1e-9)
        assert report.crossbar_h_mm == pytest.approx(1.9, abs=1e-9)
        assert report.fits_reticle
