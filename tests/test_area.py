import pytest

from wavecore import CoreGeometry, crossbar_area


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
