import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from wavecore import (
    CoreGeometry,
    MrrAccumulation,
    SoaAssisted,
    ThermoOpticWeights,
    dac_power,
    laser_power,
    total_power,
    vcsel_program_energy,
)
from wavecore.power import PrecisionSpec
from wavecore.workload import PARETO_CLOCK_HZ


class TestLaserPower:
    def test_reference_evaluation(self):
        assert laser_power(-25.0, 30.0, 8, 1.17, 0.2) == pytest.approx(17.14, abs=0.01)

    def test_per_site_detection_point(self):
        assert laser_power(-25.0, 51.6, 8, 1.17, 1.0) == pytest.approx(495.5, abs=0.1)

    def test_collapses_to_bare_sensitivity(self):
        # 1-bit swing, near-infinite extinction, lossless path: every correction
        # factor but the swing's 2 is 1, leaving twice the raw sensitivity power
        watts = laser_power(-25.0, 0.0, 1, 1000.0, 1.0)
        assert watts == pytest.approx(2 * 10 ** (-25 / 10) * 1e-3, rel=1e-9)

    def test_plus_10db_is_exactly_10x(self):
        a = laser_power(-25.0, 30.0, 8, 1.17, 0.2)
        b = laser_power(-25.0, 40.0, 8, 1.17, 0.2)
        assert b == pytest.approx(10.0 * a, rel=1e-12)

    @given(il=st.floats(min_value=0.0, max_value=100.0), delta=st.floats(min_value=0.01, max_value=20.0))
    def test_strictly_increasing_in_il(self, il, delta):
        assert laser_power(-25.0, il + delta, 8, 1.17, 1.0) > laser_power(-25.0, il, 8, 1.17, 1.0)

    @given(bits=st.integers(min_value=1, max_value=15))
    def test_strictly_increasing_in_bits(self, bits):
        assert laser_power(-25.0, 30.0, bits + 1, 1.17, 1.0) == pytest.approx(
            2.0 * laser_power(-25.0, 30.0, bits, 1.17, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize("b_out", [0, 17, 2000, 1.5, 8.0, True])
    def test_bit_count_outside_the_precision_range_rejected(self, b_out):
        with pytest.raises(ValueError, match="^b_out must be an integer >= 1 and <= 16, got "):
            laser_power(-25.0, 30.0, b_out, 1.17, 1.0)

    def test_zero_extinction_rejected(self):
        with pytest.raises(ValueError, match="extinction"):
            laser_power(-25.0, 30.0, 8, 0.0, 1.0)

    @pytest.mark.parametrize("er_db", [1e-20, 1e-17, 5e-324])
    def test_extinction_ratio_with_no_modulation_depth_rejected(self, er_db):
        # positive, but 10**(-er_db/10) rounds to 1.0: was a bare ZeroDivisionError
        with pytest.raises(ValueError, match=f"^extinction ratio in dB {er_db:.6g} gives no modulation depth"):
            laser_power(-25.0, 30.0, 8, er_db, 1.0)

    def test_smallest_extinction_ratios_with_a_depth_give_a_finite_power(self):
        assert math.isfinite(laser_power(-25.0, 30.0, 8, 1e-15, 1.0))

    @pytest.mark.parametrize("il_db", [
        4000.0,  # the launched power overflows: was a bare OverflowError
        3080.0,  # the launched power is in range, its laser power is not: was inf
    ])
    def test_result_out_of_float_range_names_the_loss(self, il_db):
        with pytest.raises(ValueError, match=f"^a result is out of float range: .* il_db {il_db:.6g} dB "):
            laser_power(-25.0, il_db, 8, 1.17, 1.0)


class TestConverterPower:
    def test_unit_case(self):
        assert dac_power(1, 1.0, 1.0) == 1.0

    def test_8bit_1ghz(self):
        assert dac_power(8, 1e9, 1e-12) == pytest.approx(28.444e-3, rel=1e-3)

    def test_linear_in_rate(self):
        assert dac_power(6, 2e9, 1e-13) == pytest.approx(2 * dac_power(6, 1e9, 1e-13), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dac_power(0, 1e9, 1e-13)
        with pytest.raises(ValueError):
            dac_power(8, 0.0, 1e-13)

    @pytest.mark.parametrize("bits", [0, 17, 2000, 1.5, 8.0, True])
    def test_bit_count_outside_the_precision_range_rejected(self, bits):
        # 2000 bits once overflowed 2.0 ** bits into a bare OverflowError
        with pytest.raises(ValueError, match="^bits must be an integer >= 1 and <= 16, got "):
            dac_power(bits, 1e9, 1e-13)


class TestVcselEnergy:
    def test_program_event(self):
        assert vcsel_program_energy(135.0, 1.43, 0.548) == pytest.approx(342.4, abs=0.1)

    def test_identity(self):
        assert vcsel_program_energy(50.0, 0.0, 1.0) == 50.0

    def test_erase_event(self):
        assert vcsel_program_energy(680.0, 1.43, 0.548) == pytest.approx(1724.77, abs=0.02)


class TestTotalPower:
    def test_breakdown_sums_and_fractions(self, catalog, core_144x256):
        report = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ)
        assert sum(w for _, w, _ in report.entries) == pytest.approx(report.total_w, rel=1e-12)
        assert sum(f for _, _, f in report.entries) == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0 for _, w, _ in report.entries)

    def test_removing_a_component_never_increases_total(self, catalog, core_144x256):
        report = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ)
        for label, _, _ in report.entries:
            rest = sum(w for name, w, _ in report.entries if name != label)
            assert rest <= report.total_w

    def test_soa_adds_row_drive(self, catalog, core_144x256):
        report = total_power(core_144x256, catalog, SoaAssisted(), f_hz=PARETO_CLOCK_HZ)
        assert report.watts("soa_drive") == pytest.approx(144 * 0.410, rel=1e-12)

    def test_thermo_adds_heater_hold(self, catalog, core_144x256):
        report = total_power(core_144x256, catalog, ThermoOpticWeights(), f_hz=PARETO_CLOCK_HZ)
        assert report.watts("heater_hold") == pytest.approx(144 * 256 * 6.55e-3, rel=1e-12)

    def test_baseline_has_no_static_weight_power(self, catalog, core_144x256):
        report = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ)
        labels = [name for name, _, _ in report.entries]
        assert "heater_hold" not in labels and "soa_drive" not in labels

    def test_electrical_mode_divides_by_catalog_wpe(self, catalog, core_144x256):
        budget = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ, wpe=1.0)
        electrical = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ, wpe=None)
        assert electrical.wpe == catalog.laser.wpe
        assert electrical.watts("laser") == pytest.approx(budget.watts("laser") / 0.2, rel=1e-12)

    def test_ring_accumulation_power_is_astronomical_and_flagged(self, catalog, core_144x256):
        report = total_power(core_144x256, catalog, MrrAccumulation(), f_hz=PARETO_CLOCK_HZ)
        assert report.total_w >= 1e27
        assert not report.feasible
        assert "margin" in report.infeasible_reason

    def test_scales_with_geometry(self, catalog):
        small = total_power(CoreGeometry(9, 8), catalog, f_hz=PARETO_CLOCK_HZ)
        big = total_power(CoreGeometry(144, 256), catalog, f_hz=PARETO_CLOCK_HZ)
        assert big.total_w > small.total_w

    def test_invariants_fail_on_nan(self, catalog, core_9x8):
        report = total_power(core_9x8, catalog, f_hz=PARETO_CLOCK_HZ)
        entries = list(report.entry_watts)
        entries[1] = (entries[1][0], math.nan)
        with pytest.raises(ValueError):
            dataclasses.replace(report, entry_watts=tuple(entries))

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
    def test_non_finite_margin_is_rejected(self, catalog, core_9x8, margin):
        report = total_power(core_9x8, catalog, f_hz=PARETO_CLOCK_HZ)
        with pytest.raises(ValueError, match="^link margin_db must be a finite number"):
            dataclasses.replace(report, margin_db=margin)

    @pytest.mark.parametrize("field, value", [
        # a zero clock reached a ZeroDivisionError in the perf model's stream time
        ("f_hz", 0.0), ("f_hz", -1e9), ("f_hz", math.nan), ("f_hz", math.inf),
        # a NaN wpe was printed in the report's assumptions
        ("wpe", math.nan), ("wpe", 0.0), ("wpe", 1.5),
    ])
    def test_stored_input_out_of_range_is_rejected(self, catalog, core_9x8, field, value):
        report = total_power(core_9x8, catalog)
        with pytest.raises(ValueError, match=f"^{field} must be a finite number > 0.0"):
            dataclasses.replace(report, **{field: value})

    def test_zero_total_is_rejected(self, catalog, core_9x8):
        report = total_power(core_9x8, catalog, f_hz=PARETO_CLOCK_HZ)
        with pytest.raises(ValueError, match="^total_w is 0"):
            dataclasses.replace(report, entry_watts=tuple((name, 0.0) for name, _ in report.entry_watts))

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            PrecisionSpec(b_in=0)
        with pytest.raises(ValueError):
            PrecisionSpec(b_out=17)
