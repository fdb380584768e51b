import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from wavecore import (
    Baseline3D,
    CoherentCombining,
    CoreGeometry,
    KclOnly,
    LinkBudgetReport,
    MrrAccumulation,
    Planar2D,
    SoaAssisted,
    ThermoOpticWeights,
    critical_path_il,
    fanout_loss,
    total_power,
)
from wavecore.linkbudget import VARIANTS

PASSIVE_NAMES = ("awg", "escalator", "mmi_1x8", "splitter_1x2", "wsc", "pcm_cell", "voa")


def with_losses(cat, **loss_db):
    """Copy of ``cat`` with the named components' losses replaced."""
    comps = {**cat.components}
    for name, value in loss_db.items():
        comps[name] = dataclasses.replace(cat.component(name), insertion_loss_db=value)
    return dataclasses.replace(cat, components=comps)


def zero_loss_catalog(catalog):
    cat = with_losses(catalog, **{name: 0.0 for name in PASSIVE_NAMES})
    return dataclasses.replace(cat, modulator=dataclasses.replace(cat.modulator, insertion_loss_db=0.0))


class TestGeometry:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="rows must be an integer >= 1"):
            CoreGeometry(0, 256)

    def test_groups(self, core_144x256):
        assert core_144x256.groups == 16
        assert core_144x256.mmi_bundles - 1 == 31

    def test_rows_must_align_to_groups(self):
        with pytest.raises(ValueError, match="divisible"):
            CoreGeometry(140, 256)

    def test_cols_must_align_to_mmi(self):
        with pytest.raises(ValueError, match="divisible"):
            CoreGeometry(144, 100)

    def test_narrow_degenerate_cores_allowed(self):
        assert CoreGeometry(9, 1).mmi_bundles - 1 == 0

    def test_parse(self):
        geom = CoreGeometry.parse("18x16")
        assert (geom.rows, geom.cols) == (18, 16)
        with pytest.raises(ValueError):
            CoreGeometry.parse("18by16")


class TestFanout:
    def test_256(self):
        assert fanout_loss(256) == pytest.approx(24.0824, abs=1e-4)

    def test_unity(self):
        assert fanout_loss(1) == 0.0

    def test_8(self):
        assert fanout_loss(8) == pytest.approx(9.0309, abs=1e-4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fanout_loss(0)


class TestBaseline:
    def test_reference_total(self, catalog, core_144x256):
        report = critical_path_il(core_144x256, catalog)
        assert report.total_db == pytest.approx(32.0, abs=1.0)
        assert report.total_db == pytest.approx(sum(db for _, db in report.terms), abs=1e-9)

    def test_single_column_zero_loss(self, catalog):
        geom = CoreGeometry(9, 1)
        report = critical_path_il(geom, zero_loss_catalog(catalog))
        assert report.total_db == 0.0

    def test_zero_losses_leave_pure_fanout(self, catalog, core_144x256):
        report = critical_path_il(core_144x256, zero_loss_catalog(catalog))
        assert report.total_db == pytest.approx(fanout_loss(256), abs=1e-12)

    def test_terms_nonnegative(self, catalog, core_144x256):
        report = critical_path_il(core_144x256, catalog)
        assert all(db >= 0.0 for _, db in report.terms)

    def test_monotone_in_width(self, catalog):
        totals = [
            critical_path_il(CoreGeometry(144, w), catalog).total_db
            for w in (8, 16, 64, 128, 256)
        ]
        assert totals == sorted(totals)

    @given(scale=st.floats(min_value=1.0, max_value=3.0))
    def test_monotone_in_every_loss(self, catalog, scale):
        geom = CoreGeometry(144, 256)
        base = critical_path_il(geom, catalog).total_db
        for name in PASSIVE_NAMES:
            bumped = with_losses(catalog, **{name: catalog.loss_db(name) * scale})
            assert critical_path_il(geom, bumped).total_db >= base


class TestVariants:
    def test_kcl_reference(self, catalog, core_144x256):
        report = critical_path_il(core_144x256, catalog, KclOnly())
        assert report.total_db == pytest.approx(51.6, abs=1.0)

    def test_kcl_minus_baseline_identity(self, catalog, core_144x256):
        base = critical_path_il(core_144x256, catalog)
        kcl = critical_path_il(core_144x256, catalog, KclOnly())
        expected = 10 * math.log10(144) - 8 * catalog.loss_db("wsc")
        assert kcl.total_db - base.total_db == pytest.approx(expected, abs=0.01)

    def test_planar2d_delta_identity(self, catalog, core_144x256):
        base = critical_path_il(core_144x256, catalog)
        flat = critical_path_il(core_144x256, catalog, Planar2D())
        expected = (256 + 8) * catalog.loss_db("crossing") + 256 * catalog.loss_db("y_branch")
        assert flat.total_db - base.total_db == pytest.approx(expected, abs=1e-9)

    def test_planar2d_count_overrides(self, catalog, core_144x256):
        flat = critical_path_il(core_144x256, catalog, Planar2D(crossing_count=100, ybranch_count=0))
        assert flat.term("crossings") == pytest.approx(100 * 0.23)
        assert flat.term("y_branches") == 0.0

    def test_thermo_loss_identical_to_baseline(self, catalog, core_144x256):
        base = critical_path_il(core_144x256, catalog)
        thermo = critical_path_il(core_144x256, catalog, ThermoOpticWeights())
        assert thermo.total_db == base.total_db

    def test_mrr_ring_chain(self, catalog, core_144x256):
        report = critical_path_il(core_144x256, catalog, MrrAccumulation())
        assert report.term("ring_chain") == pytest.approx(2 * 144 * 0.925)
        assert report.total_db > 290.0
        with pytest.raises(KeyError):
            report.term("wsc_chain")

    def test_coherent_tree_depth(self, catalog, core_144x256):
        report = critical_path_il(core_144x256, catalog, CoherentCombining())
        assert report.term("combiner_tree") == pytest.approx(math.ceil(math.log2(144)) * 3.0)

    def test_soa_pre_amp_path(self, catalog, core_144x256):
        report = critical_path_il(core_144x256, catalog, SoaAssisted(fanout_before_amp=128))
        assert report.term("fanout") == pytest.approx(fanout_loss(128))
        assert report.term("splitter_stages") == pytest.approx(15 * 0.02)
        assert report.term("soa_facets") == pytest.approx(2.0)
        base = critical_path_il(core_144x256, catalog)
        assert report.total_db < base.total_db


class TestValidation:
    @pytest.mark.parametrize("cls", VARIANTS.values())
    def test_label_is_a_class_constant_not_a_parameter(self, cls):
        assert "label" not in {field.name for field in dataclasses.fields(cls)}
        with pytest.raises(TypeError, match="label"):
            cls(label="other")

    @pytest.mark.parametrize("field", ["crossing_count", "ybranch_count"])
    @pytest.mark.parametrize("value", [-1, -5, 2.5, True])
    def test_planar2d_counts_are_integers_from_zero(self, field, value):
        with pytest.raises(ValueError, match=field):
            Planar2D(**{field: value})

    @pytest.mark.parametrize("cls, field", [(MrrAccumulation, "ring_loss_db"), (CoherentCombining, "stage_loss_db")])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_losses_are_finite_and_positive(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "terms",
        [
            (("a", math.inf),),
            (("a", math.nan),),
            (("a", 1.0), ("b", math.nan)),
        ],
    )
    def test_report_invariants_fail_on_non_finite(self, core_9x8, terms):
        with pytest.raises(ValueError):
            LinkBudgetReport(terms=terms, geometry=core_9x8, variant_label="x")


# one infeasible core of each variant, with the reason its report stored
# before the report derived it from margin_db
INFEASIBLE_CORES = [
    (Baseline3D(), "144x512", "single-channel link margin -1.3 dB at 36.3 dB path loss"),
    (SoaAssisted(fanout_before_amp=512), "144x1024", "single-channel link margin -3.3 dB at 38.3 dB path loss"),
    (Planar2D(), "144x256", "single-channel link margin -84.0 dB at 119.0 dB path loss"),
    (ThermoOpticWeights(), "144x512", "single-channel link margin -1.3 dB at 36.3 dB path loss"),
    (MrrAccumulation(), "144x256", "single-channel link margin -262.1 dB at 297.1 dB path loss"),
    (KclOnly(), "144x256", "single-channel link margin -17.3 dB at 52.3 dB path loss"),
    (CoherentCombining(), "144x256", "single-channel link margin -19.7 dB at 54.7 dB path loss"),
]


class TestFeasibility:
    """The single-channel link margin each PowerReport stores, and the
    feasibility and reason it derives from it."""

    def test_baseline_margin(self, catalog, core_144x256):
        power = total_power(core_144x256, catalog)
        # 10 dBm launch - ~32.7 dB path + 25 dBm sensitivity floor
        assert power.feasible
        assert power.margin_db == pytest.approx(10 - power.link.total_db + 25, abs=1e-12)

    def test_boundary_zero_margin_is_feasible(self, catalog):
        cat = dataclasses.replace(
            _catalog_with_total(35.0),
            laser=dataclasses.replace(catalog.laser, channel_power_dbm=10.0),
            pd=dataclasses.replace(catalog.pd, sensitivity_dbm=-25.0),
        )
        power = total_power(CoreGeometry(144, 256), cat, Baseline3D())
        assert power.margin_db == 0.0
        assert power.feasible
        assert power.infeasible_reason == ""

    def test_mrr_infeasible(self, catalog, core_144x256):
        power = total_power(core_144x256, catalog, MrrAccumulation())
        assert not power.feasible
        assert power.margin_db < -250.0

    # each verdict and reason as the reports stored them before they derived
    # both from margin_db: a 35 dB path against 10 dBm +- 0.05 dB of launch
    @pytest.mark.parametrize(
        "launch_dbm, feasible, reason",
        [
            (9.95, False, "single-channel link margin -0.1 dB at 35.0 dB path loss"),
            (10.0, True, ""),
            (10.05, True, ""),
        ],
        ids=["minus-0.05dB", "zero", "plus-0.05dB"],
    )
    def test_verdict_near_zero_margin(self, catalog, launch_dbm, feasible, reason):
        cat = dataclasses.replace(
            _catalog_with_total(35.0), laser=dataclasses.replace(catalog.laser, channel_power_dbm=launch_dbm)
        )
        power = total_power(CoreGeometry(144, 256), cat)
        assert power.margin_db == pytest.approx(launch_dbm - 10.0, abs=1e-12)
        assert (power.feasible, power.infeasible_reason) == (feasible, reason)

    @pytest.mark.parametrize(
        "variant, core, reason", INFEASIBLE_CORES, ids=[variant.label for variant, _, _ in INFEASIBLE_CORES]
    )
    def test_infeasible_core_of_every_variant(self, catalog, variant, core, reason):
        power = total_power(CoreGeometry.parse(core), catalog, variant)
        assert not power.feasible
        assert power.infeasible_reason == reason
        assert power.geometry == power.link.geometry == CoreGeometry.parse(core)
        assert power.variant_label == power.link.variant_label == variant.label

    def test_every_variant_has_an_infeasible_core(self):
        assert [variant.label for variant, _, _ in INFEASIBLE_CORES] == list(VARIANTS)


def _catalog_with_total(target_db):
    """Catalog whose baseline 144x256 path totals exactly target_db (via the awg term)."""
    from wavecore import default_catalog

    cat = default_catalog()
    base = critical_path_il(CoreGeometry(144, 256), cat).total_db
    return with_losses(cat, awg=cat.loss_db("awg") + (target_db - base))
