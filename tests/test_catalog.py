import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wavecore import (
    CatalogError,
    db_to_linear,
    linear_to_db,
    load_catalog,
    pd_min_power,
    snr_required,
)
from wavecore import catalog as catalog_module
from wavecore.catalog import default_catalog, default_catalog_path

Q = 1.602176634e-19
SHIPPED = json.loads(default_catalog_path().read_text())
ENTRY_NAMES = [name for name in SHIPPED if name != "schema_version"]


def entry(cat, name):
    """The spec a catalog built for the file entry ``name``."""
    if name in cat.components:
        return cat.components[name]
    return getattr(cat, "modulator" if name == "sl_mzm" else name)


def write_catalog(path, doc):
    path.write_text(json.dumps({"schema_version": 1, **doc}))
    return path


class TestConversions:
    def test_db_identity(self):
        assert db_to_linear(0.0) == 1.0

    def test_db_to_linear_minus_25(self):
        assert db_to_linear(-25.0) == pytest.approx(0.0031622776601684, rel=1e-10)

    @given(st.floats(min_value=-300.0, max_value=300.0, allow_nan=False))
    def test_round_trip(self, x):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12 * max(1.0, abs(x)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            db_to_linear(bad)


class TestLoader:
    def test_shipped_defaults(self, catalog):
        assert catalog.loss_db("wsc") == 0.25
        assert catalog.loss_db("awg") == 1.5
        assert catalog.modulator.extinction_ratio_db == 1.17
        assert catalog.pcm.cycle_time_ns == 1000.0
        assert catalog.defaulted == ()  # shipped file is fully explicit

    def test_negative_loss_names_field(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "wsc": {"insertion_loss_db": -0.1}}))
        with pytest.raises(CatalogError, match="wsc.insertion_loss_db"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"wsc": {"insertion_loss_db": "abc"}}, "wsc.insertion_loss_db"),
            ({"wsc": {"area_um": [1]}}, "wsc.area_um"),
            ({"wsc": {"area_um": [1, "x"]}}, "wsc.area_um"),
            ({"voa": {"static_power_mw": "3"}}, "voa.static_power_mw"),
            ({"laser": {"wpe": None}}, "laser.wpe"),
            ({"laser": {"wpe": True}}, "laser.wpe"),
            ({"laser": {"channels_per_comb": 9.5}}, "laser.channels_per_comb"),
            ({"pd": {"bandwidth_hz": float("nan")}}, "pd.bandwidth_hz"),
            ({"soa": {"drive_power_mw": float("inf")}}, "soa.drive_power_mw"),
            ({"sl_mzm": {"energy_per_switch_fj": {"six": 1.0}}}, "sl_mzm.energy_per_switch_fj"),
            ({"sl_mzm": {"energy_per_switch_fj": {"6": "a"}}}, "sl_mzm.energy_per_switch_fj[6]"),
            ({"sl_mzm": {"energy_per_switch_fj": []}}, "sl_mzm.energy_per_switch_fj"),
        ],
    )
    def test_non_numeric_field_names_component_and_field(self, tmp_path, entry, field):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, **entry}))
        with pytest.raises(CatalogError) as info:
            load_catalog(path)
        assert field in str(info.value)

    def test_unknown_component_rejected(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "wcs": {"insertion_loss_db": 0.25}}))
        with pytest.raises(CatalogError, match="wcs"):
            load_catalog(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "wsc": {"loss": 0.25}}))
        with pytest.raises(CatalogError, match="wsc"):
            load_catalog(path)

    def test_missing_escalator_defaulted_and_flagged(self, tmp_path):
        data = json.loads(default_catalog_path().read_text())
        del data["escalator"]
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(data))
        cat = load_catalog(path)
        assert cat.loss_db("escalator") == 0.1
        assert "escalator" in cat.defaulted

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text("{not json")
        with pytest.raises(CatalogError, match="not valid JSON"):
            load_catalog(path)

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text("{}")
        with pytest.raises(CatalogError, match="schema_version"):
            load_catalog(path)

    def test_repeated_loads_identical(self):
        a = load_catalog(default_catalog_path())
        b = load_catalog(default_catalog_path())
        assert a == b
        assert a.source_sha256 == b.source_sha256

    def test_sha256_is_of_the_file_bytes(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_bytes(default_catalog_path().read_bytes().replace(b"\n", b"\r\n"))
        assert load_catalog(path).source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_hash_describes_the_parsed_file(self, tmp_path, monkeypatch):
        # The file changes after every read, as if rewritten by another process:
        # the header hash must still be of the bytes that were parsed.
        path = tmp_path / "cat.json"
        versions = [json.dumps({"schema_version": 1, "wsc": {"insertion_loss_db": db}}).encode()
                    for db in (0.25, 0.5, 0.75)]
        path.write_bytes(versions[0])
        reads = []

        def rewriting(read):
            def wrapped(self, *args, **kwargs):
                data = read(self, *args, **kwargs)
                if self == path:
                    reads.append(data)
                    path.write_bytes(versions[len(reads)])
                return data
            return wrapped

        monkeypatch.setattr(Path, "read_bytes", rewriting(Path.read_bytes))
        monkeypatch.setattr(Path, "read_text", rewriting(Path.read_text))
        cat = load_catalog(path)
        assert len(reads) == 1
        assert cat.loss_db("wsc") == 0.25
        assert cat.source_sha256 == hashlib.sha256(versions[0]).hexdigest()

    def test_invalid_utf8_is_a_catalog_error(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_bytes(b'{"schema_version": 1, "wsc": {"notes": "\xff"}}')
        with pytest.raises(CatalogError, match="not valid JSON"):
            load_catalog(path)

    def test_immutable(self, catalog):
        with pytest.raises(dataclasses.FrozenInstanceError):
            catalog.laser = None
        with pytest.raises(TypeError):
            catalog.components["wsc"] = None

    def test_pcm_invalid_levels(self, tmp_path):
        data = {"schema_version": 1, "pcm": {"levels_bits": 6}}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CatalogError, match="levels_bits"):
            load_catalog(path)

    def test_switch_energy_lookup(self, catalog):
        assert catalog.modulator.switch_energy_fj(6) == 119.8
        assert catalog.modulator.switch_energy_fj(5) == 131.6  # nearest, ties to lower bits
        assert catalog.modulator.switch_energy_fj(12) == 117.1


class TestShippedDefaults:
    """The shipped file is the one source of default values."""

    @pytest.fixture
    def shipped_copy(self, tmp_path, monkeypatch):
        """A copy of the shipped file standing in for it; edit it before the first load."""
        path = tmp_path / "shipped.json"
        path.write_bytes(catalog_module._SHIPPED_PATH.read_bytes())
        monkeypatch.setattr(catalog_module, "_SHIPPED_PATH", path)
        catalog_module._shipped.cache_clear()
        yield path
        catalog_module._shipped.cache_clear()

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_missing_entry_is_the_shipped_one(self, tmp_path, catalog, name):
        doc = {key: value for key, value in SHIPPED.items() if key not in ("schema_version", name)}
        cat = load_catalog(write_catalog(tmp_path / "cat.json", doc))
        assert entry(cat, name) == entry(catalog, name)
        assert cat.defaulted == (name,)

    def test_missing_fields_are_the_shipped_ones(self, tmp_path, catalog):
        cat = load_catalog(write_catalog(tmp_path / "cat.json", {"pcm": {"program_std": 0.02}}))
        assert cat.pcm == dataclasses.replace(catalog.pcm, program_std=0.02)
        assert "pcm" not in cat.defaulted

    def test_defaults_follow_the_shipped_file(self, tmp_path, shipped_copy):
        doc = json.loads(shipped_copy.read_text())
        doc["pcm"]["erase_energy_pj"] = 700.0
        doc["awg"]["insertion_loss_db"] = 2.0
        shipped_copy.write_text(json.dumps(doc))
        cat = load_catalog(write_catalog(tmp_path / "cat.json", {"pcm": {"program_std": 0.02}}))
        assert cat.pcm.erase_energy_pj == 700.0 and cat.pcm.program_std == 0.02
        assert cat.loss_db("awg") == 2.0

    def test_defaults_ignore_the_environment(self, tmp_path, monkeypatch, shipped_copy, catalog):
        doc = json.loads(shipped_copy.read_text())
        doc["pcm"]["erase_energy_pj"] = 700.0
        monkeypatch.setenv("WAVECORE_CATALOG", str(write_catalog(tmp_path / "env.json", doc)))
        assert default_catalog().pcm.erase_energy_pj == 700.0
        cat = load_catalog(write_catalog(tmp_path / "cat.json", {"pcm": {"program_std": 0.02}}))
        assert cat.pcm == dataclasses.replace(catalog.pcm, program_std=0.02)


class TestSnr:
    def test_eight_bit(self):
        assert snr_required(8) == pytest.approx(49.92)

    def test_one_bit(self):
        assert snr_required(1) == pytest.approx(7.78)

    def test_six_bit(self):
        assert snr_required(6) == pytest.approx(37.88)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            snr_required(0)


class TestPdMinPower:
    def test_closed_form_snr1_no_dark(self, catalog):
        pd = dataclasses.replace(catalog.pd, responsivity_a_per_w=1.0, dark_current_a=0.0, bandwidth_hz=1e10)
        assert pd_min_power(pd, 0.0) == pytest.approx(2 * Q * 1e10, rel=1e-12)

    def test_reference_detector_at_8bit_snr(self, catalog):
        power = pd_min_power(catalog.pd, snr_required(8))
        assert power == pytest.approx(4.5275e-4, rel=1e-3)

    def test_bandwidth_linearity_at_snr1(self, catalog):
        pd1 = dataclasses.replace(catalog.pd, responsivity_a_per_w=0.8, dark_current_a=0.0, bandwidth_hz=1e10)
        pd2 = dataclasses.replace(pd1, bandwidth_hz=2e10)
        assert pd_min_power(pd2, 0.0) == pytest.approx(2 * pd_min_power(pd1, 0.0), rel=1e-12)

    @given(
        snr=st.floats(min_value=0.0, max_value=60.0),
        delta=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_monotone_in_snr(self, catalog, snr, delta):
        pd = catalog.pd
        assert pd_min_power(pd, snr + delta) > pd_min_power(pd, snr)

    @given(dark=st.floats(min_value=0.0, max_value=1e-6), extra=st.floats(min_value=1e-9, max_value=1e-6))
    def test_monotone_in_dark_current(self, catalog, dark, extra):
        low = dataclasses.replace(catalog.pd, dark_current_a=dark)
        high = dataclasses.replace(catalog.pd, dark_current_a=dark + extra)
        assert pd_min_power(high, 30.0) > pd_min_power(low, 30.0)

    def test_monotone_in_bandwidth(self, catalog):
        low = dataclasses.replace(catalog.pd, bandwidth_hz=1e9)
        high = dataclasses.replace(catalog.pd, bandwidth_hz=2e9)
        assert pd_min_power(high, 40.0) > pd_min_power(low, 40.0)
