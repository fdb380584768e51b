"""Every numeric field of every spec is checked by ``catalog.check_number``:
finite, an integer (never a bool) where the field is one, and in range.
The roll-up functions' own argument checks fail on NaN and infinity."""

import dataclasses
import math

import numpy as np
import pytest

from wavecore.catalog import ComponentSpec, check_number, default_catalog
from wavecore.engine import NoiseSpec, PcmProgrammer, QuantSpec, noisy_mvm
from wavecore.linkbudget import CoherentCombining, CoreGeometry, MrrAccumulation, Planar2D, SoaAssisted, fanout_loss
from wavecore.power import PrecisionSpec, dac_power, laser_power, total_power, vcsel_program_energy
from wavecore.workload import ConvLayerSpec, estimate_perf, peak_tops, resnet50_workload, schedule

CATALOG = default_catalog()
# One valid instance of each class; the tests vary one field at a time with
# dataclasses.replace. The catalog's specs come from the shipped file.
SPECS = [
    CATALOG.component("voa"),                   # every optional field set
    CATALOG.laser,
    CATALOG.pd,
    CATALOG.modulator,
    CATALOG.pcm,
    CATALOG.soa,
    CATALOG.converters,
    CATALOG.vcsel,
    CATALOG.thermo,
    CoreGeometry(rows=9, cols=8),
    SoaAssisted(),
    Planar2D(crossing_count=3, ybranch_count=2),
    MrrAccumulation(),
    CoherentCombining(),
    PrecisionSpec(),
    QuantSpec(bits=6),
    NoiseSpec(),
    PcmProgrammer(CATALOG.pcm),
    ConvLayerSpec(name="l"),
]
NUMERIC_TYPES = {"float": False, "float | None": False, "int": True, "int | None": True}
NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, "1", None, 10**400]


def value_id(value):
    return f"int of {value.bit_length()} bits" if type(value) is int and value.bit_length() > 64 else repr(value)


def numeric_fields():
    for spec in SPECS:
        for field in dataclasses.fields(spec):
            if field.type in NUMERIC_TYPES:
                yield pytest.param(spec, field.name, NUMERIC_TYPES[field.type],
                                   id=f"{type(spec).__name__}.{field.name}")


@pytest.mark.parametrize("spec", SPECS, ids=[type(spec).__name__ for spec in SPECS])
def test_defaults_construct(spec):
    dataclasses.replace(spec)


@pytest.mark.parametrize("spec, name, integer", numeric_fields())
def test_field_rejects_non_numbers_naming_it(spec, name, integer):
    optional = {f.name: f.type for f in dataclasses.fields(spec)}[name].endswith("None")
    bad = [v for v in NOT_NUMBERS if not (optional and v is None)] + ([2.5, 3.0] if integer else [])
    for value in bad:
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(spec, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, True, "1", 10**400, 0.0, -1.0], ids=value_id)
def test_component_area_elements_are_checked(value):
    with pytest.raises(ValueError, match=r"wsc\.area_um"):
        ComponentSpec("wsc", 0.25, area_um=(value, 10.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, True, "1", 10**400, -1.0], ids=value_id)
def test_modulator_energy_entries_are_checked(value):
    with pytest.raises(ValueError, match=r"sl_mzm\.energy_per_switch_fj\[6\]"):
        dataclasses.replace(CATALOG.modulator, energy_per_switch_fj={4: 131.6, 6: value})


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=value_id)
def test_pcm_write_time_is_checked(value):
    with pytest.raises(ValueError, match="^t_ns must be a finite number"):
        PcmProgrammer(CATALOG.pcm).program(np.zeros((2, 2)), t_ns=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0, 1.5, True], ids=value_id)
def test_detector_rows_is_checked(value):
    with pytest.raises(ValueError, match="^detector_rows must be an integer >= 1, got"):
        noisy_mvm(np.full((1, 9, 1), 0.5), np.full((9, 8), 0.5), QuantSpec(bits=6), QuantSpec(bits=6),
                  detector_rows=value)


@pytest.mark.parametrize(
    "seed, batch", [(2**127, 1), (-2**127 - 1, 1), (10**39, 1), (2**127 - 1, 2)],
    ids=["2**127", "-2**127 - 1", "10**39", "second_item_at_2**127"],
)
def test_simulator_seed_past_the_key_range_is_named(seed, batch):
    # NoiseSpec rejects NaN, infinite and non-integer seeds; a seed of any
    # size is an integer, and the stream keys take 128 bits of it
    noise = NoiseSpec(seed=seed)
    with pytest.raises(ValueError, match="^seed must be an integer in"):
        noisy_mvm(np.full((batch, 9, 1), 0.5), np.full((9, 8), 0.5), QuantSpec(bits=6), QuantSpec(bits=6),
                  noise=noise)


def test_component_loss_and_area_are_stored_as_floats():
    spec = ComponentSpec("awg", 2, area_um=[600, 1800])
    assert type(spec.insertion_loss_db) is float and spec.insertion_loss_db == 2.0
    assert spec.area_um == (600.0, 1800.0) and all(type(v) is float for v in spec.area_um)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0, 1, 2.5, -3.0, np.float64(0.5), 2**1000, -1.7e308], ids=value_id)
    def test_accepts_finite_numbers(self, value):
        check_number("x", value)

    @pytest.mark.parametrize("value", [math.nan, np.float64("nan"), math.inf, -math.inf, True, False, None, "1",
                                       [1], 2**1024, -(2**1024)], ids=value_id)
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="^x must be a finite number, got"):
            check_number("x", value)

    @pytest.mark.parametrize("value", [1.0, 2.5, True, np.float64(3.0), np.int64(3), "3"])
    def test_integer_means_int(self, value):
        with pytest.raises(ValueError, match="^n must be an integer"):
            check_number("n", value, integer=True)

    @pytest.mark.parametrize(
        "bounds, inside, outside",
        [
            ({"ge": 0.0}, [0.0, 1e308], [-1e-300]),
            ({"gt": 0.0}, [1e-300], [0.0, -1.0]),
            ({"le": 1.0}, [1.0, -5.0], [1.0000001]),
            ({"lt": 0.0}, [-1e-300], [0.0]),
            ({"gt": 0.0, "le": 1.0}, [0.5, 1.0], [0.0, 1.5]),
        ],
    )
    def test_bounds(self, bounds, inside, outside):
        for value in inside:
            check_number("x", value, **bounds)
        for value in outside:
            with pytest.raises(ValueError, match=f"got {value!r}$"):
                check_number("x", value, **bounds)

    def test_message_states_the_range_and_hides_huge_integers(self):
        with pytest.raises(ValueError, match=r"^laser\.wpe must be a finite number > 0\.0 and <= 1\.0, got 2$"):
            check_number("laser.wpe", 2, gt=0.0, le=1.0)
        with pytest.raises(ValueError, match="^c_in must be an integer >= 1, got an integer too large for a float$"):
            check_number("c_in", 10**400, integer=True, ge=1)


@pytest.fixture(scope="module")
def design_point(catalog):
    geom = CoreGeometry(144, 256)
    power = total_power(geom, catalog)
    return geom, power, schedule(resnet50_workload(), geom, catalog.pcm)


@pytest.mark.parametrize(
    "call",
    [
        lambda cat, geom, power, sched, x: peak_tops(geom, x),
        lambda cat, geom, power, sched, x: dac_power(8, x, 1e-13),
        lambda cat, geom, power, sched, x: dac_power(x, 1e9, 1e-13),
        lambda cat, geom, power, sched, x: total_power(geom, cat, f_hz=x),
        lambda cat, geom, power, sched, x: laser_power(-25.0, 30.0, 8, x, 1.0),
        lambda cat, geom, power, sched, x: laser_power(-25.0, 30.0, 8, 1.17, x),
        lambda cat, geom, power, sched, x: vcsel_program_energy(x, 1.43, 0.548),
        lambda cat, geom, power, sched, x: vcsel_program_energy(135.0, 1.43, x),
        lambda cat, geom, power, sched, x: fanout_loss(x),
        lambda cat, geom, power, sched, x: estimate_perf(sched, power, x, cat, allow_overclock=True),
        lambda cat, geom, power, sched, x: vcsel_program_energy(135.0, x, 0.5),
        lambda cat, geom, power, sched, x: laser_power(-25.0, x, 8, 1.17, 1.0),
        lambda cat, geom, power, sched, x: laser_power(x, 30.0, 8, 1.17, 1.0),
        lambda cat, geom, power, sched, x: dac_power(8, 1e9, x),
        lambda cat, geom, power, sched, x: laser_power(-25.0, 30.0, x, 1.17, 1.0),
        lambda cat, geom, power, sched, x: noisy_mvm(np.full((1, 9, 1), 0.5), np.full((9, 8), 0.5),
                                                      QuantSpec(bits=6), QuantSpec(bits=6), detector_rows=x),
    ],
    ids=["peak_tops.f_hz", "dac_power.f_hz", "dac_power.bits", "total_power.f_hz", "laser_power.er_db",
         "laser_power.wpe", "vcsel_program_energy.e_opt_pj", "vcsel_program_energy.eta_vcsel", "fanout_loss.w",
         "estimate_perf.f_hz", "vcsel_program_energy.gc_loss_db", "laser_power.il_db",
         "laser_power.sensitivity_dbm", "dac_power.p0_ws", "laser_power.b_out", "noisy_mvm.detector_rows"],
)
def test_roll_up_arguments_reject_nan(catalog, design_point, call):
    geom, power, sched = design_point
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            call(catalog, geom, power, sched, value)
