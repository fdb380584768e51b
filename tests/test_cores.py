"""The many-core roll-ups equal a loop of one-core calls, report for report.

``total_power_cores`` and ``estimate_perf_cores`` check and derive the
core-independent inputs once per call; ``total_power`` and ``estimate_perf``
are their one-core cases. Both are compared here with a reference that
composes the public validating helpers one core at a time, as the one-core
roll-ups did before the many-core forms existed, so a hoisted input that
changed a bit or an error that moved shows as a mismatch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from wavecore import (
    Baseline3D,
    CoherentCombining,
    CoreGeometry,
    KclOnly,
    MrrAccumulation,
    Planar2D,
    PerfReport,
    PowerReport,
    SoaAssisted,
    ThermoOpticWeights,
    critical_path_il,
    dac_power,
    estimate_perf,
    estimate_perf_cores,
    laser_power,
    peak_tops,
    resnet50_workload,
    schedule_cores,
    total_power,
    total_power_cores,
    vcsel_program_energy,
)
from wavecore.power import PrecisionSpec
from wavecore.workload import DEFAULT_CLOCK_HZ, PARETO_CLOCK_HZ

optional_count = st.one_of(st.none(), st.integers(0, 600))
variants = st.one_of(
    st.builds(Baseline3D),
    st.builds(SoaAssisted, fanout_before_amp=st.integers(1, 512)),
    st.builds(Planar2D, crossing_count=optional_count, ybranch_count=optional_count),
    st.builds(ThermoOpticWeights),
    # up to 2 * 576 rows * 40 dB: long lists reach a core whose laser power overflows
    st.builds(MrrAccumulation, ring_loss_db=st.floats(0.05, 40.0)),
    st.builds(KclOnly),
    st.builds(CoherentCombining, stage_loss_db=st.floats(0.1, 5.0)),
)
geometries = st.builds(
    CoreGeometry,
    rows=st.integers(1, 64).map(lambda r: 9 * r),
    cols=st.one_of(st.integers(1, 7), st.integers(1, 128).map(lambda c: 8 * c)),
)


def _reference_power(geom, cat, variant, precision, f_hz, wpe):
    """One core's PowerReport from the public validating helpers."""
    effective_wpe = cat.laser.wpe if wpe is None else wpe
    link = critical_path_il(geom, cat, variant)
    try:
        laser_w = laser_power(
            cat.pd.sensitivity_dbm, link.total_db, precision.b_out, cat.modulator.extinction_ratio_db, effective_wpe
        )
    except OverflowError:
        name, db = link.largest_term
        raise ValueError(
            f"a result is out of float range: the laser power for a {link.total_db:.6g} dB critical-path loss"
            f" (largest term {name}, {db:.6g} dB)"
        ) from None
    entries = [
        ("laser", laser_w),
        ("input_dac", geom.rows * dac_power(precision.b_in, f_hz, cat.converters.p0_dac_ws)),
        ("mzm_driver", geom.rows * cat.modulator.switch_energy_fj(precision.b_in) * 1e-15 * f_hz),
        ("voa_bank", geom.rows * (cat.component("voa").static_power_mw or 0.0) * 1e-3),
        ("output_adc", geom.cols * dac_power(precision.b_out, f_hz, cat.converters.p0_adc_ws)),
        ("tia", geom.cols * (cat.component("tia").static_power_mw or 0.0) * 1e-3),
        *variant.extra_power(geom, cat),
    ]
    return PowerReport(
        entry_watts=tuple(entries),
        b_in=precision.b_in,
        b_out=precision.b_out,
        f_hz=f_hz,
        wpe=effective_wpe,
        link=link,
        # launched channel power less path loss less detector sensitivity
        margin_db=cat.laser.channel_power_dbm - link.total_db - cat.pd.sensitivity_dbm,
    )


def _reference_perf(sched, power, f_hz, cat, allow_overclock):
    """One core's PerfReport from the public validating helpers."""
    if f_hz > cat.modulator.max_rate_hz and not allow_overclock:
        raise ValueError(
            f"f = {f_hz:.3g} Hz exceeds the modulator ceiling {cat.modulator.max_rate_hz:.3g} Hz "
            "(pass allow_overclock to run anyway)"
        )
    pcm = cat.pcm
    latency = sched.total_tile_loads * pcm.cycle_time_ns * 1e-9 + sched.total_stream_cycles / f_hz
    gc_loss = cat.loss_db("grating_coupler")
    cells = sched.total_programmed_cells
    program_j = cells * vcsel_program_energy(pcm.program_energy_pj, gc_loss, cat.vcsel.efficiency) * 1e-12
    erase_j = cells * vcsel_program_energy(pcm.erase_energy_pj, gc_loss, cat.vcsel.efficiency) * 1e-12
    report = PerfReport(
        schedule=sched,
        f_hz=f_hz,
        total_power_w=power.total_w,
        latency_s=latency,
        energy_program_j=program_j,
        energy_erase_j=erase_j,
    )
    # derived, so not compared with the report's fields: steady power times latency, and the peak rate
    assert report.energy_steady_j == power.total_w * latency
    assert report.peak_tops == peak_tops(sched.geometry, f_hz)
    return report


def _outcome(fn):
    """``fn()``'s value, or the type and message of the error it raised."""
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", type(exc), str(exc)


@given(
    geoms=st.lists(geometries, min_size=1, max_size=50),
    variant=variants,
    f_hz=st.sampled_from([DEFAULT_CLOCK_HZ, PARETO_CLOCK_HZ]),
    wpe=st.sampled_from([1.0, None]),
    allow_overclock=st.booleans(),
    pack=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_many_core_forms_equal_one_core_calls(catalog, geoms, variant, f_hz, wpe, allow_overclock, pack):
    precision = PrecisionSpec()
    scheds = schedule_cores(resnet50_workload(256), geoms, pack_pointwise=pack)

    powers = _outcome(lambda: list(total_power_cores(geoms, catalog, variant, precision, f_hz, wpe=wpe)))
    assert powers == _outcome(lambda: [total_power(g, catalog, variant, precision, f_hz, wpe=wpe) for g in geoms])
    assert powers == _outcome(lambda: [_reference_power(g, catalog, variant, precision, f_hz, wpe) for g in geoms])

    # power, then perf, core by core: the first failing core's error is the one raised
    perfs = _outcome(lambda: list(estimate_perf_cores(
        scheds, total_power_cores(geoms, catalog, variant, precision, f_hz, wpe=wpe), f_hz, catalog,
        allow_overclock=allow_overclock,
    )))
    assert perfs == _outcome(lambda: [
        estimate_perf(s, total_power(s.geometry, catalog, variant, precision, f_hz, wpe=wpe), f_hz, catalog,
                      allow_overclock=allow_overclock)
        for s in scheds
    ])
    assert perfs == _outcome(lambda: [
        _reference_perf(s, _reference_power(s.geometry, catalog, variant, precision, f_hz, wpe), f_hz, catalog,
                        allow_overclock)
        for s in scheds
    ])


def test_power_is_computed_as_the_iterator_reaches_each_core(catalog):
    geoms = [CoreGeometry(9, 8), CoreGeometry(9, 80000)]
    reports = total_power_cores(geoms, catalog, Planar2D())
    assert next(reports).geometry == geoms[0]
    with pytest.raises(ValueError, match="laser power for a 26658.8 dB critical-path loss"):
        next(reports)


def test_core_independent_inputs_are_checked_when_called(catalog):
    with pytest.raises(ValueError, match="f_hz"):
        total_power_cores([], catalog, f_hz=0.0)
    with pytest.raises(ValueError, match="wpe"):
        total_power_cores([], catalog, wpe=2.0)
    with pytest.raises(ValueError, match="f_hz"):
        estimate_perf_cores((), (), 0.0, catalog)
    assert list(total_power_cores([], catalog)) == []
    assert estimate_perf_cores((), (), PARETO_CLOCK_HZ, catalog) == ()


def test_schedules_and_powers_must_pair_up(catalog):
    geoms = [CoreGeometry(9, 8), CoreGeometry(18, 16)]
    scheds = schedule_cores(resnet50_workload(256), geoms)
    with pytest.raises(ValueError):
        estimate_perf_cores(scheds, total_power_cores(geoms[:1], catalog), DEFAULT_CLOCK_HZ, catalog)
