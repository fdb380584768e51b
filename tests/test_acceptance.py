"""End-to-end acceptance checks for the calibrated reference design point.

Each test prints one PASS/FAIL line per criterion so a run log doubles as a
conformance report. Tolerances are fixed here, not configurable. The one
expected failure (volatile-weighting hold-power fraction) is marked strict
xfail: the target fraction is arithmetically unreachable given the baseline
power target, see the assertion message.
"""

import time

import numpy as np
import pytest

from wavecore import (
    CoreGeometry,
    KclOnly,
    MrrAccumulation,
    NoiseSpec,
    PcmProgrammer,
    PcmRefreshError,
    QuantSpec,
    SoaAssisted,
    ThermoOpticWeights,
    critical_path_il,
    crossbar_area,
    default_catalog,
    estimate_perf,
    inject_noise,
    laser_power,
    noisy_mvm,
    peak_tops,
    quantize,
    resnet50_workload,
    schedule,
    total_power,
    total_power_cores,
    variant_feasibility,
    vcsel_program_energy,
)
from wavecore.conv import conv_oracle, integer_out_quant, run_conv
from wavecore.engine import ZERO_NOISE, unit_step_out_quant
from wavecore.linkbudget import LinkBudgetReport
from wavecore.power import PrecisionSpec
from wavecore.rng import keyed_rng
from wavecore.workload import PARETO_CLOCK_HZ

CAT = default_catalog()
CORE = CoreGeometry(144, 256)
SWEEP_CORES = ("9x8", "18x16", "36x32", "72x64", "144x128", "144x256")


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS  ({detail})")


def test_criterion_1_area_exactness():
    start = time.perf_counter()
    report = crossbar_area(CORE)
    elapsed = time.perf_counter() - start

    assert report.crossbar_w_mm * 1000 == pytest.approx(24300.0, abs=1e-6)
    assert report.crossbar_h_mm * 1000 == pytest.approx(28900.0, abs=1e-6)
    assert report.fits_reticle
    assert report.residual_mm2 == pytest.approx(155.7, abs=0.5)
    assert elapsed < 1e-3
    _report(
        "1 area exactness",
        f"{report.crossbar_w_mm} x {report.crossbar_h_mm} mm, residual {report.residual_mm2:.2f} mm^2, "
        f"{elapsed * 1e6:.0f} us",
    )


def test_criterion_2_link_budgets():
    base = critical_path_il(CORE, CAT)
    kcl = critical_path_il(CORE, CAT, KclOnly())

    assert base.total_db == pytest.approx(32.0, abs=1.0)
    assert kcl.total_db == pytest.approx(51.6, abs=1.0)
    identity = 10 * np.log10(144) - 8 * CAT.loss_db("wsc")
    assert kcl.total_db - base.total_db == pytest.approx(identity, abs=0.01)
    _report(
        "2 link budgets",
        f"baseline {base.total_db:.2f} dB, per-site detection {kcl.total_db:.2f} dB, "
        f"delta {kcl.total_db - base.total_db:.4f} dB",
    )


def test_criterion_3_laser_power_formula():
    watts = laser_power(-25.0, 51.6, 8, 1.17, 1.0)
    assert watts == pytest.approx(495.5, abs=0.5)
    assert abs(watts / 500.0 - 1.0) <= 0.02

    extreme = LinkBudgetReport(
        total_db=296.3, terms=(("path", 296.3),), geometry=CORE, variant_label="mrr"
    )
    verdict = variant_feasibility(extreme, CAT.laser, CAT.pd)
    assert not verdict.feasible

    ring_power = total_power(CORE, CAT, MrrAccumulation(), f_hz=PARETO_CLOCK_HZ)
    assert not ring_power.feasible
    assert ring_power.total_w >= 1e27
    _report(
        "3 laser power formula",
        f"{watts:.2f} W at 51.6 dB; 296.3 dB point infeasible "
        f"(ring-variant total {ring_power.total_w:.3g} W)",
    )


def _ablation_reports():
    variants = (
        ("baseline", None),
        ("soa", SoaAssisted()),
        ("thermo", ThermoOpticWeights()),
    )
    out = {}
    for name, variant in variants:
        if variant is None:
            out[name] = total_power(CORE, CAT, f_hz=PARETO_CLOCK_HZ)
        else:
            out[name] = total_power(CORE, CAT, variant, f_hz=PARETO_CLOCK_HZ)
    return out


def test_criterion_4_ablation_totals():
    from wavecore.cli import ABLATION_VARIANTS, parse_variant

    start = time.perf_counter()
    all_reports = [
        total_power(CORE, CAT, parse_variant(name), PrecisionSpec(), PARETO_CLOCK_HZ)
        for name in ABLATION_VARIANTS
    ]
    elapsed = time.perf_counter() - start

    reports = _ablation_reports()
    assert reports["baseline"].total_w == pytest.approx(14.4, abs=1.5)
    assert reports["soa"].total_w == pytest.approx(70.6, abs=5.0)
    assert reports["soa"].fraction("soa_drive") == pytest.approx(0.83, abs=0.03)
    assert reports["thermo"].total_w == pytest.approx(248.9, abs=10.0)
    assert len(all_reports) == 7
    assert elapsed < 1.0
    _report(
        "4 ablation totals",
        f"baseline {reports['baseline'].total_w:.2f} W, amplified {reports['soa'].total_w:.1f} W "
        f"(drive {reports['soa'].fraction('soa_drive'):.3f}), volatile-weights "
        f"{reports['thermo'].total_w:.1f} W, {len(all_reports)} variants in {elapsed * 1e3:.1f} ms",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "hold-power fraction >= 0.95 is unreachable: with the calibrated 14.4 W of "
        "non-weight power, 36864 x 6.55 mW of heater hold gives 241.5/255.9 = 0.944, "
        "and raising the hold power past the 0.95 threshold pushes the total above "
        "the 248.9 +/- 10 W band (fraction >= 0.95 with total <= 258.9 W requires "
        "non-weight power <= 12.9 W, below the efficiency targets)"
    ),
)
def test_criterion_4_thermo_hold_fraction():
    report = total_power(CORE, CAT, ThermoOpticWeights(), f_hz=PARETO_CLOCK_HZ)
    fraction = report.fraction("heater_hold")
    print(f"[acceptance] 4b volatile-weight hold fraction: FAIL expected ({fraction:.4f} < 0.95)")
    assert fraction >= 0.95


def test_criterion_5_pareto_identities():
    peak = peak_tops(CORE, PARETO_CLOCK_HZ)
    assert peak == pytest.approx(342.1, rel=1e-9)

    power = total_power(CORE, CAT, f_hz=PARETO_CLOCK_HZ)
    tops_per_w = peak / power.total_w
    assert tops_per_w == pytest.approx(23.7, abs=2.0)

    sched = schedule(resnet50_workload(256), CORE, CAT.pcm, pack_pointwise=True)
    perf = estimate_perf(sched, power, PARETO_CLOCK_HZ, CAT, allow_overclock=True)
    assert perf.tops_per_w * perf.total_power_w == pytest.approx(perf.peak_tops, rel=1e-9)
    assert perf.fps_per_w == pytest.approx(84.17, abs=8.0)
    _report(
        "5 pareto identities",
        f"{peak:.1f} TOPS, {tops_per_w:.2f} TOPS/W, {perf.fps:.0f} FPS, {perf.fps_per_w:.2f} FPS/W",
    )


def test_criterion_6_workload_rollup():
    start = time.perf_counter()
    layers = resnet50_workload(256)
    results = {}
    for label in SWEEP_CORES:
        geom = CoreGeometry.parse(label)
        power = total_power(geom, CAT, f_hz=PARETO_CLOCK_HZ)
        sched = schedule(layers, geom, CAT.pcm, pack_pointwise=True)
        results[label] = estimate_perf(sched, power, PARETO_CLOCK_HZ, CAT, allow_overclock=True)
    elapsed = time.perf_counter() - start

    full = results["144x256"]
    assert 600.0 <= full.fps <= 2400.0
    energy_mj = full.energy_per_inference_j * 1e3
    assert 14.0 <= energy_mj <= 54.0

    fps_series = [results[c].fps for c in SWEEP_CORES]
    energy_series = [results[c].energy_per_inference_j for c in SWEEP_CORES]
    assert all(a < b for a, b in zip(fps_series, fps_series[1:]))
    assert all(a > b for a, b in zip(energy_series, energy_series[1:]))
    assert results["9x8"].energy_per_inference_j >= 2.0 * full.energy_per_inference_j
    assert elapsed < 10.0
    _report(
        "6 workload rollup",
        f"{full.fps:.0f} FPS, {energy_mj:.1f} mJ (erase-inclusive "
        f"{full.energy_with_erase_j * 1e3:.1f} mJ), tiny-core energy x"
        f"{results['9x8'].energy_per_inference_j / full.energy_per_inference_j:.1f}, "
        f"sweep in {elapsed * 1e3:.1f} ms",
    )


def test_criterion_7_functional_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    geom = CoreGeometry(18, 8)
    in_q = QuantSpec(bits=4, lo=0.0, hi=15.0)
    w_q = QuantSpec(bits=4, lo=0.0, hi=15.0)

    for trial in range(1000):
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        h = int(rng.integers(3, 7))
        w = int(rng.integers(3, 7))
        acts = rng.integers(0, 16, size=(c_in, h, w)).astype(float)
        weights = rng.integers(0, 16, size=(c_out, c_in, 3, 3)).astype(float)
        out_q = integer_out_quant(in_q, w_q, rows=9 * c_in)
        got = run_conv(acts, weights, geom, in_q, w_q, out_q, ZERO_NOISE, layer_index=trial)
        expected = conv_oracle(acts, weights)
        assert np.array_equal(got, expected), f"trial {trial} diverged from the oracle"

    # grouping invariance at zero noise
    x = rng.integers(0, 16, size=36).astype(float)
    wmat = rng.integers(0, 16, size=(36, 6)).astype(float)
    out_q = unit_step_out_quant(36 * 225)
    baseline_y = noisy_mvm(x[None, :, None], wmat, in_q, w_q, out_q, ZERO_NOISE, 144)
    for span in (18, 12, 1, 36):
        assert np.array_equal(noisy_mvm(x[None, :, None], wmat, in_q, w_q, out_q, ZERO_NOISE, span), baseline_y)

    # Monte-Carlo: relative noise std within 2 percent at 1e5 samples
    for sigma in (0.0031, 0.01):
        value = quantize(np.array([0.625]), QuantSpec(bits=6, lo=0.0, hi=1.0))[1][0]
        samples = inject_noise(np.full((1, 100_000), value), sigma, [keyed_rng(11, "accept-mc", str(sigma))])
        assert np.std(samples) == pytest.approx(sigma * value, rel=0.02)

    # fixed-seed bit-identical reruns
    noise = NoiseSpec(seed=42)
    inst_x = rng.integers(0, 16, size=(18, 7)).astype(float)
    inst_w = rng.integers(0, 16, size=(18, 4)).astype(float)
    y1 = noisy_mvm(inst_x[None], inst_w, in_q, w_q, noise=noise, layer=1, tile=2)
    y2 = noisy_mvm(inst_x[None], inst_w, in_q, w_q, noise=noise, layer=1, tile=2)
    assert np.array_equal(y1, y2)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("7 functional correctness", f"1000 conv instances + invariants in {elapsed:.1f} s")


def test_criterion_8_pcm_schedule_legality():
    bank = PcmProgrammer(pcm=CAT.pcm)
    weights = np.zeros((4, 4))
    bank.program(weights, t_ns=0.0)
    with pytest.raises(PcmRefreshError):
        bank.program(weights, t_ns=999.0)
    bank2 = PcmProgrammer(pcm=CAT.pcm)
    bank2.program(weights, t_ns=0.0)
    bank2.program(weights, t_ns=1000.0)

    energy = vcsel_program_energy(135.0, CAT.loss_db("grating_coupler"), CAT.vcsel.efficiency)
    assert energy == pytest.approx(342.4, abs=0.1)
    _report("8 pcm schedule legality", f"sub-cycle rewrite rejected; write event {energy:.2f} pJ electrical")


def test_frontier_report():
    # computed, not asserted: which scanned cores close the link and fit the reticle
    start = time.perf_counter()
    geoms = [CoreGeometry(9 * r, 8 * c) for r in range(1, 65) for c in range(1, 129)]
    powers = total_power_cores(geoms, CAT, f_hz=PARETO_CLOCK_HZ)
    frontier = [geom for geom, power in zip(geoms, powers) if power.feasible and crossbar_area(geom).fits_reticle]
    elapsed = time.perf_counter() - start
    largest = sorted(frontier, key=lambda geom: (-geom.cells, geom.rows))
    print(
        f"[acceptance] frontier: {len(frontier)} of {len(geoms)} cores (9r x 8c, r <= 64, c <= 128) close the"
        f" link and fit the reticle at the pareto clock, wpe 1; {CORE.label} "
        f"{'is' if CORE in frontier else 'is not'} among them; largest {largest[0].label}"
        f" ({largest[0].cells} cells), then {largest[1].label}; scanned in {elapsed:.2f} s"
    )
