import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecore import (
    NoiseSpec,
    PcmProgrammer,
    PcmRefreshError,
    QuantSpec,
    inject_noise,
    noisy_mvm,
    quantize,
)
from wavecore.engine import (
    DIFFERENTIAL_PAIR,
    ROWS_PER_DETECTOR,
    ZERO_NOISE,
    _NOISE_BLOCK,
    _add_noise,
    _detector_sums,
    _pair_legs,
    _quantized_values,
    unit_step_out_quant,
)
from wavecore.rng import keyed_rng, keyed_streams

from conftest import assert_same_bits

DATA = Path(__file__).parent / "data"


class TestQuantize:
    def test_low_boundary(self):
        (level,), (value,) = quantize(np.array([0.0]), QuantSpec(bits=6, lo=0.0, hi=1.0))
        assert level == 0 and value == 0.0

    def test_midpoint_ties_away_from_zero(self):
        (level,), (value,) = quantize(np.array([0.5]), QuantSpec(bits=6, lo=0.0, hi=1.0))
        assert level == 32
        assert value == pytest.approx(32 / 63)

    def test_clamps_above_range(self):
        (level,), (value,) = quantize(np.array([2.5]), QuantSpec(bits=6, lo=0.0, hi=1.0))
        assert level == 63 and value == 1.0

    def test_clamps_below_range(self):
        (level,), _ = quantize(np.array([-1.0]), QuantSpec(bits=6, lo=0.0, hi=1.0))
        assert level == 0

    def test_negative_tie_rounds_down(self):
        # unit-step grid on [-63, 0]: -31.5 is an exact midpoint, away from zero is -32
        (level,), (value,) = quantize(np.array([-31.5]), QuantSpec(bits=6, lo=-63.0, hi=0.0))
        assert value == -32.0

    def test_array_form(self):
        levels, values = quantize(np.array([0.0, 1.0]), QuantSpec(bits=4, lo=0.0, hi=1.0))
        assert levels.tolist() == [0, 15]
        assert values.tolist() == [0.0, 1.0]

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_always_lands_on_grid(self, x):
        q = QuantSpec(bits=5, lo=-2.0, hi=2.0)
        (level,), (value,) = quantize(np.array([x]), q)
        assert 0 <= level < q.levels
        assert value == pytest.approx(q.lo + level * q.step, abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            quantize(np.array([float("nan")]), QuantSpec(bits=4))

    def test_rejects_a_0d_input_naming_its_shape(self):
        with pytest.raises(ValueError, match=r"got shape \(\)$"):
            quantize(np.array(0.5), QuantSpec(bits=4))

    def test_range_wider_than_a_float_rejected(self):
        # its step was inf, and quantize returned NaN with a RuntimeWarning
        with pytest.raises(ValueError, match=r"^range \[-1e\+308, 1e\+308\] is wider than a float holds$"):
            QuantSpec(bits=8, lo=-1e308, hi=1e308)


@st.composite
def grid_cases(draw, lo=st.floats(-50.0, 10.0)):
    """A grid and values on it, at exact midpoints of its levels, outside it and at +-0.0."""
    low = draw(lo)
    q = QuantSpec(bits=draw(st.integers(1, 16)), lo=low, hi=low + draw(st.floats(0.5, 60.0)))
    on_grid = st.builds(
        lambda k, f: q.lo + (k + f) * q.step, st.integers(-3, q.levels + 2), st.sampled_from([0.0, 0.5, -0.5, 0.25])
    )
    anywhere = st.floats(q.lo - 2 * (q.hi - q.lo), q.hi + 2 * (q.hi - q.lo))
    values = st.one_of(on_grid, anywhere, st.sampled_from([0.0, -0.0]))
    return q, np.array(draw(st.lists(values, min_size=1, max_size=40)))


def full_pass_quantized_values(x, q):
    """The quantizer's rule in full: a finiteness mask, then ``lo`` subtracted and
    added and the sign-aware tie rule on every grid."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize requires finite inputs")
    with np.errstate(over="ignore", invalid="ignore"):
        t = arr - q.lo
        t /= q.step
        idx = np.floor(t)
        t -= idx
        up = t == 0.5
        up &= arr >= 0.0
        up |= t > 0.5
        idx += up
        np.clip(idx, 0, q.levels - 1, out=idx)
        idx *= q.step
        idx += q.lo
    return idx


RULE_GRIDS = [
    QuantSpec(bits=7, lo=-1.0, hi=1.0),
    QuantSpec(bits=6, lo=-63.0, hi=0.0),
    QuantSpec(bits=8, lo=-1e308, hi=5e307),                   # x - lo overflows for large x
    QuantSpec(bits=6, lo=0.0, hi=1.0),
    QuantSpec(bits=4, lo=0.0, hi=15.0),
    QuantSpec(bits=16, lo=0.0, hi=1e-300),                    # x / step overflows for x >= 1e-5 or so
    QuantSpec(bits=5, lo=2.0, hi=33.0),
    QuantSpec(bits=3, lo=0.25, hi=2.0),
    QuantSpec(bits=4, lo=1e308, hi=1.5e308),                  # x - lo overflows for x near -1.8e308
]


def rule_values(q):
    """Exact midpoints of both signs, signed zeros, subnormals, values beyond the grid and near the float limit."""
    ties = [q.lo + (k + 0.5) * q.step for k in range(-2, min(q.levels, 40) + 2)]
    tiny = [5e-324, 1e-310, 2.2250738585072014e-308]
    beyond = [q.lo - 3 * q.step, q.hi + 3 * q.step, 1e308, 1.7976931348623157e308, 1e-5, 3.0, 0.5]
    values = [*ties, *tiny, *beyond]
    return np.array([0.0, -0.0, *values, *[-v for v in values]])


@pytest.mark.parametrize("q", RULE_GRIDS, ids=lambda q: f"{q.lo:g}..{q.hi:g}")
def test_quantizer_keeps_the_full_pass_rule(q):
    x = rule_values(q)
    expected = full_pass_quantized_values(x, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(_quantized_values(x, q), expected)
        assert_same_bits(quantize(x, q)[1], expected)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^quantize requires finite inputs$"):
                _quantized_values(np.append(x, bad), q)


class TestValuesOnlyQuantizer:
    """The engine's values-only quantizer and differential legs give quantize's bits."""

    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases())
    def test_values_equal_quantize(self, case):
        q, x = case
        assert_same_bits(_quantized_values(x, q), quantize(x, q)[1])

    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases(lo=st.just(0.0)), symmetric=st.booleans(), data=st.data())
    def test_pair_legs_equal_separate_leg_quantizations(self, case, symmetric, data):
        leg, magnitudes = case
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(magnitudes), max_size=len(magnitudes)))
        w = magnitudes * np.array(signs)
        lo = -leg.hi if symmetric else -leg.hi / 2
        # each leg comes as one copy per batch item
        w_pos, w_neg = _pair_legs(w, QuantSpec(bits=leg.bits, lo=lo, hi=leg.hi, signed_mode=DIFFERENTIAL_PAIR), 2)
        for b in range(2):
            assert_same_bits(w_pos[b], quantize(np.maximum(w, 0.0), leg)[1])
            assert_same_bits(w_neg[b], quantize(np.maximum(-w, 0.0), leg)[1])

    def test_values_only_rejects_what_quantize_rejects(self):
        with pytest.raises(ValueError, match="finite"):
            _quantized_values(np.array([1.0, np.inf]), QuantSpec(bits=4))
        with pytest.raises(ValueError, match=r"got shape \(\)$"):
            _quantized_values(np.array(0.5), QuantSpec(bits=4))


def expected_noise(arr, sigma, seed):
    """``arr + draws * (sigma * |arr|)`` out of place, item b drawn whole from ``keyed_rng(seed + b, "blk")``."""
    draws = np.empty(arr.shape)
    for b, item in enumerate(draws):
        item[...] = keyed_rng(seed + b, "blk").standard_normal(item.shape)
    return arr + draws * (sigma * np.abs(arr))


def noise_operand(shape, seed=0):
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-3.0, 3.0, shape) * 10.0 ** rng.integers(-4, 4, shape)
    arr[rng.random(shape) < 0.1] = 0.0
    arr[rng.random(shape) < 0.1] = -0.0
    return arr


# item shapes around the block: one element short of it, exactly it, one
# over, two blocks and a tail; items that share a block; zero-size items
BLOCK_EDGE_SHAPES = [
    (2, _NOISE_BLOCK - 1),
    (3, _NOISE_BLOCK),
    (2, _NOISE_BLOCK + 1),
    (2, 2 * _NOISE_BLOCK + 3),
    (2, 1, 2 * _NOISE_BLOCK + 3),
    (3000, 7),
    (700, 3, 5),
    (2, _NOISE_BLOCK // 2 + 1),
    (1, 1),
    (4, 0),
    (0, 5),
]


class TestBlockedNoise:
    """The blocked noise stage equals the out-of-place expression bit for bit."""

    @pytest.mark.parametrize("shape", BLOCK_EDGE_SHAPES, ids=str)
    def test_inject_noise_matches_expression(self, shape):
        arr = noise_operand(shape)
        before = arr.copy()
        got = inject_noise(arr, 0.05, keyed_streams(range(11, 11 + len(arr)), "blk"))
        assert_same_bits(got, expected_noise(arr, 0.05, 11))
        assert_same_bits(arr, before)

    @pytest.mark.parametrize("shape", BLOCK_EDGE_SHAPES, ids=str)
    def test_in_place_stage_matches_expression(self, shape):
        arr = noise_operand(shape, seed=1)
        expected = expected_noise(arr, 0.3, 4)
        got = _add_noise(arr, 0.3, keyed_streams(range(4, 4 + len(arr)), "blk"))
        assert got is arr
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("shape", [(3, 5, 7), (2, 150, 60)], ids=str)
    def test_non_contiguous_items_draw_in_c_order(self, shape):
        arr = np.asfortranarray(noise_operand(shape, seed=2))
        got = _add_noise(arr, 0.1, keyed_streams(range(len(arr)), "blk"))
        assert got.flags.c_contiguous
        assert_same_bits(got, expected_noise(arr, 0.1, 0))

    @pytest.mark.parametrize("items, shape", [(5, (9, 3)), (3, (150, 60)), (2, (_NOISE_BLOCK + 1,))], ids=str)
    def test_broadcast_weights(self, items, shape):
        w = noise_operand(shape, seed=3)
        w_batch = np.broadcast_to(w, (items,) + shape)
        got = inject_noise(w_batch, 0.01, keyed_streams(range(items), "blk"))
        assert_same_bits(got, expected_noise(np.array(w_batch), 0.01, 0))
        assert_same_bits(w_batch[0], w)

    @pytest.mark.parametrize("shape", [(3, 5), (3, 2 * _NOISE_BLOCK + 3), (3, 0), (3000, 7), (0, 4)], ids=str)
    def test_wrong_stream_count_raises(self, shape):
        items = shape[0]
        for count in (items - 1, items + 1) if items else (1,):
            for stage in (inject_noise, _add_noise):
                with pytest.raises(ValueError, match="streams|zip"):
                    stage(noise_operand(shape), 0.1, [keyed_rng(b, "blk") for b in range(count)])


class TestInjectNoise:
    def test_zero_sigma_identity(self):
        rng = keyed_rng(0, "t")
        assert inject_noise(np.array([[0.73]]), 0.0, [rng]) == 0.73

    def test_zero_signal_stays_zero(self):
        rng = keyed_rng(0, "t")
        assert inject_noise(np.array([[0.0]]), 0.5, [rng]) == 0.0

    @pytest.mark.parametrize("sigma", [0.0031, 0.01])
    def test_empirical_std_matches(self, sigma):
        rng = keyed_rng(42, "mc", str(sigma))
        samples = inject_noise(np.ones((1, 100_000)), sigma, [rng])
        assert np.std(samples) == pytest.approx(sigma, rel=0.02)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.01])
    def test_rejects_non_finite_or_negative_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            inject_noise(np.ones((1, 3)), sigma, [keyed_rng(0, "t")])

    @pytest.mark.parametrize("sigma", [0.0031, 0.5])
    def test_matches_out_of_place_expression_bit_for_bit(self, sigma):
        rng = np.random.default_rng(3)
        arr = rng.uniform(-2.0, 2.0, (7, 11, 13)) * 10.0 ** rng.integers(-6, 6, (7, 11, 13))
        arr[rng.random(arr.shape) < 0.2] = 0.0
        arr[rng.random(arr.shape) < 0.1] = -0.0
        before = arr.copy()
        got = inject_noise(arr[None], sigma, [keyed_rng(5, "bits")])[0]
        draws = keyed_rng(5, "bits").standard_normal(arr.shape)
        expected = arr + draws * (sigma * np.abs(arr))
        assert_same_bits(got, expected)
        assert_same_bits(arr, before)

    @pytest.mark.parametrize("arr", [np.ones(3), np.array(1.0)], ids=["1-d", "0-d"])
    def test_rejects_a_missing_item_axis(self, arr):
        with pytest.raises(ValueError, match=r"leading item axis .* got shape"):
            inject_noise(arr, 0.1, keyed_streams(range(3), "x"))

    def test_zero_sigma_consumes_no_draw(self):
        rng = keyed_rng(4, "z")
        arr = np.array([1.0, -2.0])
        assert_same_bits(inject_noise(arr[None], 0.0, [rng])[0], arr)
        assert rng.standard_normal() == keyed_rng(4, "z").standard_normal()

    def test_zero_sigma_takes_no_stream(self):
        streams = keyed_streams(range(3), "z")
        arr = np.array([[1.0, -2.0], [0.5, 0.0], [3.0, -0.0]])
        assert_same_bits(inject_noise(arr, 0.0, streams), arr)
        assert next(streams).standard_normal() == keyed_rng(0, "z").standard_normal()

    def test_items_draw_from_their_own_streams(self):
        arr = np.arange(-5.0, 7.0).reshape(3, 4)
        got = inject_noise(arr, 0.01, keyed_streams(range(7, 10), "it"))
        for b in range(3):
            assert_same_bits(got[b], inject_noise(arr[b : b + 1], 0.01, [keyed_rng(7 + b, "it")])[0])

    def test_scales_with_magnitude(self):
        rng1 = keyed_rng(7, "a")
        rng2 = keyed_rng(7, "a")
        small = inject_noise(np.full((1, 50_000), 0.5), 0.01, [rng1])
        large = inject_noise(np.full((1, 50_000), 2.0), 0.01, [rng2])
        assert np.std(large) == pytest.approx(4 * np.std(small), rel=1e-9)


class TestNoiseSpec:
    @pytest.mark.parametrize("field", ["sigma_in", "sigma_w", "sigma_out"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.001])
    def test_rejects_non_finite_or_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseSpec(**{field: value})


def detector_sums(x, w, span):
    """The kernel on one (rows x positions, rows x cols) tile: a batch of one."""
    return _detector_sums(x[None], w[None], span)[0]


def detector_ranges(rows, span):
    """Each detector's (first, end) rows: detector d holds ``span`` rows from ``d * span``."""
    return [(r0, min(r0 + span, rows)) for r0 in range(0, rows, span)]


def exact_detector_sums(x, w, span):
    """Per-detector sums of integer-valued operands, in int64 arithmetic, which is exact."""
    xi, wi = x.astype(np.int64), w.astype(np.int64)
    return np.stack([wi[r0:r1].T @ xi[r0:r1] for r0, r1 in detector_ranges(len(x), span)]).astype(float)


U = 2.0**-53


def gamma(n):
    """Higham's gamma_n = n*u / (1 - n*u).

    A sum of n products, added in any order, with or without fused
    multiply-adds, lies within gamma_n * sum(|products|) of the exact sum.
    """
    return n * U / (1 - n * U)


def assert_within_rounding_bound(got, x, w, detectors):
    """Each detector reading is within gamma_n * sum(|w*x|) of the fsum of its n rows' products.

    ``detectors`` lists each detector's (first, end) rows. The operands must
    have float32 significands, so that every product is exact and
    ``math.fsum`` returns the exact sum s rounded once, to within u*|fsum| of
    s. Both that rounding and the bound's own few roundings (the factor
    1 + 2^-50) are allowed for.
    """
    assert got.shape == (len(detectors),) + (w.shape[1], x.shape[1])
    for level, (r0, r1) in zip(got, detectors):
        products = w[r0:r1, :, None] * x[r0:r1, None, :]
        per_output = products.reshape(r1 - r0, -1).T.tolist()
        exact = np.array([math.fsum(p) for p in per_output]).reshape(level.shape)
        magnitude = np.array([math.fsum(map(abs, p)) for p in per_output]).reshape(level.shape)
        bound = (gamma(r1 - r0) * magnitude + U * np.abs(exact)) * (1 + 2.0**-50)
        assert np.all(np.abs(level - exact) <= bound), (r0, r1)


SPANS = [1, 6, 64, 144, 108]
EDGE_SHAPES = [
    (150, 1, 1),     # one output element per detector
    (300, 1, 1),
    (9, 1, 1),
    (20, 3, 4),      # partial last bus
    (150, 5, 7),     # partial last bus and partial last detector
    (145, 2, 1),
]
# long and short rows or columns, and tiles of one column or one position
WIDE_SHAPES = [
    (30, 300, 49),
    (20, 70, 700),
    (20, 3, 20000),
    (20, 20000, 3),
    (600, 1, 8193),
    (600, 8193, 1),
    (40, 1, 2**15 + 1),
    (40, 1, 2**16 + 3),
]


def spread_operands(seed, rows, cols, positions, signed=False, decades=16):
    """Operands over ``decades`` decades with float32 significands, so every product is exact.

    ``signed`` gives each value a random sign and sets a fifth of each operand
    to exact +0.0 or -0.0. Over 16 decades a sum is often dominated by its
    largest terms; few decades keep every term in play.
    """
    rng = np.random.default_rng(seed)
    lo, hi = -decades // 2, decades // 2
    x = rng.random((rows, positions)) * 10.0 ** rng.integers(lo, hi, size=(rows, positions))
    w = rng.random((rows, cols)) * 10.0 ** rng.integers(lo, hi, size=(rows, cols))
    if signed:
        for arr in (x, w):
            arr *= rng.choice([-1.0, 1.0], arr.shape)
            arr[rng.random(arr.shape) < 0.2] = 0.0
            arr *= rng.choice([-1.0, 1.0], arr.shape)
    return x.astype(np.float32).astype(float), w.astype(np.float32).astype(float)


def integer_grid_operands(seed, rows, cols, positions):
    """Integers in [-15, 15] as floats, zeros of both signs."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-15, 16, (rows, positions)).astype(float)
    w = rng.integers(-15, 16, (rows, cols)).astype(float)
    for arr in (x, w):
        arr *= rng.choice([-1.0, 1.0], arr.shape)
    return x, w


class TestDetectorSums:
    """Each detector sums its own rows: exactly on integer grids, within the rounding bound elsewhere."""

    @pytest.mark.parametrize("span", SPANS)
    @pytest.mark.parametrize("rows, cols, positions", EDGE_SHAPES)
    def test_edge_shapes_exact_on_integers(self, rows, cols, positions, span):
        x, w = integer_grid_operands(rows * cols + positions, rows, cols, positions)
        assert_same_bits(detector_sums(x, w, span), exact_detector_sums(x, w, span))

    @pytest.mark.parametrize("span", [144, 6])
    @pytest.mark.parametrize("rows, cols, positions", WIDE_SHAPES)
    def test_wide_shapes_exact_on_integers(self, rows, cols, positions, span):
        x, w = integer_grid_operands(rows + cols + positions, rows, cols, positions)
        assert_same_bits(detector_sums(x, w, span), exact_detector_sums(x, w, span))

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 300),
        cols=st.integers(1, 40),
        positions=st.integers(1, 60),
        span=st.sampled_from(SPANS),
        seed=st.integers(0, 2**32 - 1),
        signed=st.booleans(),
        decades=st.sampled_from([2, 16]),
    )
    def test_within_rounding_bound(self, rows, cols, positions, span, seed, signed, decades):
        x, w = spread_operands(seed, rows, cols, positions, signed, decades)
        assert_within_rounding_bound(detector_sums(x, w, span), x, w, detector_ranges(rows, span))

    @pytest.mark.parametrize("span", SPANS)
    @pytest.mark.parametrize("rows, cols, positions", EDGE_SHAPES + [(144, 256, 64)])
    def test_edge_shapes_within_rounding_bound(self, rows, cols, positions, span):
        x, w = spread_operands(rows * cols + positions, rows, cols, positions, signed=True)
        assert_within_rounding_bound(detector_sums(x, w, span), x, w, detector_ranges(rows, span))

    @pytest.mark.parametrize("decades", [2, 16])
    def test_bound_catches_a_row_in_the_wrong_detector(self, decades):
        x, w = spread_operands(decades, 150, 5, 7, signed=True, decades=decades)
        got = detector_sums(x, w, ROWS_PER_DETECTOR)
        assert_within_rounding_bound(got, x, w, [(0, 144), (144, 150)])
        shifted = [(0, 143), (143, 150)]
        moved = np.stack([w[r0:r1].T @ x[r0:r1] for r0, r1 in shifted])
        with pytest.raises(AssertionError):
            assert_within_rounding_bound(moved, x, w, [(0, 144), (144, 150)])

    def test_scratch_fits_in_cache(self):
        rng = np.random.default_rng(0)
        x = rng.random((144, 4096))
        w = rng.random((144, 256))
        tracemalloc.start()
        try:
            level2 = _detector_sums(x[None], w[None], ROWS_PER_DETECTOR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - level2.nbytes < 2 * 2**20

    def test_memory_grows_with_detectors_not_rows(self):
        rng = np.random.default_rng(0)
        x = rng.random((144, 4096))
        w = rng.uniform(-1.0, 1.0, (144, 256))
        w_q = QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR)
        tracemalloc.start()
        try:
            noisy_mvm(x[None], w, QuantSpec(bits=6), w_q, noise=NoiseSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the R x C x P product tensor alone would be 144*256*4096*8 B = 1.2 GB
        assert peak < 64 * 2**20


class TestBatchedKernel:
    """A batch through the kernel equals each item through it alone, bit for bit."""

    @staticmethod
    def assert_items_alone(x, w, span):
        got = _detector_sums(x, w, span)
        for b in range(len(x)):
            assert_same_bits(got[b : b + 1], _detector_sums(x[b : b + 1], w[b : b + 1], span))

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 6),
        rows=st.integers(1, 160),
        cols=st.integers(1, 12),
        positions=st.integers(1, 20),
        span=st.sampled_from(SPANS),
        seed=st.integers(0, 2**32 - 1),
        broadcast=st.booleans(),
    )
    def test_matches_per_item_calls(self, batch, rows, cols, positions, span, seed, broadcast):
        items = [spread_operands(seed + b, rows, cols, positions, True, 2) for b in range(batch)]
        x = np.stack([item[0] for item in items])
        if broadcast:
            # the shared weight grid at sigma_w = 0: a stride-0 view
            w = np.broadcast_to(items[0][1], (batch, rows, cols))
        else:
            w = np.stack([item[1] for item in items])
        self.assert_items_alone(x, w, span)

    @pytest.mark.parametrize("broadcast", [False, True])
    @pytest.mark.parametrize("span", [144, 6])
    @pytest.mark.parametrize(
        "batch, rows, cols, positions",
        [
            (500, 9, 3, 36),     # the tinycnn tile
            (7, 150, 1, 1),      # one-element tiles over two detectors
            (3, 20, 3000, 4),    # a long row of columns
            (4, 300, 5, 7),      # several detectors, the last one partial
            (2, 144, 256, 64),   # the core's full tile
        ],
    )
    def test_batch_shapes(self, batch, rows, cols, positions, span, broadcast):
        rng = np.random.default_rng(batch + rows)
        x = rng.random((batch, rows, positions)) * 10.0 ** rng.integers(-1, 1, (batch, rows, positions))
        w = rng.random((batch, rows, cols)) * 10.0 ** rng.integers(-1, 1, (batch, rows, cols))
        if broadcast:
            w = np.broadcast_to(w[0], w.shape)
        self.assert_items_alone(x, w, span)

    @pytest.mark.parametrize("span", [144, 6])
    @pytest.mark.parametrize("cols_inner", [False, True])
    @pytest.mark.parametrize("width", [15, 16, 17, 2047, 2048, 4095, 4096, 4097])
    def test_inner_widths_around_powers_of_two(self, width, cols_inner, span):
        # widths on either side of 16, 2048 and 4096, where a BLAS kernel's
        # micro-tiles and cache blocks leave a tail
        batch, rows, outer = 3, 40, 5
        cols, positions = (width, outer) if cols_inner else (outer, width)
        items = [spread_operands(width + b, rows, cols, positions, True, 2) for b in range(batch)]
        x = np.stack([item[0] for item in items])
        w = np.stack([item[1] for item in items])
        self.assert_items_alone(x, w, span)
        got = _detector_sums(x, w, span)
        for b in range(batch):
            assert_within_rounding_bound(got[b], x[b], w[b], detector_ranges(rows, span))
        xi, wi = integer_grid_operands(width, rows, cols, positions)
        assert_same_bits(detector_sums(xi, wi, span), exact_detector_sums(xi, wi, span))


# tiles of the benchmark's ResNet layers, the tinycnn tile and a partial last detector
THREAD_TILES = [(1, 144, 256, 4096), (1, 144, 256, 64), (60, 9, 3, 36), (3, 150, 5, 7)]
# argv: the tests' directory, the source directory, and "one-cpu" to pin the
# process to one CPU before OpenBLAS loads
HASH_IN_A_FRESH_PROCESS = """
import os, sys
sys.path[:0] = sys.argv[1:3]
if sys.argv[3] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from test_engine import hash_tiles
print(hash_tiles())
"""


def hash_tiles():
    digest = hashlib.sha256()
    for batch, rows, cols, positions in THREAD_TILES:
        rng = np.random.default_rng(rows * cols + positions)
        x, w = rng.random((batch, rows, positions)), rng.random((batch, rows, cols))
        digest.update(_detector_sums(x, w, ROWS_PER_DETECTOR).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("setting", ["one-thread", "default-threads", "one-cpu"])
def test_bits_do_not_depend_on_blas_threads(setting):
    """The benchmark runs on one CPU and the tests need not: both must see the same bits."""
    env = {key: value for key, value in os.environ.items() if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if setting == "one-thread":
        env["OPENBLAS_NUM_THREADS"] = "1"
    here = Path(__file__).resolve().parent
    argv = [sys.executable, "-c", HASH_IN_A_FRESH_PROCESS, str(here), str(here.parent / "src"), setting]
    alone = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=120)
    assert alone.stdout.strip() == hash_tiles()


def integer_operands(rng, rows, cols, positions=None, x_levels=16, w_levels=16):
    x_shape = (rows,) if positions is None else (rows, positions)
    x = rng.integers(0, x_levels, size=x_shape).astype(float)
    w = rng.integers(0, w_levels, size=(rows, cols)).astype(float)
    in_q = QuantSpec(bits=4, lo=0.0, hi=float(x_levels - 1))
    w_q = QuantSpec(bits=4, lo=0.0, hi=float(w_levels - 1))
    return x, w, in_q, w_q


class TestNoisyMvm:
    def test_identity_block_zero_noise(self):
        in_q = QuantSpec(bits=6, lo=0.0, hi=1.0)
        w_q = QuantSpec(bits=7, lo=0.0, hi=1.0)
        x = np.zeros(9)
        x[4] = 0.5
        w = np.eye(9)
        y = noisy_mvm(x[None, :, None], w, in_q, w_q, noise=ZERO_NOISE)[0, :, 0]
        assert y[4] == pytest.approx(quantize(np.array([0.5]), in_q)[1][0], abs=1e-15)
        assert np.count_nonzero(y) == 1

    def test_matches_integer_oracle_zero_noise(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = int(rng.integers(1, 33))
            cols = int(rng.integers(1, 33))
            x, w, in_q, w_q = integer_operands(rng, rows, cols)
            y = noisy_mvm(x[None, :, None], w, in_q, w_q, out_quant=unit_step_out_quant(rows * 15 * 15),
                          noise=ZERO_NOISE)[0, :, 0]
            assert np.array_equal(y, w.T @ x)

    def test_grouping_invariance_zero_noise(self):
        rng = np.random.default_rng(11)
        x, w, in_q, w_q = integer_operands(rng, 27, 5)
        outputs = [
            noisy_mvm(x[None, :, None], w, in_q, w_q, out_quant=unit_step_out_quant(27 * 225), noise=ZERO_NOISE,
                      detector_rows=span)
            for span in (144, 9, 6, 1, 108)
        ]
        for y in outputs[1:]:
            assert np.array_equal(y, outputs[0])

    def test_batched_positions_match_oracle(self):
        rng = np.random.default_rng(3)
        x, w, in_q, w_q = integer_operands(rng, 18, 4, positions=10)
        y = noisy_mvm(x[None], w, in_q, w_q, out_quant=unit_step_out_quant(18 * 225), noise=ZERO_NOISE)
        assert np.array_equal(y[0], w.T @ x)

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        x, w, in_q, w_q = integer_operands(rng, 18, 4)
        noise = NoiseSpec(seed=42)
        y1 = noisy_mvm(x[None, :, None], w, in_q, w_q, noise=noise, layer=3, tile=7)
        y2 = noisy_mvm(x[None, :, None], w, in_q, w_q, noise=noise, layer=3, tile=7)
        assert np.array_equal(y1, y2)

    def test_different_tiles_draw_different_noise(self):
        rng = np.random.default_rng(5)
        x, w, in_q, w_q = integer_operands(rng, 18, 4)
        noise = NoiseSpec(seed=42)
        y1 = noisy_mvm(x[None, :, None], w, in_q, w_q, noise=noise, layer=0, tile=0)
        y2 = noisy_mvm(x[None, :, None], w, in_q, w_q, noise=noise, layer=0, tile=1)
        assert not np.array_equal(y1, y2)

    def test_output_variance_monotone_in_each_sigma(self):
        rng = np.random.default_rng(13)
        x, w, in_q, w_q = integer_operands(rng, 18, 4)
        trials = 10_000
        xs = np.repeat(x[:, None], trials, axis=1)
        import dataclasses

        for role in ("sigma_in", "sigma_w", "sigma_out"):
            stds = []
            for sigma in (0.0, 0.005, 0.01, 0.02):
                base = NoiseSpec(sigma_in=0.0, sigma_w=0.0, sigma_out=0.0, seed=99)
                noise = dataclasses.replace(base, **{role: sigma})
                y = noisy_mvm(xs[None], w, in_q, w_q, noise=noise)
                stds.append(float(np.std(y[0, 0])))
            assert stds == sorted(stds), f"{role}: {stds}"
            assert stds[0] == 0.0 and stds[-1] > 0.0

    def test_differential_pair_signed_weights(self):
        rng = np.random.default_rng(17)
        x = rng.integers(0, 16, size=12).astype(float)
        w = rng.integers(-15, 16, size=(12, 3)).astype(float)
        in_q = QuantSpec(bits=4, lo=0.0, hi=15.0)
        w_q = QuantSpec(bits=4, lo=-15.0, hi=15.0, signed_mode=DIFFERENTIAL_PAIR)
        y = noisy_mvm(x[None, :, None], w, in_q, w_q, noise=ZERO_NOISE)
        assert np.allclose(y[0, :, 0], w.T @ x)

    def test_non_negative_mode_rejects_signed_range(self):
        with pytest.raises(ValueError, match="negative"):
            noisy_mvm(np.ones((1, 4, 1)), np.ones((4, 2)), QuantSpec(bits=4), QuantSpec(bits=4, lo=-1.0, hi=1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            noisy_mvm(np.ones((1, 4, 1)), np.ones((5, 2)), QuantSpec(bits=4), QuantSpec(bits=4))

    @pytest.mark.parametrize("where", ["in_quant", "out_quant"])
    def test_differential_mode_is_for_the_weights_only(self, where):
        x, w, in_q, w_q = integer_operands(np.random.default_rng(13), 9, 3)
        quants = {"in_quant": in_q, "out_quant": unit_step_out_quant(9 * 225)}
        quants[where] = dataclasses.replace(quants[where], signed_mode=DIFFERENTIAL_PAIR)
        with pytest.raises(ValueError, match=f"^{where}.signed_mode must be 'non_negative'"):
            noisy_mvm(x[None, :, None], w, quants["in_quant"], w_q, quants["out_quant"], ZERO_NOISE)

    def test_regression_vector(self):
        assert_regression_fixture("regression_mvm.json")

    def test_regression_batch(self):
        # 150 rows x 5 differential columns x 7 positions: two detectors and a
        # partial last bus
        assert_regression_fixture("regression_mvm_batch.json")


def reference_mvm(x, weights, in_quant, w_quant, out_quant, noise, span, layer=0, tile=0):
    """The datapath step by step: full quantizations, out-of-place noise, ``np.sum`` over detectors."""
    batch = len(x)

    def noisy(arr, sigma, role):
        if sigma == 0.0:
            return arr
        draws = np.stack([
            keyed_rng(noise.seed + b, "mvm", layer, tile, role).standard_normal(arr.shape[1:]) for b in range(batch)
        ])
        return arr + draws * (sigma * np.abs(arr))

    def leg(w_values, role):
        w_eq = noisy(np.broadcast_to(w_values, (batch,) + w_values.shape), noise.sigma_w, role)
        level2 = noisy(_detector_sums(x_eq, w_eq, span), noise.sigma_out, role + "/out")
        if out_quant is not None:
            level2 = quantize(level2, out_quant)[1]
        return level2.sum(axis=1)

    x_eq = noisy(quantize(x, in_quant)[1], noise.sigma_in, "in")
    if w_quant.signed_mode == DIFFERENTIAL_PAIR:
        leg_q = QuantSpec(bits=w_quant.bits, lo=0.0, hi=max(abs(w_quant.lo), abs(w_quant.hi)))
        w_pos = quantize(np.maximum(weights, 0.0), leg_q)[1]
        w_neg = quantize(np.maximum(-weights, 0.0), leg_q)[1]
        return leg(w_pos, "w+") - leg(w_neg, "w-")
    return leg(quantize(weights, w_quant)[1], "w")


class TestSplitPaths:
    """noisy_mvm equals the datapath done step by step, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 3),
        rows=st.sampled_from([1, 9, 144, 150, 300]),           # 1, 2 and 3 detectors of the default span
        cols=st.integers(1, 6),
        positions=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.0031, 0.05])] * 3),
        out_bits=st.sampled_from([None, 4, 12]),
        differential=st.booleans(),
    )
    def test_matches_step_by_step_datapath(self, batch, rows, cols, positions, seed, sigmas, out_bits, differential):
        rng = np.random.default_rng(seed)
        x = rng.random((batch, rows, positions))
        w = rng.uniform(-1.0, 1.0, (rows, cols)) if differential else rng.random((rows, cols))
        w[rng.random(w.shape) < 0.1] = 0.0
        w[rng.random(w.shape) < 0.1] = -0.0
        in_q = QuantSpec(bits=6)
        w_q = QuantSpec(bits=7, lo=-1.0, signed_mode=DIFFERENTIAL_PAIR) if differential else QuantSpec(bits=7)
        out_q = None if out_bits is None else QuantSpec(bits=out_bits, lo=0.0, hi=float(min(rows, 144)))
        noise = NoiseSpec(*sigmas, seed=seed % 1000)
        got = noisy_mvm(x, w, in_q, w_q, out_q, noise, ROWS_PER_DETECTOR, layer=2, tile=5)
        assert_same_bits(got, reference_mvm(x, w, in_q, w_q, out_q, noise, ROWS_PER_DETECTOR, layer=2, tile=5))

    def test_detectors_add_in_detector_order(self):
        # one row per detector and one output element: each reading is one
        # product, and np.sum would add 20 of them pairwise, not in order;
        # seed 4 gives a sum whose last bit depends on that order
        rng = np.random.default_rng(4)
        x, w = rng.random((1, 20, 1)), rng.random((20, 1))
        q = QuantSpec(bits=16)
        products = quantize(w, q)[1][:, 0] * quantize(x, q)[1][0, :, 0]
        in_order = products[0]
        for p in products[1:]:
            in_order += p
        assert np.sum(products) != in_order
        y = noisy_mvm(x, w, q, q, noise=ZERO_NOISE, detector_rows=1)
        assert_same_bits(y, np.array([[[in_order]]]))

    @pytest.mark.parametrize("noise", [ZERO_NOISE, NoiseSpec(sigma_w=0.0), NoiseSpec()], ids=["zero", "sigma_w_0", "default"])
    @pytest.mark.parametrize("differential", [True, False])
    def test_bits_do_not_depend_on_the_weights_layout(self, noise, differential):
        # two detectors, so the product splits into row blocks; a Fortran-ordered
        # or transposed-view weight matrix once reached BLAS in its own layout at
        # sigma_w = 0 and moved the last bits
        rng = np.random.default_rng(8)
        x = rng.random((2, 300, 17))
        w = rng.uniform(-1.0, 1.0, (300, 64)) if differential else rng.random((300, 64))
        w_q = QuantSpec(bits=7, lo=-1.0, signed_mode=DIFFERENTIAL_PAIR) if differential else QuantSpec(bits=7)
        expected = noisy_mvm(x, w, QuantSpec(bits=6), w_q, None, noise)
        for layout in (np.asfortranarray(w), np.ascontiguousarray(w.T).T):
            assert not layout.flags.c_contiguous
            assert_same_bits(noisy_mvm(x, layout, QuantSpec(bits=6), w_q, None, noise), expected)

    def test_differential_tile_memory(self):
        # The README's 144x256 differential tile at 4096 positions. Measured
        # peak: 21.32 MiB of traced heap, within 0.01 MiB over noise seeds
        # 0-2: the noisy inputs (4.5 MiB), one leg's result and the other
        # leg's detector readings (8 MiB each), and the weights.
        rng = np.random.default_rng(0)
        x = rng.random((144, 4096))
        w = rng.uniform(-1.0, 1.0, (144, 256))
        w_q = QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR)
        tracemalloc.start()
        try:
            noisy_mvm(x[None], w, QuantSpec(bits=6), w_q, noise=NoiseSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 23 * 2**20


class TestBatchContract:
    """A (B, R, P) batch equals B calls on its items, item b with seed ``seed + b``."""

    @settings(max_examples=120, deadline=None)
    @given(
        batch=st.integers(1, 5),
        rows=st.integers(1, 160),
        cols=st.integers(1, 10),
        positions=st.integers(1, 12),
        span=st.sampled_from(SPANS),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.02]) for _ in range(3)]),
        differential=st.booleans(),
        digitize=st.booleans(),
        seed=st.integers(0, 2**31),
        layer=st.integers(0, 3),
        tile=st.integers(0, 3),
    )
    def test_batch_equals_separate_calls(
        self, batch, rows, cols, positions, span, sigmas, differential, digitize, seed, layer, tile
    ):
        rng = np.random.default_rng(seed)
        x = rng.random((batch, rows, positions))
        x[rng.random(x.shape) < 0.2] = 0.0
        in_q = QuantSpec(bits=6, lo=0.0, hi=1.0)
        if differential:
            w = rng.uniform(-1.0, 1.0, (rows, cols))
            w_q = QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR)
        else:
            w = rng.random((rows, cols))
            w_q = QuantSpec(bits=7, lo=0.0, hi=1.0)
        out_q = QuantSpec(bits=12, lo=0.0, hi=16.0) if digitize else None
        noise = NoiseSpec(*sigmas, seed=seed)
        got = noisy_mvm(x, w, in_q, w_q, out_q, noise, span, layer=layer, tile=tile)
        assert got.shape == (batch, cols, positions)
        for b in range(batch):
            alone = NoiseSpec(*sigmas, seed=seed + b)
            alone_y = noisy_mvm(x[b : b + 1], w, in_q, w_q, out_q, alone, span, layer=layer, tile=tile)
            assert_same_bits(got[b : b + 1], alone_y)

    # the rows disagree, or x has no batch axis: a vector or one R x P matrix is not a batch
    @pytest.mark.parametrize("x_shape", [(2, 4, 3), (5,), (5, 3)], ids=["rows", "1-d", "2-d"])
    def test_batch_shape_mismatch(self, x_shape):
        with pytest.raises(ValueError, match="shapes"):
            noisy_mvm(np.ones(x_shape), np.ones((5, 2)), QuantSpec(bits=4), QuantSpec(bits=4))


def assert_regression_fixture(name):
    """The fixture's noisy outputs, bit for bit.

    The inputs and noise keys are fixed; the expected bits are those of the
    kernel's matrix products under numpy 2.4.6's bundled scipy-openblas
    0.3.31 (its SkylakeX kernels, picked on an AVX-512 x86 host), and may
    move in the last bits with another BLAS build or kernel.
    """
    vec = json.loads((DATA / name).read_text())
    x = np.array(vec["x"])
    expected = np.array(vec["expected"])
    y = noisy_mvm(
        x.reshape(1, len(x), -1),
        np.array(vec["weights"]),
        QuantSpec(**vec["in_quant"]),
        QuantSpec(**vec["w_quant"]),
        noise=NoiseSpec(**vec["noise"]),
        layer=vec["layer"],
        tile=vec["tile"],
    )
    assert_same_bits(y.reshape(expected.shape), expected)


class TestPcmProgramming:
    def test_zero_std_levels_exact(self, catalog):
        pcm = dataclasses.replace(catalog.pcm, program_std=0.0)
        w = np.linspace(0, 1, 8).reshape(2, 4)
        levels, values = PcmProgrammer(pcm).program(w)
        grid = QuantSpec(bits=7, lo=0.0, hi=1.0)
        expected_levels, expected_values = quantize(w, grid)
        assert np.array_equal(levels, expected_levels)
        assert np.array_equal(values, expected_values)

    def test_event_log_totals(self, catalog):
        w = np.zeros((144, 256))
        bank = PcmProgrammer(catalog.pcm)
        bank.program(w)
        events = bank.events
        assert sum(e.cells for e in events) == 36864
        assert sum(e.program_pj for e in events) == pytest.approx(36864 * 135.0)
        assert sum(e.erase_pj for e in events) == pytest.approx(36864 * 680.0)

    def test_refresh_rate_violation(self, catalog):
        bank = PcmProgrammer(pcm=catalog.pcm)
        w = np.zeros((4, 4))
        bank.program(w, t_ns=0.0)
        with pytest.raises(PcmRefreshError, match="500"):
            bank.program(w, t_ns=500.0)
        with pytest.raises(PcmRefreshError, match="^bank rewritten 500 ns after its previous write"):
            bank.program(w, t_ns=500.0)

    def test_bank_keeps_no_per_cell_state(self, catalog):
        bank = PcmProgrammer(catalog.pcm)
        bank.program(np.zeros((144, 256)))
        assert not [name for name, value in vars(bank).items() if isinstance(value, np.ndarray)]

    def test_energy_totals_count_accepted_writes_only(self, catalog):
        pcm = catalog.pcm
        bank = PcmProgrammer(pcm)
        w = np.zeros((4, 4))
        bank.program(w, t_ns=0.0)
        bank.program(w, t_ns=1000.0)
        totals = (bank.total_program_pj, bank.total_erase_pj)
        assert totals == (2 * 16 * pcm.program_energy_pj, 2 * 16 * pcm.erase_energy_pj)
        with pytest.raises(PcmRefreshError):
            bank.program(w, t_ns=1500.0)
        with pytest.raises(ValueError, match="^weights "):
            bank.program(np.full((4, 4), 2.0), t_ns=5000.0)
        assert (bank.total_program_pj, bank.total_erase_pj) == totals

    def test_full_cycle_interval_is_legal(self, catalog):
        bank = PcmProgrammer(pcm=catalog.pcm)
        w = np.zeros((4, 4))
        bank.program(w, t_ns=0.0)
        bank.program(w, t_ns=1000.0)
        assert bank.total_program_pj == pytest.approx(2 * 16 * 135.0)

    def test_programming_noise_is_relative(self, catalog):
        pcm = dataclasses.replace(catalog.pcm, program_std=0.01)
        w = np.full((200, 200), 0.5)
        _, values = PcmProgrammer(pcm, seed=3).program(w)
        grid_value = quantize(np.array([0.5]), QuantSpec(bits=7, lo=0.0, hi=1.0))[1][0]
        assert np.std(values) == pytest.approx(0.01 * grid_value, rel=0.05)

    def test_programming_noise_bits(self, catalog):
        pcm = catalog.pcm
        w = np.linspace(0.0, 1.0, 24).reshape(4, 6)
        _, values = PcmProgrammer(pcm, seed=3).program(w, layer=2, tile=5)
        _, grid = quantize(w, QuantSpec(bits=pcm.levels_bits, lo=0.0, hi=1.0))
        draws = keyed_rng(3, "pcm", 2, 5).standard_normal(w.shape)
        assert pcm.program_std > 0.0
        assert_same_bits(values, grid + draws * (pcm.program_std * np.abs(grid)))

    def test_out_of_range_weights_rejected(self, catalog):
        with pytest.raises(ValueError, match="0, 1"):
            PcmProgrammer(catalog.pcm).program(np.array([[1.5]]))

    @pytest.mark.parametrize(
        "weights, t_ns",
        [([[0.5, math.nan]], 1000.0), ([[math.inf, 0.5]], 1000.0), ([[-math.inf, 0.5]], 1000.0),
         ([[0.5, 0.5]], math.nan), ([[0.5, 0.5, 0.5]], 1000.0), ([0.5, 0.5], 1000.0)],
        ids=["nan_weight", "inf_weight", "neg_inf_weight", "nan_time", "other_shape", "one_dim"],
    )
    def test_rejected_call_leaves_the_bank_unchanged(self, catalog, weights, t_ns):
        bank = PcmProgrammer(catalog.pcm)
        w = np.full((1, 2), 0.5)
        bank.program(w, t_ns=0.0)
        with pytest.raises(ValueError, match="^(weights|t_ns) "):
            bank.program(np.array(weights), t_ns=t_ns)
        # the rejected call wrote no cell: a write 500 ns after it succeeds
        bank.program(w, t_ns=1500.0)
        assert [e.t_ns for e in bank.events] == [0.0, 1500.0]
        # and a write 500 ns after a successful one is still refused
        with pytest.raises(PcmRefreshError, match="500"):
            bank.program(w, t_ns=2000.0)

    def test_rejected_first_call_leaves_the_bank_empty(self, catalog):
        bank = PcmProgrammer(catalog.pcm)
        with pytest.raises(ValueError, match="^weights "):
            bank.program(np.array([[math.nan]]), t_ns=0.0)
        # no shape or write time was recorded: any shape may be written at once
        bank.program(np.zeros((2, 3)), t_ns=500.0)
        assert [e.t_ns for e in bank.events] == [500.0]
