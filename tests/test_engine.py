import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecore import (
    AccumulationTree,
    NoiseSpec,
    PcmProgrammer,
    PcmRefreshError,
    QuantSpec,
    inject_noise,
    noisy_mvm,
    quantize,
)
from wavecore.engine import DIFFERENTIAL_PAIR, ZERO_NOISE, _detector_sums, unit_step_out_quant
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


def _group_reduce(products, group):
    """Sum axis 0 in contiguous blocks of ``group`` (zero-padded tail)."""
    n = products.shape[0]
    blocks = -(-n // group)
    pad = blocks * group - n
    if pad:
        widths = [(0, pad)] + [(0, 0)] * (products.ndim - 1)
        products = np.pad(products, widths)
    return products.reshape((blocks, group) + products.shape[1:]).sum(axis=1)


def detector_sums(x, w, tree):
    """The kernel on one (rows x positions, rows x cols) tile: a batch of one."""
    return _detector_sums(x[None], w[None], tree)[0]


def reference_detector_sums(x, w, tree):
    """The whole R x C x P product tensor, reduced per bus and then per detector."""
    products = w[:, :, None] * x[:, None, :]
    return _group_reduce(_group_reduce(products, tree.group_size), tree.pd_ports)


TREES = [(1, 1), (3, 2), (8, 8), (9, 16), (27, 4)]
EDGE_SHAPES = [
    (150, 1, 1),     # one output element: numpy sums it pairwise
    (300, 1, 1),
    (9, 1, 1),
    (20, 3, 4),      # partial last bus
    (150, 5, 7),     # partial last bus and partial last detector
    (145, 2, 1),
]


def spread_operands(seed, rows, cols, positions, signed=False, decades=16):
    """Operands over ``decades`` decades, so a change in summation order shows in the last bits.

    ``signed`` gives each value a random sign and sets a fifth of each operand
    to exact +0.0 or -0.0, so the signs of zero sums show too. Over 16
    decades a sum is often dominated by its largest terms, which can hide an
    order change in the small ones; few decades keep every term in play.
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
    return x, w


class TestDetectorSums:
    """The streamed kernel reproduces the materialised product tensor bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 300),
        cols=st.integers(1, 40),
        positions=st.integers(1, 60),
        tree=st.sampled_from(TREES),
        seed=st.integers(0, 2**32 - 1),
        signed=st.booleans(),
        decades=st.sampled_from([2, 16]),
    )
    def test_matches_reference(self, rows, cols, positions, tree, seed, signed, decades):
        x, w = spread_operands(seed, rows, cols, positions, signed, decades)
        t = AccumulationTree(*tree)
        assert_same_bits(detector_sums(x, w, t), reference_detector_sums(x, w, t))

    @pytest.mark.parametrize("tree", TREES)
    @pytest.mark.parametrize("rows, cols, positions", EDGE_SHAPES)
    def test_edge_shapes(self, rows, cols, positions, tree):
        x, w = spread_operands(rows * cols + positions, rows, cols, positions)
        t = AccumulationTree(*tree)
        assert_same_bits(detector_sums(x, w, t), reference_detector_sums(x, w, t))

    @pytest.mark.parametrize("tree", TREES)
    @pytest.mark.parametrize("rows, cols, positions", EDGE_SHAPES)
    def test_signed_edge_shapes(self, rows, cols, positions, tree):
        x, w = spread_operands(rows * cols + positions, rows, cols, positions, signed=True)
        t = AccumulationTree(*tree)
        assert_same_bits(detector_sums(x, w, t), reference_detector_sums(x, w, t))

    @pytest.mark.parametrize("tree", [(9, 16), (3, 2)])
    @pytest.mark.parametrize(
        "rows, cols, positions",
        [
            (30, 300, 49),      # cols innermost, several position blocks
            (20, 70, 700),      # positions innermost, several column blocks
            (20, 3, 20000),     # several blocks on both axes, positions innermost
            (20, 20000, 3),     # several blocks on both axes, cols innermost
            (600, 1, 8193),     # blocks of 8192 split unevenly would leave a
            (600, 8193, 1),     # one-element block, which numpy sums pairwise
        ],
    )
    @pytest.mark.parametrize("decades", [16, 2])
    def test_several_blocks(self, rows, cols, positions, tree, decades):
        x, w = spread_operands(rows + cols + positions, rows, cols, positions, True, decades)
        t = AccumulationTree(*tree)
        assert_same_bits(detector_sums(x, w, t), reference_detector_sums(x, w, t))

    @pytest.mark.parametrize("positions", [2**15 + 1, 2**16 + 3])
    @pytest.mark.parametrize("tree", [(9, 16), (3, 2)])
    def test_several_chunks_single_column(self, positions, tree):
        x, w = spread_operands(positions, 40, 1, positions)
        t = AccumulationTree(*tree)
        assert_same_bits(detector_sums(x, w, t), reference_detector_sums(x, w, t))

    @pytest.mark.parametrize("tree", [(9, 16), (3, 2)])
    @pytest.mark.parametrize("cols_inner", [False, True])
    @pytest.mark.parametrize("width", [15, 16, 17, 2047, 2048, 4095, 4096, 4097])
    def test_inner_widths_around_the_buffer_sizes(self, width, cols_inner, tree):
        # widths around the 16-element kernel buffer and numpy's default half
        # buffer; three items share a block at the narrow widths
        batch, rows, outer = 3, 40, 5
        cols, positions = (width, outer) if cols_inner else (outer, width)
        items = [spread_operands(width + b, rows, cols, positions, True, 2) for b in range(batch)]
        x = np.stack([item[0] for item in items])
        w = np.stack([item[1] for item in items])
        t = AccumulationTree(*tree)
        got = _detector_sums(x, w, t)
        for b in range(batch):
            assert_same_bits(got[b], reference_detector_sums(x[b], w[b], t))

    def test_scratch_fits_in_cache(self):
        rng = np.random.default_rng(0)
        x = rng.random((144, 4096))
        w = rng.random((144, 256))
        tracemalloc.start()
        try:
            level2 = _detector_sums(x[None], w[None], AccumulationTree())
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


# a narrow tile, then tiles with the cols and the positions innermost and wide
BUFSIZE_SHAPES = [(20, 3, 36), (20, 256, 64), (20, 3, 4096)]


class TestUfuncBufferSize:
    """The kernel sets numpy's ufunc buffer size only while it runs."""

    @pytest.mark.parametrize("rows, cols, positions", BUFSIZE_SHAPES)
    @pytest.mark.parametrize("caller", [None, 4096])
    def test_caller_buffer_size_is_restored(self, rows, cols, positions, caller):
        x, w = spread_operands(0, rows, cols, positions)
        old = np.setbufsize(caller) if caller else np.getbufsize()
        try:
            before = np.getbufsize()
            _detector_sums(x[None], w[None], AccumulationTree())
            assert np.getbufsize() == before
            noisy_mvm(x[None], w, QuantSpec(bits=6), QuantSpec(bits=7), noise=NoiseSpec())
            assert np.getbufsize() == before
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("rows, cols, positions", BUFSIZE_SHAPES)
    def test_multiplies_unbuffered_and_restores_on_error(self, monkeypatch, rows, cols, positions):
        x, w = spread_operands(0, rows, cols, positions)
        seen = []

        def failing_multiply(*args, **kwargs):
            seen.append(np.getbufsize())
            raise FloatingPointError("stop")

        before = np.getbufsize()
        monkeypatch.setattr(np, "multiply", failing_multiply)
        with pytest.raises(FloatingPointError):
            _detector_sums(x[None], w[None], AccumulationTree())
        assert seen == [16]
        assert np.getbufsize() == before


class TestBatchedKernel:
    """A batch through the kernel equals each item through it alone."""

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 6),
        rows=st.integers(1, 160),
        cols=st.integers(1, 12),
        positions=st.integers(1, 20),
        tree=st.sampled_from(TREES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_item_reference(self, batch, rows, cols, positions, tree, seed):
        items = [spread_operands(seed + b, rows, cols, positions, True, 2) for b in range(batch)]
        x = np.stack([item[0] for item in items])
        w = np.stack([item[1] for item in items])
        t = AccumulationTree(*tree)
        got = _detector_sums(x, w, t)
        for b in range(batch):
            assert_same_bits(got[b], reference_detector_sums(x[b], w[b], t))

    @pytest.mark.parametrize("tree", [(9, 16), (3, 2)])
    @pytest.mark.parametrize(
        "batch, rows, cols, positions",
        [
            (500, 9, 3, 36),    # the tinycnn tile: the batch spans several blocks
            (7, 150, 1, 1),     # one-element tiles keep the padded reductions per item
            (3, 20, 3000, 4),   # cols innermost, one item per block
        ],
    )
    def test_batch_blocks(self, batch, rows, cols, positions, tree):
        rng = np.random.default_rng(batch + rows)
        x = rng.random((batch, rows, positions)) * 10.0 ** rng.integers(-1, 1, (batch, rows, positions))
        w = rng.random((batch, rows, cols)) * 10.0 ** rng.integers(-1, 1, (batch, rows, cols))
        t = AccumulationTree(*tree)
        got = _detector_sums(x, w, t)
        for b in range(batch):
            assert_same_bits(got[b], reference_detector_sums(x[b], w[b], t))


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
        trees = [
            AccumulationTree(group_size=9, pd_ports=16),
            AccumulationTree(group_size=9, pd_ports=1),
            AccumulationTree(group_size=3, pd_ports=2),
            AccumulationTree(group_size=1, pd_ports=1),
            AccumulationTree(group_size=27, pd_ports=4),
        ]
        outputs = [
            noisy_mvm(x[None, :, None], w, in_q, w_q, out_quant=unit_step_out_quant(27 * 225), noise=ZERO_NOISE,
                      tree=t)
            for t in trees
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

    def test_regression_vector(self):
        assert_regression_fixture("regression_mvm.json")

    def test_regression_batch(self):
        # 150 rows x 5 differential columns x 7 positions: two detectors and a
        # partial last bus, recorded before the product tensor was removed
        assert_regression_fixture("regression_mvm_batch.json")


class TestBatchContract:
    """A (B, R, P) batch equals B calls on its items, item b with seed ``seed + b``."""

    @settings(max_examples=120, deadline=None)
    @given(
        batch=st.integers(1, 5),
        rows=st.integers(1, 160),
        cols=st.integers(1, 10),
        positions=st.integers(1, 12),
        tree=st.sampled_from(TREES),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.02]) for _ in range(3)]),
        differential=st.booleans(),
        digitize=st.booleans(),
        seed=st.integers(0, 2**31),
        layer=st.integers(0, 3),
        tile=st.integers(0, 3),
    )
    def test_batch_equals_separate_calls(
        self, batch, rows, cols, positions, tree, sigmas, differential, digitize, seed, layer, tile
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
        t = AccumulationTree(*tree)
        noise = NoiseSpec(*sigmas, seed=seed)
        got = noisy_mvm(x, w, in_q, w_q, out_q, noise, t, layer=layer, tile=tile)
        assert got.shape == (batch, cols, positions)
        for b in range(batch):
            alone = NoiseSpec(*sigmas, seed=seed + b)
            alone_y = noisy_mvm(x[b : b + 1], w, in_q, w_q, out_q, alone, t, layer=layer, tile=tile)
            assert_same_bits(got[b : b + 1], alone_y)

    # the rows disagree, or x has no batch axis: a vector or one R x P matrix is not a batch
    @pytest.mark.parametrize("x_shape", [(2, 4, 3), (5,), (5, 3)], ids=["rows", "1-d", "2-d"])
    def test_batch_shape_mismatch(self, x_shape):
        with pytest.raises(ValueError, match="shapes"):
            noisy_mvm(np.ones(x_shape), np.ones((5, 2)), QuantSpec(bits=4), QuantSpec(bits=4))


def assert_regression_fixture(name):
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
    assert np.array_equal(y.reshape(expected.shape), expected)


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
