import tracemalloc

import numpy as np
import pytest

import wavecore.conv
from wavecore import CoreGeometry, NoiseSpec, QuantSpec, noisy_mvm
from wavecore.conv import conv_oracle, im2col, lowered_weight_matrix, run_conv
from wavecore.engine import DIFFERENTIAL_PAIR, ZERO_NOISE, unit_step_out_quant
from wavecore.workload import ConvLayerSpec, lower_conv, schedule

from conftest import assert_same_bits


def random_instance(rng, k, c_in_max=4, c_out_max=4, spatial_max=6, levels=16):
    c_in = int(rng.integers(1, c_in_max + 1))
    c_out = int(rng.integers(1, c_out_max + 1))
    h = int(rng.integers(k, spatial_max + 1))
    w = int(rng.integers(k, spatial_max + 1))
    acts = rng.integers(0, levels, size=(c_in, h, w)).astype(float)
    weights = rng.integers(0, levels, size=(c_out, c_in, k, k)).astype(float)
    return acts, weights


def grids(levels=16):
    return (
        QuantSpec(bits=4, lo=0.0, hi=float(levels - 1)),
        QuantSpec(bits=4, lo=0.0, hi=float(levels - 1)),
    )


class TestIm2col:
    def test_reconstructs_matmul_conv(self):
        rng = np.random.default_rng(0)
        acts, weights = random_instance(rng, k=3)
        cols = im2col(acts, 3)
        mat = lowered_weight_matrix(weights)
        direct = conv_oracle(acts, weights)
        lowered = (mat.T @ cols).reshape(direct.shape)
        assert np.array_equal(lowered, direct)

    def test_stride_two(self):
        rng = np.random.default_rng(1)
        acts = rng.integers(0, 8, size=(2, 7, 7)).astype(float)
        weights = rng.integers(0, 8, size=(3, 2, 3, 3)).astype(float)
        cols = im2col(acts, 3, stride=2)
        mat = lowered_weight_matrix(weights)
        direct = conv_oracle(acts, weights, stride=2)
        assert np.array_equal((mat.T @ cols).reshape(direct.shape), direct)

    @pytest.mark.parametrize("k, stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_integer_input_gives_float_columns(self, k, stride):
        acts = np.arange(2 * 5 * 6).reshape(2, 5, 6)
        cols = im2col(acts, k, stride)
        assert cols.dtype == np.float64
        assert np.array_equal(cols, im2col(acts.astype(float), k, stride))
        ones = np.ones((1, 2, k, k))
        direct = conv_oracle(acts.astype(float), ones, stride)
        assert np.array_equal(lowered_weight_matrix(ones).T @ cols, direct.reshape(1, -1))


class TestEngineConvMatchesOracle:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pack", [False, True])
    def test_zero_noise_exact(self, k, pack):
        geom = CoreGeometry(18, 8)
        rng = np.random.default_rng(42 + k)
        in_q, w_q = grids()
        for _ in range(25):
            acts, weights = random_instance(rng, k=k)
            out_q = unit_step_out_quant(acts.shape[0] * k * k * 225)
            got = run_conv(acts, weights, geom, in_q, w_q, out_q, ZERO_NOISE, pack_pointwise=pack)
            assert np.array_equal(got, conv_oracle(acts, weights))

    def test_stride_two_exact(self):
        geom = CoreGeometry(9, 8)
        rng = np.random.default_rng(9)
        in_q, w_q = grids()
        acts = rng.integers(0, 16, size=(3, 7, 7)).astype(float)
        weights = rng.integers(0, 16, size=(5, 3, 3, 3)).astype(float)
        out_q = unit_step_out_quant(27 * 225)
        got = run_conv(acts, weights, geom, in_q, w_q, out_q, ZERO_NOISE, stride=2)
        assert np.array_equal(got, conv_oracle(acts, weights, stride=2))

    def test_row_tiling_partials_sum_exactly(self):
        # any row-tile partition of the same instance gives the identical result
        rng = np.random.default_rng(23)
        acts, weights = random_instance(rng, k=3, c_in_max=8, spatial_max=5)
        in_q, w_q = grids()
        out_q = unit_step_out_quant(acts.shape[0] * 9 * 225)
        outputs = [
            run_conv(acts, weights, CoreGeometry(groups * 9, 8), in_q, w_q, out_q, ZERO_NOISE)
            for groups in (1, 2, 4, 16)
        ]
        for y in outputs[1:]:
            assert np.array_equal(y, outputs[0])

    def test_column_tiling_exact(self):
        rng = np.random.default_rng(31)
        acts = rng.integers(0, 16, size=(2, 5, 5)).astype(float)
        weights = rng.integers(0, 16, size=(20, 2, 3, 3)).astype(float)
        in_q, w_q = grids()
        out_q = unit_step_out_quant(18 * 225)
        got = run_conv(acts, weights, CoreGeometry(18, 8), in_q, w_q, out_q, ZERO_NOISE)
        assert np.array_equal(got, conv_oracle(acts, weights))

    def test_signed_weights_differential(self):
        rng = np.random.default_rng(37)
        acts = rng.integers(0, 16, size=(2, 5, 5)).astype(float)
        weights = rng.integers(-15, 16, size=(3, 2, 3, 3)).astype(float)
        in_q = QuantSpec(bits=4, lo=0.0, hi=15.0)
        w_q = QuantSpec(bits=4, lo=-15.0, hi=15.0, signed_mode=DIFFERENTIAL_PAIR)
        got = run_conv(acts, weights, CoreGeometry(18, 8), in_q, w_q, None, ZERO_NOISE)
        assert np.allclose(got, conv_oracle(acts, weights))

    def test_noisy_run_is_reproducible(self):
        rng = np.random.default_rng(41)
        acts, weights = random_instance(rng, k=3)
        in_q, w_q = grids()
        noise = NoiseSpec(seed=5)
        geom = CoreGeometry(36, 8)
        a = run_conv(acts, weights, geom, in_q, w_q, None, noise)
        b = run_conv(acts, weights, geom, in_q, w_q, None, noise)
        assert np.array_equal(a, b)


class TestRunConvTiles:
    def test_tile_walk_is_row_major_over_lowered_passes(self, monkeypatch):
        # 20 channels of 3x3 on 144 rows: passes of 16 and 4 channels (144 and
        # 36 rows); 600 outputs on 256 columns: 256, 256 and 88. The tile index
        # keys the noise streams, so the numbering is pinned too.
        calls = []
        real_mvm = wavecore.conv.noisy_mvm

        def recording_mvm(x, weights, *args, tile, **kwargs):
            calls.append((tile, *weights.shape))
            return real_mvm(x, weights, *args, tile=tile, **kwargs)

        monkeypatch.setattr(wavecore.conv, "noisy_mvm", recording_mvm)
        rng = np.random.default_rng(7)
        acts = rng.random((20, 3, 3))
        weights = rng.uniform(-1.0, 1.0, (600, 20, 3, 3))
        w_q = QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR)
        y = run_conv(acts, weights, CoreGeometry(144, 256), QuantSpec(bits=6), w_q)
        assert y.shape == (600, 1, 1)
        assert calls == [(0, 144, 256), (1, 144, 256), (2, 144, 88), (3, 36, 256), (4, 36, 256), (5, 36, 88)]

    def test_pointwise_default_makes_the_scheduled_tile_loads(self, monkeypatch, catalog):
        # 32 channels of 1x1 on 144 rows: one packed pass, as schedule counts it
        tiles = []
        real_mvm = wavecore.conv.noisy_mvm

        def recording_mvm(*args, tile, **kwargs):
            tiles.append(tile)
            return real_mvm(*args, tile=tile, **kwargs)

        monkeypatch.setattr(wavecore.conv, "noisy_mvm", recording_mvm)
        geom = CoreGeometry(144, 256)
        rng = np.random.default_rng(17)
        run_conv(rng.random((32, 4, 4)), rng.random((8, 32, 1, 1)), geom, QuantSpec(bits=6), QuantSpec(bits=7))
        sched = schedule([ConvLayerSpec("pointwise", 32, 8, 1, 4, 4)], geom, catalog.pcm)
        assert len(tiles) == sched.total_tile_loads

    @pytest.mark.parametrize(
        "weight_shape, message",
        [
            ((3, 5, 3, 3), "^channel mismatch: activations 2, weights 5$"),
            ((3, 1, 3, 3), "^channel mismatch: activations 2, weights 1$"),
            ((3, 2, 3, 2), "^kernel must be square, got 3x2$"),
        ],
        ids=["extra_weight_channels", "missing_weight_channels", "non_square_kernel"],
    )
    def test_rejects_weights_that_do_not_fit_the_image(self, weight_shape, message):
        acts = np.random.default_rng(0).random((2, 6, 6))
        in_q, w_q = grids()
        with pytest.raises(ValueError, match=message):
            run_conv(acts, np.ones(weight_shape), CoreGeometry(9, 8), in_q, w_q)

    def test_rejects_activations_of_the_wrong_rank(self):
        in_q, w_q = grids()
        with pytest.raises(ValueError, match=r"^activations must be .* got shape \(6, 6\)$"):
            run_conv(np.ones((6, 6)), np.ones((1, 1, 3, 3)), CoreGeometry(9, 8), in_q, w_q)

    def test_rejects_weights_of_the_wrong_rank(self):
        in_q, w_q = grids()
        with pytest.raises(ValueError, match=r"^weights must be \(c_out, c_in, k, k\), got shape \(3, 3\)$"):
            run_conv(np.ones((1, 6, 6)), np.ones((3, 3)), CoreGeometry(9, 8), in_q, w_q)

    def test_rejects_an_image_smaller_than_the_kernel(self):
        in_q, w_q = grids()
        with pytest.raises(ValueError, match="^activations of 2x2 are smaller than the 3x3 kernel of the weights$"):
            run_conv(np.ones((1, 2, 2)), np.ones((1, 1, 3, 3)), CoreGeometry(9, 8), in_q, w_q)

    def test_rejects_a_zero_stride(self):
        in_q, w_q = grids()
        with pytest.raises(ValueError, match="^stride must be an integer >= 1, got 0$"):
            run_conv(np.ones((1, 6, 6)), np.ones((1, 1, 3, 3)), CoreGeometry(9, 8), in_q, w_q, stride=0)


class TestBatchedRunConv:
    @pytest.mark.parametrize("geom", [CoreGeometry(9, 2), CoreGeometry(18, 8), CoreGeometry(144, 256)])
    def test_batch_equals_one_image_per_call(self, geom):
        # row and column tiling on the small cores; image b with seed + b
        rng = np.random.default_rng(43)
        acts = rng.random((5, 3, 6, 6))
        weights = rng.uniform(-1.0, 1.0, (4, 3, 3, 3))
        in_q = QuantSpec(bits=6, lo=0.0, hi=1.0)
        w_q = QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR)
        noise = NoiseSpec(seed=11)
        got = run_conv(acts, weights, geom, in_q, w_q, None, noise, layer_index=2)
        assert got.shape == (5, 4, 4, 4)
        for b, image in enumerate(acts):
            alone = NoiseSpec(noise.sigma_in, noise.sigma_w, noise.sigma_out, noise.seed + b)
            expected = run_conv(image, weights, geom, in_q, w_q, None, alone, layer_index=2)
            assert np.array_equal(got[b], expected)
            assert np.array_equal(np.signbit(got[b]), np.signbit(expected))

    def test_im2col_keeps_the_batch_axis(self):
        acts = np.random.default_rng(3).random((4, 2, 7, 7))
        cols = im2col(acts, 3, stride=2)
        assert cols.shape == (4, 18, 9)
        for b, image in enumerate(acts):
            assert np.array_equal(cols[b], im2col(image, 3, stride=2))


def full_layer_run_conv(images, weights, geom, in_quant, w_quant, noise, stride, pack):
    """run_conv on a batch as one full-layer im2col, one transposed copy of the
    weight matrix and one engine call per tile, accumulated into zeros."""
    batch, c_in, h, w = images.shape
    c_out, _, k, _ = weights.shape
    h_out, w_out = (h - k) // stride + 1, (w - k) // stride + 1
    dims = lower_conv(ConvLayerSpec("layer3", c_in, c_out, k, h_out, w_out, stride), geom, pack_pointwise=pack)
    x_cols = im2col(images, k, stride)
    w_mat = weights.reshape(c_out, -1).T.copy()
    y = np.zeros((batch, c_out, h_out * w_out))
    rows_per_pass = dims.channels_per_pass * k * k
    tile = 0
    for r0 in range(0, c_in * k * k, rows_per_pass):
        for c0 in range(0, c_out, geom.cols):
            rows, cols = slice(r0, r0 + rows_per_pass), slice(c0, c0 + geom.cols)
            y[:, cols] += noisy_mvm(x_cols[:, rows], w_mat[rows, cols], in_quant, w_quant, None, noise,
                                    layer=3, tile=tile)
            tile += 1
    return y.reshape(batch, c_out, h_out, w_out)


WEIGHT_MODES = {
    "differential": (QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR), -1.0),
    "non_negative": (QuantSpec(bits=7, lo=0.0, hi=1.0), 0.0),
}


class TestTilePath:
    """run_conv cuts each tile's operands at tile size and gives the full-layer lowering's bits."""

    @pytest.mark.parametrize("mode", sorted(WEIGHT_MODES))
    @pytest.mark.parametrize("pack", [True, False])
    @pytest.mark.parametrize("k, stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_equals_full_layer_lowering(self, batch, k, stride, pack, mode):
        # 11 channels on 9 rows: 11 row tiles of 3x3 or unpacked 1x1, two of
        # packed 1x1; 5 outputs on 2 columns: three column tiles
        w_quant, w_low = WEIGHT_MODES[mode]
        geom = CoreGeometry(9, 2)
        rng = np.random.default_rng([batch, k, stride])
        images = rng.random((batch, 11, 7, 7))
        base = rng.uniform(w_low, 1.0, (11, 5, k, k))
        strided = np.swapaxes(base, 0, 1)                       # (5, 11, k, k), not C-contiguous
        assert not strided.flags.c_contiguous
        in_quant = QuantSpec(bits=6)
        for noise in (NoiseSpec(sigma_in=0.01, sigma_w=0.02, sigma_out=0.03, seed=9), ZERO_NOISE):
            for weights in (np.ascontiguousarray(strided), strided):
                expected = full_layer_run_conv(images, weights, geom, in_quant, w_quant, noise, stride, pack)
                got = run_conv(images, weights, geom, in_quant, w_quant, None, noise,
                               stride=stride, pack_pointwise=pack, layer_index=3)
                assert_same_bits(got, expected)

    @pytest.mark.parametrize("mode", sorted(WEIGHT_MODES))
    def test_chunked_batch_equals_one_chunk(self, mode, monkeypatch):
        # 7 images in chunks of 3, 3 and 1: each chunk keys its images'
        # streams from its first image, so image b still draws seed + b
        w_quant, w_low = WEIGHT_MODES[mode]
        rng = np.random.default_rng(5)
        images = rng.random((7, 3, 6, 6))
        weights = rng.uniform(w_low, 1.0, (4, 3, 3, 3))
        geom = CoreGeometry(9, 2)
        noise = NoiseSpec(sigma_in=0.01, sigma_w=0.02, sigma_out=0.03, seed=21)
        args = (images, weights, geom, QuantSpec(bits=6), w_quant, None, noise)
        whole = run_conv(*args, layer_index=1)
        monkeypatch.setattr(wavecore.conv, "_IMAGE_CHUNK", 3)
        assert_same_bits(run_conv(*args, layer_index=1), whole)

    def test_layer_memory_is_tile_sized(self):
        # layer1.1.conv2 of ResNet-50 on a 144x256 core: 64 -> 64 channels of
        # 3x3 at 64x64 outputs, four row tiles of 16 channels. The layer's
        # im2col alone is 18.9 MB, and the traced peak was 31.9 MB while run_conv
        # built it; one row tile's columns are 4.7 MB. Measured: 16.9 MB.
        rng = np.random.default_rng(0)
        x = rng.random((64, 66, 66))
        w = rng.uniform(-1.0, 1.0, (64, 64, 3, 3))
        w_q = QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR)
        tracemalloc.start()
        try:
            run_conv(x, w, CoreGeometry(144, 256), QuantSpec(bits=6), w_q, None, NoiseSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
