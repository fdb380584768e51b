import numpy as np
import pytest

import wavecore.conv
from wavecore import CoreGeometry, NoiseSpec, QuantSpec
from wavecore.conv import conv_oracle, im2col, lowered_weight_matrix, run_conv
from wavecore.engine import DIFFERENTIAL_PAIR, ZERO_NOISE, unit_step_out_quant
from wavecore.workload import ConvLayerSpec, schedule


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
