import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wavecore import CoreGeometry, NoiseSpec, conv
from wavecore.cli import main
from wavecore.engine import ZERO_NOISE
from wavecore.rng import keyed_rng
from wavecore.synth import _FILTERS, make_dataset, run_tinycnn, simulate_accuracy
from wavecore.workload import ConvLayerSpec, lower_conv

from clirunner import CliRunner
from conftest import assert_same_bits

# simulate's stdout and full-precision statistics. The stdout and predictions
# were recorded from the one-image-per-call simulator before batching. The
# statistics' bits are those of the kernel's matrix products under numpy
# 2.4.6's bundled scipy-openblas 0.3.31 (its SkylakeX kernels, picked on an
# AVX-512 x86 host), and may move in the last bits with another BLAS build
# or kernel. Compared, never regenerated.
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_simulate.json").read_text())


def test_dataset_deterministic():
    a_images, a_labels = make_dataset(16, seed=7)
    b_images, b_labels = make_dataset(16, seed=7)
    assert np.array_equal(a_images, b_images)
    assert np.array_equal(a_labels, b_labels)
    assert a_images.min() >= 0.0 and a_images.max() <= 1.0


def _per_image_dataset(n, seed, size, pixel_noise):
    """make_dataset as one loop body per image, the reference for its vectorised form."""
    rng = keyed_rng(seed, "synth-data")
    images = np.empty((n, 1, size, size))
    labels = rng.integers(0, 3, size=n)
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for i in range(n):
        phase = int(rng.integers(0, 2))
        if labels[i] == 0:
            base = (cc + phase) % 2
        elif labels[i] == 1:
            base = (rr + phase) % 2
        else:
            base = (rr + cc + phase) % 2
        noisy = base + pixel_noise * rng.standard_normal((size, size))
        images[i, 0] = np.clip(noisy, 0.0, 1.0)
    return images, labels


@pytest.mark.parametrize(
    "n, seed, size, pixel_noise",
    [(1, 0, 8, 0.1), (60, 1, 8, 0.1), (7, -3, 5, 0.0), (33, 2**63, 8, 0.6), (16, 7, 1, 0.1), (0, 4, 8, 0.1)],
)
def test_dataset_matches_per_image_loop(n, seed, size, pixel_noise):
    images, labels = make_dataset(n, seed=seed, size=size, pixel_noise=pixel_noise)
    expected_images, expected_labels = _per_image_dataset(n, seed, size, pixel_noise)
    assert images.shape == (n, 1, size, size)
    assert_same_bits(images, expected_images)
    assert np.array_equal(labels, expected_labels)


def test_zero_noise_accuracy_perfect():
    geom = CoreGeometry(144, 256)
    accuracy, _, _, _ = simulate_accuracy(geom, ZERO_NOISE, n_samples=30)
    assert accuracy == 1.0


def test_default_noise_accuracy_high():
    geom = CoreGeometry(144, 256)
    noise = NoiseSpec(seed=0)
    accuracy, _, _, _ = simulate_accuracy(geom, noise, n_samples=30)
    assert accuracy >= 0.9


def test_layer_stats_reported():
    geom = CoreGeometry(9, 8)
    images, labels = make_dataset(4, seed=2)
    _, _, stats = run_tinycnn(images, labels, geom, ZERO_NOISE)
    assert stats[0].name == "conv3x3"
    assert stats[0].max >= stats[0].min


@pytest.mark.parametrize("run", GOLDEN["runs"], ids=lambda r: f"{r['core']}-{r['sigma_in']}-{r['seed']}")
def test_simulate_matches_golden(run):
    noise = NoiseSpec(run["sigma_in"], GOLDEN["sigma_w"], GOLDEN["sigma_out"], run["seed"])
    for fmt, expected in run["stdout"].items():
        argv = ["simulate", "--core", run["core"], "--sigma-in", repr(noise.sigma_in),
                "--sigma-w", repr(noise.sigma_w), "--sigma-out", repr(noise.sigma_out),
                "--seed", str(noise.seed), "--samples", str(GOLDEN["samples"]), "--format", fmt]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0
        assert result.stdout_bytes == expected.encode()
    _, preds, _, stats = simulate_accuracy(CoreGeometry.parse(run["core"]), noise, n_samples=GOLDEN["samples"])
    assert preds.tolist() == run["predictions"]
    s = stats[0]
    assert [v.hex() for v in (s.mean, s.std, s.min, s.max)] == run["stats_hex"]


@pytest.mark.parametrize("core", ["144x256", "9x2", "18x1"])
def test_one_engine_call_per_tile_not_per_image(core, monkeypatch):
    calls = []
    noisy_mvm = conv.noisy_mvm

    def counting(*args, **kwargs):
        calls.append(kwargs["tile"])
        return noisy_mvm(*args, **kwargs)

    monkeypatch.setattr(conv, "noisy_mvm", counting)
    geom = CoreGeometry.parse(core)
    images, labels = make_dataset(11, seed=4)
    run_tinycnn(images, labels, geom, NoiseSpec(seed=2))
    dims = lower_conv(ConvLayerSpec("conv3x3", 1, len(_FILTERS), 3, 6, 6), geom)
    assert calls == list(range(dims.tiles_row * dims.tiles_col))
    assert len(calls) < len(images)


def test_memory_grows_only_with_the_conv_output():
    # run_conv takes the images in chunks, so past the first few chunks the
    # traced peak grows only by the (samples, 3, 6, 6) conv output and the
    # scores' |output|. Measured: 5.3 MB of growth from 1200 to 4800 samples
    # against 3.1 MB more output; one batch of every image grew by 33.4 MB.
    def traced_peak(samples):
        images, labels = make_dataset(samples, seed=3)
        tracemalloc.start()
        try:
            run_tinycnn(images, labels, CoreGeometry(144, 256), NoiseSpec(seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    output_growth = (4800 - 1200) * len(_FILTERS) * 6 * 6 * 8
    assert traced_peak(4800) - traced_peak(1200) < 2 * output_growth


@pytest.mark.parametrize("core", ["144x256", "9x2"])
def test_one_philox_per_engine_call_and_role(core, monkeypatch):
    # a generator built per batch item would grow with --samples
    philox = np.random.Philox
    noisy_mvm = conv.noisy_mvm
    counts = {"philox": 0, "engine": 0}

    def counting_philox(*args, **kwargs):
        counts["philox"] += 1
        return philox(*args, **kwargs)

    def counting_mvm(*args, **kwargs):
        counts["engine"] += 1
        return noisy_mvm(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(conv, "noisy_mvm", counting_mvm)
    seen = []
    for samples in (60, 240):
        counts.update(philox=0, engine=0)
        result = CliRunner().invoke(main, ["simulate", "--core", core, "--samples", str(samples)])
        assert result.exit_code == 0
        # roles per call: the input, and each differential weight leg and its readout
        assert 1 < counts["philox"] <= 5 * counts["engine"] + 1     # + make_dataset's stream
        seen.append(counts["philox"])
    assert seen[0] == seen[1]
