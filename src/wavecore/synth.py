"""Bundled desk-scale model and dataset for noise-robustness runs.

The dataset is three classes of 8x8 period-2 grating patches (vertical,
horizontal, checkerboard) with random phase and additive pixel noise. The
``tinycnn`` model is a single 3x3 conv layer whose three filters are
second-difference detectors for the three orientations, followed by
rectified mean pooling and argmax. Deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import run_conv
from .engine import DIFFERENTIAL_PAIR, NoiseSpec, QuantSpec
from .linkbudget import CoreGeometry
from .rng import keyed_rng

# the dataset seed of simulate_accuracy and the ``simulate`` command
DATA_SEED = 1

# Directional second-difference filters; each responds to exactly one of the
# three period-2 patterns and is blind to the other two.
_FILTERS = np.array(
    [
        [[-1, 2, -1]] * 3,                                   # vertical alternation
        [[-1, -1, -1], [2, 2, 2], [-1, -1, -1]],             # horizontal alternation
        [[-1, 2, -1], [2, -4, 2], [-1, 2, -1]],              # checkerboard
    ],
    dtype=np.float64,
)[:, None, :, :]  # (c_out=3, c_in=1, 3, 3)


def make_dataset(n: int, seed: int = 0, size: int = 8, pixel_noise: float = 0.1):
    """n labelled patches, shape (n, 1, size, size), values in [0, 1]."""
    rng = keyed_rng(seed, "synth-data")
    labels = rng.integers(0, 3, size=n)
    # per image, a phase bit then the pixel noise, interleaved on the one stream
    phases = np.empty(n, dtype=np.int64)
    noisy = np.empty((n, 1, size, size))
    for i in range(n):
        phases[i] = rng.integers(0, 2)
        rng.standard_normal(out=noisy[i, 0])
    # period-2 gratings: label 0 alternates along columns, 1 along rows, 2 both
    rr, cc = np.ogrid[:size, :size]
    along_rows = (labels != 0)[:, None, None, None]
    along_cols = (labels != 1)[:, None, None, None]
    base = (along_rows * rr + along_cols * cc + phases[:, None, None, None]) % 2
    noisy *= pixel_noise
    noisy += base
    images = np.clip(noisy, 0.0, 1.0, out=noisy)
    return images, labels


@dataclass(frozen=True)
class LayerStats:
    name: str
    mean: float
    std: float
    min: float
    max: float


def run_tinycnn(images: np.ndarray, labels: np.ndarray, geom: CoreGeometry, noise: NoiseSpec):
    """Classify patches through the analog conv layer and score them against ``labels``.

    Returns (accuracy, predictions, layer statistics). Scores are rectified
    mean conv responses per orientation filter; the conv itself runs on the
    engine with 6-bit inputs and 7-bit differential weights, all images in one
    batch, so image ``i`` sees the noise of seed ``noise.seed + i``.
    """
    in_quant = QuantSpec(bits=6, lo=0.0, hi=1.0)
    w_quant = QuantSpec(bits=7, lo=-4.0, hi=4.0, signed_mode=DIFFERENTIAL_PAIR)
    y = run_conv(images, _FILTERS, geom, in_quant, w_quant, out_quant=None, noise=noise)
    scores = np.abs(y).mean(axis=(2, 3))
    preds = np.argmax(scores, axis=1)
    stats = [
        LayerStats(
            name="conv3x3",
            mean=float(y.mean()),
            std=float(y.std()),
            min=float(y.min()),
            max=float(y.max()),
        )
    ]
    return float((preds == labels).mean()), preds, stats


def simulate_accuracy(geom: CoreGeometry, noise: NoiseSpec, n_samples: int = 60):
    """(accuracy, predictions, labels, layer statistics) of the bundled model.

    The images are ``make_dataset(n_samples, seed=DATA_SEED)``, the fixed draw ``simulate`` classifies.
    """
    images, labels = make_dataset(n_samples, seed=DATA_SEED)
    accuracy, preds, stats = run_tinycnn(images, labels, geom, noise)
    return accuracy, preds, labels, stats
