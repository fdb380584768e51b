"""Simulator workloads: ResNet-50 layer shapes and the bundled tiny CNN.

Both drive the same analog datapath (``conv.run_conv`` -> ``engine``) from
opposite ends. ``sim-resnet-layers`` runs six layer shapes of the bundled
ResNet-50 workload, from one wide tile at 4096 positions (memory-bound) to 64
tiles at 64 positions (per-tile overhead). ``sim-tinycnn`` runs the
``simulate`` command, thousands of 9x3x36 tiles per pass, where per-call RNG
keying, quantization and padding dominate.

Checks: an untimed zero-noise pass on unit-step integer grids must equal an
independent integer convolution exactly (every seed); timed outputs must be
finite and identical on every pass; where ``digests.json`` holds a digest for
the same inputs (recorded at the seed commit for seed 0), they must match it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from checks import Checks, strict_json, text_digest
from designspace import call, option
from calibrate import LARGE_ARRAYS, SMALL_ARRAYS, Clock
from wavecore import conv
from wavecore.engine import DIFFERENTIAL_PAIR, ZERO_NOISE, NoiseSpec, QuantSpec
from wavecore.linkbudget import CoreGeometry
from wavecore.synth import simulate_accuracy
from wavecore.workload import ConvLayerSpec, resnet50_workload

CORE = CoreGeometry(144, 256)
RESNET_SHAPES = ("layer1.0.conv3", "layer1.1.conv2", "layer2.1.conv2",
                 "layer3.1.conv2", "layer4.0.conv2", "layer4.1.conv3")
IN_QUANT = QuantSpec(bits=6, lo=0.0, hi=1.0)
W_QUANT = QuantSpec(bits=7, lo=-1.0, hi=1.0, signed_mode=DIFFERENTIAL_PAIR)
# Unit-step grids: every level is an integer, so the datapath is exact.
INT_IN_QUANT = QuantSpec(bits=6, lo=0.0, hi=63.0)
INT_W_QUANT = QuantSpec(bits=7, lo=-127.0, hi=127.0, signed_mode=DIFFERENTIAL_PAIR)
SMOKE_SCALE = 8      # smoke runs shrink every feature map by this factor per side

TINY_SIGMAS_IN = (0.0, 0.0031, 0.01, 0.03)
TINY_NOISE_SEEDS = 2
TINY_SAMPLES = 60
TINY_ORACLE_PATCHES = 16


def reference_conv(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Valid convolution through sliding windows; shares no code with the program."""
    k = w.shape[-1]
    windows = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return np.tensordot(w, windows, axes=([1, 2, 3], [0, 3, 4]))


def array_digest(y: np.ndarray) -> str:
    """Digest of an output rounded to 1e-6, so last-bit summation differences
    between BLAS builds do not count as a change."""
    return hashlib.sha256((np.round(y, 6) + 0.0).tobytes()).hexdigest()[:16]


def _input_shape(layer: ConvLayerSpec) -> tuple[int, int, int]:
    side = (layer.h_out - 1) * layer.stride + layer.kernel
    return layer.c_in, side, side


# ---------------------------------------------------------------------------
# sim-resnet-layers
# ---------------------------------------------------------------------------

def resnet_layers(smoke: bool) -> list[tuple[int, ConvLayerSpec]]:
    by_name = {layer.name: layer for layer in resnet50_workload(256)}
    out = []
    for index, name in enumerate(RESNET_SHAPES, start=1):
        layer = by_name[name]
        if smoke:
            side = max(1, layer.h_out // SMOKE_SCALE)
            layer = ConvLayerSpec(name, layer.c_in, layer.c_out, layer.kernel, side, side, layer.stride)
        out.append((index, layer))
    return out


def run_resnet_layer(layer: ConvLayerSpec, index: int, x, w, in_quant, w_quant, noise):
    # through the module attribute, so a traced pass sees the wrapped function
    return conv.run_conv(x, w, CORE, in_quant, w_quant, None, noise,
                         stride=layer.stride, pack_pointwise=True, layer_index=index)


class ResnetLayers:
    """Closed loop over six layer shapes; one op is one million layer MACs."""

    TRACK_MEMORY = True
    OP = "MMAC"

    def __init__(self, seed: int, smoke: bool, recorded: dict[str, str]):
        self.seed = seed
        self.layers = resnet_layers(smoke)
        rng = np.random.default_rng(seed)
        self.inputs = [(rng.random(_input_shape(layer)),
                        rng.uniform(-1.0, 1.0, (layer.c_out, layer.c_in, layer.kernel, layer.kernel)))
                       for _, layer in self.layers]
        self.oracle_rng = np.random.default_rng([seed, 1])
        self.noise = NoiseSpec(seed=seed)
        self.checks = Checks(recorded)

    @staticmethod
    def warmup() -> None:
        """One call of the workload's kind: the smoke-size second shape."""
        index, layer = resnet_layers(smoke=True)[1]
        rng = np.random.default_rng(0)
        x = rng.random(_input_shape(layer))
        w = rng.uniform(-1.0, 1.0, (layer.c_out, layer.c_in, layer.kernel, layer.kernel))
        run_resnet_layer(layer, index, x, w, IN_QUANT, W_QUANT, NoiseSpec())

    def _key(self, layer: ConvLayerSpec) -> str:
        c, h, _ = _input_shape(layer)
        return f"{layer.name} {c}x{h}x{h}->{layer.c_out} seed={self.seed}"

    def prepare(self) -> None:
        """Zero-noise oracle pass on unit-step grids; also warms every shape."""
        for index, layer in self.layers:
            x = self.oracle_rng.integers(0, 64, _input_shape(layer)).astype(np.float64)
            w = self.oracle_rng.integers(-127, 128, (layer.c_out, layer.c_in, layer.kernel, layer.kernel))
            w = w.astype(np.float64)
            got = run_resnet_layer(layer, index, x, w, INT_IN_QUANT, INT_W_QUANT, ZERO_NOISE)
            self.checks.count(np.array_equal(got, reference_conv(x, w, layer.stride)))

    def run_pass(self, tracer=None) -> dict:
        clock, macs, results = Clock(LARGE_ARRAYS, samples=5), 0, []
        for (index, layer), (x, w) in zip(self.layers, self.inputs):
            y = clock.call(tracer, f"layer.{layer.name}", run_resnet_layer,
                           layer, index, x, w, IN_QUANT, W_QUANT, self.noise)
            macs += layer.weight_count * layer.positions
            results.append((self._key(layer), array_digest(y), bool(np.all(np.isfinite(y)))))
        return {"ops": macs / 1e6, "seconds": clock.seconds, "ref_seconds": clock.ref_seconds,
                "results": results, "bytes_out": 0}

    def check_pass(self, results) -> None:
        for key, value, finite in results:
            self.checks.digest(key, value, finite)


# ---------------------------------------------------------------------------
# sim-tinycnn
# ---------------------------------------------------------------------------

def tiny_grid(seed: int, smoke: bool) -> list[list[str]]:
    rnd = random.Random(seed)
    noise_seeds = [rnd.randrange(1_000_000) for _ in range(TINY_NOISE_SEEDS)]
    samples = "4" if smoke else str(TINY_SAMPLES)
    return [["simulate", "--seed", str(noise_seed), "--sigma-in", str(sigma),
             "--samples", samples, "--format", "json"]
            for noise_seed in noise_seeds for sigma in TINY_SIGMAS_IN]


def _simulate_ok(argv: list[str], out: str, rc: int) -> bool:
    samples = int(option(argv, "--samples"))
    try:
        doc = strict_json(out)
        stats = doc["layers"][0]
        return (
            rc == 0
            and doc["samples"] == samples
            and 0.0 <= doc["accuracy"] <= 1.0
            and math.isclose(doc["accuracy"] * samples, round(doc["accuracy"] * samples), abs_tol=1e-6)
            and stats["min"] <= stats["mean"] <= stats["max"]
            and stats["std"] >= 0.0
        )
    except (ValueError, KeyError, IndexError, TypeError):
        return False


class TinyCnn:
    """Closed loop over a grid of ``simulate`` runs; one op is one sample."""

    TRACK_MEMORY = False
    OP = "sample"

    def __init__(self, seed: int, smoke: bool, recorded: dict[str, str]):
        self.grid = tiny_grid(seed, smoke)
        self.oracle_rng = np.random.default_rng([seed, 2])
        self.checks = Checks(recorded)

    @staticmethod
    def warmup() -> None:
        """One ``simulate`` at its defaults."""
        call(["simulate", "--format", "json"])

    def prepare(self) -> None:
        """Oracle on the tinycnn tile shape, prediction digest, one warm pass."""
        for _ in range(TINY_ORACLE_PATCHES):
            x = self.oracle_rng.integers(0, 64, (1, 8, 8)).astype(np.float64)
            w = self.oracle_rng.integers(-127, 128, (3, 1, 3, 3)).astype(np.float64)
            got = conv.run_conv(x, w, CORE, INT_IN_QUANT, INT_W_QUANT, None, ZERO_NOISE)
            self.checks.count(np.array_equal(got, reference_conv(x, w, 1)))
        argv = self.grid[1]
        noise = NoiseSpec(sigma_in=float(option(argv, "--sigma-in")), seed=int(option(argv, "--seed")))
        accuracy, preds, _, _ = simulate_accuracy(CORE, noise, n_samples=int(option(argv, "--samples")))
        out, rc = call(argv)
        same = _simulate_ok(argv, out, rc) and math.isclose(json.loads(out)["accuracy"], accuracy, rel_tol=1e-8)
        self.checks.digest("predictions " + " ".join(argv),
                           hashlib.sha256(preds.astype(np.int64).tobytes()).hexdigest()[:16], same)
        self.check_pass(self.run_pass()["results"])

    def run_pass(self, tracer=None) -> dict:
        clock, samples, results = Clock(SMALL_ARRAYS, samples=3), 0, []
        for argv in self.grid:
            out, rc = clock.call(tracer, "cli", call, argv)
            samples += int(option(argv, "--samples"))
            results.append((argv, out, rc))
        return {"ops": samples, "seconds": clock.seconds, "ref_seconds": clock.ref_seconds,
                "results": results, "bytes_out": sum(len(out.encode()) for _, out, _ in results)}

    def check_pass(self, results) -> None:
        for argv, out, rc in results:
            self.checks.digest(" ".join(argv), text_digest(out, rc), _simulate_ok(argv, out, rc))

