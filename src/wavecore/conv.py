"""Functional convolution execution on the analog engine, plus a reference oracle.

``conv_oracle`` computes the convolution directly from the sliding-window
definition and never touches the lowering or the engine; it exists so the
lowered path can be checked against an independent route. ``run_conv`` is the
production path: im2col lowering, row tiling at wavelength-group granularity,
engine evaluation per tile, digital partial-sum accumulation. It takes one
image or a batch of them and makes one engine call per tile either way.
"""

from __future__ import annotations

import numpy as np

from .engine import NoiseSpec, QuantSpec, ZERO_NOISE, noisy_mvm, unit_step_out_quant
from .linkbudget import CoreGeometry
from .workload import ConvLayerSpec, lower_conv


def conv_oracle(activations: np.ndarray, weights: np.ndarray, stride: int = 1) -> np.ndarray:
    """Valid (no padding) convolution straight from the definition.

    activations: (c_in, h, w); weights: (c_out, c_in, k, k). Loops over output
    positions and taps; intentionally naive.
    """
    c_in, h, w = activations.shape
    c_out, c_in_w, k, _ = weights.shape
    if c_in_w != c_in:
        raise ValueError(f"channel mismatch: activations {c_in}, weights {c_in_w}")
    h_out = (h - k) // stride + 1
    w_out = (w - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for oc in range(c_out):
        for oy in range(h_out):
            for ox in range(w_out):
                acc = 0.0
                for ic in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            acc += (
                                weights[oc, ic, ky, kx]
                                * activations[ic, oy * stride + ky, ox * stride + kx]
                            )
                out[oc, oy, ox] = acc
    return out


def im2col(activations: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """Flatten receptive fields to columns: (c_in*k*k, h_out*w_out).

    Row order is channel-major: rows [c*k*k, (c+1)*k*k) hold channel c's taps
    in (ky, kx) order, matching the per-group tap assignment of the array.
    Leading axes are kept: (B, c_in, h, w) gives (B, c_in*k*k, h_out*w_out).
    """
    *lead, c_in, h, w = activations.shape
    h_out = (h - k) // stride + 1
    w_out = (w - k) // stride + 1
    cols = np.empty((*lead, c_in * k * k, h_out * w_out))
    for ic in range(c_in):
        for ky in range(k):
            for kx in range(k):
                row = ic * k * k + ky * k + kx
                patch = activations[..., ic, ky : ky + stride * h_out : stride, kx : kx + stride * w_out : stride]
                cols[..., row, :] = patch.reshape(*lead, -1)
    return cols


def lowered_weight_matrix(weights: np.ndarray) -> np.ndarray:
    """Stack kernels into the (c_in*k*k) x c_out matrix matching im2col rows."""
    c_out, c_in, k, _ = weights.shape
    return weights.reshape(c_out, c_in * k * k).T.copy()


def run_conv(
    activations: np.ndarray,
    weights: np.ndarray,
    geom: CoreGeometry,
    in_quant: QuantSpec,
    w_quant: QuantSpec,
    out_quant: QuantSpec | None = None,
    noise: NoiseSpec = ZERO_NOISE,
    *,
    stride: int = 1,
    pack_pointwise: bool = False,
    layer_index: int = 0,
) -> np.ndarray:
    """Execute one conv layer through the lowered, tiled analog datapath.

    ``activations`` is one image (c_in, h, w) or a batch (B, c_in, h, w); the
    result is (c_out, h_out, w_out) or (B, c_out, h_out, w_out). Row tiles
    honor the geometry's per-pass channel capacity; partial sums accumulate
    digitally across row tiles, and column tiles are evaluated independently
    (the engine handles each tile's columns in one call, on its default
    ``AccumulationTree``). Each tile is one engine call for the whole batch,
    and image ``b`` draws the noise of seed ``noise.seed + b``, so it equals a
    call on that image alone with that seed.
    """
    batched = activations.ndim == 4
    images = activations if batched else activations[None]
    batch, c_in, h, w = images.shape
    c_out, _, k, _ = weights.shape
    h_out = (h - k) // stride + 1
    w_out = (w - k) // stride + 1
    layer = ConvLayerSpec(f"layer{layer_index}", c_in, c_out, k, h_out, w_out, stride)
    dims = lower_conv(layer, geom, pack_pointwise=pack_pointwise)

    x_cols = im2col(images, k, stride)
    w_mat = lowered_weight_matrix(weights)

    y = np.zeros((batch, c_out, h_out * w_out))
    taps = k * k
    tile = 0
    for rt in range(dims.tiles_row):
        ch_lo = rt * dims.channels_per_pass
        ch_hi = min(ch_lo + dims.channels_per_pass, c_in)
        rows = slice(ch_lo * taps, ch_hi * taps)
        for ct in range(dims.tiles_col):
            col_lo = ct * geom.cols
            col_hi = min(col_lo + geom.cols, c_out)
            y[:, col_lo:col_hi] += noisy_mvm(
                x_cols[:, rows],
                w_mat[rows, col_lo:col_hi],
                in_quant,
                w_quant,
                out_quant,
                noise,
                layer=layer_index,
                tile=tile,
            )
            tile += 1
    y = y.reshape(batch, c_out, h_out, w_out)
    return y if batched else y[0]


def integer_out_quant(in_quant: QuantSpec, w_quant: QuantSpec, rows: int) -> QuantSpec:
    """Unit-step output quantizer wide enough for any integer-grid partial sum.

    It sizes for the largest |y| a ``rows``-row dot product can reach:
    ``rows * max|x| * max|w|``, with each maximum taken over its quantizer's
    ``lo`` and ``hi``.
    """
    x_max = max(abs(in_quant.lo), abs(in_quant.hi))
    w_max = max(abs(w_quant.lo), abs(w_quant.hi))
    return unit_step_out_quant(rows * x_max * w_max)
