"""Functional convolution execution on the analog engine, plus a reference oracle.

``conv_oracle`` computes the convolution directly from the sliding-window
definition and never touches the lowering or the engine; it exists so the
lowered path can be checked against an independent route. ``run_conv`` is the
production path: im2col lowering, row tiling at wavelength-group granularity,
engine evaluation per tile, digital partial-sum accumulation. It takes one
image or a batch of them and makes one engine call per tile either way.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import check_number
from .engine import NoiseSpec, QuantSpec, ZERO_NOISE, noisy_mvm
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
    One strided window view of the float64 input, copied by the reshape; a 1x1
    stride-1 input needs no copy and gives a read-only view of the input.
    """
    arr = np.asarray(activations, dtype=np.float64)
    windows = sliding_window_view(arr, (k, k), axis=(-2, -1))[..., ::stride, ::stride, :, :]
    *lead, c_in, h_out, w_out, _, _ = windows.shape
    return np.moveaxis(windows, (-2, -1), (-4, -3)).reshape(*lead, c_in * k * k, h_out * w_out)


def lowered_weight_matrix(weights: np.ndarray) -> np.ndarray:
    """Stack kernels into the (c_in*k*k) x c_out matrix matching im2col rows."""
    return weights.reshape(len(weights), -1).T.copy()


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
    pack_pointwise: bool = True,
    layer_index: int = 0,
) -> np.ndarray:
    """Execute one conv layer through the lowered, tiled analog datapath.

    ``activations`` is one image (c_in, h, w) or a batch (B, c_in, h, w), and
    ``weights`` (c_out, c_in, k, k) has the image's channels and a square
    kernel; the result is (c_out, h_out, w_out) or (B, c_out, h_out, w_out).
    Tiles, numbered row-major, are :func:`lower_conv`'s ``channels_per_pass``
    input channels by ``geom.cols`` output channels. Partial sums accumulate
    digitally across row tiles, and column tiles are evaluated independently
    (the engine handles each tile's columns in one call, with its default
    detector span of ``ROWS_PER_DETECTOR`` rows). Each tile is one engine
    call for the whole batch, and image ``b`` draws the noise of seed
    ``noise.seed + b``, so it equals a call on that image alone with that
    seed.
    """
    check_number("stride", stride, integer=True, ge=1)
    if activations.ndim not in (3, 4):
        raise ValueError(f"activations must be (c_in, h, w) or (B, c_in, h, w), got shape {activations.shape}")
    if weights.ndim != 4:
        raise ValueError(f"weights must be (c_out, c_in, k, k), got shape {weights.shape}")
    batched = activations.ndim == 4
    images = activations if batched else activations[None]
    batch, c_in, h, w = images.shape
    c_out, c_in_w, k, k_w = weights.shape
    if c_in_w != c_in:
        raise ValueError(f"channel mismatch: activations {c_in}, weights {c_in_w}")
    if k_w != k:
        raise ValueError(f"kernel must be square, got {k}x{k_w}")
    if h < k or w < k:
        raise ValueError(f"activations of {h}x{w} are smaller than the {k}x{k} kernel of the weights")
    h_out = (h - k) // stride + 1
    w_out = (w - k) // stride + 1
    layer = ConvLayerSpec(f"layer{layer_index}", c_in, c_out, k, h_out, w_out, stride)
    dims = lower_conv(layer, geom, pack_pointwise=pack_pointwise)

    x_cols = im2col(images, k, stride)
    w_mat = lowered_weight_matrix(weights)

    y = np.zeros((batch, c_out, h_out * w_out))
    rows_per_pass = dims.channels_per_pass * k * k
    starts = itertools.product(range(0, c_in * k * k, rows_per_pass), range(0, c_out, geom.cols))
    for tile, (r0, c0) in enumerate(starts):
        rows, cols = slice(r0, r0 + rows_per_pass), slice(c0, c0 + geom.cols)
        y[:, cols] += noisy_mvm(x_cols[:, rows], w_mat[rows, cols], in_quant, w_quant, out_quant, noise,
                                layer=layer_index, tile=tile)
    y = y.reshape(batch, c_out, h_out, w_out)
    return y if batched else y[0]

