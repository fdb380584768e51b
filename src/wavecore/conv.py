"""Functional convolution execution on the analog engine, plus a reference oracle.

``conv_oracle`` computes the convolution directly from the sliding-window
definition and never touches the lowering or the engine; it exists so the
lowered path can be checked against an independent route. ``run_conv`` is the
production path: row tiling at wavelength-group granularity, im2col lowering
of one row tile at a time, engine evaluation per tile, digital partial-sum
accumulation. It takes one image or a batch of them and makes one engine call
per tile for each chunk of up to ``_IMAGE_CHUNK`` images.
"""

from __future__ import annotations

import dataclasses

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


def _windows(activations: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The strided k x k window view of the float64 input: (..., c_in, h_out, w_out, k, k)."""
    arr = np.asarray(activations, dtype=np.float64)
    return sliding_window_view(arr, (k, k), axis=(-2, -1))[..., ::stride, ::stride, :, :]


def _columns(windows: np.ndarray) -> np.ndarray:
    """The im2col rows of a window view (..., c, h_out, w_out, k, k): (..., c*k*k, h_out*w_out)."""
    *lead, c, h_out, w_out, k, _ = windows.shape
    return np.moveaxis(windows, (-2, -1), (-4, -3)).reshape(*lead, c * k * k, h_out * w_out)


def im2col(activations: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """Flatten receptive fields to columns: (c_in*k*k, h_out*w_out).

    Row order is channel-major: rows [c*k*k, (c+1)*k*k) hold channel c's taps
    in (ky, kx) order, matching the per-group tap assignment of the array.
    Leading axes are kept: (B, c_in, h, w) gives (B, c_in*k*k, h_out*w_out).
    One strided window view of the float64 input, copied by the reshape; a 1x1
    stride-1 input needs no copy and gives a read-only view of the input.
    """
    return _columns(_windows(activations, k, stride))


def lowered_weight_matrix(weights: np.ndarray) -> np.ndarray:
    """Stack kernels into the (c_in*k*k) x c_out matrix matching im2col rows."""
    return weights.reshape(len(weights), -1).T.copy()


# Images per pass of run_conv over its tiles: the engine's arrays grow with
# the images of one pass, so a batch of any size holds those of at most this
# many at once.
_IMAGE_CHUNK = 256


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
    detector span of ``ROWS_PER_DETECTOR`` rows). A row tile's im2col rows
    are cut from the window view of the input when the walk reaches the tile,
    and serve all its column tiles; a tile's weights are read from
    ``weights`` in place, transposed. So neither the layer's im2col nor a
    copy of its weight matrix is ever built.

    The batch runs in chunks of up to ``_IMAGE_CHUNK`` images, one engine
    call per tile and chunk, and image ``b`` draws the noise of seed
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
    per_pass = lower_conv(layer, geom, pack_pointwise=pack_pointwise).channels_per_pass

    windows = _windows(images, k, stride)
    y = np.zeros((batch, c_out, h_out * w_out))
    for b0 in range(0, batch, _IMAGE_CHUNK):
        chunk = slice(b0, b0 + _IMAGE_CHUNK)
        chunk_noise = dataclasses.replace(noise, seed=noise.seed + b0)
        tile = 0
        for ch0 in range(0, c_in, per_pass):
            channels = slice(ch0, ch0 + per_pass)
            x_rows = _columns(windows[chunk, channels])
            for c0 in range(0, c_out, geom.cols):
                cols = slice(c0, c0 + geom.cols)
                kernels = weights[cols, channels]
                w_tile = kernels.reshape(len(kernels), -1).T    # a view, if weights is C-contiguous
                y[chunk, cols] += noisy_mvm(x_rows, w_tile, in_quant, w_quant, out_quant, chunk_noise,
                                            layer=layer_index, tile=tile)
                tile += 1
    y = y.reshape(batch, c_out, h_out, w_out)
    return y if batched else y[0]
