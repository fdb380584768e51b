"""Desk-scale functional simulator of the analog matrix-vector datapath.

The pipeline mirrors the physical chain: uniform quantization of inputs and
weights, signal-proportional Gaussian perturbations, per-wavelength-group
optical products, multi-port detector summation, readout noise, output
quantization, and digital accumulation of partial sums. At zero noise and on
integer-aligned grids the pipeline is exact, which is what the reference
integer oracle in the test suite checks against.

Accumulation order is fixed: each bus sums its rows in row order, each
detector sums its buses in bus order (a short last bus or detector sums as if
zero-padded to full size), and detector readings are summed digitally in
detector order. The products are never built whole: the tile is walked in
cache-sized blocks of cols x positions with the longer axis innermost, each
detector's first bus reduced into the block's running sum and every later bus
added to it. With 9-row buses the scratch is about 0.7 MiB on top of the
detectors x cols x positions output.

Every operation takes a batch: ``noisy_mvm``'s inputs are B x rows x
positions (a single tile is a batch of one), and ``inject_noise`` draws each
item of an array's leading axis from its own generator. Shared weights and
the batch's inputs are quantized once per call; only the noise is drawn per item, item ``b`` from
the streams of seed ``noise.seed + b``. A batch is therefore bit-identical to
B separate calls. In the kernel the batch is the outermost block axis: small
tiles share a block while one bus's products fit in 2^13 elements, so the
scratch does not grow with the batch.

The kernel turns numpy's ufunc buffering off (a buffer size of 16, the
smallest numpy accepts) and restores the caller's buffer size on return.
Buffered, numpy copies each broadcast operand of the per-bus multiply into
8192-element buffers whenever the inner axis is shorter than about 4096,
which triples the cost of a product; the copy changes no bits. Per product
on one 144 x 256 tile (2-vCPU x86 KVM guest, numpy 2.4, median of 9):

    positions   inner axis       buffered   unbuffered
         4096   4096 positions    0.91 ns      0.93 ns
         1024   1024 positions    2.09 ns      0.96 ns
          256    256 positions    1.64 ns      1.07 ns
           64    256 cols         1.89 ns      1.19 ns

The buffer size holds for the whole block loop, so the reductions run under
it too. Only numpy 2.4, the floor in pyproject.toml, has been measured.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .catalog import PcmSpec, check_number
from .linkbudget import WAVELENGTHS_PER_GROUP
from .rng import keyed_streams

NON_NEGATIVE = "non_negative"
DIFFERENTIAL_PAIR = "differential_pair"


class PcmRefreshError(RuntimeError):
    """A weight cell was rewritten faster than its update cycle allows."""


@dataclass(frozen=True)
class QuantSpec:
    """Uniform quantizer: 2^bits levels with endpoints on [lo, hi].

    Level ``i`` dequantizes to ``lo + i*(hi-lo)/(2^bits - 1)``; values outside
    the range clamp to the boundary levels, and exact midpoints round half
    away from zero.

    ``signed_mode`` describes how signed values map onto non-negative optical
    intensities: ``non_negative`` rejects a negative range, while
    ``differential_pair`` splits a symmetric range onto a positive and a
    negative column pair whose detector readings are subtracted digitally.
    """

    bits: int
    lo: float = 0.0
    hi: float = 1.0
    signed_mode: str = NON_NEGATIVE

    def __post_init__(self) -> None:
        check_number("bits", self.bits, integer=True, ge=1, le=16)
        check_number("lo", self.lo)
        check_number("hi", self.hi)
        if not self.hi > self.lo:
            raise ValueError(f"range must satisfy hi > lo, got [{self.lo}, {self.hi}]")
        if self.signed_mode not in (NON_NEGATIVE, DIFFERENTIAL_PAIR):
            raise ValueError(f"unknown signed_mode {self.signed_mode!r}")

    @property
    def levels(self) -> int:
        return 2 ** self.bits

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.levels - 1)


@dataclass(frozen=True)
class NoiseSpec:
    """Relative (signal-proportional) noise levels for the three injection points."""

    sigma_in: float = 0.0031
    sigma_w: float = 0.01
    sigma_out: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        check_number("sigma_in", self.sigma_in, ge=0.0)
        check_number("sigma_w", self.sigma_w, ge=0.0)
        check_number("sigma_out", self.sigma_out, ge=0.0)
        check_number("seed", self.seed, integer=True)


ZERO_NOISE = NoiseSpec(sigma_in=0.0, sigma_w=0.0, sigma_out=0.0, seed=0)


@dataclass(frozen=True)
class AccumulationTree:
    """Hierarchical summation shape: wavelengths per bus, buses per detector.

    Level 1 sums ``group_size`` row products on a shared bus (by default one
    wavelength group, ``WAVELENGTHS_PER_GROUP`` rows), level 2 sums up to
    ``pd_ports`` buses in one detector's photocurrent, level 3 adds detector
    readings digitally.
    """

    group_size: int = WAVELENGTHS_PER_GROUP
    pd_ports: int = 16

    def __post_init__(self) -> None:
        check_number("group_size", self.group_size, integer=True, ge=1)
        check_number("pd_ports", self.pd_ports, integer=True, ge=1)


def quantize(x, q: QuantSpec):
    """Quantize an array to the nearest grid level.

    Returns (level indices, dequantized values), two arrays of ``x``'s shape.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError(f"quantize needs an array of at least one dimension, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize requires finite inputs")
    # In place where possible, so a batch holds two full-size temporaries:
    # t is the position on the grid, then its fractional part.
    t = arr - q.lo
    t /= q.step
    idx = np.floor(t)
    t -= idx
    # Midpoint ties resolve away from zero (toward the higher level for
    # non-negative values, the lower one for negative values).
    up = t == 0.5
    up &= arr >= 0.0
    up |= t > 0.5
    del t
    idx += up
    np.clip(idx, 0, q.levels - 1, out=idx)
    levels = idx.astype(np.int64)
    value = idx                                                # lo + level * step, in place
    value *= q.step
    value += q.lo
    return levels, value


def inject_noise(q_value, sigma: float, streams):
    """Add zero-mean Gaussian noise with standard deviation sigma*|value| to a batch.

    ``q_value`` is an array of items along its leading axis (at least 2-D),
    and ``streams`` an iterable of generators, one per item: item ``i``'s
    noise is ``standard_normal`` of the item's shape from the ``i``-th
    generator. Items are drawn in order and each generator is used before the
    next is taken, so ``streams`` may hand out one generator re-keyed per item
    (``rng.keyed_streams``), and at sigma zero it is not iterated at all.

    Exactly the identity when sigma is zero (no RNG draw is consumed), and
    exactly zero-preserving since the noise scale is proportional to the
    signal magnitude.
    """
    check_number("sigma", sigma, ge=0.0)
    arr = np.asarray(q_value, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"inject_noise needs a leading item axis (items, ...), got shape {arr.shape}")
    if sigma == 0.0:
        return arr
    # arr + standard_normal * (sigma * |arr|), in two full-size buffers
    out = np.empty(arr.shape)
    for item, item_rng in zip(out, streams, strict=True):
        item_rng.standard_normal(out=item)
    scale = np.abs(arr)
    scale *= sigma
    out *= scale
    out += arr
    return out


# cols x positions elements per block: one bus's products (group_size x 64 KiB)
# and the block's two running sums stay in a core's L2 cache between the
# multiply and the reductions, and the inner loops are still long enough that
# numpy's per-call overhead costs little.
_BLOCK = 1 << 13

# The kernel's ufunc buffer size (see the module docstring): numpy buffers a
# broadcast operand only when the inner axis is shorter than about half of
# it, and it must be a multiple of 16.
_UNBUFFERED_BUFSIZE = 16


def _even_spans(n: int, width: int) -> tuple[list[tuple[int, int]], int]:
    """The fewest near-equal spans of range(n) at most ``width`` long, and the longest."""
    count = max(1, -(-n // width))
    bounds = [i * n // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:])), -(-n // count)


def _detector_sums(x: np.ndarray, w: np.ndarray, tree: AccumulationTree) -> np.ndarray:
    """Per-detector sums of ``w[b, r, c] * x[b, r, p]``, shape (batch, detectors, cols, positions).

    ``x`` is (batch, rows, positions) and ``w`` (batch, rows, cols). The tile
    is walked in blocks of about ``_BLOCK`` cols x positions elements with the
    longer of the two axes innermost; items of the batch share a block while
    a bus's products fit in ``_BLOCK`` elements. Per block and detector, the
    first bus's (rows_in_bus, block) products are reduced with
    ``np.add.reduce(axis=0)`` into a running block sum, and every later bus
    is reduced into a scratch block and added to it. numpy starts a
    reduction from +0.0, so the additions run in row order, then bus order,
    and give each item the bits its zero-padded rows x cols x positions
    product tensor would give, signed zeros included; that tensor is never
    built.

    The loop runs with ufunc buffering off, and the caller's
    ``np.getbufsize()`` is restored on return. Buffering decides only how
    numpy chunks the operands, not which additions run or in what order, so
    the bits are the same (checked on numpy 2.4).
    """
    batch, rows, cols = w.shape
    positions = x.shape[2]
    group, ports = tree.group_size, tree.pd_ports
    buses = -(-rows // group)
    detectors = -(-buses // ports)
    if cols * positions == 1:
        # numpy sums a reduction into a single element pairwise, not in
        # order, so a one-element tile keeps the zero-padded reductions.
        padded = np.zeros((batch, detectors * ports * group))
        padded[:, :rows] = w[:, :, 0] * x[:, :, 0]
        sums = padded.reshape(batch, detectors, ports, group).sum(axis=3).sum(axis=2)
        return sums.reshape(batch, detectors, 1, 1)

    level2 = np.empty((batch, detectors, cols, positions))
    # outer[r, b, o] * inner[r, b, i] is written to out[b, d, o, i], inner the
    # long axis. Even spans keep every block at least two elements wide, so
    # no block is summed pairwise.
    if positions < cols:
        outer, inner, out = x, w, level2.transpose(0, 1, 3, 2)
    else:
        outer, inner, out = w, x, level2
    outer, inner = outer.transpose(1, 0, 2), inner.transpose(1, 0, 2)
    inner_spans, inner_width = _even_spans(inner.shape[2], _BLOCK)
    outer_spans, outer_width = _even_spans(outer.shape[2], max(1, _BLOCK // inner_width))
    # items share a block only while all of a bus's products fit in _BLOCK
    # elements: a batch of small tiles saves numpy calls, and its scratch is
    # no larger than one item's
    batch_spans, batch_width = _even_spans(batch, max(1, _BLOCK // (group * outer_width * inner_width)))
    block = batch_width * outer_width * inner_width
    products_buf = np.empty(group * block)
    sum_buf = np.empty(block)
    bus_buf = np.empty(block)

    # errstate restores the caller's buffer size on exit, also on an error
    with np.errstate():
        np.setbufsize(_UNBUFFERED_BUFSIZE)
        for b0, b1 in batch_spans:
            for o0, o1 in outer_spans:
                for i0, i1 in inner_spans:
                    shape = (b1 - b0, o1 - o0, i1 - i0)
                    size = shape[0] * shape[1] * shape[2]
                    level = sum_buf[:size].reshape(shape)
                    bus = bus_buf[:size].reshape(shape)
                    a = outer[:, b0:b1, o0:o1, None]
                    b = inner[:, b0:b1, None, i0:i1]
                    for d in range(detectors):
                        first = d * ports * group
                        for r0 in range(first, min(first + ports * group, rows), group):
                            r1 = min(r0 + group, rows)
                            products = products_buf[: (r1 - r0) * size].reshape((r1 - r0,) + shape)
                            np.multiply(a[r0:r1], b[r0:r1], out=products)
                            if r0 == first:
                                np.add.reduce(products, axis=0, out=level)
                            else:
                                np.add.reduce(products, axis=0, out=bus)
                                level += bus
                        out[b0:b1, d, o0:o1, i0:i1] = level
    return level2


def _streams(noise: NoiseSpec, batch: int, layer: int, tile: int, role: str) -> Iterator[np.random.Generator]:
    """One generator per batch item, lazily: item ``b`` draws from the stream of seed ``noise.seed + b``."""
    return keyed_streams(range(noise.seed, noise.seed + batch), "mvm", layer, tile, role)


def _mvm_non_negative(
    x_eq: np.ndarray,
    w_values: np.ndarray,
    out_quant: QuantSpec | None,
    noise: NoiseSpec,
    tree: AccumulationTree,
    layer: int,
    tile: int,
    w_role: str,
) -> np.ndarray:
    batch = x_eq.shape[0]
    # the shared weight grid, perturbed per item (a broadcast view at sigma_w = 0)
    w_batch = np.broadcast_to(w_values, (batch,) + w_values.shape)
    w_eq = inject_noise(w_batch, noise.sigma_w, _streams(noise, batch, layer, tile, w_role))
    level2 = _detector_sums(x_eq, w_eq, tree)

    level2 = inject_noise(level2, noise.sigma_out, _streams(noise, batch, layer, tile, w_role + "/out"))
    if out_quant is not None:
        _, level2 = quantize(level2, out_quant)
    return level2.sum(axis=1)                                  # digital across detectors


def noisy_mvm(
    x,
    weights,
    in_quant: QuantSpec,
    w_quant: QuantSpec,
    out_quant: QuantSpec | None = None,
    noise: NoiseSpec = ZERO_NOISE,
    tree: AccumulationTree = AccumulationTree(),
    *,
    layer: int = 0,
    tile: int = 0,
) -> np.ndarray:
    """y = W^T x through the quantized, noisy, hierarchically-accumulated datapath.

    ``x`` is a B x R x P batch of R x P input matrices (P positions evaluated
    together; one tile is a batch of one), ``weights`` is R x C and the result
    is B x C x P. Inputs and weights are quantized on their grids, perturbed
    by signal-proportional noise, multiplied per cell, summed per wavelength
    group, then per detector; each detector reading picks up readout noise
    and, when ``out_quant`` is given, is digitized before the final digital
    sum. Results are a deterministic function of (seed, layer, tile,
    operands). Batch item ``b`` draws its noise from the streams of seed
    ``noise.seed + b``, so it equals, bit for bit, a call on ``x[b:b+1]``
    alone with that seed.

    In ``differential_pair`` weight mode, signed weights are carried by a
    positive/negative column pair on the magnitude grid and subtracted after
    readout, matching a two-column physical encoding.
    """
    x_batch = np.asarray(x, dtype=np.float64)
    w_arr = np.asarray(weights, dtype=np.float64)
    if w_arr.ndim != 2:
        raise ValueError(f"weights must be 2-D (rows x cols), got shape {w_arr.shape}")
    if x_batch.ndim != 3 or x_batch.shape[1] != w_arr.shape[0]:
        raise ValueError(f"operand shapes do not agree: x {x_batch.shape} (B x R x P), weights {w_arr.shape} (R x C)")
    if in_quant.lo < 0.0:
        raise ValueError("input intensities are non-negative; in_quant range must start at >= 0")

    # one input draw per item and tile: both weight legs see the same optical inputs
    x_eq = inject_noise(
        quantize(x_batch, in_quant)[1], noise.sigma_in, _streams(noise, len(x_batch), layer, tile, "in")
    )

    if w_quant.signed_mode == DIFFERENTIAL_PAIR:
        span = max(abs(w_quant.lo), abs(w_quant.hi))
        leg_quant = QuantSpec(bits=w_quant.bits, lo=0.0, hi=span)
        _, w_pos = quantize(np.maximum(w_arr, 0.0), leg_quant)
        _, w_neg = quantize(np.maximum(-w_arr, 0.0), leg_quant)
        y_pos = _mvm_non_negative(x_eq, w_pos, out_quant, noise, tree, layer, tile, "w+")
        y_neg = _mvm_non_negative(x_eq, w_neg, out_quant, noise, tree, layer, tile, "w-")
        return y_pos - y_neg
    if w_quant.lo < 0.0:
        raise ValueError("non_negative weight mode cannot represent a negative range")
    _, w_values = quantize(w_arr, w_quant)
    return _mvm_non_negative(x_eq, w_values, out_quant, noise, tree, layer, tile, "w")


# ---------------------------------------------------------------------------
# Weight cell programming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramEvent:
    """One array-wide write: cell count and the optical energies it cost."""

    t_ns: float
    cells: int
    program_pj: float
    erase_pj: float


@dataclass
class PcmProgrammer:
    """Tracks per-cell write times to enforce the refresh ceiling and logs energy.

    One instance models one physical bank of cells; programming a weight
    matrix writes every cell of the matrix in parallel (the optical
    programming array addresses all cells at once), taking one full
    erase+program cycle.
    """

    pcm: PcmSpec
    seed: int = 0

    def __post_init__(self) -> None:
        self._last_write_ns: np.ndarray | None = None
        self.events: list[ProgramEvent] = []

    def program(self, weights, *, t_ns: float = 0.0, layer: int = 0, tile: int = 0):
        """Quantize ``weights`` (values in [0, 1]) to cell levels with programming noise.

        Returns (levels, programmed values). Raises :class:`PcmRefreshError`
        if any cell would be rewritten before its cycle time has elapsed.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("weights must lie in [0, 1] (cell transmission range)")

        if self._last_write_ns is None:
            self._last_write_ns = np.full(w.shape, -np.inf)
        elif self._last_write_ns.shape != w.shape:
            raise ValueError(
                f"bank holds {self._last_write_ns.shape} cells, cannot program {w.shape}"
            )
        elapsed = t_ns - self._last_write_ns
        cycle = self.pcm.cycle_time_ns
        if np.any(elapsed < cycle):
            idx = tuple(np.argwhere(elapsed < cycle)[0])
            raise PcmRefreshError(
                f"cell {idx} rewritten {elapsed[idx]:.0f} ns after previous write; "
                f"minimum interval is {cycle:.0f} ns"
            )
        self._last_write_ns.fill(t_ns)

        spec = QuantSpec(bits=self.pcm.levels_bits, lo=0.0, hi=1.0)
        levels, values = quantize(w, spec)
        values = inject_noise(values[None], self.pcm.program_std, keyed_streams((self.seed,), "pcm", layer, tile))[0]

        self.events.append(
            ProgramEvent(
                t_ns=t_ns,
                cells=w.size,
                program_pj=w.size * self.pcm.program_energy_pj,
                erase_pj=w.size * self.pcm.erase_energy_pj,
            )
        )
        return levels, values

    @property
    def total_program_pj(self) -> float:
        return sum(e.program_pj for e in self.events)

    @property
    def total_erase_pj(self) -> float:
        return sum(e.erase_pj for e in self.events)


def unit_step_out_quant(max_value: float) -> QuantSpec:
    """Output quantizer whose grid step is exactly 1, lossless on integers.

    Only representable up to 16-bit grids; raises if ``max_value`` needs more.
    """
    bits = max(1, math.ceil(math.log2(max_value + 1)))
    if bits > 16:
        raise ValueError(f"integer range 0..{max_value:.0f} needs {bits} bits (> 16)")
    return QuantSpec(bits=bits, lo=0.0, hi=float(2 ** bits - 1))
