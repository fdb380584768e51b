"""Desk-scale functional simulator of the analog matrix-vector datapath.

The pipeline mirrors the physical chain: uniform quantization of inputs and
weights, signal-proportional Gaussian perturbations, per-wavelength-group
optical products, multi-port detector summation, readout noise, output
quantization, and digital accumulation of partial sums. At zero noise and on
integer-aligned grids the pipeline is exact, which is what the reference
integer oracle in the test suite checks against.

A detector sums ``detector_rows`` consecutive rows (by default
``ROWS_PER_DETECTOR``, sixteen buses of nine wavelengths), so detector ``d``
holds rows ``d*detector_rows`` up to ``(d+1)*detector_rows``. Each detector's
sum is one matrix product, so its additions run in the order of the BLAS
build numpy links, and the pinned bits are that build's. Sums on integer
grids are exact in any order. Detector readings are summed digitally in
detector order, in place into the first detector's.
Memory grows as detectors x cols x positions; the rows x cols x positions
products are never built.

Every operation takes a batch: ``noisy_mvm``'s inputs are B x rows x
positions (a single tile is a batch of one), and ``inject_noise`` draws each
item of an array's leading axis from its own generator. Shared weights and
the batch's inputs are quantized once per call, a differential pair's two
legs from one grid of weight magnitudes; only the noise is drawn per item,
item ``b`` from the streams of seed ``noise.seed + b``. The engine adds the
noise in place to the arrays it owns, in cache-sized blocks. Each item is
its own matrix product in the kernel, so a batch is bit-identical to B
separate calls.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .catalog import PcmSpec, check_number
from .linkbudget import WAVELENGTHS_PER_GROUP
from .rng import keyed_streams

NON_NEGATIVE = "non_negative"
DIFFERENTIAL_PAIR = "differential_pair"


class PcmRefreshError(RuntimeError):
    """A weight bank was rewritten faster than its update cycle allows."""


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


# Hierarchical accumulation: a WDM bus carries nine wavelengths (one row
# each), a multi-port detector sums sixteen buses in its photocurrent, and
# detector readings add digitally.
ROWS_PER_DETECTOR = WAVELENGTHS_PER_GROUP * 16


def _grid_index(x, q: QuantSpec) -> np.ndarray:
    """Nearest level of each element of ``x`` on ``q``'s grid, as a new float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError(f"quantize needs an array of at least one dimension, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize requires finite inputs")
    # In place where possible, so besides the result it holds one full-size
    # float temporary, t (the position on the grid, then its fractional
    # part), and boolean masks.
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
    return idx


def _quantized_values(x, q: QuantSpec) -> np.ndarray:
    """``quantize(x, q)[1]``, without building the level indices."""
    value = _grid_index(x, q)
    value *= q.step                                            # lo + level * step, in place
    value += q.lo
    return value


def quantize(x, q: QuantSpec):
    """Quantize an array to the nearest grid level.

    Returns (level indices, dequantized values), two arrays of ``x``'s shape.
    """
    idx = _grid_index(x, q)
    levels = idx.astype(np.int64)
    value = idx                                                # lo + level * step, in place
    value *= q.step
    value += q.lo
    return levels, value


# Elements per block of the noise stage: its two scratch buffers, 64 KiB
# each, stay in cache while a block's draws are scaled and added.
_NOISE_BLOCK = 2 ** 13


def _add_noise(arr: np.ndarray, sigma: float, streams) -> np.ndarray:
    """``arr + standard_normal * (sigma * |arr|)``, written over ``arr``; returns the result.

    ``arr`` is a float64 array that the caller owns, with items along its
    leading axis, and ``streams`` yields one generator per item. At sigma zero
    ``arr`` is returned untouched and nothing is drawn. Otherwise the noise is
    added in place, into a C-ordered copy first if ``arr`` is not C-contiguous
    (each item draws in C order). Items are drawn in order, each generator
    used up before the next is taken, into a block of scratch that holds
    several whole items or part of one; each block is then scaled and added,
    so the stage holds no full-size temporary.
    """
    if sigma == 0.0:
        return arr
    arr = np.ascontiguousarray(arr)
    flat = arr.reshape(-1)
    items = len(arr)
    size = flat.size // items if items else 0
    per_block = min(items, _NOISE_BLOCK // size) if size else items   # whole items per block
    draws = np.empty(per_block * size if per_block else min(size, _NOISE_BLOCK))
    scale = np.empty_like(draws)

    def add(lo: int, hi: int) -> None:
        z, s = draws[: hi - lo], scale[: hi - lo]
        np.abs(flat[lo:hi], out=s)
        s *= sigma
        z *= s
        flat[lo:hi] += z

    gens = iter(streams)
    if per_block:
        rows = draws.reshape(per_block, size)
        for b0 in range(0, items, per_block):
            n = min(per_block, items - b0)
            for row, gen in zip(rows[:n], islice(gens, n), strict=True):
                gen.standard_normal(out=row)
            add(b0 * size, (b0 + n) * size)
    else:
        for b, gen in zip(range(items), gens, strict=True):
            for lo in range(b * size, (b + 1) * size, _NOISE_BLOCK):
                hi = min(lo + _NOISE_BLOCK, (b + 1) * size)
                gen.standard_normal(out=draws[: hi - lo])
                add(lo, hi)
    if next(gens, None) is not None:
        raise ValueError(f"more streams than the {items} items")
    return arr


def inject_noise(q_value, sigma: float, streams):
    """Add zero-mean Gaussian noise with standard deviation sigma*|value| to a batch.

    ``q_value`` is an array of items along its leading axis (at least 2-D),
    and ``streams`` an iterable of generators, one per item: item ``i``'s
    noise is ``standard_normal`` of the item's shape from the ``i``-th
    generator. Items are drawn in order and each generator is used before the
    next is taken, so ``streams`` may hand out one generator re-keyed per item
    (``rng.keyed_streams``), and at sigma zero it is not iterated at all. Too
    few or too many streams raise ``ValueError``.

    Returns a new array, ``q_value + draws * (sigma * |q_value|)`` bit for
    bit, and leaves ``q_value`` unchanged; the noise is added to the copy in
    cache-sized blocks, so besides it only a small scratch is held. Exactly
    the identity when sigma is zero (no RNG draw is consumed, and ``q_value``
    itself is returned), and exactly zero-preserving since the noise scale is
    proportional to the signal magnitude.
    """
    check_number("sigma", sigma, ge=0.0)
    arr = np.asarray(q_value, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"inject_noise needs a leading item axis (items, ...), got shape {arr.shape}")
    if sigma == 0.0:
        return arr
    return _add_noise(arr.copy(), sigma, streams)


def _detector_sums(x: np.ndarray, w: np.ndarray, detector_rows: int) -> np.ndarray:
    """Per-detector sums of ``w[b, r, c] * x[b, r, p]``, shape (batch, detectors, cols, positions).

    ``x`` is (batch, rows, positions) and ``w`` (batch, rows, cols). Detector
    ``d`` sums rows ``d*detector_rows`` up to ``(d+1)*detector_rows``; the
    last detector may hold fewer. Each detector is one ``np.matmul`` of its
    rows' weights, transposed, with its rows' inputs, written in place into
    the result, so its additions run in BLAS's order: the bits are those of
    the BLAS build numpy links. Sums of integers are exact in any order, and
    a zero sum reads +0.0. Each item of the batch is its own matrix product,
    so a batch gives the bits of its items' calls alone. OpenBLAS gives the
    same bits on any thread count, except for a one-element tile whose
    detector holds over 10000 rows: it splits that dot product over its
    threads.
    """
    batch, rows, cols = w.shape
    level2 = np.empty((batch, -(-rows // detector_rows), cols, x.shape[2]))
    for d, r0 in enumerate(range(0, rows, detector_rows)):
        r1 = r0 + detector_rows
        np.matmul(w[:, r0:r1].transpose(0, 2, 1), x[:, r0:r1], out=level2[:, d])
    return level2


def _streams(noise: NoiseSpec, batch: int, layer: int, tile: int, role: str) -> Iterator[np.random.Generator]:
    """One generator per batch item, lazily: item ``b`` draws from the stream of seed ``noise.seed + b``."""
    return keyed_streams(range(noise.seed, noise.seed + batch), "mvm", layer, tile, role)


def _mvm_non_negative(
    x_eq: np.ndarray,
    w_values: np.ndarray,
    out_quant: QuantSpec | None,
    noise: NoiseSpec,
    detector_rows: int,
    layer: int,
    tile: int,
    w_role: str,
) -> np.ndarray:
    batch = x_eq.shape[0]
    # the shared weight grid, perturbed per item (a broadcast view at sigma_w = 0)
    w_batch = np.broadcast_to(w_values, (batch,) + w_values.shape)
    w_eq = inject_noise(w_batch, noise.sigma_w, _streams(noise, batch, layer, tile, w_role))
    level2 = _detector_sums(x_eq, w_eq, detector_rows)

    level2 = _add_noise(level2, noise.sigma_out, _streams(noise, batch, layer, tile, w_role + "/out"))
    if out_quant is not None:
        level2 = _quantized_values(level2, out_quant)
    # digital across detectors, in detector order, into the first detector's readings
    acc = level2[:, 0]
    for d in range(1, level2.shape[1]):
        acc += level2[:, d]
    return acc


def _pair_legs(w: np.ndarray, w_quant: QuantSpec) -> tuple[np.ndarray, np.ndarray]:
    """The positive and negative legs of a differential pair, from one grid of magnitudes.

    The weights' magnitudes are quantized once on the leg grid [0, span]; each
    leg holds those of its sign's weights and +0.0 elsewhere, which is bit for
    bit ``quantize(np.maximum(+-w, 0.0), leg)[1]``: a leg's zero, clamped or
    not, reads +0.0 on a grid that starts at 0. Every magnitude is finite and
    at least +0.0, so multiplying by the sign mask keeps or zeroes it exactly
    (and runs several times faster than ``np.where``).
    """
    span = max(abs(w_quant.lo), abs(w_quant.hi))
    mag = _quantized_values(np.abs(w), QuantSpec(bits=w_quant.bits, lo=0.0, hi=span))
    return mag * (w > 0.0), mag * (w < 0.0)


def noisy_mvm(
    x,
    weights,
    in_quant: QuantSpec,
    w_quant: QuantSpec,
    out_quant: QuantSpec | None = None,
    noise: NoiseSpec = ZERO_NOISE,
    detector_rows: int = ROWS_PER_DETECTOR,
    *,
    layer: int = 0,
    tile: int = 0,
) -> np.ndarray:
    """y = W^T x through the quantized, noisy, hierarchically-accumulated datapath.

    ``x`` is a B x R x P batch of R x P input matrices (P positions evaluated
    together; one tile is a batch of one), ``weights`` is R x C and the result
    is B x C x P. Inputs and weights are quantized on their grids, perturbed
    by signal-proportional noise, multiplied per cell and summed per
    detector of ``detector_rows`` rows; each detector reading picks up
    readout noise and, when ``out_quant`` is given, is digitized before the
    final digital sum. Results are a deterministic function of (seed, layer,
    tile, operands). Batch item ``b`` draws its noise from the streams of
    seed ``noise.seed + b``, so it equals, bit for bit, a call on
    ``x[b:b+1]`` alone with that seed.

    In ``differential_pair`` weight mode, signed weights are carried by a
    positive/negative column pair on the magnitude grid and subtracted after
    readout, matching a two-column physical encoding.
    """
    check_number("detector_rows", detector_rows, integer=True, ge=1)
    x_batch = np.asarray(x, dtype=np.float64)
    w_arr = np.asarray(weights, dtype=np.float64)
    if w_arr.ndim != 2:
        raise ValueError(f"weights must be 2-D (rows x cols), got shape {w_arr.shape}")
    if x_batch.ndim != 3 or x_batch.shape[1] != w_arr.shape[0]:
        raise ValueError(f"operand shapes do not agree: x {x_batch.shape} (B x R x P), weights {w_arr.shape} (R x C)")
    if in_quant.lo < 0.0:
        raise ValueError("input intensities are non-negative; in_quant range must start at >= 0")

    # one input draw per item and tile: both weight legs see the same optical inputs
    x_eq = _add_noise(
        _quantized_values(x_batch, in_quant), noise.sigma_in, _streams(noise, len(x_batch), layer, tile, "in")
    )

    if w_quant.signed_mode == DIFFERENTIAL_PAIR:
        w_pos, w_neg = _pair_legs(w_arr, w_quant)
        y_pos = _mvm_non_negative(x_eq, w_pos, out_quant, noise, detector_rows, layer, tile, "w+")
        y_neg = _mvm_non_negative(x_eq, w_neg, out_quant, noise, detector_rows, layer, tile, "w-")
        return np.subtract(y_pos, y_neg, out=y_pos)             # y_pos is this call's own buffer
    if w_quant.lo < 0.0:
        raise ValueError("non_negative weight mode cannot represent a negative range")
    w_values = _quantized_values(w_arr, w_quant)
    return _mvm_non_negative(x_eq, w_values, out_quant, noise, detector_rows, layer, tile, "w")


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
    """Tracks the bank's last write time to enforce the refresh ceiling and logs energy.

    One instance models one physical bank of cells; programming a weight
    matrix writes every cell of the matrix in parallel (the optical
    programming array addresses all cells at once), taking one full
    erase+program cycle. So all cells share one write time: the bank keeps
    that time and its shape, which the first write sets.
    """

    pcm: PcmSpec
    seed: int = 0

    def __post_init__(self) -> None:
        check_number("seed", self.seed, integer=True)
        self._shape: tuple[int, ...] | None = None
        self._last_write_ns = -math.inf
        self.events: list[ProgramEvent] = []

    def program(self, weights, *, t_ns: float = 0.0, layer: int = 0, tile: int = 0):
        """Quantize ``weights`` (values in [0, 1]) to cell levels with programming noise.

        Returns (levels, programmed values). Raises :class:`PcmRefreshError`
        if the bank would be rewritten before its cycle time has elapsed. A
        call that raises leaves the bank's write time and events unchanged.
        """
        check_number("t_ns", t_ns)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if not np.all((w >= 0.0) & (w <= 1.0)):     # NaN fails both tests
            raise ValueError("weights must be finite and lie in [0, 1] (cell transmission range)")

        if self._shape not in (None, w.shape):
            raise ValueError(f"weights must have the bank's shape {self._shape}, got {w.shape}")
        elapsed = t_ns - self._last_write_ns
        cycle = self.pcm.cycle_time_ns
        if elapsed < cycle:
            raise PcmRefreshError(
                f"bank rewritten {elapsed:.0f} ns after its previous write; minimum interval is {cycle:.0f} ns"
            )

        spec = QuantSpec(bits=self.pcm.levels_bits, lo=0.0, hi=1.0)
        levels, values = quantize(w, spec)
        values = inject_noise(values[None], self.pcm.program_std, keyed_streams((self.seed,), "pcm", layer, tile))[0]

        self._shape = w.shape
        self._last_write_ns = t_ns
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
