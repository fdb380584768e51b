"""Desk-scale functional simulator of the analog matrix-vector datapath.

The pipeline mirrors the physical chain: uniform quantization of inputs and
weights, signal-proportional Gaussian perturbations, per-wavelength-group
optical products, multi-port detector summation, readout noise, output
quantization, and digital accumulation of partial sums. At zero noise and on
integer-aligned grids the pipeline is exact, which is what the reference
integer oracle in the test suite checks against.

Accumulation order is fixed: each bus sums its rows in row order, each
detector sums its buses in bus order (a short last bus or detector is
zero-padded to full size), and detector readings are summed digitally in
detector order. Positions are streamed in chunks, so the working set grows as
detectors x cols x positions, never as rows x cols x positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import PcmSpec
from .rng import keyed_rng

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
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must be in [1, 16], got {self.bits}")
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


def _check_sigma(name: str, sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {sigma}")


@dataclass(frozen=True)
class NoiseSpec:
    """Relative (signal-proportional) noise levels for the three injection points."""

    sigma_in: float = 0.0031
    sigma_w: float = 0.01
    sigma_out: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_in", "sigma_w", "sigma_out"):
            _check_sigma(name, getattr(self, name))


ZERO_NOISE = NoiseSpec(sigma_in=0.0, sigma_w=0.0, sigma_out=0.0, seed=0)


@dataclass(frozen=True)
class AccumulationTree:
    """Hierarchical summation shape: wavelengths per bus, buses per detector.

    Level 1 sums ``group_size`` row products on a shared bus, level 2 sums up
    to ``pd_ports`` buses in one detector's photocurrent, level 3 adds
    detector readings digitally.
    """

    group_size: int = 9
    pd_ports: int = 16

    def __post_init__(self) -> None:
        if self.group_size < 1 or self.pd_ports < 1:
            raise ValueError("group_size and pd_ports must be >= 1")


def quantize(x, q: QuantSpec):
    """Quantize to the nearest grid level. Returns (level indices, dequantized values).

    Scalars in, scalars out; arrays in, arrays out.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize requires finite inputs")
    t = (arr - q.lo) / q.step
    base = np.floor(t)
    frac = t - base
    up = frac > 0.5
    # Midpoint ties resolve away from zero (toward the higher level for
    # non-negative values, the lower one for negative values).
    tie = frac == 0.5
    up = up | (tie & (arr >= 0.0))
    idx = base + up.astype(np.float64)
    idx = np.clip(idx, 0, q.levels - 1).astype(np.int64)
    value = q.lo + idx.astype(np.float64) * q.step
    if np.isscalar(x) or np.ndim(x) == 0:
        return int(idx), float(value)
    return idx, value


def inject_noise(q_value, sigma: float, rng: np.random.Generator):
    """Add zero-mean Gaussian noise with standard deviation sigma*|value|.

    Exactly the identity when sigma is zero (no RNG draw is consumed), and
    exactly zero-preserving since the noise scale is proportional to the
    signal magnitude.
    """
    _check_sigma("sigma", sigma)
    arr = np.asarray(q_value, dtype=np.float64)
    if sigma == 0.0:
        out = arr
    else:
        out = arr + rng.standard_normal(arr.shape) * (sigma * np.abs(arr))
    if np.isscalar(q_value) or np.ndim(q_value) == 0:
        return float(out)
    return out


# cols x positions elements per streamed chunk: large enough that the per-bus
# Python loop costs little, small enough that one bus's products
# (group_size x 256 KiB) stay cached between the multiply and the reduction.
_CHUNK = 1 << 15


def _detector_sums(x: np.ndarray, w: np.ndarray, tree: AccumulationTree) -> np.ndarray:
    """Per-detector sums of ``w[r, c] * x[r, p]``, shape (detectors, cols, positions).

    Each bus is reduced over a (group_size, cols, chunk) block of products and
    each detector over a (pd_ports, cols, chunk) block of bus sums, both
    zero-padded when short, with ``np.add.reduce(axis=0)``. The additions thus
    run in row order, then bus order, exactly as they would on the whole
    rows x cols x positions product tensor, which is never built.
    """
    rows, cols = w.shape
    positions = x.shape[1]
    group, ports = tree.group_size, tree.pd_ports
    buses = -(-rows // group)
    detectors = -(-buses // ports)
    level2 = np.empty((detectors, cols, positions))

    # numpy sums a reduction whose other axes hold one element pairwise and a
    # wider one in order; an even split never leaves a one-position chunk
    # unless the whole tile is one element, so each block sums like the tile.
    width = max(1, _CHUNK // max(cols, 1))
    chunks = max(1, -(-positions // width))
    bounds = [i * positions // chunks for i in range(chunks + 1)]
    widest = -(-positions // chunks)
    products_buf = np.empty(group * cols * widest)
    buses_buf = np.empty(ports * cols * widest)

    for p0, p1 in zip(bounds, bounds[1:]):
        span = cols * (p1 - p0)
        products = products_buf[: group * span].reshape(group, cols, p1 - p0)
        bus_sums = buses_buf[: ports * span].reshape(ports, cols, p1 - p0)
        xs = x[:, None, p0:p1]
        for d in range(detectors):
            first = d * ports
            n_buses = min(ports, buses - first)
            for b in range(n_buses):
                r0 = (first + b) * group
                r1 = min(r0 + group, rows)
                np.multiply(w[r0:r1, :, None], xs[r0:r1], out=products[: r1 - r0])
                products[r1 - r0 :] = 0.0
                np.add.reduce(products, axis=0, out=bus_sums[b])
            bus_sums[n_buses:] = 0.0
            np.add.reduce(bus_sums, axis=0, out=level2[d, :, p0:p1])
    return level2


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
    w_eq = inject_noise(w_values, noise.sigma_w, keyed_rng(noise.seed, "mvm", layer, tile, w_role))
    level2 = _detector_sums(x_eq, w_eq, tree)

    level2 = inject_noise(level2, noise.sigma_out, keyed_rng(noise.seed, "mvm", layer, tile, w_role + "/out"))
    if out_quant is not None:
        _, level2 = quantize(level2, out_quant)
    return level2.sum(axis=0)                                  # digital across detectors


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

    ``x`` is a length-R vector (or an R x P matrix of positions evaluated as a
    batch), ``weights`` is R x C. Inputs and weights are quantized on their
    grids, perturbed by signal-proportional noise, multiplied per cell, summed
    per wavelength group, then per detector; each detector reading picks up
    readout noise and, when ``out_quant`` is given, is digitized before the
    final digital sum. Results are a deterministic function of
    (seed, layer, tile, operands).

    In ``differential_pair`` weight mode, signed weights are carried by a
    positive/negative column pair on the magnitude grid and subtracted after
    readout, matching a two-column physical encoding.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    w_arr = np.asarray(weights, dtype=np.float64)
    if w_arr.ndim != 2:
        raise ValueError(f"weights must be 2-D (rows x cols), got shape {w_arr.shape}")
    squeeze = x_arr.ndim == 1
    if squeeze:
        x_arr = x_arr[:, None]
    if x_arr.ndim != 2 or x_arr.shape[0] != w_arr.shape[0]:
        raise ValueError(f"operand shapes do not agree: x {x_arr.shape}, weights {w_arr.shape}")
    if in_quant.lo < 0.0:
        raise ValueError("input intensities are non-negative; in_quant range must start at >= 0")

    _, x_values = quantize(x_arr, in_quant)
    # one input draw per tile: both weight legs see the same optical inputs
    x_eq = inject_noise(x_values, noise.sigma_in, keyed_rng(noise.seed, "mvm", layer, tile, "in"))

    if w_quant.signed_mode == DIFFERENTIAL_PAIR:
        span = max(abs(w_quant.lo), abs(w_quant.hi))
        leg_quant = QuantSpec(bits=w_quant.bits, lo=0.0, hi=span)
        _, w_pos = quantize(np.maximum(w_arr, 0.0), leg_quant)
        _, w_neg = quantize(np.maximum(-w_arr, 0.0), leg_quant)
        y_pos = _mvm_non_negative(x_eq, w_pos, out_quant, noise, tree, layer, tile, "w+")
        y_neg = _mvm_non_negative(x_eq, w_neg, out_quant, noise, tree, layer, tile, "w-")
        y = y_pos - y_neg
    else:
        if w_quant.lo < 0.0:
            raise ValueError("non_negative weight mode cannot represent a negative range")
        _, w_values = quantize(w_arr, w_quant)
        y = _mvm_non_negative(x_eq, w_values, out_quant, noise, tree, layer, tile, "w")

    return y[:, 0] if squeeze else y


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
        values = inject_noise(values, self.pcm.program_std, keyed_rng(self.seed, "pcm", layer, tile))

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


def pcm_program(weights, pcm: PcmSpec, seed: int = 0):
    """One-shot array write: returns (levels, programmed values, event log)."""
    programmer = PcmProgrammer(pcm=pcm, seed=seed)
    levels, values = programmer.program(weights)
    return levels, values, programmer.events


def max_abs_output(in_quant: QuantSpec, w_quant: QuantSpec, rows: int) -> float:
    """Largest |y| the datapath can produce, for sizing output quantizer ranges."""
    x_max = max(abs(in_quant.lo), abs(in_quant.hi))
    w_max = max(abs(w_quant.lo), abs(w_quant.hi))
    return rows * x_max * w_max


def unit_step_out_quant(max_value: float) -> QuantSpec:
    """Output quantizer whose grid step is exactly 1, lossless on integers.

    Only representable up to 16-bit grids; raises if ``max_value`` needs more.
    """
    bits = max(1, math.ceil(math.log2(max_value + 1)))
    if bits > 16:
        raise ValueError(f"integer range 0..{max_value:.0f} needs {bits} bits (> 16)")
    return QuantSpec(bits=bits, lo=0.0, hi=float(2 ** bits - 1))
