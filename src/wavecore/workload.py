"""Convolution lowering, tile scheduling, and throughput/energy roll-up.

Convolutions lower to matrix-vector products: each output position's
receptive field flattens to a length k*k*c_in input vector, kernels stack
into a (k*k*c_in) x c_out weight matrix. A 3x3 kernel's nine taps map onto
one nine-wavelength row group, so a core with G groups accepts G input
channels per pass for 3x3 layers. Larger layers tile across row and column
passes with digital partial-sum accumulation.

The dataflow is weight-stationary: each (row-tile, column-tile) block is
written to the array once per inference (one full write cycle, all cells in
parallel), then every output position streams through at the symbol clock.
"""

from __future__ import annotations

import errno
import functools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from .catalog import _FLOAT_MAX, DeviceCatalog, PcmSpec, _parse_json, _read_file, check_number
from .linkbudget import CoreGeometry
from .power import PowerReport, _write_energies_j

# Calibrated operating clock of the reference 144x256 design point: the symbol
# rate at which that core's peak throughput is 342.1 TOPS. Above the tabulated
# modulator ceiling, so runs at this profile opt in to overclocking.
PARETO_CLOCK_HZ = 342.1e12 / (2 * 144 * 256)
DEFAULT_CLOCK_HZ = 1e9


_COUNT_FIELDS = ("c_in", "c_out", "kernel", "h_out", "w_out", "stride")


@dataclass(frozen=True)
class ConvLayerSpec:
    """Shape of one lowered layer. ``kind='other'`` marks non-MVM ops
    (pooling, classifier heads) that are carried for completeness, charged
    zero photonic time, and flagged in reports."""

    name: str
    c_in: int = 1
    c_out: int = 1
    kernel: int = 1
    h_out: int = 1
    w_out: int = 1
    stride: int = 1
    kind: str = "conv"

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"name must be a non-empty string, got {self.name!r:.40}")
        c_in, c_out, kernel, h_out, w_out, stride = counts = (
            self.c_in, self.c_out, self.kernel, self.h_out, self.w_out, self.stride)
        # only counts that check_number admits pass this test; others go through it, in field order
        if not (type(c_in) is type(c_out) is type(kernel) is type(h_out) is type(w_out) is type(stride) is int
                and 1 <= min(counts) and max(counts) <= _FLOAT_MAX):
            for field_name, value in zip(_COUNT_FIELDS, counts):
                check_number(field_name, value, integer=True, ge=1)
        if self.kind not in ("conv", "other"):
            raise ValueError(f"kind must be 'conv' or 'other', got {self.kind!r}")
        if self.kind == "conv" and self.kernel not in (1, 3):
            raise ValueError(f"unsupported kernel size {self.kernel} (supported: 1, 3)")

    @property
    def positions(self) -> int:
        return self.h_out * self.w_out

    @property
    def weight_count(self) -> int:
        return self.kernel * self.kernel * self.c_in * self.c_out


@dataclass(frozen=True)
class LoweredDims:
    """How one conv layer maps onto a core: row passes of ``channels_per_pass``
    input channels, column passes of ``geom.cols`` outputs, and the row share used."""

    tiles_row: int
    tiles_col: int
    channels_per_pass: int
    utilization: float


def _channels_per_pass(kernel: int, geom: CoreGeometry, pack_pointwise: bool) -> int:
    """Input channels one row pass of ``geom`` covers for a ``kernel`` x ``kernel`` layer."""
    if kernel == 1 and pack_pointwise:
        return geom.rows
    return geom.groups


def lower_conv(layer: ConvLayerSpec, geom: CoreGeometry, *, pack_pointwise: bool = True) -> LoweredDims:
    """Row and column tiling of one conv layer on ``geom``.

    Rows come in groups of ``WAVELENGTHS_PER_GROUP`` (nine) wavelengths. 3x3
    layers use all nine taps of a group, so one pass covers one input channel
    per group. 1x1 layers pack nine channels onto each group's nine taps by
    default, as :func:`schedule` does; ``pack_pointwise=False`` puts one on a
    single tap per group (utilization 1/9). Utilization is ``k*k*c_in`` over
    the passes' rows.
    """
    if layer.kind != "conv":
        raise ValueError(f"{layer.name}: only conv layers lower to the array")
    channels_per_pass = _channels_per_pass(layer.kernel, geom, pack_pointwise)
    tiles_row = -(-layer.c_in // channels_per_pass)
    utilization = layer.kernel * layer.kernel * layer.c_in / (tiles_row * geom.rows)
    return LoweredDims(tiles_row, -(-layer.c_out // geom.cols), channels_per_pass, utilization)


@dataclass(frozen=True)
class LayerSchedule:
    layer: ConvLayerSpec
    lowered: LoweredDims | None
    tile_loads: int
    stream_cycles: int
    programmed_cells: int

    @property
    def flagged(self) -> bool:
        return self.lowered is None


@dataclass(frozen=True)
class TileSchedule:
    """Tile walk totals for one inference pass of a workload on one core.

    ``total_tile_loads`` and ``total_stream_cycles`` come from the shape
    table of :func:`schedule_cores`; ``total_programmed_cells`` and
    ``flagged_ops`` do not depend on the core. The per-layer view is
    ``entries``: one :class:`LayerSchedule` per layer of ``workload``, in its
    order, with zero counts for a flagged non-conv layer, built from
    :func:`lower_conv` each time it is read. Each count summed over ``entries`` is its total.
    """

    geometry: CoreGeometry
    workload: tuple[ConvLayerSpec, ...]
    pack_pointwise: bool
    total_tile_loads: int
    total_stream_cycles: int
    total_programmed_cells: int
    flagged_ops: tuple[str, ...]

    @property
    def entries(self) -> tuple[LayerSchedule, ...]:
        records = []
        for layer in self.workload:
            if layer.kind != "conv":
                records.append(LayerSchedule(layer, None, 0, 0, 0))
                continue
            dims = lower_conv(layer, self.geometry, pack_pointwise=self.pack_pointwise)
            loads = dims.tiles_row * dims.tiles_col
            records.append(LayerSchedule(layer, dims, loads, loads * layer.positions, layer.weight_count))
        return tuple(records)


def schedule_cores(
    workload: Sequence[ConvLayerSpec],
    geometries: Iterable[CoreGeometry],
    *,
    pack_pointwise: bool = True,
) -> tuple[TileSchedule, ...]:
    """:func:`schedule` of ``workload`` on each of ``geometries``, in order.

    One pass over the layers builds a table of the conv layers' tile shapes,
    (c_in, c_out) grouped by kernel, each with its layer count and summed
    output positions, and sums the programmed cells, which do not depend on
    the core. Each core's totals then come from the table: a shape costs
    ``ceil(c_in / channels_per_pass) * ceil(c_out / cols)`` loads per layer,
    and each load streams the shape's positions. The table lives for this
    call only. It takes no ``pcm``: nothing in a schedule depends on the cell.
    """
    if not workload:
        raise ValueError("workload is empty")
    layers = tuple(workload)
    # kernel -> {(c_in, c_out): [c_in, c_out, layer count, summed positions]}, a flat record walked once per core
    shapes: dict[int, dict[tuple[int, int], list[int]]] = {}
    cells = 0
    flagged = []
    for layer in layers:
        if layer.kind != "conv":
            flagged.append(layer.name)
            continue
        kernel, c_in, c_out = layer.kernel, layer.c_in, layer.c_out
        positions = layer.h_out * layer.w_out  # layer.positions and .weight_count, without the property calls
        cells += kernel * kernel * c_in * c_out
        table = shapes.get(kernel)
        if table is None:
            table = shapes[kernel] = {}
        group = table.get((c_in, c_out))
        if group is None:
            table[c_in, c_out] = [c_in, c_out, 1, positions]
        else:
            group[2] += 1
            group[3] += positions
    flagged_ops = tuple(flagged)

    scheds = []
    for geom in geometries:
        cols = geom.cols
        loads = cycles = 0
        for kernel, table in shapes.items():
            per_pass = _channels_per_pass(kernel, geom, pack_pointwise)
            for c_in, c_out, count, positions in table.values():
                shape_loads = -(-c_in // per_pass) * -(-c_out // cols)
                loads += count * shape_loads
                cycles += shape_loads * positions
        scheds.append(TileSchedule(
            geometry=geom,
            workload=layers,
            pack_pointwise=pack_pointwise,
            total_tile_loads=loads,
            total_stream_cycles=cycles,
            total_programmed_cells=cells,
            flagged_ops=flagged_ops,
        ))
    return tuple(scheds)


def schedule(
    workload: Sequence[ConvLayerSpec],
    geom: CoreGeometry,
    pcm: PcmSpec,
    *,
    pack_pointwise: bool = True,
) -> TileSchedule:
    """Weight-stationary tile walk: each tile is written once, then streams
    all of its layer's output positions.

    Each (row-tile, column-tile) block is one tile load, writing exactly the
    block's weights; its stream is the layer's output positions at the
    symbol clock. The schedule counts loads, cycles and cells only:
    :func:`estimate_perf` charges each load one full write cycle
    (``pcm.cycle_time_ns``). ``pcm`` is not read; it is kept for existing
    callers. Pointwise packing defaults on, as the bundled network profiles
    are scheduled packed; ``pack_pointwise=False`` gives one tap per group.

    This is :func:`schedule_cores` on the one core ``geom``: the totals come
    from its shape table, and ``entries`` is built on demand.
    """
    return schedule_cores(workload, (geom,), pack_pointwise=pack_pointwise)[0]


def peak_tops(geom: CoreGeometry, f_hz: float) -> float:
    """Peak throughput in TOPS: 2 ops (multiply + add) per cell per cycle."""
    check_number("f_hz", f_hz, gt=0.0)
    tops = _peak_tops(geom.cells, f_hz)
    if tops == math.inf:
        raise ValueError(f"a result is out of float range: the peak throughput of {geom.label} at f_hz {f_hz:.6g} Hz")
    return tops


def _peak_tops(cells: int, f_hz: float) -> float:
    """The formula of :func:`peak_tops`, on a checked clock."""
    return 2.0 * cells * f_hz / 1e12


@dataclass(frozen=True)
class PerfReport:
    """Latency, throughput, and energy roll-up for one inference.

    Energy is reported split: ``energy_steady_j`` is steady power times
    latency; ``energy_program_j`` is the electrical write-pulse energy for
    every cell written during the tile walk; ``energy_erase_j`` is the
    matching erase-pulse energy, carried as a separate reconfiguration line.
    The headline ``energy_per_inference_j`` is steady + program;
    ``energy_with_erase_j`` folds the erase line in. Those three, ``peak_tops``
    and the rates (``fps``, ``fps_per_w``, ``tops_per_w``) are computed when
    read. ``power`` is the core's :class:`~wavecore.power.PowerReport`, and
    ``f_hz`` and ``total_power_w`` are read from it. The counts are
    ``schedule``'s, and ``schedule.entries`` is the per-layer view.
    """

    schedule: TileSchedule
    power: PowerReport
    latency_s: float
    energy_program_j: float
    energy_erase_j: float

    def __post_init__(self) -> None:
        core, power_core = self.schedule.geometry, self.power.link.geometry
        if core is not power_core and core != power_core:
            raise ValueError(f"the schedule is on {core.label}, but the power report is on {power_core.label}")
        # Reported in ms and mJ; every energy is at most the non-negative sum.
        check_number("peak_tops", self.peak_tops)
        check_number("latency_ms", self.latency_s * 1e3)
        check_number("latency_s", self.latency_s, gt=0.0)
        check_number("energy_with_erase_mj", self.energy_with_erase_j * 1e3)
        check_number("energy_program_j", self.energy_program_j, ge=0.0)
        check_number("energy_erase_j", self.energy_erase_j, ge=0.0)

    @property
    def f_hz(self) -> float:
        return self.power.f_hz

    @property
    def total_power_w(self) -> float:
        return self.power.total_w

    @property
    def peak_tops(self) -> float:
        return _peak_tops(self.schedule.geometry.cells, self.power.f_hz)

    @property
    def fps(self) -> float:
        return 1.0 / self.latency_s

    @property
    def fps_per_w(self) -> float:
        return self.fps / self.total_power_w

    @property
    def tops_per_w(self) -> float:
        return self.peak_tops / self.total_power_w

    @property
    def energy_steady_j(self) -> float:
        return self.power.total_w * self.latency_s

    @property
    def energy_per_inference_j(self) -> float:
        return self.energy_steady_j + self.energy_program_j

    @property
    def energy_with_erase_j(self) -> float:
        return self.energy_steady_j + self.energy_program_j + self.energy_erase_j

    def to_jsonable(self) -> dict:
        return {
            "latency_s": self.latency_s,
            "fps": self.fps,
            "peak_tops": self.peak_tops,
            "tops_per_w": self.tops_per_w,
            "fps_per_w": self.fps_per_w,
            "energy_per_inference_mj": self.energy_per_inference_j * 1e3,
            "energy_steady_mj": self.energy_steady_j * 1e3,
            "energy_program_mj": self.energy_program_j * 1e3,
            "energy_erase_mj": self.energy_erase_j * 1e3,
            "energy_with_erase_mj": self.energy_with_erase_j * 1e3,
            "total_power_w": self.total_power_w,
            "f_hz": self.f_hz,
            "tile_loads": self.schedule.total_tile_loads,
            "stream_cycles": self.schedule.total_stream_cycles,
            "programmed_cells": self.schedule.total_programmed_cells,
            "flagged_ops": list(self.schedule.flagged_ops),
        }


def estimate_perf_cores(
    scheds: Iterable[TileSchedule],
    powers: Iterable[PowerReport],
    cat: DeviceCatalog,
    *,
    allow_overclock: bool = False,
) -> tuple[PerfReport, ...]:
    """:func:`estimate_perf` of each schedule with its power report, in order.

    ``scheds`` and ``powers`` are walked in step and must have the same
    length, and each schedule and its power report must be on one core. Each
    core runs at its power report's clock ``f_hz``: its stream time, its
    overclock check and its :class:`PerfReport` read that clock, so the cores
    may run at different clocks. The write-cycle time is read once, when this
    is called, and a workload's write energies once. With ``powers`` from
    :func:`~wavecore.power.total_power_cores`, each core's power is computed
    just before its perf, so the error raised is the first failing core's,
    as in a loop of one-core calls.
    """
    cycle_ns = cat.pcm.cycle_time_ns
    max_rate_hz = cat.modulator.max_rate_hz
    perfs: list[PerfReport] = []
    write_cells = None
    for sched, power in zip(scheds, powers, strict=True):
        if not sched.workload:
            raise ValueError("schedule is empty")
        f_hz = power.f_hz
        if f_hz > max_rate_hz and not allow_overclock:
            raise ValueError(
                f"f = {f_hz:.3g} Hz exceeds the modulator ceiling {max_rate_hz:.3g} Hz "
                "(pass allow_overclock to run anyway)"
            )

        latency = sched.total_tile_loads * cycle_ns * 1e-9 + sched.total_stream_cycles / f_hz
        if not latency > 0.0:
            raise ValueError("workload has no photonic work to schedule")
        check_number("latency_s", latency)

        cells = sched.total_programmed_cells
        if cells != write_cells:  # once per workload, not per core
            write_cells = cells
            program_j, erase_j = _write_energies_j(cells, cat)
        perfs.append(PerfReport(sched, power, latency, program_j, erase_j))
    return tuple(perfs)


def estimate_perf(
    sched: TileSchedule,
    power: PowerReport,
    f_hz: float,
    cat: DeviceCatalog,
    *,
    allow_overclock: bool = False,
) -> PerfReport:
    """Latency/throughput/energy for one inference of a scheduled workload.

    latency = tile_loads * write_cycle + stream_cycles / f. Write energy per
    cell converts the optical program/erase pulses to electrical emitter
    energy through the vertical coupler loss and emitter efficiency.

    This is :func:`estimate_perf_cores` on the one core of ``sched``, which
    runs at ``power``'s clock. ``f_hz`` is kept for existing callers: it must
    be that clock, or a ValueError names both.
    """
    check_number("f_hz", f_hz, gt=0.0)
    if power.f_hz != f_hz:
        raise ValueError(f"f_hz is {f_hz:.6g} Hz, but the power report is at {power.f_hz:.6g} Hz")
    return estimate_perf_cores((sched,), (power,), cat, allow_overclock=allow_overclock)[0]


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

@functools.cache
def resnet50_workload(input_hw: int = 256) -> tuple[ConvLayerSpec, ...]:
    """Conv layer shapes of a 50-layer bottleneck residual network.

    The stem is carried as a 3x3 convolution (the array maps 1x1 and 3x3
    kernels), strides follow the v1.5 convention (stride on the 3x3), and
    pooling/classifier stages are flagged non-photonic entries. The tuple is
    built once per ``input_hw`` and shared; its layers are frozen.
    """
    if input_hw % 32 != 0:
        raise ValueError("input_hw must be divisible by 32")
    layers: list[ConvLayerSpec] = []
    s = input_hw // 2  # after stem stride 2
    layers.append(ConvLayerSpec("conv1", 3, 64, 3, s, s, 2))
    s //= 2  # after 3x3/2 max pool
    layers.append(ConvLayerSpec("maxpool", kind="other"))

    stage_channels = (64, 128, 256, 512)
    stage_blocks = (3, 4, 6, 3)
    c_in = 64
    for stage_idx, (c_mid, blocks) in enumerate(zip(stage_channels, stage_blocks), start=1):
        c_out = 4 * c_mid
        for block in range(blocks):
            stride = 2 if (stage_idx > 1 and block == 0) else 1
            s_in = s
            s_out = s // stride
            prefix = f"layer{stage_idx}.{block}"
            layers.append(ConvLayerSpec(f"{prefix}.conv1", c_in, c_mid, 1, s_in, s_in, 1))
            layers.append(ConvLayerSpec(f"{prefix}.conv2", c_mid, c_mid, 3, s_out, s_out, stride))
            layers.append(ConvLayerSpec(f"{prefix}.conv3", c_mid, c_out, 1, s_out, s_out, 1))
            if block == 0:
                layers.append(ConvLayerSpec(f"{prefix}.downsample", c_in, c_out, 1, s_out, s_out, stride))
            c_in = c_out
            s = s_out
    layers.append(ConvLayerSpec("avgpool", kind="other"))
    layers.append(ConvLayerSpec("fc", kind="other"))
    return tuple(layers)


_BUNDLED_WORKLOADS = {"resnet50": lambda: resnet50_workload(256)}
_LAYER_FIELDS = frozenset(field.name for field in fields(ConvLayerSpec))
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)  # Path.exists() read these as no file


def workload_to_jsonable(layers: Iterable[ConvLayerSpec]) -> list[dict]:
    out = []
    for layer in layers:
        entry = {"name": layer.name, "kind": layer.kind}
        if layer.kind == "conv":
            entry.update(
                c_in=layer.c_in, c_out=layer.c_out, kernel=layer.kernel,
                h_out=layer.h_out, w_out=layer.w_out, stride=layer.stride,
            )
        out.append(entry)
    return out


def load_workload(ref: str) -> tuple[ConvLayerSpec, ...]:
    """Resolve a workload reference: a bundled name or a JSON file path.

    The file format is a JSON list of layer objects with the
    :class:`ConvLayerSpec` fields (``kind`` defaults to ``conv``); no two
    layers may share a name.
    """
    if ref in _BUNDLED_WORKLOADS:
        return _BUNDLED_WORKLOADS[ref]()
    try:
        data = _parse_json(_read_file(ref))
    except (OSError, ValueError) as exc:  # no file, unreadable, not UTF-8, -16 or -32, or not JSON
        if getattr(exc, "errno", None) in _NO_FILE or "\0" in str(ref):
            raise ValueError(f"workload {ref!r} is neither a bundled name {sorted(_BUNDLED_WORKLOADS)} "
                             "nor a file") from None
        raise ValueError(f"workload file {Path(ref)} is not readable JSON: {exc}") from None
    if not (isinstance(data, list) and data):
        raise ValueError("workload file must contain a non-empty JSON list of layers")
    layers = []
    first_use: dict[str, int] = {}
    for i, raw in enumerate(data):
        if not isinstance(raw, dict) or "name" not in raw:
            raise ValueError(f"workload entry {i} must be an object with a 'name'")
        try:
            if not raw.keys() <= _LAYER_FIELDS:
                raise ValueError(f"unknown fields {sorted(raw.keys() - _LAYER_FIELDS)}")
            layer = ConvLayerSpec(**raw)
            if layer.name in first_use:
                raise ValueError(f"name repeats entry {first_use[layer.name]}")
        except ValueError as exc:  # named by its entry only here, so a valid entry formats no label
            name = raw["name"]
            where = f"workload entry {i} ({name!r})" if isinstance(name, str) and name else f"workload entry {i}"
            raise ValueError(f"{where}: {exc}") from None
        first_use[layer.name] = i
        layers.append(layer)
    return tuple(layers)
