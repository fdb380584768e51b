"""Component parameter catalog: loading, validation, and unit-safe conversions.

Every optical/electronic building block of the core is described by a small
set of numbers (insertion loss in dB, footprint in um, static power in mW,
switching energies in fJ/pJ, timing in ns). They all live in one JSON file so
that ablations and recalibration never require touching code. The shipped
default file reproduces the reference 144x256 design point.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

SCHEMA_VERSION = 1

# The shipped calibration: the one source of every field's default value.
_SHIPPED_PATH = Path(__file__).parent / "data" / "default_catalog.json"

_Q_ELECTRON = 1.602176634e-19  # C


class CatalogError(ValueError):
    """Raised when a catalog file fails validation; message names the field."""


# ---------------------------------------------------------------------------
# Numeric field checks
# ---------------------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


def check_number(
    where: str,
    value: Any,
    *,
    integer: bool = False,
    ge: float | None = None,
    gt: float | None = None,
    le: float | None = None,
    lt: float | None = None,
) -> None:
    """Raise a ValueError naming ``where`` unless ``value`` is a finite number
    (an ``int`` where ``integer`` is set, never a ``bool``) within the bounds.

    Float subclasses such as numpy's count as floats, and an integer too large
    for a float counts as not finite. Every spec's ``__post_init__`` checks its
    numeric fields here, thousands of times per design-space pass, so an
    accepted value costs a few type tests and comparisons and builds no message.
    """
    kind = type(value)
    if (kind is int or kind is float and not integer
            or kind is not bool and isinstance(value, int if integer else (int, float))):
        if (-_FLOAT_MAX <= value <= _FLOAT_MAX
                and (ge is None or value >= ge) and (gt is None or value > gt)
                and (le is None or value <= le) and (lt is None or value < lt)):
            return
    wanted = "an integer" if integer else "a finite number"
    bounds = [f"{op} {bound}" for op, bound in ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if bound is not None]
    if bounds:
        wanted += " " + " and ".join(bounds)
    too_large = isinstance(value, int) and kind is not bool and not -_FLOAT_MAX <= value <= _FLOAT_MAX
    got = "an integer too large for a float" if too_large else repr(value)
    raise ValueError(f"{where} must be {wanted}, got {got}")


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def db_to_linear(x_db: float) -> float:
    """Power ratio for a dB value: 10^(x/10)."""
    check_number("dB value", x_db)
    return 10.0 ** (x_db / 10.0)


def linear_to_db(ratio: float) -> float:
    check_number("power ratio", ratio, gt=0.0)
    return 10.0 * math.log10(ratio)


# ---------------------------------------------------------------------------
# Component specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentSpec:
    """A passive (or mostly passive) photonic component.

    ``insertion_loss_db`` is the on-path attenuation per traversal. Area is
    the layout bounding box in um. ``static_power_mw`` holds a continuous
    drive/bias power where the component has one (e.g. a VOA trim bias).
    Loss and area are stored as floats.
    """

    name: str
    insertion_loss_db: float
    area_um: tuple[float, float] | None = None
    static_power_mw: float | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        name = self.name
        check_number(f"{name}.insertion_loss_db", self.insertion_loss_db, ge=0.0)
        object.__setattr__(self, "insertion_loss_db", float(self.insertion_loss_db))
        if self.area_um is not None:
            if not (isinstance(self.area_um, (tuple, list)) and len(self.area_um) == 2):
                raise ValueError(f"{name}.area_um must be a [width, height] pair, got {self.area_um!r}")
            for value in self.area_um:
                check_number(f"{name}.area_um", value, gt=0.0)
            object.__setattr__(self, "area_um", (float(self.area_um[0]), float(self.area_um[1])))
        if self.static_power_mw is not None:
            check_number(f"{name}.static_power_mw", self.static_power_mw, ge=0.0)


@dataclass(frozen=True)
class LaserSpec:
    """Comb source: per-channel launch power and wall-plug efficiency."""

    channel_power_dbm: float
    channels_per_comb: int
    wpe: float

    def __post_init__(self) -> None:
        check_number("laser.channel_power_dbm", self.channel_power_dbm)
        check_number("laser.channels_per_comb", self.channels_per_comb, integer=True, ge=1)
        check_number("laser.wpe", self.wpe, gt=0.0, le=1.0)


@dataclass(frozen=True)
class PdSpec:
    """Multi-port waveguide photodetector used for optical accumulation."""

    responsivity_a_per_w: float
    dark_current_a: float
    bandwidth_hz: float
    sensitivity_dbm: float
    max_ports: int

    def __post_init__(self) -> None:
        check_number("pd.responsivity_a_per_w", self.responsivity_a_per_w, gt=0.0, le=1.2)
        check_number("pd.dark_current_a", self.dark_current_a, ge=0.0)
        check_number("pd.bandwidth_hz", self.bandwidth_hz, gt=0.0)
        check_number("pd.sensitivity_dbm", self.sensitivity_dbm, lt=0.0)
        check_number("pd.max_ports", self.max_ports, integer=True, ge=1)


@dataclass(frozen=True)
class ModulatorSpec:
    """Input amplitude modulator (slow-light MZM).

    ``energy_per_switch_fj`` is keyed by drive resolution in bits; the driver
    power model picks the entry matching the configured input precision.
    """

    insertion_loss_db: float
    extinction_ratio_db: float
    energy_per_switch_fj: Mapping[int, float]
    max_rate_hz: float

    def __post_init__(self) -> None:
        check_number("sl_mzm.insertion_loss_db", self.insertion_loss_db, ge=0.0)
        check_number("sl_mzm.extinction_ratio_db", self.extinction_ratio_db, gt=0.0)
        check_number("sl_mzm.max_rate_hz", self.max_rate_hz, gt=0.0)
        table = {}
        for bits, energy in self.energy_per_switch_fj.items():
            check_number(f"sl_mzm.energy_per_switch_fj[{bits}]", energy, ge=0.0)
            table[bits] = float(energy)
        object.__setattr__(self, "energy_per_switch_fj", MappingProxyType(table))

    def switch_energy_fj(self, bits: int) -> float:
        """Per-symbol drive energy at the nearest tabulated resolution."""
        table = self.energy_per_switch_fj
        if bits in table:
            return table[bits]
        nearest = min(table, key=lambda b: (abs(b - bits), b))
        return table[nearest]


@dataclass(frozen=True)
class PcmSpec:
    """Non-volatile optical weight cell: write/erase energies and timing.

    A full weight update is erase (reset) followed by program, each with a
    stabilization window. The cycle time bounds how often one cell may be
    rewritten (1 us cycle = 1 MHz ceiling with the shipped defaults).
    """

    program_energy_pj: float
    erase_energy_pj: float
    program_time_ns: float
    stabilize_program_ns: float
    erase_time_ns: float
    stabilize_erase_ns: float
    levels_bits: int
    program_std: float

    def __post_init__(self) -> None:
        check_number("pcm.program_energy_pj", self.program_energy_pj, ge=0.0)
        check_number("pcm.erase_energy_pj", self.erase_energy_pj, ge=0.0)
        check_number("pcm.program_time_ns", self.program_time_ns, ge=0.0)
        check_number("pcm.stabilize_program_ns", self.stabilize_program_ns, ge=0.0)
        check_number("pcm.erase_time_ns", self.erase_time_ns, ge=0.0)
        check_number("pcm.stabilize_erase_ns", self.stabilize_erase_ns, ge=0.0)
        check_number("pcm.levels_bits", self.levels_bits, integer=True)
        if self.levels_bits not in (5, 7):
            raise ValueError(f"pcm.levels_bits must be 5 or 7, got {self.levels_bits}")
        check_number("pcm.program_std", self.program_std, ge=0.0)

    @property
    def cycle_time_ns(self) -> float:
        return self.program_time_ns + self.stabilize_program_ns + self.erase_time_ns + self.stabilize_erase_ns


@dataclass(frozen=True)
class SoaSpec:
    """On-chip optical amplifier used by the amplified-fanout variant."""

    facet_loss_db: float
    gain_db: float
    drive_power_mw: float

    def __post_init__(self) -> None:
        check_number("soa.facet_loss_db", self.facet_loss_db, ge=0.0)
        check_number("soa.gain_db", self.gain_db)
        check_number("soa.drive_power_mw", self.drive_power_mw, ge=0.0)


@dataclass(frozen=True)
class ConverterCoeffs:
    """Technology coefficients for the converter resolution-rate scaling law.

    The shipped values are calibrated so that the reference 144x256 core at
    the calibrated clock totals 14.4 W.
    """

    p0_dac_ws: float
    p0_adc_ws: float

    def __post_init__(self) -> None:
        check_number("converters.p0_dac_ws", self.p0_dac_ws, gt=0.0)
        check_number("converters.p0_adc_ws", self.p0_adc_ws, gt=0.0)


@dataclass(frozen=True)
class VcselSpec:
    """Programming emitter: electrical-to-optical conversion efficiency."""

    efficiency: float

    def __post_init__(self) -> None:
        check_number("vcsel.efficiency", self.efficiency, gt=0.0, le=1.0)


@dataclass(frozen=True)
class ThermalSpec:
    """Per-weight hold power for volatile thermo-optic weighting (calibration)."""

    heater_hold_mw_per_weight: float

    def __post_init__(self) -> None:
        check_number("thermo.heater_hold_mw_per_weight", self.heater_hold_mw_per_weight, ge=0.0)


_SUBSYSTEMS = {
    "laser": LaserSpec,
    "pd": PdSpec,
    "sl_mzm": ModulatorSpec,
    "pcm": PcmSpec,
    "soa": SoaSpec,
    "converters": ConverterCoeffs,
    "vcsel": VcselSpec,
    "thermo": ThermalSpec,
}

# The fields a catalog entry may set, per entry class; a component's name is its key.
_ENTRY_FIELDS = {
    cls: frozenset(f.name for f in fields(cls)) - {"name"} for cls in (ComponentSpec, *_SUBSYSTEMS.values())
}


@functools.cache
def _shipped() -> dict[str, dict[str, Any]]:
    """The shipped file's entries by name. Every catalog has exactly these
    entries; an entry or field a catalog leaves out takes the value here."""
    data = json.loads(_SHIPPED_PATH.read_bytes())
    return {name: entry for name, entry in data.items() if name != "schema_version"}


@dataclass(frozen=True)
class DeviceCatalog:
    """Immutable component parameter set shared by all models.

    Safe to share across concurrent evaluations after load. ``defaulted``
    lists the entries that were absent from the source file and taken whole
    from the shipped file.
    """

    components: Mapping[str, ComponentSpec]
    laser: LaserSpec
    pd: PdSpec
    modulator: ModulatorSpec
    pcm: PcmSpec
    soa: SoaSpec
    converters: ConverterCoeffs
    vcsel: VcselSpec
    thermo: ThermalSpec
    schema_version: int = SCHEMA_VERSION
    defaulted: tuple[str, ...] = ()
    source_sha256: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))
        missing = sorted(_shipped().keys() - _SUBSYSTEMS.keys() - self.components.keys())
        if missing:
            raise CatalogError(f"catalog is missing required components: {', '.join(missing)}")

    def loss_db(self, name: str) -> float:
        return self.component(name).insertion_loss_db

    def component(self, name: str) -> ComponentSpec:
        try:
            return self.components[name]
        except KeyError:
            raise CatalogError(f"unknown component {name!r}") from None

    def with_losses(self, **loss_db: float) -> "DeviceCatalog":
        """Copy with selected component losses replaced (for sensitivity studies)."""
        comps = dict(self.components)
        for name, value in loss_db.items():
            comps[name] = replace(self.component(name), insertion_loss_db=value)
        return replace(self, components=comps)


def _energy_table(raw: Any) -> dict[int, Any]:
    """The modulator's {bits: fJ} table from its JSON object (keys are strings there)."""
    where = "sl_mzm.energy_per_switch_fj"
    if not (isinstance(raw, dict) and raw):
        raise CatalogError(f"{where} must be a non-empty object of bits: fJ, got {raw!r}")
    table = {}
    for key, value in raw.items():
        try:
            table[int(key)] = value
        except ValueError:
            raise CatalogError(f"{where} keys must be integer bit counts, got {key!r}") from None
    return table


def _build_entry(name: str, raw: Mapping[str, Any]) -> Any:
    """The entry ``name``: its shipped fields with those of ``raw`` laid over them."""
    cls = _SUBSYSTEMS.get(name, ComponentSpec)
    unknown = raw.keys() - _ENTRY_FIELDS[cls]
    if unknown:
        raise CatalogError(f"{name}: unknown fields {sorted(unknown)}")
    kwargs = {**_shipped()[name], **raw}
    if cls is ComponentSpec:
        kwargs.update(name=name, notes=str(kwargs.get("notes", "")))
    elif name == "sl_mzm":
        kwargs["energy_per_switch_fj"] = _energy_table(kwargs["energy_per_switch_fj"])
    return cls(**kwargs)


def load_catalog(path: str | os.PathLike[str]) -> DeviceCatalog:
    """Load and validate a catalog JSON file.

    An entry the file leaves out is the shipped file's, and is recorded in
    ``DeviceCatalog.defaulted``; a field an entry leaves out is the shipped
    entry's. Unknown component names are rejected so that typos cannot
    silently drop a loss term.
    """
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
        data = json.loads(raw_bytes)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog file {path}: {exc}") from None
    except ValueError as exc:                                  # bad JSON, UTF-8 or integer literal
        raise CatalogError(f"catalog file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CatalogError("catalog root must be a JSON object")
    if "schema_version" not in data:
        raise CatalogError("catalog is missing required field 'schema_version'")
    version = data["schema_version"]
    if version != SCHEMA_VERSION:
        raise CatalogError(f"unsupported catalog schema_version {version!r} (expected {SCHEMA_VERSION})")

    shipped = _shipped()
    entries: dict[str, Any] = {}
    for name, raw in data.items():
        if name == "schema_version":
            continue
        if not isinstance(raw, dict):
            raise CatalogError(f"{name}: entry must be a JSON object")
        if name not in shipped:
            raise CatalogError(f"unknown component name {name!r}")
        try:
            entries[name] = _build_entry(name, raw)
        except ValueError as exc:                              # the specs' checks name component.field
            raise CatalogError(str(exc)) from None
    defaulted = [name for name in shipped if name not in entries]
    for name in defaulted:
        entries[name] = _build_entry(name, {})

    return DeviceCatalog(
        components={name: spec for name, spec in entries.items() if name not in _SUBSYSTEMS},
        laser=entries["laser"],
        pd=entries["pd"],
        modulator=entries["sl_mzm"],
        pcm=entries["pcm"],
        soa=entries["soa"],
        converters=entries["converters"],
        vcsel=entries["vcsel"],
        thermo=entries["thermo"],
        defaulted=tuple(sorted(defaulted)),
        source_sha256=hashlib.sha256(raw_bytes).hexdigest(),
    )


def default_catalog_path() -> Path:
    env = os.environ.get("WAVECORE_CATALOG")
    if env:
        return Path(env)
    return _SHIPPED_PATH


def default_catalog() -> DeviceCatalog:
    """The shipped calibrated catalog (or the file named by WAVECORE_CATALOG)."""
    return load_catalog(default_catalog_path())


# ---------------------------------------------------------------------------
# Detector-side auxiliary calculators
# ---------------------------------------------------------------------------

def snr_required(bits: int) -> float:
    """SNR in dB a quantization-noise-limited converter needs at ``bits`` resolution."""
    check_number("bits", bits, integer=True, ge=1)
    return 6.02 * bits + 1.76


def pd_min_power(pd: PdSpec, snr_db: float) -> float:
    """Minimum optical power (W) at the detector for a shot-noise-limited SNR target.

    Solves I_ph^2 = k * 2q(I_ph + I_d)B with k = 10^(snr/10) for the positive
    root and converts photocurrent back to optical power via the responsivity.
    This is an auxiliary calculator; the catalog sensitivity figure is the
    value used by the system models.
    """
    check_number("snr_db", snr_db, ge=0.0)
    k = db_to_linear(snr_db)
    a = k * 2.0 * _Q_ELECTRON * pd.bandwidth_hz
    # I^2 - a I - a I_d = 0 -> positive root
    i_ph = 0.5 * (a + math.sqrt(a * a + 4.0 * a * pd.dark_current_a))
    return i_ph / pd.responsivity_a_per_w
