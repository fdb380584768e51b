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
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

SCHEMA_VERSION = 1

# The shipped calibration: the one source of every field's default value.
_SHIPPED_PATH = Path(__file__).parent / "data" / "default_catalog.json"

_Q_ELECTRON = 1.602176634e-19  # C

# The array's fixed structure: a 3x3 kernel's nine taps ride one comb group of
# nine wavelengths, and a multi-port detector sums sixteen buses. The models
# size the array from these constants, so a catalog's ``laser.channels_per_comb``
# and ``pd.max_ports`` must equal them.
WAVELENGTHS_PER_GROUP = 9
BUSES_PER_DETECTOR = 16


class CatalogError(ValueError):
    """Raised when a catalog file fails validation; message names the field."""


# ---------------------------------------------------------------------------
# Numeric field checks
# ---------------------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max
_REAL = (float, int)  # the exact types of the JSON numbers check_number admits


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
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"a result is out of float range: the power ratio of the dB value {x_db:.6g}") from None


# ---------------------------------------------------------------------------
# Component specs
# ---------------------------------------------------------------------------

def _check_structure(where: str, value: Any, fixed: int, meaning: str) -> None:
    """Raise a ValueError naming ``where`` unless ``value`` is the integer ``fixed``."""
    check_number(where, value, integer=True)
    if value != fixed:
        raise ValueError(f"{where} must be {fixed}, {meaning}, got {value}")


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
        # each test admits only values check_number admits, so an accepted one formats no label
        name, loss, area, static = self.name, self.insertion_loss_db, self.area_um, self.static_power_mw
        if type(loss) is not float or not 0.0 <= loss <= _FLOAT_MAX:
            check_number(f"{name}.insertion_loss_db", loss, ge=0.0)
            object.__setattr__(self, "insertion_loss_db", float(loss))
        if area is not None:
            if not (isinstance(area, (tuple, list)) and len(area) == 2):
                raise ValueError(f"{name}.area_um must be a [width, height] pair, got {area!r}")
            width, height = area
            if not (type(width) in _REAL and type(height) in _REAL
                    and 0.0 < width <= _FLOAT_MAX and 0.0 < height <= _FLOAT_MAX):
                for value in area:
                    check_number(f"{name}.area_um", value, gt=0.0)
            object.__setattr__(self, "area_um", (float(width), float(height)))
        if static is not None and (type(static) is not float or not 0.0 <= static <= _FLOAT_MAX):
            check_number(f"{name}.static_power_mw", static, ge=0.0)


@dataclass(frozen=True)
class LaserSpec:
    """Comb source: per-channel launch power and wall-plug efficiency."""

    channel_power_dbm: float
    channels_per_comb: int
    wpe: float

    def __post_init__(self) -> None:
        check_number("laser.channel_power_dbm", self.channel_power_dbm)
        _check_structure("laser.channels_per_comb", self.channels_per_comb, WAVELENGTHS_PER_GROUP,
                         "the wavelengths of one comb group")
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
        _check_structure("pd.max_ports", self.max_ports, BUSES_PER_DETECTOR, "the buses one detector sums")


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
            if type(bits) is not int or not 1 <= bits <= 16:  # the widths PrecisionSpec allows
                raise ValueError(f"sl_mzm.energy_per_switch_fj keys must be bit counts 1 to 16, "
                                 f"written in decimal, got {bits!r}")
            if type(energy) is not float or not 0.0 <= energy <= _FLOAT_MAX:  # as in ComponentSpec
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

# An entry's class and the fields a catalog entry may set, by subsystem name;
# every other entry is a component, whose name is its key.
_SUBSYSTEM_SPECS = {name: (cls, frozenset(f.name for f in fields(cls))) for name, cls in _SUBSYSTEMS.items()}
_COMPONENT_SPEC = (ComponentSpec, frozenset(f.name for f in fields(ComponentSpec)) - {"name"})


class _Shipped(NamedTuple):
    entries: dict[str, dict[str, Any]]
    components: frozenset[str]


@functools.cache
def _shipped() -> _Shipped:
    """The shipped file's entries by name, and the names of those that are
    components, not subsystems. Every catalog has exactly these entries; an
    entry or field a catalog leaves out takes the value here."""
    data = _parse_json(_SHIPPED_PATH.read_bytes())
    entries = {name: entry for name, entry in data.items() if name != "schema_version"}
    return _Shipped(entries, frozenset(entries.keys() - _SUBSYSTEMS.keys()))


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
    defaulted: tuple[str, ...] = ()
    source_sha256: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))
        required = _shipped().components
        if not required <= self.components.keys():
            missing = sorted(required - self.components.keys())
            raise CatalogError(f"catalog is missing required components: {', '.join(missing)}")

    def loss_db(self, name: str) -> float:
        return self.component(name).insertion_loss_db

    def component(self, name: str) -> ComponentSpec:
        try:
            return self.components[name]
        except KeyError:
            raise CatalogError(f"unknown component {name!r}") from None


# Each bit count's one decimal spelling as a JSON key.
_BITS_KEYS = {str(bits): bits for bits in range(1, 17)}


def _energy_table(raw: Any) -> dict[Any, Any]:
    """The modulator's {bits: fJ} table from its JSON object (keys are strings
    there). A key that is not a bit count in decimal stays a string, and
    :class:`ModulatorSpec` rejects it."""
    if not (isinstance(raw, dict) and raw):
        raise CatalogError(f"sl_mzm.energy_per_switch_fj must be a non-empty object of bits: fJ, got {raw!r}")
    return {_BITS_KEYS.get(key, key): value for key, value in raw.items()}


def _build_entry(name: str, shipped: Mapping[str, Any], raw: dict[str, Any]) -> Any:
    """The entry ``name``: the fields of its ``shipped`` entry with those of
    ``raw`` laid over them. A ``raw`` that states every shipped field is used
    as it is, not merged: it is this load's own dict, and may be changed."""
    cls, allowed = _SUBSYSTEM_SPECS.get(name, _COMPONENT_SPEC)
    if not raw.keys() <= allowed:
        raise CatalogError(f"{name}: unknown fields {sorted(raw.keys() - allowed)}")
    kwargs = raw if raw.keys() >= shipped.keys() else {**shipped, **raw}
    if cls is ComponentSpec:
        return ComponentSpec(name, kwargs["insertion_loss_db"], kwargs.get("area_um"), kwargs.get("static_power_mw"),
                             str(kwargs.get("notes", "")))
    if name == "sl_mzm":
        kwargs["energy_per_switch_fj"] = _energy_table(kwargs["energy_per_switch_fj"])
    return cls(**kwargs)


def _read_file(path: str | os.PathLike[str]) -> bytes:
    """The bytes of the file at ``path``, read with one ``open()`` and no
    :class:`~pathlib.Path`. Only when that fails is the path normalized as
    ``Path(path)`` spells it (no repeated or trailing slashes, no ``.``
    parts) and opened again, so the file read, and the path an ``OSError``
    names, are those of ``Path(path)``; an empty path is not retried, as
    ``Path("")`` is ``.``. A NUL byte in the path raises ``ValueError``."""
    try:
        file = open(os.fspath(path), "rb")
    except (OSError, ValueError):
        if path == "":
            raise
        file = open(Path(path), "rb")
    with file:
        return file.read()


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for key in obj if keys.count(key) > 1)!r}")
    return obj


# One decoder for every load, as json.loads shares its default one; it holds no state between calls.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse_json(text: str | bytes) -> Any:
    """``json.loads``, but a key repeated in one object is a ValueError naming it, not its last
    value. Bytes are decoded as it decodes them: UTF-8, -16 or -32, with or without a BOM."""
    if isinstance(text, str):
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    elif isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    else:
        raise TypeError(f"the JSON object must be str, bytes or bytearray, not {text.__class__.__name__}")
    return _DECODER.decode(text)


def load_catalog(path: str | os.PathLike[str]) -> DeviceCatalog:
    """Load and validate a catalog JSON file.

    An entry the file leaves out is the shipped file's, and is recorded in
    ``DeviceCatalog.defaulted``; a field an entry leaves out is the shipped
    entry's. Unknown component names are rejected so that typos cannot
    silently drop a loss term.
    """
    try:
        raw_bytes = _read_file(path)
    except (OSError, ValueError) as exc:                       # unreadable, or a NUL byte in the path
        raise CatalogError(f"cannot read catalog file {Path(path) if path != '' else repr(path)}: {exc}") from None
    try:
        data = _parse_json(raw_bytes)
    except ValueError as exc:                                  # bad JSON, UTF-8 or integer literal, repeated key
        raise CatalogError(f"catalog file {Path(path)} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CatalogError("catalog root must be a JSON object")
    if "schema_version" not in data:
        raise CatalogError("catalog is missing required field 'schema_version'")
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # not True, nor 1.0
        raise CatalogError(f"unsupported catalog schema_version {version!r} (expected {SCHEMA_VERSION})")

    shipped = _shipped().entries
    entries: dict[str, Any] = {}
    for name, raw in data.items():
        if name == "schema_version":
            continue
        if not isinstance(raw, dict):
            raise CatalogError(f"{name}: entry must be a JSON object")
        entry = shipped.get(name)
        if entry is None:
            raise CatalogError(f"unknown component name {name!r}")
        try:
            entries[name] = _build_entry(name, entry, raw)
        except ValueError as exc:                              # the specs' checks name component.field
            raise CatalogError(str(exc)) from None
    defaulted = [name for name in shipped if name not in entries]
    for name in defaulted:
        entries[name] = _build_entry(name, shipped[name], {})

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
    power = i_ph / pd.responsivity_a_per_w
    if not math.isfinite(power):
        raise ValueError(f"a result is out of float range: the detector power for snr_db {snr_db:.6g} dB")
    return power
