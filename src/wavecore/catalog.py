"""Component parameter catalog: loading, validation, and unit-safe conversions.

Every optical/electronic building block of the core is described by a small
set of numbers (insertion loss in dB, footprint in um, static power in mW,
switching energies in fJ/pJ, timing in ns). They all live in one JSON file so
that ablations and recalibration never require touching code. The shipped
default file reproduces the reference 144x256 design point.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

SCHEMA_VERSION = 1

_Q_ELECTRON = 1.602176634e-19  # C


class CatalogError(ValueError):
    """Raised when a catalog file fails validation; message names the field."""


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def db_to_linear(x_db: float) -> float:
    """Power ratio for a dB value: 10^(x/10)."""
    if not math.isfinite(x_db):
        raise ValueError(f"dB value must be finite, got {x_db!r}")
    return 10.0 ** (x_db / 10.0)


def linear_to_db(ratio: float) -> float:
    if not math.isfinite(ratio) or ratio <= 0.0:
        raise ValueError(f"power ratio must be finite and positive, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def dbm_to_mw(x_dbm: float) -> float:
    """Absolute power in mW for a dBm value."""
    if not math.isfinite(x_dbm):
        raise ValueError(f"dBm value must be finite, got {x_dbm!r}")
    return 10.0 ** (x_dbm / 10.0)


def mw_to_dbm(p_mw: float) -> float:
    if not math.isfinite(p_mw) or p_mw <= 0.0:
        raise ValueError(f"power in mW must be finite and positive, got {p_mw!r}")
    return 10.0 * math.log10(p_mw)


# ---------------------------------------------------------------------------
# Component specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentSpec:
    """A passive (or mostly passive) photonic component.

    ``insertion_loss_db`` is the on-path attenuation per traversal. Area is
    the layout bounding box in um. ``static_power_mw`` holds a continuous
    drive/bias power where the component has one (e.g. a VOA trim bias).
    """

    name: str
    insertion_loss_db: float
    area_um: tuple[float, float] | None = None
    static_power_mw: float | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.insertion_loss_db) or self.insertion_loss_db < 0.0:
            raise CatalogError(
                f"{self.name}.insertion_loss_db must be finite and >= 0, got {self.insertion_loss_db!r}"
            )
        if self.area_um is not None:
            w, h = self.area_um
            if w <= 0.0 or h <= 0.0:
                raise CatalogError(f"{self.name}.area_um dimensions must be positive, got {self.area_um!r}")
        if self.static_power_mw is not None and self.static_power_mw < 0.0:
            raise CatalogError(f"{self.name}.static_power_mw must be >= 0, got {self.static_power_mw!r}")


@dataclass(frozen=True)
class LaserSpec:
    """Comb source: per-channel launch power and wall-plug efficiency."""

    channel_power_dbm: float = 10.0
    channels_per_comb: int = 9
    wpe: float = 0.2

    def __post_init__(self) -> None:
        if self.channels_per_comb < 1:
            raise CatalogError(f"laser.channels_per_comb must be >= 1, got {self.channels_per_comb}")
        if not 0.0 < self.wpe <= 1.0:
            raise CatalogError(f"laser.wpe must be in (0, 1], got {self.wpe!r}")


@dataclass(frozen=True)
class PdSpec:
    """Multi-port waveguide photodetector used for optical accumulation."""

    responsivity_a_per_w: float = 0.82
    dark_current_a: float = 43e-9
    bandwidth_hz: float = 11.8e9
    sensitivity_dbm: float = -25.0
    max_ports: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.responsivity_a_per_w <= 1.2:
            raise CatalogError(f"pd.responsivity_a_per_w must be in (0, 1.2], got {self.responsivity_a_per_w!r}")
        if self.sensitivity_dbm >= 0.0:
            raise CatalogError(f"pd.sensitivity_dbm must be < 0 dBm, got {self.sensitivity_dbm!r}")
        if self.max_ports < 1:
            raise CatalogError(f"pd.max_ports must be >= 1, got {self.max_ports}")
        if self.dark_current_a < 0.0:
            raise CatalogError(f"pd.dark_current_a must be >= 0, got {self.dark_current_a!r}")
        if self.bandwidth_hz <= 0.0:
            raise CatalogError(f"pd.bandwidth_hz must be > 0, got {self.bandwidth_hz!r}")


@dataclass(frozen=True)
class ModulatorSpec:
    """Input amplitude modulator (slow-light MZM).

    ``energy_per_switch_fj`` is keyed by drive resolution in bits; the driver
    power model picks the entry matching the configured input precision.
    """

    insertion_loss_db: float = 3.0
    extinction_ratio_db: float = 1.17
    energy_per_switch_fj: Mapping[int, float] = field(
        default_factory=lambda: MappingProxyType({4: 131.6, 6: 119.8, 8: 117.1})
    )
    max_rate_hz: float = 1e9

    def __post_init__(self) -> None:
        if self.extinction_ratio_db <= 0.0:
            raise CatalogError(f"sl_mzm.extinction_ratio_db must be > 0, got {self.extinction_ratio_db!r}")
        if self.insertion_loss_db < 0.0:
            raise CatalogError(f"sl_mzm.insertion_loss_db must be >= 0, got {self.insertion_loss_db!r}")
        if self.max_rate_hz <= 0.0:
            raise CatalogError(f"sl_mzm.max_rate_hz must be > 0, got {self.max_rate_hz!r}")
        object.__setattr__(self, "energy_per_switch_fj", MappingProxyType(dict(self.energy_per_switch_fj)))

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

    program_energy_pj: float = 135.0
    erase_energy_pj: float = 680.0
    program_time_ns: float = 50.0
    stabilize_program_ns: float = 200.0
    erase_time_ns: float = 250.0
    stabilize_erase_ns: float = 500.0
    levels_bits: int = 7
    program_std: float = 0.01

    def __post_init__(self) -> None:
        for name in ("program_energy_pj", "erase_energy_pj", "program_time_ns",
                     "stabilize_program_ns", "erase_time_ns", "stabilize_erase_ns"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise CatalogError(f"pcm.{name} must be finite and >= 0, got {value!r}")
        if self.levels_bits not in (5, 7):
            raise CatalogError(f"pcm.levels_bits must be 5 or 7, got {self.levels_bits}")
        if self.program_std < 0.0:
            raise CatalogError(f"pcm.program_std must be >= 0, got {self.program_std!r}")

    @property
    def cycle_time_ns(self) -> float:
        return self.program_time_ns + self.stabilize_program_ns + self.erase_time_ns + self.stabilize_erase_ns


@dataclass(frozen=True)
class SoaSpec:
    """On-chip optical amplifier used by the amplified-fanout variant."""

    facet_loss_db: float = 1.0
    gain_db: float = 24.7
    drive_power_mw: float = 410.0

    def __post_init__(self) -> None:
        if self.facet_loss_db < 0.0:
            raise CatalogError(f"soa.facet_loss_db must be >= 0, got {self.facet_loss_db!r}")
        if self.drive_power_mw < 0.0:
            raise CatalogError(f"soa.drive_power_mw must be >= 0, got {self.drive_power_mw!r}")


@dataclass(frozen=True)
class ConverterCoeffs:
    """Technology coefficients for the converter resolution-rate scaling law."""

    p0_dac_ws: float
    p0_adc_ws: float

    def __post_init__(self) -> None:
        if self.p0_dac_ws <= 0.0:
            raise CatalogError(f"converters.p0_dac_ws must be > 0, got {self.p0_dac_ws!r}")
        if self.p0_adc_ws <= 0.0:
            raise CatalogError(f"converters.p0_adc_ws must be > 0, got {self.p0_adc_ws!r}")


@dataclass(frozen=True)
class VcselSpec:
    """Programming emitter: electrical-to-optical conversion efficiency."""

    efficiency: float = 0.548

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise CatalogError(f"vcsel.efficiency must be in (0, 1], got {self.efficiency!r}")


@dataclass(frozen=True)
class ThermalSpec:
    """Per-weight hold power for volatile thermo-optic weighting (calibration)."""

    heater_hold_mw_per_weight: float = 6.55

    def __post_init__(self) -> None:
        if self.heater_hold_mw_per_weight < 0.0:
            raise CatalogError(
                f"thermo.heater_hold_mw_per_weight must be >= 0, got {self.heater_hold_mw_per_weight!r}"
            )


# Passive components every catalog must resolve (shipped defaults fill gaps).
_DEFAULT_COMPONENTS: dict[str, ComponentSpec] = {
    "awg": ComponentSpec("awg", 1.5, (600.0, 1800.0), notes="9-channel demux, crosstalk -24 dB"),
    "escalator": ComponentSpec(
        "escalator", 0.1, notes="per interlayer transition; derived default, not separately tabulated"
    ),
    "mmi_1x8": ComponentSpec("mmi_1x8", 0.14, (27.8, 11.3)),
    "splitter_1x2": ComponentSpec("splitter_1x2", 0.02, (80.0, 10.0), notes="excess loss per stage"),
    "wsc": ComponentSpec("wsc", 0.25, (100.0, 10.0), notes="crosstalk -20 dB"),
    "voa": ComponentSpec(
        "voa", 0.18, (116.0, 20.0), static_power_mw=70.0 / 6.0,
        notes="trim bias calibrated at 1 dB average equalization (11.67 mW/dB slope)",
    ),
    "pcm_cell": ComponentSpec(
        "pcm_cell", 0.675, (2.5, 3.0), notes="amorphous on-path loss: 2.5 um x 0.27 dB/um (derived)"
    ),
    "crossing": ComponentSpec("crossing", 0.23, (8.0, 8.0)),
    "y_branch": ComponentSpec("y_branch", 0.1, notes="excess loss per stage; calibration default"),
    "grating_coupler": ComponentSpec("grating_coupler", 1.43, (8.0, 8.0), notes="vertical programming port"),
    "pd_block": ComponentSpec("pd_block", 0.0, (40.0, 100.0), notes="16-port detector footprint"),
    "tia": ComponentSpec("tia", 0.0, static_power_mw=3.0, notes="per-column readout amplifier (calibration)"),
}

_SUBSYSTEM_FIELDS = {
    "laser": LaserSpec,
    "pd": PdSpec,
    "sl_mzm": ModulatorSpec,
    "pcm": PcmSpec,
    "soa": SoaSpec,
    "converters": ConverterCoeffs,
    "vcsel": VcselSpec,
    "thermo": ThermalSpec,
}

# Converter coefficients are calibrated so that the reference 144x256 core at
# the calibrated clock totals 14.4 W (see shipped catalog notes).
_DEFAULT_CONVERTERS = ConverterCoeffs(p0_dac_ws=1.3767e-13, p0_adc_ws=1.3767e-13)


@dataclass(frozen=True)
class DeviceCatalog:
    """Immutable component parameter set shared by all models.

    Safe to share across concurrent evaluations after load. ``defaulted``
    lists the fields that were absent from the source file and filled from
    shipped defaults.
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
        missing = sorted(set(_DEFAULT_COMPONENTS) - set(self.components))
        if missing:
            raise CatalogError(f"catalog is missing required components: {', '.join(missing)}")

    def loss_db(self, name: str) -> float:
        try:
            return self.components[name].insertion_loss_db
        except KeyError:
            raise CatalogError(f"unknown component {name!r}") from None

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


def _build_component(name: str, raw: Mapping[str, Any]) -> ComponentSpec:
    known = {"insertion_loss_db", "area_um", "static_power_mw", "notes"}
    unknown = set(raw) - known
    if unknown:
        raise CatalogError(f"{name}: unknown fields {sorted(unknown)}")
    base = _DEFAULT_COMPONENTS[name]
    area = raw.get("area_um", base.area_um)
    if area is not None:
        area = (float(area[0]), float(area[1]))
    return ComponentSpec(
        name=name,
        insertion_loss_db=float(raw.get("insertion_loss_db", base.insertion_loss_db)),
        area_um=area,
        static_power_mw=raw.get("static_power_mw", base.static_power_mw),
        notes=str(raw.get("notes", base.notes)),
    )


def _build_subsystem(name: str, cls: type, raw: Mapping[str, Any]) -> Any:
    valid = {f.name for f in fields(cls)}
    unknown = set(raw) - valid
    if unknown:
        raise CatalogError(f"{name}: unknown fields {sorted(unknown)}")
    kwargs = dict(raw)
    if name == "sl_mzm" and "energy_per_switch_fj" in kwargs:
        kwargs["energy_per_switch_fj"] = {int(k): float(v) for k, v in kwargs["energy_per_switch_fj"].items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise CatalogError(f"{name}: {exc}") from None


def load_catalog(path: str | os.PathLike[str]) -> DeviceCatalog:
    """Load and validate a catalog JSON file.

    Missing optional entries are filled from shipped defaults and recorded in
    ``DeviceCatalog.defaulted``. Unknown component names are rejected so that
    typos cannot silently drop a loss term.
    """
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
        data = json.loads(raw_bytes)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog file {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CatalogError(f"catalog file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CatalogError("catalog root must be a JSON object")
    if "schema_version" not in data:
        raise CatalogError("catalog is missing required field 'schema_version'")
    version = data["schema_version"]
    if version != SCHEMA_VERSION:
        raise CatalogError(f"unsupported catalog schema_version {version!r} (expected {SCHEMA_VERSION})")

    components: dict[str, ComponentSpec] = {}
    subsystems: dict[str, Any] = {}
    defaulted: list[str] = []
    for name, raw in data.items():
        if name == "schema_version":
            continue
        if not isinstance(raw, dict):
            raise CatalogError(f"{name}: entry must be a JSON object")
        if name in _DEFAULT_COMPONENTS:
            components[name] = _build_component(name, raw)
        elif name in _SUBSYSTEM_FIELDS:
            subsystems[name] = _build_subsystem(name, _SUBSYSTEM_FIELDS[name], raw)
        else:
            raise CatalogError(f"unknown component name {name!r}")

    for name, spec in _DEFAULT_COMPONENTS.items():
        if name not in components:
            components[name] = spec
            defaulted.append(name)
    for name, cls in _SUBSYSTEM_FIELDS.items():
        if name not in subsystems:
            subsystems[name] = _DEFAULT_CONVERTERS if name == "converters" else cls()
            defaulted.append(name)

    return DeviceCatalog(
        components=components,
        laser=subsystems["laser"],
        pd=subsystems["pd"],
        modulator=subsystems["sl_mzm"],
        pcm=subsystems["pcm"],
        soa=subsystems["soa"],
        converters=subsystems["converters"],
        vcsel=subsystems["vcsel"],
        thermo=subsystems["thermo"],
        defaulted=tuple(sorted(defaulted)),
        source_sha256=hashlib.sha256(raw_bytes).hexdigest(),
    )


def default_catalog_path() -> Path:
    env = os.environ.get("WAVECORE_CATALOG")
    if env:
        return Path(env)
    return Path(__file__).parent / "data" / "default_catalog.json"


def default_catalog() -> DeviceCatalog:
    """The shipped calibrated catalog (or the file named by WAVECORE_CATALOG)."""
    return load_catalog(default_catalog_path())


# ---------------------------------------------------------------------------
# Detector-side auxiliary calculators
# ---------------------------------------------------------------------------

def snr_required(bits: int) -> float:
    """SNR in dB a quantization-noise-limited converter needs at ``bits`` resolution."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return 6.02 * bits + 1.76


def pd_min_power(pd: PdSpec, snr_db: float) -> float:
    """Minimum optical power (W) at the detector for a shot-noise-limited SNR target.

    Solves I_ph^2 = k * 2q(I_ph + I_d)B with k = 10^(snr/10) for the positive
    root and converts photocurrent back to optical power via the responsivity.
    This is an auxiliary calculator; the catalog sensitivity figure is the
    value used by the system models.
    """
    if snr_db < 0.0:
        raise ValueError(f"snr_db must be >= 0, got {snr_db!r}")
    k = db_to_linear(snr_db)
    a = k * 2.0 * _Q_ELECTRON * pd.bandwidth_hz
    # I^2 - a I - a I_d = 0 -> positive root
    i_ph = 0.5 * (a + math.sqrt(a * a + 4.0 * a * pd.dark_current_a))
    return i_ph / pd.responsivity_a_per_w
