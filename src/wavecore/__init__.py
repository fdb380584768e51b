"""wavecore: analytical modeling toolkit for WDM photonic in-memory tensor cores.

The package evaluates candidate core designs (geometry x architecture variant)
along four axes: optical link budget, system power, chip area, and workload
throughput/energy. A desk-scale functional simulator of the quantized, noisy
analog datapath supports robustness studies.
"""

from .catalog import (
    CatalogError,
    ComponentSpec,
    ConverterCoeffs,
    DeviceCatalog,
    LaserSpec,
    ModulatorSpec,
    PcmSpec,
    PdSpec,
    db_to_linear,
    dbm_to_mw,
    default_catalog,
    linear_to_db,
    load_catalog,
    mw_to_dbm,
    pd_min_power,
    snr_required,
)
from .linkbudget import (
    Baseline3D,
    CoherentCombining,
    CoreGeometry,
    FeasibilityVerdict,
    KclOnly,
    LinkBudgetReport,
    MrrAccumulation,
    Planar2D,
    SoaAssisted,
    ThermoOpticWeights,
    critical_path_il,
    fanout_loss,
    variant_feasibility,
)
from .power import PowerReport, PrecisionSpec, adc_power, dac_power, laser_power, total_power, vcsel_program_energy
from .area import AreaParams, AreaReport, crossbar_area, reticle_check
from .workload import (
    ConvLayerSpec,
    PerfReport,
    TileSchedule,
    estimate_perf,
    load_workload,
    lower_conv,
    peak_tops,
    resnet50_workload,
    schedule,
)

__version__ = "0.1.0"

# The simulator's names load numpy, which the analytic commands never use, so
# they resolve from ``engine`` on first access (PEP 562).
_ENGINE_NAMES = frozenset({
    "AccumulationTree",
    "NoiseSpec",
    "PcmProgrammer",
    "PcmRefreshError",
    "QuantSpec",
    "inject_noise",
    "noisy_mvm",
    "pcm_program",
    "quantize",
})


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AccumulationTree",
    "AreaParams",
    "AreaReport",
    "Baseline3D",
    "CatalogError",
    "CoherentCombining",
    "ComponentSpec",
    "ConvLayerSpec",
    "ConverterCoeffs",
    "CoreGeometry",
    "DeviceCatalog",
    "FeasibilityVerdict",
    "KclOnly",
    "LaserSpec",
    "LinkBudgetReport",
    "ModulatorSpec",
    "MrrAccumulation",
    "NoiseSpec",
    "PcmProgrammer",
    "PcmRefreshError",
    "PcmSpec",
    "PdSpec",
    "PerfReport",
    "Planar2D",
    "PowerReport",
    "PrecisionSpec",
    "QuantSpec",
    "SoaAssisted",
    "ThermoOpticWeights",
    "TileSchedule",
    "adc_power",
    "crossbar_area",
    "critical_path_il",
    "dac_power",
    "db_to_linear",
    "dbm_to_mw",
    "default_catalog",
    "estimate_perf",
    "fanout_loss",
    "inject_noise",
    "laser_power",
    "linear_to_db",
    "load_catalog",
    "load_workload",
    "lower_conv",
    "mw_to_dbm",
    "noisy_mvm",
    "pcm_program",
    "pd_min_power",
    "peak_tops",
    "quantize",
    "resnet50_workload",
    "reticle_check",
    "schedule",
    "snr_required",
    "total_power",
    "variant_feasibility",
    "vcsel_program_energy",
]
