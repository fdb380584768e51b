"""wavecore: analytical modeling toolkit for WDM photonic in-memory tensor cores.

The package evaluates candidate core designs (geometry x architecture variant)
along four axes: optical link budget, system power, chip area, and workload
throughput/energy. A desk-scale functional simulator of the quantized, noisy
analog datapath supports robustness studies.
"""

import types

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
    default_catalog,
    load_catalog,
    pd_min_power,
    snr_required,
)
from .linkbudget import (
    Baseline3D,
    CoherentCombining,
    CoreGeometry,
    KclOnly,
    LinkBudgetReport,
    MrrAccumulation,
    Planar2D,
    SoaAssisted,
    ThermoOpticWeights,
    critical_path_il,
    fanout_loss,
)
from .power import (
    PowerReport,
    PrecisionSpec,
    dac_power,
    laser_power,
    total_power,
    total_power_cores,
    vcsel_program_energy,
)
from .area import AreaReport, crossbar_area
from .workload import (
    ConvLayerSpec,
    PerfReport,
    TileSchedule,
    estimate_perf,
    estimate_perf_cores,
    load_workload,
    lower_conv,
    peak_tops,
    resnet50_workload,
    schedule,
    schedule_cores,
)

__version__ = "0.1.0"

# The simulator's names load numpy, which the analytic commands never use, so
# they resolve from ``engine`` on first access (PEP 562).
_ENGINE_NAMES = frozenset({
    "NoiseSpec",
    "PcmProgrammer",
    "PcmRefreshError",
    "QuantSpec",
    "inject_noise",
    "noisy_mvm",
    "quantize",
})


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Every public name imported above, plus the lazily resolved simulator names.
__all__ = sorted(
    {name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    | _ENGINE_NAMES
)
