"""The package's public names, pinned: adding or removing one is a reviewed
edit of this list, not a side effect of an import."""

import wavecore

PUBLIC_NAMES = [
    "AreaReport",
    "Baseline3D",
    "CatalogError",
    "CoherentCombining",
    "ComponentSpec",
    "ConvLayerSpec",
    "ConverterCoeffs",
    "CoreGeometry",
    "DeviceCatalog",
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
    "critical_path_il",
    "crossbar_area",
    "dac_power",
    "db_to_linear",
    "default_catalog",
    "estimate_perf",
    "estimate_perf_cores",
    "fanout_loss",
    "inject_noise",
    "laser_power",
    "load_catalog",
    "load_workload",
    "lower_conv",
    "noisy_mvm",
    "pd_min_power",
    "peak_tops",
    "quantize",
    "resnet50_workload",
    "schedule",
    "schedule_cores",
    "snr_required",
    "total_power",
    "total_power_cores",
    "vcsel_program_energy",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 51
    assert wavecore.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(wavecore, name) is not None, name
