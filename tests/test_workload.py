import dataclasses
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from wavecore import (
    ConvLayerSpec,
    CoreGeometry,
    PerfReport,
    estimate_perf,
    estimate_perf_cores,
    load_workload,
    lower_conv,
    peak_tops,
    resnet50_workload,
    schedule,
    schedule_cores,
    total_power,
)
from wavecore.workload import PARETO_CLOCK_HZ, workload_to_jsonable


@pytest.fixture(scope="module")
def resnet():
    return resnet50_workload(256)


class TestLowering:
    def test_full_core_pass(self, core_144x256):
        dims = lower_conv(ConvLayerSpec("l", 16, 256, 3, 8, 8), core_144x256)
        assert dims.channels_per_pass * 9 == 144
        assert dims.tiles_row == 1 and dims.tiles_col == 1
        assert dims.utilization == 1.0

    def test_minimal_pointwise(self, core_144x256):
        dims = lower_conv(ConvLayerSpec("l", 1, 1, 1, 1, 1), core_144x256)
        assert (dims.tiles_row, dims.tiles_col) == (1, 1)
        assert dims.utilization == 1 / 144

    def test_row_tiling(self, core_144x256):
        dims = lower_conv(ConvLayerSpec("l", 64, 256, 3, 8, 8), core_144x256)
        assert dims.tiles_row == 4 and dims.tiles_col == 1

    def test_pointwise_default_one_tap_per_group(self, core_144x256):
        dims = lower_conv(ConvLayerSpec("l", 16, 16, 1, 4, 4), core_144x256, pack_pointwise=False)
        assert dims.channels_per_pass == 16
        assert dims.utilization == pytest.approx(16 / 144)

    def test_pointwise_packed(self, core_144x256):
        dims = lower_conv(ConvLayerSpec("l", 144, 16, 1, 4, 4), core_144x256, pack_pointwise=True)
        assert dims.channels_per_pass == 144
        assert dims.tiles_row == 1
        assert dims.utilization == 1.0

    def test_unsupported_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            ConvLayerSpec("l", 3, 64, 7, 8, 8)

    @pytest.mark.parametrize("name", [5, ["x"], "", None])
    def test_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(ValueError, match="^name must be a non-empty string"):
            ConvLayerSpec(name, kind="other")


class TestSchedule:
    def test_single_full_core_layer(self, catalog, core_144x256):
        layers = (ConvLayerSpec("l", 16, 256, 3, 8, 8),)
        sched = schedule(layers, core_144x256, catalog.pcm)
        assert sched.total_tile_loads == 1
        assert sched.total_stream_cycles == 64

    def test_bundled_network_tile_loads(self, catalog, core_144x256, resnet):
        sched = schedule(resnet, core_144x256, catalog.pcm, pack_pointwise=True)
        assert 400 <= sched.total_tile_loads <= 900
        assert sched.total_tile_loads == 712  # frozen regression
        assert sched.total_stream_cycles == 253696
        assert sched.total_programmed_cells == 23447232

    def test_tiny_core_blowup(self, catalog, core_144x256, core_9x8, resnet):
        big = schedule(resnet, core_144x256, catalog.pcm, pack_pointwise=True)
        small = schedule(resnet, core_9x8, catalog.pcm, pack_pointwise=True)
        assert small.total_tile_loads >= 100 * big.total_tile_loads

    def test_unpacked_mapping_costs_more(self, catalog, core_144x256, resnet):
        packed = schedule(resnet, core_144x256, catalog.pcm, pack_pointwise=True)
        unpacked = schedule(resnet, core_144x256, catalog.pcm, pack_pointwise=False)
        assert unpacked.total_tile_loads > packed.total_tile_loads
        # identical weights are written either way
        assert unpacked.total_programmed_cells == packed.total_programmed_cells

    def test_non_conv_ops_flagged(self, catalog, core_144x256, resnet):
        sched = schedule(resnet, core_144x256, catalog.pcm)
        assert set(sched.flagged_ops) == {"maxpool", "avgpool", "fc"}
        flagged = [e for e in sched.entries if e.flagged]
        assert all(e.tile_loads == 0 and e.stream_cycles == 0 for e in flagged)

    def test_empty_workload_rejected(self, catalog, core_144x256):
        with pytest.raises(ValueError, match="empty"):
            schedule((), core_144x256, catalog.pcm)


def _layers():
    conv = st.builds(
        ConvLayerSpec,
        name=st.text("abc", min_size=1, max_size=4),
        c_in=st.integers(1, 2048),
        c_out=st.integers(1, 2048),
        kernel=st.sampled_from([1, 3]),
        h_out=st.integers(1, 128),
        w_out=st.integers(1, 128),
    )
    other = st.builds(ConvLayerSpec, name=st.text("xyz", min_size=1, max_size=4), kind=st.just("other"))
    return st.lists(st.one_of(conv, other), min_size=1, max_size=12)


def _geometries():
    cols = st.one_of(st.integers(1, 7), st.integers(1, 64).map(lambda n: 8 * n))
    return st.builds(CoreGeometry, rows=st.integers(1, 32).map(lambda g: 9 * g), cols=cols)


class TestLoweringProperties:
    @given(kernel=st.sampled_from([1, 3]), c_in=st.integers(1, 2048), geom=_geometries(), pack=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_passes_fit_the_rows(self, kernel, c_in, geom, pack):
        # a pass's weight rows fit the array, and utilization is the layer's rows
        # over the rows of all its passes
        taps = kernel * kernel
        dims = lower_conv(ConvLayerSpec("l", c_in, 1, kernel), geom, pack_pointwise=pack)
        assert dims.channels_per_pass * taps <= geom.rows
        assert 0 < dims.utilization <= 1
        assert dims.utilization == taps * c_in / (dims.tiles_row * geom.rows)


class TestScheduleColumns:
    @given(layers=_layers(), geom=_geometries(), pack=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_columns_sum_to_totals_and_match_lowering(self, catalog, layers, geom, pack):
        sched = schedule(layers, geom, catalog.pcm, pack_pointwise=pack)
        assert sched.workload == tuple(layers)
        entries = sched.entries
        assert len(entries) == len(layers)
        assert sched.total_tile_loads == sum(entry.tile_loads for entry in entries)
        assert sched.total_stream_cycles == sum(entry.stream_cycles for entry in entries)
        assert sched.total_programmed_cells == sum(entry.programmed_cells for entry in entries)
        if any(layer.kind == "conv" for layer in layers):  # a perf needs photonic work
            # the per-layer rows are reachable from the perf, and sum to its counts
            perf = estimate_perf(sched, total_power(geom, catalog), 1e9, catalog)
            assert perf.schedule.entries == entries
            doc = perf.to_jsonable()
            assert doc["tile_loads"] == sum(entry.tile_loads for entry in entries)
            assert doc["stream_cycles"] == sum(entry.stream_cycles for entry in entries)
            assert doc["programmed_cells"] == sum(entry.programmed_cells for entry in entries)
            assert doc["flagged_ops"] == [entry.layer.name for entry in entries if entry.flagged]

        # the seed's walk: one LoweredDims per conv layer, totals summed from it
        loads = cycles = cells = 0
        flagged = []
        for layer, entry in zip(layers, sched.entries):
            assert entry.layer is layer
            if layer.kind != "conv":
                assert entry.lowered is None and entry.flagged
                assert (entry.tile_loads, entry.stream_cycles, entry.programmed_cells) == (0, 0, 0)
                flagged.append(layer.name)
                continue
            dims = lower_conv(layer, geom, pack_pointwise=pack)
            assert entry.lowered == dims
            per_pass = dims.channels_per_pass
            assert dims.tiles_row * per_pass >= layer.c_in > (dims.tiles_row - 1) * per_pass
            assert dims.tiles_col * geom.cols >= layer.c_out > (dims.tiles_col - 1) * geom.cols
            assert entry.tile_loads == dims.tiles_row * dims.tiles_col
            assert entry.stream_cycles == entry.tile_loads * layer.positions
            assert entry.programmed_cells == layer.weight_count
            loads += dims.tiles_row * dims.tiles_col
            cycles += dims.tiles_row * dims.tiles_col * layer.positions
            cells += layer.weight_count
        totals = (sched.total_tile_loads, sched.total_stream_cycles, sched.total_programmed_cells)
        assert totals == (loads, cycles, cells)
        assert sched.flagged_ops == tuple(flagged)


@st.composite
def _repeated_shape_workloads(draw):
    # a few (kernel, c_in, c_out) shapes, each repeated at drawn output sizes,
    # with non-conv layers between them
    shapes = draw(st.lists(
        st.tuples(st.sampled_from([1, 3]), st.integers(1, 2048), st.integers(1, 2048)), min_size=1, max_size=4
    ))
    picks = draw(st.lists(st.one_of(st.none(), st.sampled_from(range(len(shapes)))), min_size=1, max_size=16))
    layers = []
    for i, pick in enumerate(picks):
        if pick is None:
            layers.append(ConvLayerSpec(f"other{i}", kind="other"))
        else:
            kernel, c_in, c_out = shapes[pick]
            h_out, w_out = draw(st.integers(1, 128)), draw(st.integers(1, 128))
            layers.append(ConvLayerSpec(f"conv{i}", c_in, c_out, kernel, h_out, w_out))
    return tuple(layers)


@st.composite
def _core_lists(draw):
    # 0-6 cores drawn from a pool of at most three, so repeats are common
    pool = draw(st.lists(_geometries(), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), max_size=6))


class TestScheduleCores:
    @given(layers=_repeated_shape_workloads(), geoms=_core_lists(), pack=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_each_core_matches_its_own_schedule_and_the_lowering(self, catalog, layers, geoms, pack):
        scheds = schedule_cores(layers, geoms, pack_pointwise=pack)
        assert len(scheds) == len(geoms)
        for geom, sched in zip(geoms, scheds):
            assert sched == schedule(layers, geom, catalog.pcm, pack_pointwise=pack)
            assert sched.geometry is geom
            entries = sched.entries
            assert sched.total_tile_loads == sum(entry.tile_loads for entry in entries)
            assert sched.total_stream_cycles == sum(entry.stream_cycles for entry in entries)
            assert sched.total_programmed_cells == sum(entry.programmed_cells for entry in entries)

            # reference: one lower_conv per conv layer, summed in layer order
            loads = cycles = cells = 0
            for layer in layers:
                if layer.kind != "conv":
                    continue
                dims = lower_conv(layer, geom, pack_pointwise=pack)
                loads += dims.tiles_row * dims.tiles_col
                cycles += dims.tiles_row * dims.tiles_col * layer.positions
                cells += layer.weight_count
            totals = (sched.total_tile_loads, sched.total_stream_cycles, sched.total_programmed_cells)
            assert totals == (loads, cycles, cells)
            assert sched.flagged_ops == tuple(layer.name for layer in layers if layer.kind != "conv")

    def test_no_cores_give_no_schedules(self, resnet):
        assert schedule_cores(resnet, []) == ()

    def test_empty_workload_rejected_without_cores(self):
        with pytest.raises(ValueError, match="empty"):
            schedule_cores((), [])


class TestPeakTops:
    def test_reference_point(self, core_144x256):
        assert peak_tops(core_144x256, PARETO_CLOCK_HZ) == pytest.approx(342.1, rel=1e-9)

    def test_unit_core(self):
        assert peak_tops(CoreGeometry(9, 8), 1.0) == pytest.approx(2 * 72 / 1e12, rel=1e-12)

    def test_reference_core_at_1ghz(self, core_144x256):
        assert peak_tops(core_144x256, 1e9) == pytest.approx(73.728, rel=1e-12)

    def test_rate_out_of_float_range_rejected(self):
        # 2 * 72 * 1e308 returned inf
        with pytest.raises(ValueError, match="^a result is out of float range: .* f_hz 1e\\+308 Hz$"):
            peak_tops(CoreGeometry(9, 8), 1e308)


class TestPerf:
    def test_the_report_keeps_only_its_inputs(self, catalog, core_144x256, resnet):
        fields = [field.name for field in dataclasses.fields(PerfReport)]
        assert fields == ["schedule", "power", "latency_s", "energy_program_j", "energy_erase_j"]
        sched = schedule(resnet, core_144x256, catalog.pcm)
        power = total_power(core_144x256, catalog)
        perf = estimate_perf(sched, power, 1e9, catalog)
        assert perf.schedule is sched
        assert perf.power is power
        assert (perf.f_hz, perf.total_power_w) == (power.f_hz, power.total_w)
        assert perf.peak_tops == peak_tops(core_144x256, 1e9)

    def test_single_tile_latency_closed_form(self, catalog, core_144x256):
        layers = (ConvLayerSpec("l", 1, 1, 1, 1, 1),)
        sched = schedule(layers, core_144x256, catalog.pcm)
        power = total_power(core_144x256, catalog, f_hz=1e9)
        perf = estimate_perf(sched, power, 1e9, catalog)
        assert perf.latency_s == pytest.approx(1e-6 + 1e-9, rel=1e-12)

    def test_identities(self, catalog, core_144x256, resnet):
        power = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ)
        sched = schedule(resnet, core_144x256, catalog.pcm)
        perf = estimate_perf(sched, power, PARETO_CLOCK_HZ, catalog, allow_overclock=True)
        assert perf.fps * perf.latency_s == pytest.approx(1.0, rel=1e-9)
        assert perf.tops_per_w * perf.total_power_w == pytest.approx(perf.peak_tops, rel=1e-9)
        assert perf.fps_per_w * perf.total_power_w == pytest.approx(perf.fps, rel=1e-9)

    def test_energy_split_is_consistent(self, catalog, core_144x256, resnet):
        power = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ)
        sched = schedule(resnet, core_144x256, catalog.pcm)
        perf = estimate_perf(sched, power, PARETO_CLOCK_HZ, catalog, allow_overclock=True)
        assert perf.energy_per_inference_j == pytest.approx(
            perf.energy_steady_j + perf.energy_program_j, rel=1e-12
        )
        assert perf.energy_with_erase_j == pytest.approx(
            perf.energy_per_inference_j + perf.energy_erase_j, rel=1e-12
        )
        # per-cell electrical energies follow the emitter conversion
        assert perf.energy_program_j == pytest.approx(
            perf.schedule.total_programmed_cells * 342.4153e-12, rel=1e-4
        )

    def test_growing_core_helps(self, catalog, resnet):
        small_geom = CoreGeometry(72, 64)
        big_geom = CoreGeometry(144, 128)
        results = []
        for geom in (small_geom, big_geom):
            power = total_power(geom, catalog, f_hz=PARETO_CLOCK_HZ)
            sched = schedule(resnet, geom, catalog.pcm)
            results.append(estimate_perf(sched, power, PARETO_CLOCK_HZ, catalog, allow_overclock=True))
        assert results[1].fps > results[0].fps
        assert results[1].energy_per_inference_j < results[0].energy_per_inference_j

    def test_overclock_guard(self, catalog, core_144x256):
        layers = (ConvLayerSpec("l", 1, 1, 1, 1, 1),)
        sched = schedule(layers, core_144x256, catalog.pcm)
        power = total_power(core_144x256, catalog, f_hz=PARETO_CLOCK_HZ)
        with pytest.raises(ValueError, match="ceiling"):
            estimate_perf(sched, power, PARETO_CLOCK_HZ, catalog)

    @pytest.mark.parametrize("field, value", [
        ("latency_s", 0.0),
        # a negative energy gave a negative energy_per_inference_j
        ("energy_program_j", -1.0),
        ("energy_erase_j", -1.0),
    ])
    def test_report_rejects_a_rate_it_cannot_derive(self, catalog, core_144x256, field, value):
        layers = (ConvLayerSpec("l", 1, 1, 1, 1, 1),)
        sched = schedule(layers, core_144x256, catalog.pcm)
        perf = estimate_perf(sched, total_power(core_144x256, catalog, f_hz=1e9), 1e9, catalog)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            dataclasses.replace(perf, **{field: value})

    def test_power_at_another_clock_is_rejected(self, catalog, core_144x256, resnet):
        # a power report sized for 1 GHz must not rate a 2 GHz run (it read twice the TOPS/W)
        sched = schedule(resnet, core_144x256, catalog.pcm)
        power = total_power(core_144x256, catalog, f_hz=1e9)
        with pytest.raises(ValueError) as exc:
            estimate_perf(sched, power, 2e9, catalog, allow_overclock=True)
        assert str(exc.value) == "f_hz is 2e+09 Hz, but the power report is at 1e+09 Hz"
        # the many-core form takes no clock: each core runs at its own power report's
        scheds = schedule_cores(resnet, [core_144x256, core_144x256])
        powers = [power, total_power(core_144x256, catalog, f_hz=2e9)]
        perfs = estimate_perf_cores(scheds, powers, catalog, allow_overclock=True)
        assert perfs == tuple(estimate_perf(s, p, p.f_hz, catalog, allow_overclock=True)
                              for s, p in zip(scheds, powers))
        assert [perf.f_hz for perf in perfs] == [1e9, 2e9]

    def test_schedule_and_power_on_other_cores_are_rejected(self, catalog, core_9x8, core_144x256, resnet):
        # a 9x8 schedule read with 144x256 power gave 0.144 peak TOPS at 10.03 W
        sched_9x8, sched_144x256 = schedule_cores(resnet, [core_9x8, core_144x256])
        power_9x8, power_144x256 = total_power(core_9x8, catalog), total_power(core_144x256, catalog)
        message = "^the schedule is on 9x8, but the power report is on 144x256$"
        with pytest.raises(ValueError, match=message):
            estimate_perf(sched_9x8, power_144x256, 1e9, catalog)
        with pytest.raises(ValueError, match=message):
            estimate_perf_cores([sched_144x256, sched_9x8], [power_144x256, power_144x256], catalog)
        perf = estimate_perf(sched_9x8, power_9x8, 1e9, catalog)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(perf, power=power_144x256)
        # an equal core passes, not only the same object
        assert estimate_perf(sched_9x8, total_power(CoreGeometry(9, 8), catalog), 1e9, catalog) == perf

    def test_zero_frequency_rejected(self, catalog, core_144x256):
        layers = (ConvLayerSpec("l", 1, 1, 1, 1, 1),)
        sched = schedule(layers, core_144x256, catalog.pcm)
        power = total_power(core_144x256, catalog, f_hz=1e9)
        with pytest.raises(ValueError):
            estimate_perf(sched, power, 0.0, catalog)


class TestTilingPartition:
    @given(
        c_in=st.integers(min_value=1, max_value=48),
        groups=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_row_tiles_cover_all_channels(self, c_in, groups):
        geom = CoreGeometry(groups * 9, 8)
        dims = lower_conv(ConvLayerSpec("l", c_in, 8, 3, 2, 2), geom)
        assert dims.tiles_row * dims.channels_per_pass >= c_in
        assert (dims.tiles_row - 1) * dims.channels_per_pass < c_in


class TestWorkloadIo:
    def test_bundled_name(self, resnet):
        assert load_workload("resnet50") == resnet

    def test_json_round_trip(self, tmp_path, resnet):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(workload_to_jsonable(resnet)))
        assert load_workload(str(path)) == resnet

    def test_bundled_shapes(self, resnet):
        convs = [l for l in resnet if l.kind == "conv"]
        assert len(convs) == 53
        assert convs[0].kernel == 3 and convs[0].c_in == 3 and convs[0].h_out == 128
        assert convs[-1].c_out == 2048
        assert sum(l.weight_count for l in convs) == 23447232

    def test_bundled_workload_is_built_once(self):
        assert load_workload("resnet50") is load_workload("resnet50")

    def test_bundled_json_matches_builder(self, resnet):
        from pathlib import Path

        import wavecore

        path = Path(wavecore.__file__).parent / "data" / "resnet50_256.json"
        assert load_workload(str(path)) == resnet

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="neither"):
            load_workload("resnet51")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="list"):
            load_workload(str(path))

    @pytest.mark.parametrize("field", ["c_in", "c_out", "kernel", "h_out", "w_out", "stride"])
    @pytest.mark.parametrize("value", [True, 3.5, 3.0, "3"])
    def test_non_integer_field_names_entry_and_field(self, tmp_path, field, value):
        entry = {"name": "conv_a", "c_in": 3, "c_out": 4, "kernel": 3, "h_out": 4, "w_out": 4, field: value}
        path = tmp_path / "wl.json"
        path.write_text(json.dumps([{"name": "ok", "c_in": 1}, entry]))
        with pytest.raises(ValueError, match=f"entry 1 \\('conv_a'\\): {field} must be an integer"):
            load_workload(str(path))

    @pytest.mark.parametrize("entries, message", [
        ([{"name": "ok"}, {"name": "conv_a", "c_in": 3, "pad": 1}], "workload entry 1 ('conv_a'): unknown fields ['pad']"),
        ([{"name": "", "pad": 1}], "workload entry 0: unknown fields ['pad']"),
        ([{"name": "conv_a", "c_out": 0}], "workload entry 0 ('conv_a'): c_out must be an integer >= 1, got 0"),
        ([{"name": "conv_a", "stride": 10**400}],
         "workload entry 0 ('conv_a'): stride must be an integer >= 1, got an integer too large for a float"),
        ([{"name": "conv_a", "kernel": 5}], "workload entry 0 ('conv_a'): unsupported kernel size 5 (supported: 1, 3)"),
        ([{"name": "a"}, {"name": "b"}, {"name": "a"}], "workload entry 2 ('a'): name repeats entry 0"),
        ([{"name": 7}], "workload entry 0: name must be a non-empty string, got 7"),
        ([{"name": None, "c_in": 0}], "workload entry 0: name must be a non-empty string, got None"),
        ([{"name": ""}], "workload entry 0: name must be a non-empty string, got ''"),
        ([{"name": "ok"}, [1]], "workload entry 1 must be an object with a 'name'"),
    ], ids=["unknown-field", "unknown-field-unnamed", "bad-value", "huge-value", "bad-kernel", "repeated-name",
            "int-name", "none-name", "empty-name", "not-an-object"])
    def test_an_entry_error_is_labelled_by_its_index_and_name(self, tmp_path, entries, message):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(ValueError) as info:
            load_workload(str(path))
        assert str(info.value) == message

    def test_a_rewritten_file_gives_the_new_layers(self, tmp_path):
        path = tmp_path / "wl.json"
        for c_in in (3, 5, 3):
            path.write_text(json.dumps([{"name": "conv_a", "c_in": c_in}]))
            assert load_workload(str(path)) == (ConvLayerSpec("conv_a", c_in),)

    def test_a_bad_file_fails_on_every_load_and_loads_once_fixed(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps([{"name": "conv_a", "c_in": 0}]))
        for _ in range(2):
            with pytest.raises(ValueError, match="entry 0 \\('conv_a'\\): c_in must be an integer >= 1"):
                load_workload(str(path))
        path.write_text("[not json")
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(f"workload file {path} is not readable JSON")):
                load_workload(str(path))
        path.write_text(json.dumps([{"name": "conv_a", "c_in": 2}]))
        assert load_workload(str(path)) == (ConvLayerSpec("conv_a", 2),)
