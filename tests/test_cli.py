import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from wavecore import __version__
from wavecore.cli import ABLATE_OPTIONS, ABLATION_VARIANTS, COMMANDS, main, parse_variant
from wavecore.linkbudget import VARIANTS

from clirunner import CliRunner

# linkbudget and ablate stdout for every variant and each parametrized form,
# recorded before the variants became one class each; compared, never regenerated
GOLDEN_VARIANTS = json.loads((Path(__file__).parent / "data" / "golden_variants.json").read_text())["runs"]
GOLDEN_CATALOG_SHA256 = json.loads(GOLDEN_VARIANTS[0]["stdout"])["header"]["catalog_sha256"]
# evaluate and sweep exit codes and stdout in every format, recorded before the
# commands shared one renderer and one power-to-perf path; compared, never regenerated
GOLDEN_CLI = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())["runs"]
# usage errors (bad numbers and choices, unknown options and commands, missing
# values, extra arguments), --opt=value, repeated options and --version: exit
# code, stdout and stderr, recorded through click before the option table
# replaced it; compared, never regenerated
GOLDEN_USAGE = json.loads((Path(__file__).parent / "data" / "golden_usage.json").read_text())["runs"]
REPO_ROOT = Path(__file__).resolve().parent.parent
HUGE = int("9" * 400)                           # an integer too large for a float


@pytest.fixture()
def runner():
    return CliRunner()


class TestEvaluate:
    def test_baseline_feasible_exit_zero(self, runner):
        result = runner.invoke(main, ["evaluate", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["feasible"] is True
        assert doc["link_budget"]["total_db"] == pytest.approx(32.7, abs=1.0)
        assert doc["area"]["crossbar_w_mm"] == pytest.approx(24.3)
        assert doc["area"]["fits_reticle"] is True

    def test_infeasible_variant_exit_two(self, runner):
        result = runner.invoke(main, ["evaluate", "--variant", "mrr", "--format", "json"])
        assert result.exit_code == 2

    def test_malformed_catalog_exit_one(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(main, ["evaluate", "--catalog", str(bad)])
        assert result.exit_code == 1
        assert "catalog" in result.output

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"wsc": {"insertion_loss_db": "abc"}}, "wsc.insertion_loss_db"),
            ({"wsc": {"area_um": [1]}}, "wsc.area_um"),
            ({"laser": {"wpe": None}}, "laser.wpe"),
        ],
    )
    def test_non_numeric_catalog_field_exits_1_naming_it(self, runner, tmp_path, entry, field):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, **entry}))
        result = runner.invoke(main, ["evaluate", "--catalog", str(path), "--format", "json"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert field in result.output

    @pytest.mark.parametrize("value", [True, 3.5])
    def test_non_integer_workload_field_exits_1_naming_it(self, runner, tmp_path, value):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps([{"name": "conv_a", "c_in": value, "c_out": 4, "kernel": 3, "h_out": 4, "w_out": 4}]))
        result = runner.invoke(main, ["evaluate", "--workload", str(path), "--format", "json"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "conv_a" in result.output and "c_in" in result.output

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"name": 5, "kind": "other"}, {"name": "b", "c_in": 3}],
             "workload entry 0: name must be a non-empty string, got 5"),
            ([{"name": ["x"], "c_in": 3}], "workload entry 0: name must be a non-empty string, got ['x']"),
            ([{"name": "a", "kind": "other"}, {"name": ""}], "workload entry 1: name must be a non-empty string, got ''"),
            ([{"name": "b", "c_in": 3, "extra": 1}], "workload entry 0 ('b'): unknown fields ['extra']"),
            ([{"name": "a", "c_in": 3}, {"name": "a", "c_in": 3}, {"name": "m", "kind": "other"},
              {"name": "m", "kind": "other"}], "workload entry 1 ('a'): name repeats entry 0"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_bad_workload_entry_exits_1_naming_it(self, runner, tmp_path, entries, message, fmt):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(entries))
        result = runner.invoke(main, ["evaluate", "--workload", str(path), "--format", fmt])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert f"Error: workload: {message}\n" in result.output

    def test_bad_core_exit_one(self, runner):
        result = runner.invoke(main, ["evaluate", "--core", "10x10"])
        assert result.exit_code == 1
        assert "core" in result.output

    def test_byte_identical_reruns(self, runner):
        args = ["evaluate", "--format", "json", "--workload", "resnet50", "--profile", "pareto", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_header_embeds_catalog_hash_and_version(self, runner):
        result = runner.invoke(main, ["evaluate", "--format", "json"])
        doc = json.loads(result.output)
        assert len(doc["header"]["catalog_sha256"]) == 64
        assert doc["header"]["version"]

    def test_perf_section_with_workload(self, runner):
        result = runner.invoke(
            main, ["evaluate", "--format", "json", "--workload", "resnet50", "--profile", "pareto"]
        )
        doc = json.loads(result.output)
        assert doc["perf"] is not None
        assert 600 <= doc["perf"]["fps"] <= 2400

    @pytest.mark.parametrize("freq", ["inf", "nan", "0", "-1e9"])
    def test_non_finite_or_non_positive_freq_exits_1(self, runner, freq):
        result = runner.invoke(
            main, ["evaluate", "--freq", freq, "--allow-overclock", "--workload", "resnet50", "--format", "json"]
        )
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "freq" in result.output
        assert "Infinity" not in result.output and "NaN" not in result.output

    def test_overclock_guard_without_pareto_profile(self, runner):
        result = runner.invoke(
            main, ["evaluate", "--workload", "resnet50", "--freq", "5e9"]
        )
        assert result.exit_code == 1
        assert "ceiling" in result.output

    def test_area_only_section(self, runner):
        result = runner.invoke(main, ["evaluate", "--area"])
        assert result.exit_code == 0
        assert "24.300 x 28.900 mm" in result.output
        assert "link budget" not in result.output

    def test_area_only_json(self, runner):
        result = runner.invoke(main, ["evaluate", "--area", "--format", "json"])
        doc = json.loads(result.output)
        assert set(doc) == {"header", "area"}

    @pytest.mark.parametrize("extra", [
        ["--workload", "missing.json"],
        ["--variant", "planar2d:crossing_count=100000"],  # its laser power overflows
        ["--variant", "planar2d"],  # infeasible
    ], ids=["missing-workload", "power-out-of-range", "infeasible"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_area_only_runs_no_model(self, runner, monkeypatch, tmp_path, extra, fmt):
        # the area depends on --core alone, so no workload, power or link margin can fail it
        monkeypatch.chdir(tmp_path)
        plain = runner.invoke(main, ["evaluate", "--area", "--format", fmt])
        result = runner.invoke(main, ["evaluate", "--area", *extra, "--format", fmt])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == plain.stdout

    def test_inputs_are_read_before_any_model_runs(self, runner, monkeypatch, tmp_path):
        # the missing workload is reported, not the power model's overflow
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["evaluate", "--workload", "missing.json",
                                      "--variant", "planar2d:crossing_count=100000"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == ("Error: workload: workload 'missing.json' is neither a bundled name "
                                 "['resnet50'] nor a file\n")

    @pytest.mark.parametrize(
        "variant, field",
        [
            ("planar2d:crossing_count=-5", "crossing_count"),
            ("planar2d:ybranch_count=-1", "ybranch_count"),
            ("coherent:stage_loss=nan", "stage_loss"),
            ("mrr:ring_loss=inf", "ring_loss"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_bad_variant_parameter_exits_1_naming_it(self, runner, variant, field, fmt):
        result = runner.invoke(main, ["evaluate", "--variant", variant, "--format", fmt])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert field in result.output

    @pytest.mark.parametrize(
        "args, file, field",
        [
            (["linkbudget", "--variant", f"planar2d:crossing_count={HUGE}"], None, "crossing_count"),
            (["evaluate", "--workload"], [{"name": "conv_a", "c_in": HUGE}], "c_in"),
            (["evaluate", "--catalog"], {"schema_version": 1, "pcm": {"program_time_ns": HUGE}}, "pcm.program_time_ns"),
            (["evaluate", "--catalog"], {"schema_version": 1, "laser": {"channels_per_comb": HUGE}},
             "laser.channels_per_comb"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_huge_integer_exits_1_naming_it(self, runner, tmp_path, args, file, field, fmt):
        if file is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(file))
            args = [*args, str(path)]
        result = runner.invoke(main, [*args, "--format", fmt])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{field} must be an integer" in result.output or f"{field} must be a finite number" in result.output
        assert str(HUGE) not in result.output

    @pytest.mark.parametrize(
        "option, content",
        [
            ("--catalog", '{"schema_version": 1, "awg": {"insertion_loss_db": ' + "9" * 5000 + "}}"),
            ("--workload", '[{"name": "conv_a", "c_in": ' + "9" * 5000 + "}]"),
            ("--workload", None),                                       # a directory
        ],
    )
    def test_unreadable_input_file_exits_1_naming_the_option(self, runner, tmp_path, option, content):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        result = runner.invoke(main, ["evaluate", option, str(path), "--format", "json"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"Error: {option.removeprefix('--')}: " in result.output

    @pytest.mark.parametrize(
        "args, catalog, message",
        [
            (["evaluate", "--variant", "planar2d:crossing_count=100000"], None, "power: a result is out of float range"),
            (["ablate", "--variants", "kcl,mrr:ring_loss=1e300"], None, "variants[1]: a result is out of float range"),
            (["linkbudget", "--variant", "coherent:stage_loss=1e308"], None, "link_budget: total_db must be a finite"),
            (["evaluate"], {"voa": {"static_power_mw": 1e308}}, "power: total_w must be a finite number"),
            (["evaluate", "--workload", "resnet50"], {"pcm": {"program_energy_pj": 1e308}},
             "perf: energy_with_erase_mj must be a finite number"),
            (["evaluate", "--workload", "resnet50", "--freq", "1e-300"], None, "perf: latency_ms must be a finite"),
            (["sweep", "--cores", "9x8", "--variant", "mrr:ring_loss=1e300"], None, "sweep: a result is out of float"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_result_out_of_float_range_exits_1_naming_the_section(self, runner, tmp_path, args, catalog, message, fmt):
        if catalog is not None:
            path = tmp_path / "cat.json"
            path.write_text(json.dumps({"schema_version": 1, **catalog}))
            args = [*args, "--catalog", str(path)]
        result = runner.invoke(main, [*args, "--format", fmt])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.output

    @pytest.mark.parametrize(
        "args, section",
        [(["evaluate"], "power"), (["evaluate", "--workload", "resnet50"], "power"), (["sweep"], "sweep")],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_extinction_ratio_with_no_modulation_depth_exits_1_naming_it(self, runner, tmp_path, args, section, fmt):
        # 1e-20 dB passes the catalog's > 0 check, but 1 - 10**(-1e-20/10) is
        # 0.0, and the laser power divided by it: was "a result is out of float range"
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "sl_mzm": {"extinction_ratio_db": 1e-20}}))
        result = runner.invoke(main, [*args, "--catalog", str(path), "--format", fmt])
        assert result.exit_code == 1
        assert result.stderr == (f"Error: {section}: extinction ratio in dB 1e-20 gives no modulation depth"
                                 f" (it rounds to 0.0)\n")
        # the link budget does not read the extinction ratio
        linkbudget = runner.invoke(main, ["linkbudget", "--catalog", str(path), "--format", fmt])
        assert linkbudget.exit_code == 0

    @pytest.mark.parametrize(
        "args, catalog, message",
        [
            (["evaluate", "--variant", "planar2d:crossing_count=100000"], None,
             "power: a result is out of float range: the laser power for a 23058.3 dB critical-path loss"
             " (largest term crossings, 23000 dB)"),
            (["evaluate"], {"voa": {"static_power_mw": 1e308}},
             "power: total_w must be a finite number, got inf (largest entry voa_bank)"),
            (["linkbudget", "--variant", "coherent:stage_loss=1e308"], None,
             "link_budget: total_db must be a finite number, got inf (largest term combiner_tree)"),
            (["evaluate", "--workload", "resnet50"], {"laser": {"channel_power_dbm": 1e308},
                                                      "pd": {"sensitivity_dbm": -1e308}},
             "power: link margin_db must be a finite number, got inf"),
        ],
    )
    def test_result_out_of_float_range_names_the_cause(self, runner, tmp_path, args, catalog, message):
        if catalog is not None:
            path = tmp_path / "cat.json"
            path.write_text(json.dumps({"schema_version": 1, **catalog}))
            args = [*args, "--catalog", str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"Error: {message}\n" in result.output

    # 1e308 dB overflows the loss factor itself, 3080 dB the per-cell energy
    # and 3000 dB the energy of all the cells of an inference
    @pytest.mark.parametrize("loss, shown", [(1e308, "1e+308"), (3080, "3080"), (3000, "3000")])
    @pytest.mark.parametrize("args", [["evaluate", "--workload", "resnet50"], ["sweep"]])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_write_energy_out_of_float_range_names_the_grating_coupler(self, runner, tmp_path, args, fmt, loss,
                                                                       shown):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "grating_coupler": {"insertion_loss_db": loss}}))
        result = runner.invoke(main, [*args, "--catalog", str(path), "--format", fmt])
        assert result.exit_code == 1
        section = "sweep" if args == ["sweep"] else "perf"
        assert result.stderr == (f"Error: {section}: a result is out of float range: the write energy through"
                                 f" a {shown} dB grating_coupler loss\n")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"laser": {"channels_per_comb": 12}},
             "laser.channels_per_comb must be 9, the wavelengths of one comb group"),
            ({"pd": {"max_ports": 8}}, "pd.max_ports must be 16, the buses one detector sums"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_other_array_structure_exits_1_naming_the_field(self, runner, tmp_path, entry, message, fmt):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, **entry}))
        result = runner.invoke(main, ["evaluate", "--catalog", str(path), "--format", fmt])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"Error: catalog: {message}, got ")

    @pytest.mark.parametrize(
        "table",
        [{"-6": 1.0}, {"0": 1.0}, {" 6": 1.0}, {"+6": 1.0}, {"1_6": 1.0}, {"17": 1.0}, {"06": 1.0},
         {" 6": 1.0, "6": 2.0}],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_energy_table_key_not_a_bit_count_exits_1_naming_it(self, runner, tmp_path, table, fmt):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "sl_mzm": {"energy_per_switch_fj": table}}))
        result = runner.invoke(main, ["evaluate", "--catalog", str(path), "--format", fmt])
        assert result.exit_code == 1
        assert result.stderr.startswith("Error: catalog: sl_mzm.energy_per_switch_fj keys must be bit counts 1 to 16")

    @pytest.mark.parametrize(
        "variant, message",
        [
            ("mrr:ring_loss=1,ring_loss_db=2", "mrr parameter 'ring_loss_db' given twice ('ring_loss_db' repeats it)"),
            ("mrr:ring_loss_db=1,ring_loss=2", "mrr parameter 'ring_loss_db' given twice ('ring_loss' repeats it)"),
            ("coherent:stage_loss=1,stage_loss=2", "coherent parameter 'stage_loss_db' given twice"),
            ("planar2d:crossing_count=1,ybranch_count=2,crossing_count=3", "planar2d parameter 'crossing_count' given"),
            ("soa:ring_loss=1", "soa has no parameter 'ring_loss'"),
            ("thermo:fanout_before_amp=2", "thermo has no parameter 'fanout_before_amp'"),
            ("kcl:stage_loss_db=2", "kcl has no parameter 'stage_loss_db'"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_repeated_or_foreign_variant_parameter_exits_1_naming_it(self, runner, variant, message, fmt):
        result = runner.invoke(main, ["evaluate", "--variant", variant, "--format", fmt])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.output


class TestVariantRegistry:
    @pytest.mark.parametrize("label, cls", VARIANTS.items())
    def test_every_field_parses_under_both_spellings(self, label, cls):
        assert parse_variant(label) == cls()
        for field in dataclasses.fields(cls):
            value = {"int": 3, "int | None": 3, "float": 0.5}[field.type]
            expected = cls(**{field.name: value})
            for key in (field.name, field.name.removesuffix("_db")):
                got = parse_variant(f"{label}:{key}={value}")
                assert got == expected
                assert type(getattr(got, field.name)) is type(value)

    def test_ablate_defaults_to_the_registry_in_order(self):
        (option,) = [opt for opt in ABLATE_OPTIONS if opt.dest == "variants_text"]
        assert option.default == ",".join(VARIANTS)


def _golden_id(run: dict) -> str:
    opts = dict(zip(run["argv"][1::2], run["argv"][2::2]))
    if "--variants" in opts:
        variants = f"{len(opts['--variants'].split(','))}-variants"
    else:
        variants = opts.get("--variant", "default-variants")
    return f"{run['argv'][0]}-{opts['--core']}-{variants}-{opts['--format']}"


@pytest.mark.parametrize("run", GOLDEN_VARIANTS, ids=_golden_id)
def test_variant_outputs_match_golden(runner, monkeypatch, run):
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    result = runner.invoke(main, run["argv"])
    assert result.exit_code == 0
    assert result.stdout_bytes == run["stdout"].encode()


@pytest.mark.parametrize("run", GOLDEN_CLI, ids=lambda run: " ".join(run["argv"]))
def test_evaluate_and_sweep_outputs_match_golden(runner, monkeypatch, run):
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    monkeypatch.chdir(REPO_ROOT)                # one case names a workload file by relative path
    result = runner.invoke(main, run["argv"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code == run["exit_code"]
    assert result.stdout_bytes == run["stdout"].encode()


@pytest.mark.parametrize("run", GOLDEN_USAGE, ids=lambda run: " ".join(run["argv"]))
def test_usage_matches_golden(runner, monkeypatch, run):
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    result = runner.invoke(main, run["argv"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert (result.exit_code, result.stdout, result.stderr) == (run["exit_code"], run["stdout"], run["stderr"])


@pytest.mark.parametrize("run", GOLDEN_CLI, ids=lambda run: " ".join(run["argv"]))
def test_evaluate_and_sweep_build_no_per_layer_records(runner, monkeypatch, run):
    # the roll-up reads the schedule's count columns and totals only
    def refuse(*args, **kwargs):
        raise AssertionError("a per-layer record was built")

    for name in ("LayerSchedule", "LoweredDims", "lower_conv"):
        monkeypatch.setattr(f"wavecore.workload.{name}", refuse)
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    monkeypatch.chdir(REPO_ROOT)
    result = runner.invoke(main, run["argv"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code == run["exit_code"]
    assert result.stdout_bytes == run["stdout"].encode()


@pytest.mark.parametrize("run", [
    *(pytest.param(run, id=" ".join(run["argv"])) for run in GOLDEN_CLI),
    *(pytest.param(run, id=_golden_id(run)) for run in GOLDEN_VARIANTS),
])
def test_every_analytic_report_goes_through_emit(runner, monkeypatch, run):
    # _emit is the one output-format dispatcher: one call per command, same bytes
    import wavecore.cli

    emit = wavecore.cli._emit
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return emit(*args, **kwargs)

    monkeypatch.setattr("wavecore.cli._emit", counted)
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    monkeypatch.chdir(REPO_ROOT)
    result = runner.invoke(main, run["argv"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code == run.get("exit_code", 0)
    assert len(calls) == 1
    assert result.stdout_bytes == run["stdout"].encode()


@pytest.mark.parametrize("run", [run for run in GOLDEN_CLI if run["argv"][0] == "sweep"],
                         ids=lambda run: " ".join(run["argv"]))
def test_sweep_schedules_all_its_cores_in_one_call(runner, monkeypatch, run):
    # one walk of the workload for the whole sweep, not one per core
    import wavecore.cli

    schedule_cores = wavecore.cli.schedule_cores
    calls = []

    def counted(workload, geometries, *args, **kwargs):
        calls.append(len(geometries))
        return schedule_cores(workload, geometries, *args, **kwargs)

    monkeypatch.setattr("wavecore.cli.schedule_cores", counted)
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    result = runner.invoke(main, run["argv"])
    assert result.exit_code == run["exit_code"]
    assert calls == [6]
    assert result.stdout_bytes == run["stdout"].encode()


@pytest.mark.parametrize("run", [
    *(pytest.param(run, id=" ".join(run["argv"])) for run in GOLDEN_CLI),
    *(pytest.param(run, id=_golden_id(run)) for run in GOLDEN_VARIANTS),
])
def test_every_command_rolls_up_its_cores_in_one_call_each(runner, monkeypatch, run):
    # one power roll-up per command (per variant for ablate), plus one perf roll-up with a workload
    import wavecore.cli

    calls = []
    for name in ("total_power_cores", "schedule_cores", "estimate_perf_cores"):
        def counted(*args, _name=name, _fn=getattr(wavecore.cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(f"wavecore.cli.{name}", counted)
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    monkeypatch.chdir(REPO_ROOT)
    result = runner.invoke(main, run["argv"])
    assert result.exit_code == run.get("exit_code", 0)
    command, argv = run["argv"][0], run["argv"]
    if command == "linkbudget" or "--area" in argv:
        expected = []
    elif command == "ablate":
        variants = argv[argv.index("--variants") + 1].split(",") if "--variants" in argv else ABLATION_VARIANTS
        expected = ["total_power_cores"] * len(variants)
    elif command == "sweep" or "--workload" in argv:
        expected = ["total_power_cores", "schedule_cores", "estimate_perf_cores"]
    else:
        expected = ["total_power_cores"]
    assert calls == expected
    assert result.stdout_bytes == run["stdout"].encode()


@pytest.mark.parametrize(
    "cores, freq, message",
    [
        # core 0's perf fails before core 1's power is computed
        ("9x8,9x80000", "5e9",
         "sweep: f = 5e+09 Hz exceeds the modulator ceiling 1e+09 Hz (pass allow_overclock to run anyway)"),
        # core 0's power fails before its perf
        ("9x80000,9x8", "5e9",
         "sweep: a result is out of float range: the laser power for a 26658.8 dB critical-path loss"
         " (largest term crossings, 18401.8 dB)"),
        # only a later core's power fails
        ("9x8,18x16,9x80000", "1e9",
         "sweep: a result is out of float range: the laser power for a 26658.8 dB critical-path loss"
         " (largest term crossings, 18401.8 dB)"),
    ],
)
def test_sweep_reports_the_first_failing_core(runner, cores, freq, message):
    result = runner.invoke(main, ["sweep", "--cores", cores, "--variant", "planar2d", "--freq", freq])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"Error: {message}\n"


@pytest.mark.parametrize("command, field", [
    (["evaluate", "--core", "9x8", "--workload", "resnet50"], "perf"),
    (["sweep", "--cores", "9x8"], "sweep"),
])
@pytest.mark.parametrize("freq, message", [
    # stream_cycles / f overflows: the latency itself is not finite
    ("1e-320", "latency_s must be a finite number, got inf"),
    # the latency is finite, its value in ms is not
    ("1e-300", "latency_ms must be a finite number, got inf"),
])
def test_latency_out_of_float_range_names_the_field(runner, command, field, freq, message):
    result = runner.invoke(main, [*command, "--freq", freq])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {field}: {message}\n"
    assert "nan" not in result.output.lower()


@pytest.mark.parametrize("args, stderr_start", [([], "Usage: "), (["--nope"], "Error: --nope: ")])
def test_group_usage_errors_exit_1(runner, args, stderr_start):
    # the group's own options and a missing command are input errors, not "infeasible"
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(stderr_start)
    if not args:
        assert "Commands:" in result.stderr


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_is_rendered_from_the_option_table(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith(f"Usage: wavecore {command} [OPTIONS]\n")
    for opt in COMMANDS[command][1]:
        assert f"  {' / '.join(opt.flags)}" in result.stdout
    group = runner.invoke(main, ["--help"])
    assert (group.exit_code, group.stderr) == (0, "")
    assert f"\n  {command} " in group.stdout


def test_interrupt_exits_1_without_a_traceback(runner, monkeypatch):
    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(COMMANDS, "linkbudget", (interrupted, COMMANDS["linkbudget"][1]))
    result = runner.invoke(main, ["linkbudget"])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")
    assert result.exception is None


# the console script's path: main() exits the process with the code
PROCESS_ENV = {
    **{key: value for key, value in os.environ.items() if key != "WAVECORE_CATALOG"},
    "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


@pytest.mark.parametrize("args, exit_code, stdout_start, stderr_start", [
    (["linkbudget", "--core", "9x8", "--format", "csv"], 0, "# wavecore ", ""),
    (["evaluate", "--variant", "mrr", "--format", "json"], 2, "{", ""),
    (["linkbudget", "--freq", "None"], 1, "", "Error: --freq: 'None' is not a valid float.\n"),
    (["--version"], 0, f"wavecore, version {__version__}\n", ""),
    ([], 1, "", "Usage: wavecore "),
])
def test_process_exits_with_the_code(args, exit_code, stdout_start, stderr_start):
    proc = subprocess.run([sys.executable, "-m", "wavecore.cli", *args], capture_output=True, text=True,
                          env=PROCESS_ENV, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stdout.startswith(stdout_start)
    assert proc.stderr.startswith(stderr_start)
    assert "Traceback" not in proc.stderr
    if not stderr_start:
        assert proc.stderr == ""


def test_closed_stdout_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)                          # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "wavecore.cli", "sweep"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=PROCESS_ENV, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")        # no traceback, no "Exception ignored"


class TestLinkbudget:
    def test_table_lists_terms(self, runner):
        result = runner.invoke(main, ["linkbudget"])
        assert result.exit_code == 0
        assert "fanout" in result.output
        assert "total" in result.output

    def test_variant_parameters(self, runner):
        result = runner.invoke(main, ["linkbudget", "--variant", "soa:fanout_before_amp=64", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["link_budget"]["variant"] == "soa"

    def test_unknown_variant(self, runner):
        result = runner.invoke(main, ["linkbudget", "--variant", "magic"])
        assert result.exit_code == 1
        assert "variant" in result.output


class TestAblate:
    def test_csv_rows_in_given_order(self, runner):
        result = runner.invoke(main, ["ablate", "--profile", "pareto", "--format", "csv"])
        assert result.exit_code == 0
        lines = [l for l in result.output.strip().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("variant,il_db,total_w,top_contributor,fraction")
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["baseline3d", "soa", "planar2d", "thermo", "mrr", "kcl", "coherent"]

    def test_csv_stamp_carries_version_and_hash(self, runner):
        result = runner.invoke(main, ["ablate", "--format", "csv"])
        first = result.output.splitlines()[0]
        assert first.startswith("# wavecore") and "sha256:" in first

    def test_empty_list_is_usage_error(self, runner):
        result = runner.invoke(main, ["ablate", "--variants", ""])
        assert result.exit_code == 1

    def test_bad_point_aborts_with_name(self, runner):
        result = runner.invoke(main, ["ablate", "--variants", "baseline3d,nope"])
        assert result.exit_code == 1
        assert "nope" in result.output

    @pytest.mark.parametrize("variants, field", [("soa,,nope", "variants[2]"), (",nope", "variants[1]"),
                                                 ("nope, ,soa", "variants[0]")])
    def test_bad_entry_is_named_by_its_typed_position(self, runner, variants, field):
        result = runner.invoke(main, ["ablate", "--variants", variants])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"Error: {field}: unknown name 'nope'")


class TestSweep:
    def test_monotone_columns(self, runner):
        result = runner.invoke(main, ["sweep", "--profile", "pareto", "--format", "csv"])
        assert result.exit_code == 0
        lines = [l for l in result.output.strip().splitlines() if not l.startswith("#")][1:]
        fps = [float(line.split(",")[1]) for line in lines]
        energy = [float(line.split(",")[2]) for line in lines]
        assert fps == sorted(fps)
        assert energy == sorted(energy, reverse=True)

    def test_empty_cores_rejected(self, runner):
        result = runner.invoke(main, ["sweep", "--cores", ""])
        assert result.exit_code == 1

    @pytest.mark.parametrize("cores, field", [("9x8,,10x8", "cores[2]"), (" ,10x8,9x8", "cores[1]")])
    def test_bad_entry_is_named_by_its_typed_position(self, runner, cores, field):
        result = runner.invoke(main, ["sweep", "--cores", cores])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"Error: {field}: cannot parse core geometry '10x8'")


class TestSimulate:
    def test_reports_accuracy(self, runner):
        result = runner.invoke(
            main, ["simulate", "--model", "tinycnn", "--sigma-in", "0.0031", "--seed", "1", "--samples", "12"]
        )
        assert result.exit_code == 0
        assert "accuracy" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["simulate", "--samples", "6", "--format", "json"])
        doc = json.loads(result.output)
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["layers"][0]["name"] == "conv3x3"

    def test_unknown_model(self, runner):
        result = runner.invoke(main, ["simulate", "--model", "resnet"])
        assert result.exit_code == 1

    def test_program_fault_is_not_blamed_on_samples(self, runner, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("Buffer size, 72, is not a multiple of 16")

        monkeypatch.setattr("wavecore.synth.run_tinycnn", fault)
        result = runner.invoke(main, ["simulate", "--samples", "4"])
        assert isinstance(result.exception, ValueError)
        assert "samples:" not in result.output

    def test_out_of_memory_while_simulating_names_samples(self, runner, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr("wavecore.synth.run_tinycnn", exhausted)
        result = runner.invoke(main, ["simulate", "--samples", "4"])
        assert result.exit_code == 1
        assert result.output.startswith("Error: samples: 4 samples do not fit in memory")

    @pytest.mark.parametrize(
        "args, field",
        [
            (["--sigma-in", "nan"], "sigma_in"),
            (["--sigma-w", "inf"], "sigma_w"),
            (["--samples", "0"], "samples"),
        ],
    )
    def test_bad_input_exits_1_naming_field(self, runner, args, field):
        result = runner.invoke(main, ["simulate", "--format", "json", *args])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert field in result.output
        assert "NaN" not in result.output

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_overflowing_noise_exits_1_naming_sigmas(self, runner, fmt):
        # finite, so accepted as input, but the readout noise overflows to inf
        result = runner.invoke(
            main, ["simulate", "--core", "9x8", "--samples", "2", "--sigma-out", "1e308", "--format", fmt]
        )
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "sigma_out" in result.output
        assert "nan" not in result.output.lower()


@pytest.mark.parametrize(
    "args, field",
    [
        (["linkbudget", "--core", "10x10"], "core"),
        (["linkbudget", "--variant", "magic"], "variant"),
        (["linkbudget", "--profile", "nope"], "profile"),
        (["evaluate", "--catalog", "no-such-catalog.json"], "catalog"),
        (["evaluate", "--workload", "no-such-workload.json"], "workload"),
        (["evaluate", "--freq", "inf"], "freq"),
        (["evaluate", "--variant", "planar2d:crossing_count=-5"], "variant"),
        (["ablate", "--variants", ""], "variants"),
        (["ablate", "--variants", "baseline3d,nope"], "variants[1]"),
        (["sweep", "--cores", ""], "cores"),
        (["sweep", "--cores", "9x8,10x10"], "cores[1]"),
        (["simulate", "--model", "resnet"], "model"),
        (["simulate", "--core", "10x8"], "core"),
        (["simulate", "--sigma-in", "nan"], "noise"),
        (["simulate", "--samples", "0"], "samples"),
        # numpy refuses this many images before it allocates anything
        (["simulate", "--samples", "1" + "0" * 30], "samples"),
        # every variant error in a list names the list entry, not also "variant"
        (["ablate", "--variants", "kcl,planar2d:bogus=1"], "variants[1]"),
        (["ablate", "--variants", "planar2d:crossing_count"], "variants[0]"),
        (["ablate", "--variants", "kcl,planar2d:crossing_count=x"], "variants[1]"),
        (["ablate", "--variants", "kcl,soa,planar2d:crossing_count=-5"], "variants[2]"),
        # usage errors name the option
        (["linkbudget", "--freq", "None"], "--freq"),
        (["simulate", "--seed", "1.5"], "--seed"),
        (["linkbudget", "--nope"], "--nope"),
        (["evaluate", "--format", "xml"], "--format"),
    ],
)
def test_exit_1_message_starts_with_the_field(runner, monkeypatch, args, field):
    monkeypatch.chdir(REPO_ROOT)                # the missing input files are named by relative path
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    message = result.output.split("Error: ", 1)[1]
    assert message.startswith(f"{field}: ")
    # the field is named once: no second "name: " prefix follows it
    assert not re.match(r"[a-z_]+(\[\d+\])?: ", message.removeprefix(f"{field}: ")), message


@pytest.mark.parametrize("module", ["wavecore", "wavecore.cli"])
def test_analytic_import_loads_no_numpy_and_no_pool(module):
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; "
        "print([m for m in ('numpy', 'wavecore.engine', 'concurrent.futures', 'click') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_engine_names_resolve_lazily():
    import wavecore
    import wavecore.engine

    assert wavecore.noisy_mvm is wavecore.engine.noisy_mvm
    for name in wavecore.__all__:
        assert getattr(wavecore, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        wavecore.no_such_name


def test_all_holds_the_public_imports_and_every_engine_name():
    import types

    import wavecore

    assert not [name for name in wavecore.__all__ if isinstance(getattr(wavecore, name), types.ModuleType)]
    assert wavecore._ENGINE_NAMES <= set(wavecore.__all__)


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["ablate", "--format", "json"], 0),
        (["sweep", "--format", "json", "--profile", "pareto"], 0),
        (["sweep", "--cores", "9x8,144x256", "--freq", "5e9"], 1),  # a failing point maps to "sweep: ..."
    ],
)
def test_ablate_and_sweep_start_no_threads(runner, monkeypatch, args, exit_code):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert exit_code == 0 or "sweep: " in result.output
    assert started == []


def test_env_var_catalog(runner, tmp_path, monkeypatch):
    from wavecore.catalog import default_catalog_path

    custom = tmp_path / "cat.json"
    custom.write_text(default_catalog_path().read_text())
    monkeypatch.setenv("WAVECORE_CATALOG", str(custom))
    result = runner.invoke(main, ["evaluate", "--format", "json"])
    assert result.exit_code == 0


def test_catalog_option_wins_over_env_var(runner, tmp_path, monkeypatch):
    from wavecore.catalog import default_catalog_path

    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    custom = tmp_path / "cat.json"
    custom.write_text(default_catalog_path().read_text())
    monkeypatch.setenv("WAVECORE_CATALOG", str(tmp_path / "missing.json"))
    assert runner.invoke(main, ["evaluate", "--format", "json"]).exit_code == 1
    result = runner.invoke(main, ["evaluate", "--catalog", str(custom), "--format", "json"])
    assert result.exit_code == 0


def test_empty_env_var_means_shipped_catalog(runner, monkeypatch):
    monkeypatch.setenv("WAVECORE_CATALOG", "")
    result = runner.invoke(main, ["evaluate", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["header"]["catalog_sha256"] == GOLDEN_CATALOG_SHA256


@pytest.mark.parametrize("workload", ["resnet50", str(REPO_ROOT / "src" / "wavecore" / "data" / "resnet50_256.json")],
                         ids=["bundled-name", "bundled-file"])
def test_success_path_parses_no_path_and_reads_no_dataclass_fields(monkeypatch, workload):
    # The catalog and the workload file are read with open() alone, and the
    # variant parameter and option flag tables are built at import.
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_name))

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        sys.setprofile(profile)
        try:
            code = main(["evaluate", "--workload", workload, "--format", "json"], standalone_mode=False)
        finally:
            sys.setprofile(None)
    assert code == 0 and json.loads(out.getvalue())["perf"] is not None
    assert ("catalog.py", "load_catalog") in calls and ("workload.py", "estimate_perf_cores") in calls
    assert not calls & {("pathlib.py", "_parse_args"), ("pathlib.py", "parse_parts")}
    assert ("dataclasses.py", "fields") not in calls
