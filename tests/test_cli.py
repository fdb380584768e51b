import json

import pytest
from click.testing import CliRunner

from wavecore.cli import main


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


def test_env_var_catalog(runner, tmp_path, monkeypatch):
    from wavecore.catalog import default_catalog_path

    custom = tmp_path / "cat.json"
    custom.write_text(default_catalog_path().read_text())
    monkeypatch.setenv("WAVECORE_CATALOG", str(custom))
    result = runner.invoke(main, ["evaluate", "--format", "json"])
    assert result.exit_code == 0
