"""The exact text of the catalog and workload loaders' input-file errors.

Each loader names the path as pathlib normalizes it (no repeated slashes, no
``.`` parts), inside the OS error's text too, and a spelling that normalizes
to a readable file reads that file.
"""

import errno
import json
import os
from pathlib import Path

import pytest
from clirunner import CliRunner

from wavecore.catalog import CatalogError, load_catalog
from wavecore.cli import main
from wavecore.workload import load_workload

NEITHER = "is neither a bundled name ['resnet50'] nor a file"

CASES = [
    # (id, path, catalog message, workload message)
    ("missing", "missing.json",
     "cannot read catalog file missing.json: [Errno 2] No such file or directory: 'missing.json'",
     f"workload 'missing.json' {NEITHER}"),
    ("directory", "d",
     "cannot read catalog file d: [Errno 21] Is a directory: 'd'",
     "workload file d is not readable JSON: [Errno 21] Is a directory: 'd'"),
    ("spelled-directory", ".//d/./",
     "cannot read catalog file d: [Errno 21] Is a directory: 'd'",
     "workload file d is not readable JSON: [Errno 21] Is a directory: 'd'"),
    ("spelled-missing", "d//./missing.json",
     "cannot read catalog file d/missing.json: [Errno 2] No such file or directory: 'd/missing.json'",
     f"workload 'd//./missing.json' {NEITHER}"),
    ("through-a-file", "f.json/x",
     "cannot read catalog file f.json/x: [Errno 20] Not a directory: 'f.json/x'",
     f"workload 'f.json/x' {NEITHER}"),
    ("not-utf8", "latin1.json",
     "catalog file latin1.json is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 1: "
     "invalid start byte",
     "workload file latin1.json is not readable JSON: 'utf-8' codec can't decode byte 0xff in position 1: "
     "invalid start byte"),
    ("bad-json", "bad.json",
     "catalog file bad.json is not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)",
     "workload file bad.json is not readable JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("nul-byte", "a\x00b",
     "cannot read catalog file a\x00b: embedded null byte",
     f"workload 'a\\x00b' {NEITHER}"),
    ("empty", "",
     "cannot read catalog file '': [Errno 2] No such file or directory: ''",
     f"workload '' {NEITHER}"),
]


@pytest.fixture
def files(tmp_path, monkeypatch):
    """A working directory holding a directory ``d``, a regular file
    ``f.json`` and the two unreadable files of :data:`CASES`."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "f.json").write_text("[]")
    (tmp_path / "latin1.json").write_bytes(b"[\xff]")
    (tmp_path / "bad.json").write_text("{not json")
    return tmp_path


@pytest.mark.parametrize("path, message", [case[1:3] for case in CASES], ids=[case[0] for case in CASES])
def test_catalog_file_errors(files, path, message):
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert str(info.value) == message


@pytest.mark.parametrize("path, message", [(case[1], case[3]) for case in CASES], ids=[case[0] for case in CASES])
def test_workload_file_errors(files, path, message):
    with pytest.raises(ValueError) as info:
        load_workload(path)
    assert str(info.value) == message


EMPTY_CATALOG = "Error: catalog: cannot read catalog file '': [Errno 2] No such file or directory: ''\n"
EMPTY_WORKLOAD = f"Error: workload: workload '' {NEITHER}\n"


@pytest.mark.parametrize("args, stderr", [
    (["evaluate", "--catalog", ""], EMPTY_CATALOG),
    (["linkbudget", "--catalog="], EMPTY_CATALOG),
    (["ablate", "--catalog", ""], EMPTY_CATALOG),
    (["sweep", "--catalog", ""], EMPTY_CATALOG),
    (["evaluate", "--workload", ""], EMPTY_WORKLOAD),
    (["sweep", "--workload="], EMPTY_WORKLOAD),
], ids=["evaluate-catalog", "linkbudget-catalog", "ablate-catalog", "sweep-catalog", "evaluate-workload",
        "sweep-workload"])
def test_an_empty_path_exits_1_naming_the_option(files, monkeypatch, args, stderr):
    # an empty value is a path like any other, not an absent option
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    result = CliRunner().invoke(main, [*args, "--format", "json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == stderr


def test_an_empty_catalog_variable_falls_back_to_the_shipped_catalog(files, monkeypatch):
    monkeypatch.delenv("WAVECORE_CATALOG", raising=False)
    shipped = CliRunner().invoke(main, ["evaluate", "--format", "json"])
    monkeypatch.setenv("WAVECORE_CATALOG", "")
    result = CliRunner().invoke(main, ["evaluate", "--format", "json"])
    assert shipped.exit_code == result.exit_code == 0
    assert result.stdout == shipped.stdout


@pytest.mark.parametrize("spelling", ["./w.json/", "w.json/.", ".//w.json//"])
def test_a_spelling_that_normalizes_to_a_file_reads_it(files, spelling):
    (files / "w.json").write_text(json.dumps([{"name": "conv_a", "c_in": 2}]))
    assert [layer.name for layer in load_workload(spelling)] == ["conv_a"]
    (files / "w.json").write_text(json.dumps({"schema_version": 1, "wsc": {"insertion_loss_db": 0.25}}))
    assert load_catalog(spelling).loss_db("wsc") == 0.25


def test_a_path_object_reads_as_its_text(files):
    (files / "w.json").write_text(json.dumps([{"name": "conv_a", "c_in": 2}]))
    assert load_workload(Path("w.json")) == load_workload("w.json")
    with pytest.raises(ValueError) as info:
        load_workload(Path(".//d/./"))
    assert str(info.value) == "workload file d is not readable JSON: [Errno 21] Is a directory: 'd'"


def test_a_permission_error_on_a_workload_path_exits_1(files, monkeypatch):
    # Root ignores file modes, so the denial is patched into both calls that
    # can reach the file: stat and open.
    (files / "w.json").write_text("[]")
    denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES), "w.json")

    def deny(real):
        def call(path, *args, **kwargs):
            if os.fspath(path) == "w.json":
                raise denied
            return real(path, *args, **kwargs)
        return call

    monkeypatch.setattr(os, "stat", deny(os.stat))
    monkeypatch.setattr("builtins.open", deny(open))
    result = CliRunner().invoke(main, ["evaluate", "--workload", "w.json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 1
    assert result.stderr == ("Error: workload: workload file w.json is not readable JSON: "
                             "[Errno 13] Permission denied: 'w.json'\n")


# A repeated key in any object of an input file is an error naming the key,
# not a silent last-value-wins; the same key in two objects is not repeated.
REPEATED_KEYS = [
    ("energy-key", "--catalog",
     '{"schema_version": 1, "sl_mzm": {"energy_per_switch_fj": {"6": 1.0, "6": 500.0}}}',
     "Error: catalog: catalog file in.json is not valid JSON: repeated key '6'\n"),
    ("two-entries", "--catalog",
     '{"schema_version": 1, "awg": {"insertion_loss_db": 1.0}, "awg": {"insertion_loss_db": 2.0}}',
     "Error: catalog: catalog file in.json is not valid JSON: repeated key 'awg'\n"),
    ("two-fields", "--catalog",
     '{"schema_version": 1, "awg": {"insertion_loss_db": 1.0, "insertion_loss_db": 2.0}}',
     "Error: catalog: catalog file in.json is not valid JSON: repeated key 'insertion_loss_db'\n"),
    ("layer-field", "--workload",
     '[{"name": "conv_a", "c_in": 2, "c_out": 4}, {"name": "conv_b", "c_in": 4, "c_out": 8, "c_in": 6}]',
     "Error: workload: workload file in.json is not readable JSON: repeated key 'c_in'\n"),
]


@pytest.mark.parametrize("option, content, stderr", [case[1:] for case in REPEATED_KEYS],
                         ids=[case[0] for case in REPEATED_KEYS])
def test_a_repeated_key_exits_1_naming_it(files, option, content, stderr):
    (files / "in.json").write_text(content)
    result = CliRunner().invoke(main, ["evaluate", option, "in.json", "--format", "json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == stderr


def test_a_key_in_two_objects_is_not_repeated(files):
    (files / "in.json").write_text('{"schema_version": 1, "awg": {"insertion_loss_db": 1.5},'
                                   ' "wsc": {"insertion_loss_db": 0.25}}')
    cat = load_catalog("in.json")
    assert (cat.loss_db("awg"), cat.loss_db("wsc")) == (1.5, 0.25)
    (files / "in.json").write_text('[{"name": "conv_a", "c_in": 2}, {"name": "conv_b", "c_in": 2}]')
    assert [layer.c_in for layer in load_workload("in.json")] == [2, 2]
