"""Which shipped catalog values move a command's output.

Each numeric value of the shipped catalog is moved both ways: a float by 1%,
an integer by one, and a zero (every zero there is a loss, which cannot be
negative) up to 0.01. For each move, ``evaluate --workload resnet50 --format
json`` runs for every variant, at both clock profiles and both laser
accountings, and its exit code and stdout, the catalog hash left out, are
compared with the shipped catalog's. A value is inert when every move loads
and changes nothing. The inert values are pinned: a new field that no
command reads fails here, and so does a listed one that a model starts to
read (then take it off the list).
"""

import copy
import itertools
import json

from clirunner import CliRunner

from wavecore.catalog import default_catalog_path
from wavecore.cli import ABLATION_VARIANTS, main

SHIPPED = json.loads(default_catalog_path().read_text())
RUNS = [
    ["evaluate", "--workload", "resnet50", "--format", "json", "--variant", variant, "--profile", profile,
     "--wpe-mode", wpe_mode]
    for variant, profile, wpe_mode in itertools.product(ABLATION_VARIANTS, ("default", "pareto"),
                                                       ("budget", "electrical"))
]

# Accepted and checked, but read by no command: the floorplan sizes itself
# from its own constants, the critical path stops at the detector, the
# detector model reads only pd.sensitivity_dbm, the drivers run at 6 bits,
# only the simulator's PcmProgrammer draws programming noise, and the
# amplified-fanout variant assumes a gain that offsets the loss after it.
# See README, "Data formats".
AREA_ENTRIES = ("awg", "mmi_1x8", "splitter_1x2", "wsc", "voa", "pcm_cell", "crossing", "grating_coupler", "pd_block")
INERT = {
    *((name, "area_um", i) for name in AREA_ENTRIES for i in (0, 1)),
    ("pd_block", "insertion_loss_db"),
    ("tia", "insertion_loss_db"),
    ("pd", "responsivity_a_per_w"),
    ("pd", "dark_current_a"),
    ("pd", "bandwidth_hz"),
    ("sl_mzm", "energy_per_switch_fj", "4"),
    ("sl_mzm", "energy_per_switch_fj", "8"),
    ("pcm", "program_std"),
    ("soa", "gain_db"),
}
# The array's structure constants: any other value is rejected.
STRUCTURE = {("laser", "channels_per_comb"), ("pd", "max_ports")}


def numbers(node, path=()):
    """(path, value) of every number under ``node``; a path is the keys and indices to it."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numbers(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numbers(value, (*path, index))
    elif type(node) in (int, float):
        yield path, node


def moves(value):
    if type(value) is int:
        return value - 1, value + 1
    return (value * 0.99, value * 1.01) if value else (0.01,)


def outcome(runner, path, doc):
    """The runs' exit codes and stdout on the catalog ``doc``, catalog hash
    left out, or the first run's ``Error:`` line if one exits 1."""
    path.write_text(json.dumps(doc))
    got = []
    for argv in RUNS:
        result = runner.invoke(main, [*argv, "--catalog", str(path)])
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
        if result.exit_code == 1:
            return result.stderr
        out = json.loads(result.stdout)
        del out["header"]["catalog_sha256"]
        got.append((result.exit_code, out))
    return got


def test_inert_catalog_values_are_exactly_the_listed_ones(tmp_path):
    runner = CliRunner()
    path = tmp_path / "catalog.json"
    shipped = outcome(runner, path, SHIPPED)
    assert not isinstance(shipped, str), shipped
    inert, errors = set(), {}
    for where, value in numbers({k: v for k, v in SHIPPED.items() if k != "schema_version"}):
        results = []
        for moved in moves(value):
            doc = copy.deepcopy(SHIPPED)
            node = doc
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = moved
            results.append(outcome(runner, path, doc))
        errors[where] = [r for r in results if isinstance(r, str)]
        if all(r == shipped for r in results):
            inert.add(where)
    assert inert == INERT
    for where in STRUCTURE:
        field = ".".join(where)
        assert len(errors[where]) == 2
        assert all(error.startswith(f"Error: catalog: {field} must be ") for error in errors[where]), errors[where]
