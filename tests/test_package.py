"""Start-up: a caller loads only what it runs.

``circleflow/__init__.py`` holds one table of the exported names; a name
loads its submodule on first use (PEP 562).  A caller that wants only the
certificates must not pay for the ensemble, the process pool or
``numpy.random``.  The CLI loads its config without the pool, ``numpy.random``
or the certificates, and a run at one worker never loads the pool.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circleflow

ROOT = Path(__file__).resolve().parent.parent

# What ``from circleflow import CircleFunction, ...`` must leave unloaded.
HEAVY = (
    "circleflow.ensemble",
    "circleflow.flow",
    "circleflow.noise",
    "concurrent.futures",
    "numpy.random",
)

_PROBE = f"""
import json, sys
from circleflow import CircleFunction, ScaledBasis, ScalingSequence, bell
loaded = [m for m in {HEAVY!r} if m in sys.modules]
import circleflow
print(json.dumps([loaded, circleflow.flow.simulate_paths.__module__]))
"""


def test_certificate_names_load_no_ensemble_pool_or_random():
    # the names perfbench/certify_job.py imports, in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, flow_home = json.loads(proc.stdout)
    assert loaded == []
    # a submodule not loaded yet still resolves after a bare import
    assert flow_home == "circleflow.flow"


# What the CLI's setup path (``import circleflow.cli`` and ``load_config``)
# must leave unloaded; the pool is the first two.
SETUP_HEAVY = (
    "concurrent.futures.process",
    "multiprocessing",
    "numpy.random",
    "circleflow.bell",
)

_CLI_PROBE = f"""
import json, sys
from circleflow import cli
if sys.argv[1] == "setup":
    cli.load_config(cli.build_parser().parse_args(sys.argv[2:]))
    code = 0
else:
    code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in {SETUP_HEAVY!r} if m in sys.modules]]))
"""


def cli_probe(*args):
    """``cli.main(args)`` (``load_config`` alone after "setup") in a fresh
    interpreter: its exit code and the names of SETUP_HEAVY it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_PROBE, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])  # after the artifact paths


@pytest.fixture
def small_config(tmp_path):
    config = json.loads((ROOT / "docs" / "example-config.json").read_text())
    config["n_paths"] = 2
    config["solver"]["horizon"] = 0.02
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_cli_setup_loads_no_pool_random_or_certificates():
    config = str(ROOT / "docs" / "example-config.json")
    assert cli_probe("setup", "run", config, "--workers", "2") == [0, []]


def test_one_worker_run_never_loads_the_pool(small_config, tmp_path):
    code, loaded = cli_probe("run", small_config, "--workers", "1", "--out", str(tmp_path / "out"))
    assert code == 0
    assert loaded == ["numpy.random"]  # drawn, so loaded; no pool, no certificates


@pytest.mark.parametrize(
    "command, expected",
    [
        ("run", SETUP_HEAVY[:2]),  # the pool, on first use; the workers draw
        ("validate", SETUP_HEAVY[2:]),  # the certificates, and no pool
    ],
)
def test_each_command_loads_what_it_runs_at_two_workers(small_config, tmp_path, command, expected):
    out = str(tmp_path / "out")
    code, loaded = cli_probe(command, small_config, "--workers", "2", "--out", out)
    assert code == 0
    assert loaded == list(expected)


def test_every_exported_name_is_its_submodules_attribute():
    for name, mod in circleflow._HOME.items():
        module = importlib.import_module(f"circleflow.{mod}")
        assert getattr(circleflow, name) is (module if name == mod else getattr(module, name))


def test_all_and_dir_list_the_table():
    assert sorted(circleflow.__all__) == sorted(circleflow._HOME)
    assert set(circleflow._HOME) <= set(dir(circleflow))
    for sub in ("basis", "bell", "circlefn", "cli", "ensemble", "flow", "noise"):
        assert circleflow._HOME[sub] == sub


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'circleflow'.*'no_such_name'"):
        circleflow.no_such_name
    # the pruned test-only names are no longer exported
    for name in ("basis_coefficients", "BellTable", "FlowState"):
        assert not hasattr(circleflow, name)
