"""The package entry point: a lazy public surface (PEP 562).

``circleflow/__init__.py`` holds one table of the exported names; a name
loads its submodule on first use.  A caller that wants only the
certificates must not pay for the ensemble, the process pool or
``numpy.random``.
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
