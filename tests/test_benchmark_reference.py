"""Each benchmark workload, run once at the documented seed, against
``perfbench/reference.json``.

The workloads are built as ``perfbench/run.py`` builds them and checked by
its gate (``perfbench/gate.py``), so a change in ``src/`` that moves a key
scalar fails here, not only under the benchmark.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MASTER_SEED = 20240817


def _cli_workloads():
    """The ``CLI_WORKLOADS`` table of ``perfbench/run.py`` (name -> command,
    n_paths, workers), read from its source as a literal: importing the
    script would run its module-level setup (it pins BLAS threads in
    ``os.environ``)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["CLI_WORKLOADS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py assigns no CLI_WORKLOADS literal")


CLI_WORKLOADS = _cli_workloads()


def _load_gate():
    spec = importlib.util.spec_from_file_location("gate", PERFBENCH / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _run(argv, cwd):
    """Run ``argv`` in a fresh interpreter as the benchmark does: the
    program from ``src``, BLAS on one thread."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("workload", [*CLI_WORKLOADS, "certify"])
def test_workload_matches_the_reference(workload, tmp_path):
    out = tmp_path / "out"
    config = None
    if workload == "certify":
        rc, err = _run([str(PERFBENCH / "certify_job.py"), str(MASTER_SEED), str(out)], tmp_path)
    else:
        spec = CLI_WORKLOADS[workload]
        command, n_paths, workers = spec["command"], spec["n_paths"], spec["workers"]
        config = json.loads((ROOT / "docs" / "example-config.json").read_text())
        config.update(n_paths=n_paths, master_seed=MASTER_SEED)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["-m", "circleflow.cli", command, str(config_path), "--out", str(out),
                "--workers", str(workers)]
        rc, err = _run(argv, tmp_path)
    schema = json.loads((ROOT / "docs" / "summary.schema.json").read_text())
    reasons, scalars, work = gate.inspect(workload, rc, out, config, schema)
    assert reasons == [], err
    assert work > 0
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    want = reference["workloads"][workload][str(MASTER_SEED)]
    assert gate.compare(scalars, want, reference["rel_tol"]) == []
