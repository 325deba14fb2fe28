"""Smoke test of the benchmark tracer, which wraps circleflow names from outside.

A change in ``src/`` that drops or renames a name that ``perfbench/tracer.py``
wraps fails here, not only under ``perfbench/run.py --trace 1``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_runs_certify_job(tmp_path):
    trace = tmp_path / "trace"
    trace.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "certify",
         "20240817", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls = {}
    for path in trace.glob("*.json"):
        for name, (n, _, _) in json.loads(path.read_text())["spans"].items():
            calls[name] = calls.get(name, 0) + n
    assert calls["bell.lipschitz_certificate"] == 20
    assert calls["bell.hs_bound_certificate"] == 3
