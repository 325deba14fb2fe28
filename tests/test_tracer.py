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


def traced_calls(tmp_path, *args):
    """Run ``perfbench/tracer.py`` with ``args``; the span calls summed over
    the trace files of every process."""
    trace = tmp_path / "trace"
    trace.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), *args],
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
    return calls


def test_tracer_runs_certify_job(tmp_path):
    calls = traced_calls(tmp_path, "certify", "20240817", str(tmp_path / "out"))
    assert calls["bell.lipschitz_certificate"] == 20
    assert calls["bell.hs_bound_certificate"] == 3


def test_tracer_sees_pooled_tasks(tmp_path):
    # Pool workers write their own trace files; the spans of the tasks they
    # ran, and of the steps inside them, must reach the merged counts.
    config = json.loads((ROOT / "docs" / "example-config.json").read_text())
    config["n_paths"] = 3
    config["solver"]["horizon"] = 0.02
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = ("hitting-times", str(path), "--workers", "2", "--out", str(tmp_path / "out"))
    calls = traced_calls(tmp_path, "cli", *args)
    assert calls.get("ensemble.task", 0) >= 2
    assert calls.get("flow.step", 0) > 0
