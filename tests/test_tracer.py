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
    """Run ``perfbench/tracer.py`` with ``args``; the span calls and the
    counts, each summed over the trace files of every process."""
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
    calls, counts = {}, {}
    for path in trace.glob("*.json"):
        data = json.loads(path.read_text())
        for name, (n, _, _) in data["spans"].items():
            calls[name] = calls.get(name, 0) + n
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return calls, counts


def test_tracer_runs_certify_job(tmp_path):
    calls, _ = traced_calls(tmp_path, "certify", "20240817", str(tmp_path / "out"))
    assert calls["bell.lipschitz_certificate"] == 20
    assert calls["bell.hs_bound_certificate"] == 3


def traced_hitting_times(tmp_path, workers):
    """``hitting-times`` under the tracer on a 3-path, 0.02-horizon config."""
    config = json.loads((ROOT / "docs" / "example-config.json").read_text())
    config["n_paths"] = 3
    config["solver"]["horizon"] = 0.02
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = ("hitting-times", str(path), "--workers", str(workers), "--out", str(tmp_path / "out"))
    return traced_calls(tmp_path, "cli", *args)


def test_tracer_sees_pooled_tasks(tmp_path):
    # Pool workers write their own trace files; the spans of the tasks they
    # ran, and of the steps inside them, must reach the merged counts.  The
    # pool is imported on first use, and the tracer's counting subclass of
    # ``ensemble.ProcessPoolExecutor`` must still be the class that starts.
    calls, counts = traced_hitting_times(tmp_path, 2)
    assert calls.get("ensemble.task", 0) >= 2
    assert calls.get("flow.step", 0) > 0
    assert counts.get("ensemble.pool_starts", 0) == 1


def test_tracer_counts_no_pool_start_at_one_worker(tmp_path):
    calls, counts = traced_hitting_times(tmp_path, 1)
    assert calls.get("ensemble.task", 0) >= 1
    assert counts.get("ensemble.pool_starts", 0) == 0
