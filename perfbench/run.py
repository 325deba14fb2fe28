#!/usr/bin/env python3
"""The circleflow benchmark: end-to-end metrics per workload, or a traced
per-layer breakdown.

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload hitting --seed 1 --seconds 25 --trace 1

Run it from the repository root; the program is imported from ``src``, so
nothing needs to be installed.  Every invocation is a fresh process, as a
user runs it, started with ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1``: unpinned, pool workers times BLAS threads
oversubscribe the cores.

Workloads (the ``why`` of each is in BENCHMARK.json):

* ``simulate``: ``circleflow run`` on ``docs/example-config.json``, 4 paths,
  ``--workers 1``.
* ``contrast``: ``circleflow contrast`` on the same config, 1 path.
* ``hitting``: ``circleflow hitting-times``, 50 paths per radius,
  ``--workers 2``.
* ``certify``: ``certify_job.py``, 20 Lipschitz pairs and the HS certificate
  at k = 2, 3, 4 for 1 state, N = 32, M = 128.

Each invocation takes 1.5 to 3.5 s on a 2-core machine, so that a run holds
7 to 15 of them.

``--seed n`` selects the master seed ``20240817 + n mod 10`` (the RNG seed
for certify); seed 0 is the documented seed.  ``reference.json`` holds the
key scalars of every workload at each of these ten seeds
(``record_reference.py`` writes it).

One run repeats the workload's invocation until ``--seconds`` have passed
(at least 3 times).  Untraced, each invocation is followed by a setup probe:
a fresh interpreter that imports circleflow and loads the workload's config
(builds the basis, for certify);
``setup_s`` is the median of the probes.  Each invocation passes the gate in
``gate.py`` or counts as failed.  With ``--trace 0`` the run reports the
end-to-end metrics: the work of the passing invocations over their wall
time (path-steps, or certificates for certify, counted from the artifacts,
process start included), the median peak resident set of an invocation's
process tree, and the share of invocations that passed.  With ``--trace 1``
it alternates untraced invocations with invocations under ``tracer.py`` and
reports the median of every per-layer metric over the traced ones, plus the
tracing overhead as traced over untraced median wall time.

The last line of standard output is the result; the line before it holds
the machine metadata.  The exit code is 1 if any invocation failed the
gate, 2 if the checkout lacks the program or a reference.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOADAVG_AT_START = os.getloadavg()
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy loads, here and in every child

import gate  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXAMPLE_CONFIG = ROOT / "docs" / "example-config.json"
SCHEMA = ROOT / "docs" / "summary.schema.json"
REFERENCE = HERE / "reference.json"

BASE_SEED = 20240817
SEED_BANK = 10
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 20.0  # 5x the slowest invocation; keeps a run under 180 s

CLI_WORKLOADS = {
    "simulate": {"command": "run", "n_paths": 4, "workers": 1},
    "contrast": {"command": "contrast", "n_paths": 1, "workers": 1},
    "hitting": {"command": "hitting-times", "n_paths": 50, "workers": 2},
}
WORKLOADS = (*CLI_WORKLOADS, "certify")
SETUP_SNIPPET = (
    "import sys; from circleflow.cli import build_parser, load_config; "
    "load_config(build_parser().parse_args(sys.argv[1:]))"
)


def master_seed(seed):
    return BASE_SEED + seed % SEED_BANK


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Workload:
    """Inputs and command lines of one workload at one master seed."""

    def __init__(self, name, seed, run_dir):
        self.name = name
        self.seed = seed
        self.run_dir = run_dir
        self.config = None  # certify_job.py holds its parameters itself
        if name == "certify":
            return
        with open(EXAMPLE_CONFIG, encoding="utf-8") as fh:
            self.config = json.load(fh)
        self.config["n_paths"] = CLI_WORKLOADS[name]["n_paths"]
        self.config["master_seed"] = seed
        self.config_path = run_dir / "config.json"
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2)

    def program_args(self, out_dir):
        if self.name == "certify":
            return [str(self.seed), str(out_dir)]
        spec = CLI_WORKLOADS[self.name]
        return [spec["command"], str(self.config_path), "--out", str(out_dir),
                "--workers", str(spec["workers"])]

    def argv(self, out_dir, trace_dir=None):
        args = self.program_args(out_dir)
        kind = "certify" if self.name == "certify" else "cli"
        if trace_dir is not None:
            return [sys.executable, str(HERE / "tracer.py"), str(trace_dir), kind, *args]
        if kind == "certify":
            return [sys.executable, str(HERE / "certify_job.py"), *args]
        return [sys.executable, "-m", "circleflow.cli", *args]

    def setup_argv(self):
        if self.name == "certify":
            return [sys.executable, str(HERE / "certify_job.py"), "--setup-only"]
        return [sys.executable, "-c", SETUP_SNIPPET, *self.program_args(self.run_dir / "out")]


def _wait_group_gone(pgid, timeout=10.0):
    """Kill and wait out what is left of a process group (orphaned workers)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise RuntimeError(f"process group {pgid} did not end")


def execute(argv, log_dir, timeout=INVOCATION_TIMEOUT_S):
    """Run argv through spawn.py in a session of its own.

    Returns (exit code, wall s, peak RSS MB) as spawn.py measured them.  On
    timeout the whole session is killed, pool workers included, and the
    exit code is that of the kill.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    report = log_dir / "spawn.json"
    report.unlink(missing_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(report), *argv],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True,
        )
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()  # spawn.py; the rest of its session goes below
            proc.wait()
    _wait_group_gone(proc.pid)
    if not report.is_file():
        return proc.returncode or -1, timeout, 0.0
    with open(report, encoding="utf-8") as fh:
        result = json.load(fh)
    return result["rc"], result["wall_s"], result["peak_rss_mb"]


def setup_probe(workload):
    """Wall time of a fresh interpreter that imports circleflow and loads the
    workload's config (builds the basis, for certify)."""
    log = workload.run_dir / "setup"
    rc, wall, _ = execute(workload.setup_argv(), log)
    if rc != 0:
        raise RuntimeError(f"setup probe exited {rc}: {(log / 'stderr').read_text()}")
    return wall


def measure(workload, check, seconds, trace):
    """Repeat the invocation for ``seconds``.

    Untraced, a setup probe follows every invocation, so that the setup
    median samples the same stretch of machine time as the invocations.
    Traced, every other invocation runs under the tracer.  Returns the
    invocation records and the setup probe times.
    """
    records, setup_times = [], []
    minimum = 2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS
    if not trace:
        setup_probe(workload)  # fills the bytecode cache
    t_end = time.perf_counter() + seconds
    while len(records) < minimum or time.perf_counter() < t_end:
        i = len(records)
        inv_dir = workload.run_dir / f"inv{i:03d}"
        traced = trace and i % 2 == 1
        trace_dir = inv_dir / "trace" if traced else None
        if traced:
            trace_dir.mkdir(parents=True)
        rc, wall, rss = execute(workload.argv(inv_dir / "out", trace_dir), inv_dir)
        reasons, work = check.check(rc, inv_dir)
        rec = {"wall_s": wall, "rss_mb": rss, "work": work, "reasons": reasons, "traced": traced}
        if traced:
            rec["layers"] = tracer.layer_metrics(*tracer.merge(trace_dir))
        records.append(rec)
        status = "ok" if not reasons else "FAILED: " + "; ".join(reasons)
        if reasons:
            tail = (inv_dir / "stderr").read_text(errors="replace")[-2000:]
            status += f"\n{tail}"
        kind = "traced " if traced else ""
        print(f"[{workload.name}] {kind}invocation {i}: {wall:.3f} s, {rss:.1f} MB, {status}",
              file=sys.stderr)
        shutil.rmtree(inv_dir)
        if not trace:
            setup_times.append(setup_probe(workload))
    return records, setup_times


def end_to_end(records, setup_times):
    passed = [r for r in records if not r["reasons"]]
    wall = sum(r["wall_s"] for r in passed)
    return {
        "work_per_s": sum(r["work"] for r in passed) / wall if passed else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
        "passed_frac": len(passed) / len(records),
    }


def per_layer(records):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in plain
    )
    return out


def machine_meta(args, seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_at_start": list(LOADAVG_AT_START),
        "blas_pin": BLAS_PIN,
    }


def fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in (SRC / "circleflow" / "__init__.py", EXAMPLE_CONFIG, SCHEMA, REFERENCE,
                 ROOT / "BENCHMARK.json"):
        if not path.is_file():
            return fail_setup(f"missing {path.relative_to(ROOT)}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    seed = master_seed(args.seed)
    if str(seed) not in reference["workloads"].get(args.workload, {}):
        return fail_setup(f"no reference for {args.workload} at master seed {seed}")

    run_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload = Workload(args.workload, seed, run_dir)
        with open(SCHEMA, encoding="utf-8") as fh:
            check = gate.Gate(workload, reference, json.load(fh))
        records, setup_times = measure(workload, check, args.seconds, bool(args.trace))
        if args.trace:
            metrics, listed = per_layer(records), spec["per_layer"]
        else:
            metrics, listed = end_to_end(records, setup_times), spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json")
    failed = sum(1 for r in records if r["reasons"])
    print(json.dumps({"meta": machine_meta(args, seed)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
