"""Run the five commands on one config and keep everything each run wrote.

    python scripts/artifacts.py OUT [--config PATH]

Each of ``run``, ``validate``, ``flow-check``, ``hitting-times`` and
``contrast`` runs at ``--workers`` 1 and 2, as ``python -m circleflow.cli``
on the ``src`` of the checkout this script sits in, with BLAS pinned to one
thread.  The run of ``COMMAND`` at ``N`` workers writes its artifacts to
``OUT/COMMAND-wN/out`` and its ``stdout``, ``stderr`` and ``exit`` code
beside them.  Every run starts in ``OUT``, so the paths it prints are
relative to ``OUT`` and two checkouts' outputs compare with one
``diff -r OUT_A OUT_B``.  ``OUT`` must not exist yet.  The config defaults
to ``docs/example-config.json``.

For each run the script prints ``COMMAND-wN: exit C, W s, R MB`` on its own
standard output: the exit code, the wall time, and the peak resident set
of the run's process tree (pool workers included), as ``wait4`` reports
it.  These vary from run to run, so none of them is written under ``OUT``.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("run", "validate", "flow-check", "hitting-times", "contrast")
WORKERS = (1, 2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the runs; must not exist")
    parser.add_argument("--config", type=Path, default=ROOT / "docs" / "example-config.json")
    args = parser.parse_args(argv)
    config = args.config.resolve()
    out = args.out.resolve()
    if out.exists():
        parser.error(f"{out} exists")
    out.mkdir(parents=True)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for command in COMMANDS:
        for workers in WORKERS:
            name = f"{command}-w{workers}"
            run_dir = out / name
            run_dir.mkdir()
            cli = [sys.executable, "-m", "circleflow.cli", command, str(config),
                   "--out", f"{name}/out", "--workers", str(workers)]
            code, wall, peak_mb = _run(cli, out, env, run_dir)
            (run_dir / "exit").write_text(f"{code}\n", encoding="utf-8")
            print(f"{name}: exit {code}, {wall:.3f} s, {peak_mb:.1f} MB", flush=True)


def _run(cli, cwd, env, run_dir):
    """Run ``cli`` with its output streams sent to ``run_dir``'s ``stdout``
    and ``stderr``; its exit code, wall time in seconds, and peak resident
    set in MB.  The peak is ``wait4``'s: the largest of the command and of
    every descendant it waited for.  A child's peak also counts the pages
    of the process that started it, so this script imports nothing large."""
    with open(run_dir / "stdout", "wb") as stdout, open(run_dir / "stderr", "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cli, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


if __name__ == "__main__":
    main()
