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
"""

import argparse
import os
import subprocess
import sys
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
            done = subprocess.run(cli, cwd=out, env=env, capture_output=True, text=True)
            (run_dir / "stdout").write_text(done.stdout, encoding="utf-8")
            (run_dir / "stderr").write_text(done.stderr, encoding="utf-8")
            (run_dir / "exit").write_text(f"{done.returncode}\n", encoding="utf-8")
            print(f"{name}: exit {done.returncode}")


if __name__ == "__main__":
    main()
