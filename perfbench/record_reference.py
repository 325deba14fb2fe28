#!/usr/bin/env python3
"""Write perfbench/reference.json: key scalars of every workload at each seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per master seed of the seed bank, untraced, and
stores the key scalars ``gate.inspect`` extracts.  An invocation that fails
its own checks is an error, not a reference.  Re-record only when a change
is meant to alter the program's results, and say so in CHANGES.md.
"""

import json
import os
import shutil
import sys

import gate
import run

REL_TOL = 1e-10  # derivation in gate.py


def record(name, seed, schema):
    run_dir = run.ROOT / ".perfbench" / f"reference-{name}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload = run.Workload(name, seed, run_dir)
        inv_dir = run_dir / "inv"
        rc, wall, _ = run.execute(workload.argv(inv_dir / "out"), inv_dir)
        reasons, scalars, work = gate.inspect(name, rc, inv_dir / "out", workload.config, schema)
        if reasons:
            raise RuntimeError(f"{name} at seed {seed}: {reasons}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{name} seed {seed}: {wall:.2f} s, work {work}", file=sys.stderr)
    return scalars


def main(argv):
    names = argv or list(run.WORKLOADS)
    with open(run.SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    try:
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference["rel_tol"] = REL_TOL
    seeds = [run.master_seed(i) for i in range(run.SEED_BANK)]
    for name in names:
        reference["workloads"][name] = {str(s): record(name, s, schema) for s in seeds}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
