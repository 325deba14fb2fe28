"""Command line entry point.

    circleflow run <config.json>            run the experiment named in the config
    circleflow validate <config.json>       the paper's hypotheses for the configured solver
    circleflow flow-check <config.json>     left-invariance / composition probe
    circleflow hitting-times <config.json>  hitting time table over a radius grid
    circleflow contrast <config.json>       cutoff-doubling smoothness contrast

Exit codes: 0 all asserted checks pass, 1 a validation check failed,
2 the config failed to parse or validate, its output directory cannot be
created or an artifact cannot be written, 3 the integration produced
non-finite values.  ``--seed``, ``--out`` and ``--workers`` override the
config file.  CIRCLEFLOW_OUTDIR is the output directory of a config with no
``output_dir``, or a null or empty one; ``--out`` beats both.  A malformed
config exits 2 with one line naming the dotted key or section, e.g.
``config error: solver: dt must be a finite number, got nan``.
"""

import argparse
import os
import sys
from dataclasses import replace

# BLAS on one thread unless the caller set otherwise, before .ensemble loads
# numpy: pool workers would each start a thread per core (same artifacts)
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .ensemble import ConfigError, RunConfig, run_experiment
from .flow import SimulationDiverged

_FORCED = {
    "run": None,
    "validate": "validate",
    "flow-check": "flow_check",
    "hitting-times": "hitting_times",
    "contrast": "contrast_h32",
}


def build_parser():
    parser = argparse.ArgumentParser(prog="circleflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _FORCED:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
    return parser


def load_config(args):
    """The config file, validated as written, with the given overrides
    applied and validated in turn."""
    overrides = {
        "master_seed": args.seed,
        "output_dir": args.out,
        "workers": args.workers,
        "experiment": _FORCED[args.command],
    }
    given = {key: value for key, value in overrides.items() if value is not None}
    return replace(RunConfig.from_file(args.config), **given)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, artifacts = run_experiment(load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationDiverged as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    for path in artifacts:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
