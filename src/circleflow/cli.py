"""Command line entry point.

    circleflow run <config.json>            run the experiment named in the config
    circleflow validate <config.json>       cross-module invariant battery
    circleflow flow-check <config.json>     left-invariance / composition probe
    circleflow hitting-times <config.json>  hitting time table over a radius grid
    circleflow contrast <config.json>       cutoff-doubling smoothness contrast

Exit codes: 0 all asserted checks pass, 1 a validation check failed,
2 the config failed to parse or validate, its output directory cannot be
created or an artifact cannot be written, 3 the integration produced
non-finite values.  ``--seed``, ``--out`` and ``--workers`` override the
config file; CIRCLEFLOW_OUTDIR supplies a default output directory.
"""

import argparse
import os
import sys

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
    cfg = RunConfig.from_file(args.config)
    d = cfg.to_dict()
    if args.seed is not None:
        d["master_seed"] = args.seed
    if args.out is not None:
        d["output_dir"] = args.out
    elif not d.get("output_dir"):
        d["output_dir"] = os.environ.get("CIRCLEFLOW_OUTDIR", "out")
    if args.workers is not None:
        d["workers"] = args.workers
    forced = _FORCED[args.command]
    if forced is not None:
        d["experiment"] = forced
    return RunConfig.from_dict(d)


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
