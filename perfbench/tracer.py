"""Per-layer tracing of circleflow, installed from outside the package.

    python3 perfbench/tracer.py TRACE_DIR cli ARGS...      # circleflow CLI
    python3 perfbench/tracer.py TRACE_DIR certify ARGS...  # certify_job.py

Before the program starts, the public functions of each layer are wrapped
where their callers look them up.  A module that did
``from .noise import field_values`` holds its own reference, so patching only
the defining module would miss those calls; each wrapper is therefore
installed at every lookup site listed in ``install``.

Every process keeps per-name totals in memory: calls, wall seconds and self
seconds (the span minus its child spans), plus a few layer counts.  It
writes them to ``TRACE_DIR/<pid>.json``.  Forked pool workers leave through
``os._exit``, which skips ``atexit``, so they write after every task.
``merge`` sums the files of one invocation; ``layer_metrics`` turns the sums
into the per-layer metrics of BENCHMARK.json.  Needs ``src`` on PYTHONPATH.
"""

import functools
import json
import os
import sys
import time
from pathlib import Path

# Spans reported as <name>.calls and <name>.self_s.
SPANS = (
    "noise.increment_at",
    "noise.field_values",
    "circlefn.hk_norm",
    "circlefn.derivative",
    "circlefn.dense_values",
    "circlefn.evaluate",
    "circlefn.compose",
    "basis.basis_function",
    "bell.hs_bound_certificate",
    "bell.lipschitz_certificate",
    "flow.step",
    "flow.simulate_path",
)


class Tracer:
    """Span totals and counters of one process."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self.reset()

    def reset(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.stack = []  # child seconds accumulated by each open span

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result, seconds)`` may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self.stack.pop()
                if self.stack:
                    self.stack[-1] += dt
                tot = self.spans.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - child
            if after is not None:
                after(args, result, dt)
            return result

        return wrapper

    def dump(self):
        path = self.out_dir / f"{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer):
    """Wrap every traced function at each site where callers look it up."""
    from circleflow import basis, bell, circlefn, cli, ensemble, flow, noise

    t = tracer
    os.register_at_fork(after_in_child=t.reset)

    noise.NoiseStream.increment_at = t.span("noise.increment_at", noise.NoiseStream.increment_at)
    field = t.span(
        "noise.field_values",
        noise.field_values,
        after=lambda a, r, dt: t.count("noise.field_values.points", len(a[2])),
    )
    noise.field_values = flow.field_values = field

    fn_cls = circlefn.CircleFunction
    for name in ("hk_norm", "derivative", "dense_values", "evaluate"):
        setattr(fn_cls, name, t.span(f"circlefn.{name}", getattr(fn_cls, name)))
    compose = t.span("circlefn.compose", circlefn.compose)
    circlefn.compose = bell.compose = ensemble.compose = compose

    basis.ScaledBasis.basis_function = t.span(
        "basis.basis_function", basis.ScaledBasis.basis_function
    )
    for name in ("hs_bound_certificate", "lipschitz_certificate"):
        setattr(bell, name, t.span(f"bell.{name}", getattr(bell, name)))

    # simulate_path and the other flow loops step through _STEPPERS; the
    # contrast experiment calls the euler_step it imported by name.
    for scheme, step in list(flow._STEPPERS.items()):
        flow._STEPPERS[scheme] = t.span("flow.step", step)
    ensemble.euler_step = flow._STEPPERS["euler"]
    ensemble.simulate_path = t.span(
        "flow.simulate_path",
        ensemble.simulate_path,
        after=lambda a, r, dt: t.count("flow.min_deriv.recorded", len(r.samples) - 1),
    )
    advance = flow._advance

    @functools.wraps(advance)
    def counted_advance(*args, **kwargs):
        t.count("flow.min_deriv.evaluations")
        return advance(*args, **kwargs)

    flow._advance = counted_advance

    def task_done(args, result, dt):
        if os.getpid() != t.main_pid:
            t.dump()

    # Pickled by qualified name, so pool workers resolve to this wrapper.
    ensemble._run_one_path = t.span("ensemble.task", ensemble._run_one_path, after=task_done)
    ensemble.run_ensemble = t.span(
        "ensemble.run_ensemble",
        ensemble.run_ensemble,
        after=lambda a, r, dt: t.count("ensemble.capacity_s", a[0].workers * dt),
    )

    class CountedPool(ensemble.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            t.count("ensemble.pool_starts")
            super().__init__(*args, **kwargs)

    ensemble.ProcessPoolExecutor = CountedPool
    ensemble.summarize = t.span("ensemble.summarize", ensemble.summarize)
    for name in ("_write_paths_csv", "_write_sample_csv", "_write_json"):
        setattr(
            ensemble,
            name,
            t.span(
                "ensemble.io",
                getattr(ensemble, name),
                after=lambda a, r, dt: t.count("ensemble.io.bytes", os.path.getsize(a[0])),
            ),
        )
    cli.load_config = t.span("cli.load_config", cli.load_config)


def merge(trace_dir):
    """Sum the span and count files of every process of one invocation."""
    spans, counts = {}, {}
    for path in sorted(Path(trace_dir).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for name, (calls, total, self_s) in data["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts


def layer_metrics(spans, counts):
    """Per-layer metrics (name -> value) from merged spans and counts."""

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["noise.field_values.points"] = counts.get("noise.field_values.points", 0)
    evaluations = counts.get("flow.min_deriv.evaluations", 0)
    recorded = counts.get("flow.min_deriv.recorded", 0)
    out["flow.min_deriv.useful_ratio"] = recorded / evaluations if evaluations else 0.0
    capacity = counts.get("ensemble.capacity_s", 0.0)
    out["ensemble.tasks"] = calls("ensemble.task")
    out["ensemble.pool_starts"] = counts.get("ensemble.pool_starts", 0)
    out["ensemble.run_ensemble.wall_s"] = total("ensemble.run_ensemble")
    out["ensemble.worker_busy_s"] = total("ensemble.task")
    out["ensemble.worker_utilization"] = total("ensemble.task") / capacity if capacity else 0.0
    out["ensemble.io.bytes"] = counts.get("ensemble.io.bytes", 0)
    out["ensemble.io.self_s"] = self_s("ensemble.io")
    out["ensemble.summarize.self_s"] = self_s("ensemble.summarize")
    out["cli.load_config.self_s"] = self_s("cli.load_config")
    return out


def main(argv):
    if len(argv) < 2 or argv[1] not in ("cli", "certify"):
        print("usage: tracer.py TRACE_DIR cli|certify ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    install(tracer)
    try:
        if argv[1] == "cli":
            from circleflow.cli import main as program
        else:
            from certify_job import main as program
        return program(argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
