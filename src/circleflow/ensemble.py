"""Ensemble orchestration, statistics, validation checks, and file artifacts.

Experiments are driven by a single JSON config.  Every artifact write is
deterministic: floats go through repr, JSON keys are sorted, and paths are
aggregated in path-id order regardless of how many workers produced them, so
identical configs give byte-identical outputs.

A command loads only what it runs: the process pool is imported on first
use (``__getattr__`` below), so a run at one worker never loads it, and the
certificates (``bell``) load with ``validation_checks``, their only caller.
"""

import csv
import json
import math
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from itertools import chain, takewhile
from pathlib import Path

import numpy as np

from .basis import ScaledBasis, ScalingSequence
from .circlefn import CircleFunction, _analyze, _require_ints, _require_reals
from .flow import (
    SolverConfig,
    _check_shared,
    _on_record_grid,
    _path_rows,
    diffeo_radius,
    flow_compose_check,
    integrate,
    simulate_path,  # unused here; perfbench's tracer wraps it at this site
    simulate_paths,
    stratonovich_correction,
    stratonovich_rounding_bound,
)
from .noise import NoiseStream

__all__ = [
    "ConfigError",
    "RunConfig",
    "run_experiment",
    "run_ensemble",
    "contrast_h32",
    "validation_checks",
    "SUMMARY_SCHEMA_VERSION",
]

SUMMARY_SCHEMA_VERSION = "circleflow-summary-1"

DEFAULT_RADII = (0.05, 0.1, 0.2, 0.4)

# Rows per block task: sizes the path ranges (``_blocks``), so a task holds
# at most max(BLOCK_ROWS, rows per path) rows at any n_paths; a path is never
# split, so one with more rows steps alone.
BLOCK_ROWS = 64


def __getattr__(name):
    """``ProcessPoolExecutor``, imported on first use (PEP 562) and cached in
    the module globals, so that ``concurrent.futures.process`` and
    ``multiprocessing`` load only for a run at more than one worker.
    ``run_ensemble`` reads the class from the globals at call time: a class
    assigned to ``ensemble.ProcessPoolExecutor`` (perfbench's tracer counts
    pool starts that way) is the one that runs."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


def _build(cls, d, section=""):
    """The dataclass ``cls`` built from the config object ``d``, each field
    whose type is a dataclass from its own object.  ConfigError names,
    dotted, the first section that is no object, key that is no constructor
    field, or field without a default that is missing; a constructor's
    error is prefixed with its dotted section (none at the top level)."""
    if not isinstance(d, dict):
        if section:
            raise ConfigError(f"config key '{section}' must be an object")
        raise ConfigError("config must be a JSON object")
    prefix = f"{section}." if section else ""
    known = {f.name: f for f in fields(cls) if f.init}
    kwargs = {}
    for key, value in d.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        sub = known[key].type
        kwargs[key] = _build(sub, value, prefix + key) if is_dataclass(sub) else value
    for key, f in known.items():
        if key not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing config key '{prefix}{key}'")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:  # ConfigError too
        raise ConfigError(f"{section}: {exc}" if section else str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """Full experiment description: solver settings plus orchestration."""

    solver: SolverConfig
    experiment: str = "simulate"
    n_paths: int = 1
    master_seed: int = 20240817
    record_every: int = 1
    output_dir: str | None = None  # None or "": $CIRCLEFLOW_OUTDIR if set and not empty, else "out"
    workers: int = 1
    radii: tuple = DEFAULT_RADII
    xi_kind: str = "sine"
    xi_amplitude: float = 0.1

    def __post_init__(self):
        # the type first: a list is unhashable, so no registry key
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            names = ", ".join(EXPERIMENTS)
            raise ConfigError(f"experiment must be one of {names}, got {self.experiment!r}")
        _require_ints({"master_seed": self.master_seed}, ConfigError, 0, 2**64)
        # The upper limits reject sizes no run can finish: the path list is
        # built up front, and each worker is an operating-system process.
        _require_ints({"n_paths": self.n_paths}, ConfigError, 1, 2**32 + 1)
        _require_ints({"record_every": self.record_every}, ConfigError, 1)
        _require_ints({"workers": self.workers}, ConfigError, 1, 257)
        if self.output_dir in (None, ""):
            object.__setattr__(self, "output_dir", os.environ.get("CIRCLEFLOW_OUTDIR") or "out")
        elif not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if not isinstance(self.radii, (list, tuple)):
            raise ConfigError("radii must be a list of numbers")
        object.__setattr__(self, "radii", tuple(self.radii))
        if not self.radii:
            raise ConfigError("radii must hold at least one value")
        radii = {f"radii[{i}]": r for i, r in enumerate(self.radii)}
        _require_reals(radii, ConfigError, positive=True)
        if self.xi_kind not in ("identity", "rotation", "sine"):
            raise ConfigError("xi_kind must be identity, rotation, or sine")
        _require_reals({"xi_amplitude": self.xi_amplitude}, ConfigError)
        if self.experiment == "contrast_h32":
            try:
                _contrast_solvers(self.solver)
            except ValueError as exc:
                raise ConfigError(f"contrast solver: {exc}") from exc

    @classmethod
    def from_dict(cls, d):
        return _build(cls, d)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors too
            raise ConfigError(str(exc)) from exc
        return cls.from_dict(d)


def _summary(n_paths, checks=(), extra=None, tau_r=(), times=(), hk_quantiles=None,
             min_deriv_quantiles=None, decay_fit_exponent=math.nan):
    """The ``summary.json`` object of ``docs/summary.schema.json``; a decay
    fit that is not finite is null."""
    decay = decay_fit_exponent if math.isfinite(decay_fit_exponent) else None
    return {
        "schema": SUMMARY_SCHEMA_VERSION,
        "n_paths": n_paths,
        "tau_r": list(tau_r),
        "times": list(times),
        "hk_quantiles": hk_quantiles or {},
        "min_deriv_quantiles": min_deriv_quantiles or {},
        "decay_fit_exponent": decay,
        "checks": list(checks),
        "extra": extra or {},
    }


# ---------------------------------------------------------------------------
# Path execution
# ---------------------------------------------------------------------------


def _run_one_path(args):
    """One block task: paths ``first..stop-1``, each stepped under every
    solver as one block on one stream, drawn at the largest cutoff of the
    solvers.  (The name predates blocks; perfbench's tracer wraps it by
    name.)"""
    solvers, seed, first, stop, record_every, stop_after_hit = args
    n_max = max(c.mode_cutoff for c in solvers)
    streams = [NoiseStream(seed, pid, n_max, solvers[0].dt) for pid in range(first, stop)]
    return simulate_paths(solvers, streams, record_every, stop_after_hit)


def _blocks(n_paths, n_rows, workers):
    """Contiguous ``(first, stop)`` path ranges: at least ``workers`` of
    them (when there are that many paths), none longer than
    ``max(1, BLOCK_ROWS // n_rows)`` paths of ``n_rows`` rows each, so a
    block holds at most BLOCK_ROWS rows when ``n_rows`` does not exceed it."""
    size = max(1, BLOCK_ROWS // n_rows)
    n = min(n_paths, max(workers, -(-n_paths // size)))
    bounds = [n_paths * i // n for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def run_ensemble(cfg, solvers, stop_after_hit=False):
    """Paths ``0..cfg.n_paths-1`` under each solver in ``solvers``: one list
    of records per solver.

    The one fan-out.  A path steps one row per group of its solvers
    (``flow._path_rows``), all in one task, on its one draw per step.  The
    paths are split into contiguous ranges (``_blocks``), and each range is
    one task of a single pool of ``cfg.workers`` processes, or one per task
    when there are fewer tasks (in-process at 1 worker), so a task holds at
    most ``max(BLOCK_ROWS, rows per path)`` rows.  A task steps each of its
    paths under every solver as adjacent rows of one block; the solvers
    must therefore agree in all but mode weights and radius
    (``flow._SHARED``), else ValueError.  Rows never mix
    within a block, so the result does not depend on the worker count or
    the block sizes.
    """
    solvers = list(solvers)
    _check_shared(solvers)
    n_rows = len(_path_rows(solvers, stop_after_hit)[0])
    args = [
        (solvers, cfg.master_seed, first, stop, cfg.record_every, stop_after_hit)
        for first, stop in _blocks(cfg.n_paths, n_rows, cfg.workers)
    ]
    if cfg.workers > 1:
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=min(cfg.workers, len(args))) as pool:
            blocks = list(pool.map(_run_one_path, args))
    else:
        blocks = [_run_one_path(a) for a in args]
    records = list(chain.from_iterable(blocks))  # stream-major, in path order
    return [records[i :: len(solvers)] for i in range(len(solvers))]


def summarize(records, cfg):
    """Quantile series, hitting times, and the spectral decay fit.

    The quantiles run over the record-grid times (the initial state, every
    ``record_every``-th step and the last step) that every path recorded; a
    crossing sample off that grid stays in paths.csv only.  A path stops
    only early, so its grid samples are a prefix of the grid, and the common
    times are the shortest such prefix.
    """
    every, n_steps = cfg.record_every, cfg.solver.n_steps
    grid = [_on_record_grid(r.step, every, n_steps) for r in records]
    n = min(np.count_nonzero(g) for g in grid)
    hk = np.sort([r.hk[g][:n] for r, g in zip(records, grid)], axis=0)
    md = np.sort([r.min_deriv[g][:n] for r, g in zip(records, grid)], axis=0)
    qs = (5, 50, 95)
    return _summary(
        len(records),
        tau_r=[r.tau_r for r in records],
        times=records[0].t[grid[0]][:n].tolist(),
        hk_quantiles={f"p{q:02d}": _percentile(hk, q).tolist() for q in qs},
        min_deriv_quantiles={f"p{q:02d}": _percentile(md, q).tolist() for q in qs},
        decay_fit_exponent=_decay_fit([r.final_state for r in records]),
    )


def _percentile(ordered, q):
    """``np.percentile(ordered, q, axis=0)`` of rows sorted along axis 0.

    NumPy's linear interpolation, written out: ``np.percentile`` reaches
    ``np.unique``, which imports ``numpy.ma`` (1.6 MB of peak memory).
    """
    h = (ordered.shape[0] - 1) * (q / 100)
    lo = math.floor(h)
    t = h - lo
    a, b = ordered[lo], ordered[min(lo + 1, ordered.shape[0] - 1)]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _decay_fit(finals):
    """Exponent p of the exponential fit amp(n) ~ exp(-p n) of final states,
    analyzed by one transform of their stacked samples.

    The slope of the least-squares line through ``(n, log amp)``, written
    out: NumPy's polynomial fit solves the same problem with LAPACK's
    ``lstsq``, the only LAPACK call of a run (1.1 MB of peak memory).
    """
    finals = [f.grid_values for f in finals if f is not None]
    if not finals:
        return float("nan")
    a, b = _analyze(np.array(finals))
    mean_amp = np.mean(np.hypot(a[:, 1:], b[:, 1:]), axis=0)
    n = np.arange(1, mean_amp.size + 1, dtype=float)
    keep = mean_amp > 1e-300
    if keep.sum() < 2:
        return float("nan")
    x, y = n[keep], np.log(mean_amp[keep])
    dx = x - x.mean()
    return float(-np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_experiment(cfg):
    """Run the configured experiment and write its artifacts; returns
    ``(exit_code, artifacts)``.

    The one artifact tail.  Each runner returns ``(summary, runs)``:
    ``summary`` is the ``summary.json`` object (``_summary``) and ``runs``
    the records whose columns ``paths.csv`` holds, one path each (None: no
    CSV).  An output directory that cannot be created is a ConfigError,
    raised before any path is stepped; so is an artifact that cannot be
    written, after the artifacts already written are removed again.
    """
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a null byte in the path
        raise ConfigError(f"cannot create output_dir: {exc}") from exc
    summary, runs = EXPERIMENTS[cfg.experiment](cfg)
    artifacts = []
    try:
        if runs is not None:
            artifacts.append(out / "paths.csv")
            _write_sample_csv(artifacts[-1], runs)
        artifacts.append(out / "summary.json")
        _write_json(artifacts[-1], summary)
    except OSError as exc:
        for path in artifacts[:-1]:  # written; the last one failed
            path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write artifact: {exc}") from exc
    return (0 if all(c["passed"] for c in summary["checks"]) else 1), artifacts


def _check(name, value, bound, passed):
    """One check entry of ``summary.json``."""
    return {"name": name, "value": value, "bound": bound, "passed": bool(passed)}


def _run_simulate(cfg):
    [records] = run_ensemble(cfg, [cfg.solver])
    return summarize(records, cfg), records


def _run_hitting(cfg):
    solvers = [replace(cfg.solver, radius=radius) for radius in cfg.radii]
    per_solver = run_ensemble(cfg, solvers, stop_after_hit=True)
    rows = [
        hitting_row(radius, recs, cfg.solver)
        for radius, recs in zip(cfg.radii, per_solver)
    ]
    records = [r for recs in per_solver for r in recs]
    summary = summarize(records, cfg)
    summary["extra"]["hitting_table"] = rows
    # the radii may come in any order; the table keeps it, the check sorts
    means = [row["mean_tau"] for row in sorted(rows, key=lambda row: row["radius"])]
    # with every path censored the means are all the horizon: nothing to order
    any_hit = any(row["n_censored"] < cfg.n_paths for row in rows)
    ordered = any_hit and all(a <= b for a, b in zip(means, means[1:]))
    check = _check("mean_tau_nondecreasing_in_radius", means, "nondecreasing", ordered)
    summary["checks"].append(check)
    return summary, records


def hitting_row(radius, records, solver):
    """One table row of the records' hitting times under ``solver``: the
    mean and its standard error are taken over hitting steps and scaled by
    ``dt`` once, so the means of two radii order as their step counts do.
    Censored paths enter at the last step, the horizon (a lower bound,
    never an imputation)."""
    steps = [r.tau_step for r in records]
    censored = steps.count(None)
    steps = np.array([solver.n_steps if s is None else s for s in steps], dtype=float)
    stderr = float(steps.std(ddof=1) * solver.dt / np.sqrt(steps.size)) if steps.size > 1 else 0.0
    return {
        "radius": radius,
        "mean_tau": float(steps.mean() * solver.dt),
        "stderr": stderr,
        "n_censored": censored,
        "mean_is_lower_bound": censored > 0,
    }


def _xi(cfg):
    """The vector part of the configured starting map ``id + xi``."""
    m = cfg.solver.grid_size
    if cfg.xi_kind == "identity":
        return CircleFunction.zero(m)
    if cfg.xi_kind == "rotation":
        return CircleFunction.constant(cfg.xi_amplitude, m)
    return CircleFunction.harmonic(m, 1, sin_amp=cfg.xi_amplitude)


def _run_flow_check(cfg):
    stream = NoiseStream(cfg.master_seed, 0, cfg.solver.mode_cutoff, cfg.solver.dt)
    xi = _xi(cfg)
    report = flow_compose_check(cfg.solver, stream, xi, record_every=cfg.record_every)
    tol = 1e-10 if cfg.xi_kind in ("identity", "rotation") else 1e-4
    # a check over the t = 0 sample alone compares nothing
    passed = report.sup_error <= tol and report.n_checked > 1
    check = _check(f"flow_compose_sup_error_{cfg.xi_kind}", report.sup_error, tol, passed)
    extra = {
        "flow_check": {
            "xi_kind": cfg.xi_kind,
            "xi_amplitude": cfg.xi_amplitude,
            "sup_error": report.sup_error,
            "n_checked": report.n_checked,
            "window": report.window,
        }
    }
    return _summary(1, [check], extra), report.runs


_CONTRAST_FAMILIES = (
    ("exponential", ScalingSequence.exponential(1.0)),
    ("powerlaw", ScalingSequence.powerlaw(1.5)),
)


def _contrast_solvers(solver):
    """The solvers of ``contrast_h32``, family-major: each family of
    ``_CONTRAST_FAMILIES`` at cutoffs 32 and 64, on a grid of at least 4 * 64
    points.  RunConfig builds them at load, so a config they reject is a
    ConfigError there."""
    low, high = 32, 64
    grid = max(solver.grid_size, 4 * high)
    return [
        replace(solver, mode_cutoff=c, grid_size=grid, alpha=seq)
        for _, seq in _CONTRAST_FAMILIES
        for c in (low, high)
    ]


def contrast_h32(cfg):
    """Cutoff-doubling stability of the final H^3 norm, strong vs slow decay.

    Runs matched ensembles (same seed, same per-mode draws thanks to the
    prefix-stable increment layout) at cutoffs 32 and 64 for the rapidly
    decreasing exponential family and for the slow power-law family (a
    path's four rows step as one block on one stream), and reports the mean
    per-path ratio of final H^3 norms plus the ensemble minimum of the warp
    derivative.
    """
    solvers = _contrast_solvers(cfg.solver)
    per_solver = run_ensemble(replace(cfg, record_every=max(1, cfg.solver.n_steps)), solvers)
    results = {}
    pairs = zip(_CONTRAST_FAMILIES, per_solver[0::2], per_solver[1::2])
    for (name, _), lo_recs, hi_recs in pairs:
        norms_lo = [r.final_state.hk_norm(3) for r in lo_recs]
        norms_hi = [r.final_state.hk_norm(3) for r in hi_recs]
        ratios = [_safe_ratio(hi, lo) for hi, lo in zip(norms_hi, norms_lo)]
        results[name] = {
            "stability_ratio": float(np.mean(ratios)),
            "final_h3_low_cutoff": [float(v) for v in norms_lo],
            "final_h3_high_cutoff": [float(v) for v in norms_hi],
            "min_deriv": [float(r.min_deriv[-1]) for r in hi_recs],
        }
    return results


def _safe_ratio(num, den):
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    return num / den


def _run_contrast(cfg):
    results = contrast_h32(cfg)
    stable = results["exponential"]["stability_ratio"]
    unstable = results["powerlaw"]["stability_ratio"]
    checks = [
        _check("exponential_cutoff_doubling_stable", stable, 1.05, stable < 1.05),
        _check("powerlaw_cutoff_doubling_unstable", unstable, 1.20, unstable > 1.20),
    ]
    return _summary(cfg.n_paths, checks, {"contrast": results}), None


# ---------------------------------------------------------------------------
# Validation of the configured solver
# ---------------------------------------------------------------------------

# The pilot path of ``validate``: path 0 of the seed, at most this many steps.
PILOT_STEPS = 16

# The checks that certify the composition operator; they need an order k in
# the certificates' range 1..bell.MAX_ORDER, and all but the first a pilot.
_CERTIFIED = (
    "hs_zero_state_closed_form",
    "hs_certificate_on_pilot",
    "lipschitz_on_pilot",
    "stratonovich_correction_zero",
)


def _pilot(cfg):
    """The vector parts of path 0 of the seed, from the identity, for at most
    PILOT_STEPS steps and while the path stays inside the ball of radius R:
    up to its first crossing, the step at which its H^k norm first reaches R
    (its hitting time in ``simulate_paths``)."""
    solver = cfg.solver
    stream = NoiseStream(cfg.master_seed, 0, solver.mode_cutoff, solver.dt)
    incs = (stream.next_increment() for _ in range(min(PILOT_STEPS, solver.n_steps)))
    states = chain([CircleFunction.zero(solver.grid_size)], integrate(solver, incs))
    return list(takewhile(lambda x: x.hk_norm(solver.k) < solver.radius, states))


def validation_checks(cfg):
    """The paper's hypotheses for the configured solver, each value vs bound.

    The weights are rapidly decreasing, R lies in the H^k ball where every
    state is a diffeomorphism, and the composition operator is
    Hilbert-Schmidt and locally Lipschitz: at the zero state against the
    closed form, and along the pilot path (``_pilot``).  A pilot that keeps
    fewer than two states compares nothing, so its checks fail.
    """
    from . import bell

    solver, k = cfg.solver, cfg.solver.k
    alpha, radius = solver.alpha, solver.radius
    r_max = diffeo_radius(k) if k >= 2 else None
    checks = [
        _check("alpha_rapidly_decreasing", alpha.family, "rapidly decreasing",
               alpha.is_rapidly_decreasing),
        _check("radius_within_diffeo_ball", radius, r_max, r_max is not None and radius <= r_max),
    ]
    if not 1 <= k <= bell.MAX_ORDER:
        return checks + [_check(name, None, None, False) for name in _CERTIFIED]
    basis = ScaledBasis(alpha, solver.mode_cutoff, solver.grid_size)
    # the warped basis at zero is the basis: n and -n add w_n^2 (1 + n^2k)
    w, n = solver.weights, np.arange(1, solver.mode_cutoff + 1, dtype=float)
    closed = w[0] ** 2 + np.sum(w[1:] ** 2 * (1 + n ** (2 * k)))
    at_zero = bell.hs_bound_certificate(CircleFunction.zero(solver.grid_size), k, basis)
    rel = float(abs(at_zero.actual - closed) / closed)
    pilot = _pilot(cfg)
    piloted = len(pilot) > 1
    hs = max(r.actual / r.bound for r in [bell.hs_bound_certificate(x, k, basis) for x in pilot])
    pairs = zip(pilot, pilot[1:])
    lip_reps = [bell.lipschitz_certificate(f, g, k, radius, basis) for f, g in pairs]
    lip = max((_safe_ratio(r.ratio, r.c_r) for r in lip_reps), default=None)
    drift = float(np.max(np.abs(stratonovich_correction(pilot[-1], basis))))
    rounding = stratonovich_rounding_bound(basis)
    return checks + [
        _check(_CERTIFIED[0], rel, 1e-10, rel <= 1e-10),
        _check(_CERTIFIED[1], hs, 1.0, piloted and hs <= 1.0),
        _check(_CERTIFIED[2], lip, 1.0, piloted and lip <= 1.0),
        _check(_CERTIFIED[3], drift, rounding, piloted and drift <= rounding),
    ]


def _run_validate(cfg):
    return _summary(0, validation_checks(cfg)), None


# The one experiment registry: RunConfig validates names against it and
# run_experiment dispatches through it.
EXPERIMENTS = {
    "simulate": _run_simulate,
    "validate": _run_validate,
    "hitting_times": _run_hitting,
    "flow_check": _run_flow_check,
    "contrast_h32": _run_contrast,
}


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _write_sample_csv(path, runs):
    """One row per sample of each record in ``runs``, its columns in order;
    a path's id is its record's position in ``runs``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "hk", "min_deriv", "stopped"])
        for pid, r in enumerate(runs):
            columns = (r.t.tolist(), r.hk.tolist(), r.min_deriv.tolist(), r.stopped.tolist())
            for t, hk, md, stopped in zip(*columns):
                writer.writerow([pid, repr(t), repr(hk), repr(md), int(stopped)])


# Not called: perfbench's tracer wraps the writers by both names.
_write_paths_csv = _write_sample_csv


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
