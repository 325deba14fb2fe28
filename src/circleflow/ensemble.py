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
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import chain, takewhile
from pathlib import Path

import numpy as np

from .basis import ScaledBasis, ScalingSequence
from .circlefn import AffineCircleMap, CircleFunction
from .flow import (
    FlowState,
    SolverConfig,
    _check_shared,
    _on_record_grid,
    _path_rows,
    _require_ints,
    _require_reals,
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
    "EnsembleSummary",
    "run_experiment",
    "run_ensemble",
    "contrast_h32",
    "validation_checks",
    "SUMMARY_SCHEMA_VERSION",
]

SUMMARY_SCHEMA_VERSION = "circleflow-summary-1"

DEFAULT_RADII = (0.05, 0.1, 0.2, 0.4)

# Rows per block task: a task's memory stays O(BLOCK_ROWS * grid_size) at
# any n_paths and any number of solvers (``run_ensemble`` splits a path's
# rows into parts of at most BLOCK_ROWS).
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


def _reject_unknown_keys(d, cls, prefix=""):
    """ConfigError naming, dotted, the first key of the config object ``d``
    that is no constructor field of the dataclass ``cls``."""
    if isinstance(d, dict):  # any other type is the constructor's to reject
        known = {f.name: f.type for f in fields(cls) if f.init}
        for key, value in d.items():
            if key not in known:
                raise ConfigError(f"unknown config key '{prefix}{key}'")
            if is_dataclass(known[key]):
                _reject_unknown_keys(value, known[key], f"{prefix}{key}.")


@dataclass(frozen=True)
class RunConfig:
    """Full experiment description: solver settings plus orchestration."""

    solver: SolverConfig
    experiment: str = "simulate"
    n_paths: int = 1
    master_seed: int = 20240817
    record_every: int = 1
    output_dir: str = "out"
    workers: int = 1
    radii: tuple = DEFAULT_RADII
    xi_kind: str = "sine"
    xi_amplitude: float = 0.1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        _require_ints(self, ("master_seed", "n_paths", "record_every", "workers"), ConfigError)
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must lie in [0, 2**64)")
        # The upper limits reject sizes no run can finish: the path list is
        # built up front, and each worker is an operating-system process.
        if not 1 <= self.n_paths <= 2**32:
            raise ConfigError("n_paths must lie in [1, 2**32]")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if not 1 <= self.workers <= 256:
            raise ConfigError("workers must lie in [1, 256]")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if not self.radii:
            raise ConfigError("radii must hold at least one value")
        _require_reals({f"radii[{i}]": r for i, r in enumerate(self.radii)}, ConfigError)
        if min(self.radii) <= 0:
            raise ConfigError("radii must be positive")
        if self.xi_kind not in ("identity", "rotation", "sine"):
            raise ConfigError("xi_kind must be identity, rotation, or sine")
        _require_reals({"xi_amplitude": self.xi_amplitude}, ConfigError)
        if self.experiment == "contrast_h32":
            try:
                _contrast_solvers(self.solver)
            except ValueError as exc:
                raise ConfigError(f"contrast solver: {exc}") from exc

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "n_paths": self.n_paths,
            "master_seed": self.master_seed,
            "record_every": self.record_every,
            "output_dir": self.output_dir,
            "workers": self.workers,
            "radii": list(self.radii),
            "xi_kind": self.xi_kind,
            "xi_amplitude": self.xi_amplitude,
            "solver": self.solver.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        _reject_unknown_keys(d, cls)
        try:
            d = dict(d)
            solver = SolverConfig.from_dict(d.pop("solver"))
            d["radii"] = tuple(d.get("radii", DEFAULT_RADII))
            return cls(solver=solver, **d)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ConfigError too
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class EnsembleSummary:
    """Aggregated diagnostics for one ensemble run."""

    n_paths: int
    tau_r: list = field(default_factory=list)
    times: list = field(default_factory=list)
    hk_quantiles: dict = field(default_factory=dict)
    min_deriv_quantiles: dict = field(default_factory=dict)
    decay_fit_exponent: float = float("nan")
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def all_passed(self):
        return all(c["passed"] for c in self.checks)

    def to_dict(self):
        decay = self.decay_fit_exponent
        return {
            "schema": SUMMARY_SCHEMA_VERSION,
            "n_paths": self.n_paths,
            "tau_r": self.tau_r,
            "times": self.times,
            "hk_quantiles": self.hk_quantiles,
            "min_deriv_quantiles": self.min_deriv_quantiles,
            "decay_fit_exponent": decay if decay is not None and np.isfinite(decay) else None,
            "checks": self.checks,
            "extra": self.extra,
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
    (``flow._path_rows``), in parts of at most BLOCK_ROWS rows: each part is
    the subset of the solvers on those rows, and it draws the path's stream
    anew.  For each part the paths are split into contiguous ranges
    (``_blocks``), and each range is one task of a single pool of
    ``cfg.workers`` processes (in-process at 1 worker).  A task steps each of
    its paths under the part's solvers as adjacent rows of one block, on the
    path's one stream; the solvers must therefore agree in all but mode
    weights and radius (``flow._SHARED``), else ValueError.  Rows never mix
    within a block, so the result does not depend on the worker count, the
    block sizes or the parts.
    """
    solvers = list(solvers)
    _check_shared(solvers)
    parts = {}  # part -> (its rows, its solvers' indices)
    for i, (row, _) in enumerate(_path_rows(solvers, stop_after_hit)[2]):
        rows, members = parts.setdefault(row // BLOCK_ROWS, (set(), []))
        rows.add(row)
        members.append(i)
    tasks = [
        (members, first, stop)
        for rows, members in parts.values()
        for first, stop in _blocks(cfg.n_paths, len(rows), cfg.workers)
    ]
    args = [
        ([solvers[i] for i in members], cfg.master_seed, first, stop, cfg.record_every,
         stop_after_hit)
        for members, first, stop in tasks
    ]
    if cfg.workers > 1:
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=cfg.workers) as pool:
            blocks = list(pool.map(_run_one_path, args))
    else:
        blocks = [_run_one_path(a) for a in args]
    per_solver = [[] for _ in solvers]
    for (members, _, _), block in zip(tasks, blocks):  # stream-major, in path order
        for j, record in enumerate(block):
            per_solver[members[j % len(members)]].append(record)
    return per_solver


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
    n = min((np.count_nonzero(g) for g in grid), default=0)
    times = records[0].t[grid[0]][:n].tolist() if n else []
    hk_q, md_q = {}, {}
    if times:
        hk = np.sort([r.hk[g][:n] for r, g in zip(records, grid)], axis=0)
        md = np.sort([r.min_deriv[g][:n] for r, g in zip(records, grid)], axis=0)
        qs = (5, 50, 95)
        hk_q = {f"p{q:02d}": _percentile(hk, q).tolist() for q in qs}
        md_q = {f"p{q:02d}": _percentile(md, q).tolist() for q in qs}
    return EnsembleSummary(
        n_paths=len(records),
        tau_r=[r.tau_r for r in records],
        times=times,
        hk_quantiles=hk_q,
        min_deriv_quantiles=md_q,
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
    """Exponent p of the exponential fit amp(n) ~ exp(-p n) of final states."""
    finals = [f for f in finals if f is not None]
    if not finals:
        return float("nan")
    amps = []
    for f in finals:
        a, b = f.coefficients
        amps.append(np.hypot(a[1:], b[1:]))
    mean_amp = np.mean(amps, axis=0)
    n = np.arange(1, mean_amp.size + 1, dtype=float)
    keep = mean_amp > 1e-300
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(n[keep], np.log(mean_amp[keep]), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_experiment(cfg):
    """Run the configured experiment and write its artifacts; returns
    ``(exit_code, artifacts)``.

    The one artifact tail.  Each runner returns ``(summary, runs, report)``:
    ``runs`` are the records whose columns ``paths.csv`` holds, one path
    each (None: no CSV), and
    ``report`` the fields ``report.json`` holds beside the checks (None: no
    report).  An output directory that cannot be created is a ConfigError,
    raised before any path is stepped; so is an artifact that cannot be
    written, after the artifacts already written are removed again.
    """
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    summary, runs, report = EXPERIMENTS[cfg.experiment](cfg)
    artifacts = []
    try:
        if runs is not None:
            artifacts.append(out / "paths.csv")
            _write_sample_csv(artifacts[-1], runs)
        artifacts.append(out / "summary.json")
        _write_json(artifacts[-1], summary.to_dict())
        if report is not None:
            artifacts.append(out / "report.json")
            _write_json(
                artifacts[-1], {"schema": SUMMARY_SCHEMA_VERSION, "checks": summary.checks, **report}
            )
    except OSError as exc:
        for path in artifacts[:-1]:  # written; the last one failed
            path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write artifact: {exc}") from exc
    return (0 if summary.all_passed() else 1), artifacts


def _check(name, value, bound, passed):
    """One check entry of ``summary.json`` (and ``report.json``)."""
    return {"name": name, "value": value, "bound": bound, "passed": bool(passed)}


def _run_simulate(cfg):
    [records] = run_ensemble(cfg, [cfg.solver])
    return summarize(records, cfg), records, None


def _run_hitting(cfg):
    solvers = [replace(cfg.solver, radius=radius) for radius in cfg.radii]
    per_solver = run_ensemble(cfg, solvers, stop_after_hit=True)
    rows = [
        hitting_row(radius, recs, cfg.solver)
        for radius, recs in zip(cfg.radii, per_solver)
    ]
    records = [r for recs in per_solver for r in recs]
    summary = summarize(records, cfg)
    summary.extra["hitting_table"] = rows
    # the radii may come in any order; the table keeps it, the check sorts
    means = [row["mean_tau"] for row in sorted(rows, key=lambda row: row["radius"])]
    # with every path censored the means are all the horizon: nothing to order
    any_hit = any(row["n_censored"] < cfg.n_paths for row in rows)
    ordered = any_hit and all(a <= b for a, b in zip(means, means[1:]))
    check = _check("mean_tau_nondecreasing_in_radius", means, "nondecreasing", ordered)
    summary.checks.append(check)
    return summary, records, None


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


def _xi_map(cfg):
    m = cfg.solver.grid_size
    if cfg.xi_kind == "identity":
        return AffineCircleMap.identity(m)
    if cfg.xi_kind == "rotation":
        return AffineCircleMap.rotation(cfg.xi_amplitude, m)
    return AffineCircleMap(CircleFunction.harmonic(m, 1, sin_amp=cfg.xi_amplitude))


def _run_flow_check(cfg):
    stream = NoiseStream(cfg.master_seed, 0, cfg.solver.mode_cutoff, cfg.solver.dt)
    xi = _xi_map(cfg)
    report = flow_compose_check(cfg.solver, stream, xi, record_every=cfg.record_every)
    tol = 1e-10 if cfg.xi_kind in ("identity", "rotation") else 1e-4
    # a check over the t = 0 sample alone compares nothing
    passed = report.sup_error <= tol and report.n_checked > 1
    check = _check(f"flow_compose_sup_error_{cfg.xi_kind}", report.sup_error, tol, passed)
    compared = {"n_checked": report.n_checked, "window": report.window}
    summary = EnsembleSummary(1, checks=[check])
    summary.extra["flow_check"] = {
        "xi_kind": cfg.xi_kind,
        "xi_amplitude": cfg.xi_amplitude,
        "sup_error": report.sup_error,
        **compared,
    }
    return summary, report.runs, compared


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
    summary = EnsembleSummary(cfg.n_paths, checks=checks)
    summary.extra["contrast"] = results
    return summary, None, None


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
    PILOT_STEPS steps and while the path stays inside the ball of radius R."""
    solver = cfg.solver
    stream = NoiseStream(cfg.master_seed, 0, solver.mode_cutoff, solver.dt)
    incs = (stream.next_increment() for _ in range(min(PILOT_STEPS, solver.n_steps)))
    states = chain([FlowState.initial(solver)], integrate(solver, incs))
    return [s.x for s in takewhile(lambda s: not s.stopped, states)]


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
    drift = float(np.max(np.abs(stratonovich_correction(AffineCircleMap(pilot[-1]), basis))))
    rounding = stratonovich_rounding_bound(basis)
    return checks + [
        _check(_CERTIFIED[0], rel, 1e-10, rel <= 1e-10),
        _check(_CERTIFIED[1], hs, 1.0, piloted and hs <= 1.0),
        _check(_CERTIFIED[2], lip, 1.0, piloted and lip <= 1.0),
        _check(_CERTIFIED[3], drift, rounding, piloted and drift <= rounding),
    ]


def _run_validate(cfg):
    # no paths: paths.csv is the header alone
    return EnsembleSummary(0, checks=validation_checks(cfg)), (), {}


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
