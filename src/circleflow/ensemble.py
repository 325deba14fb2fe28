"""Ensemble orchestration, statistics, validation checks, and file artifacts.

Experiments are driven by a single JSON config.  Every artifact write is
deterministic: floats go through repr, JSON keys are sorted, and paths are
aggregated in path-id order regardless of how many workers produced them, so
identical configs give byte-identical outputs.
"""

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bell
from .basis import (
    ScaledBasis,
    ScalingSequence,
    inclusion_hs_norm,
    q_lambda_trace,
    verify_rapid_decay,
)
from .circlefn import AffineCircleMap, CircleFunction, compose, grid_points, sobolev_embedding_constant
from .flow import (
    FlowState,
    SolverConfig,
    _on_record_grid,
    _require_ints,
    _require_reals,
    flow_compose_check,
    integrate,
    simulate_path,  # unused here; perfbench's tracer wraps it at this site
    simulate_paths,
    stratonovich_correction,
    stratonovich_rounding_bound,
    truncation_scale,
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


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


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
            raise ConfigError("radii must not be empty")
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
        try:
            d = dict(d)
            solver = SolverConfig.from_dict(d.pop("solver"))
            d["radii"] = tuple(d.get("radii", DEFAULT_RADII))
            return cls(solver=solver, **d)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


# Rows per block task: a task's memory stays O(BLOCK_ROWS * grid_size) at
# any n_paths.
BLOCK_ROWS = 64


def _run_one_path(args):
    """One block task: paths ``first..stop-1`` of one solver, stepped as one
    block.  (The name predates blocks; perfbench's tracer wraps it by name.)"""
    solver, seed, first, stop, record_every, stop_after_hit = args
    streams = [
        NoiseStream(seed, pid, solver.mode_cutoff, solver.dt) for pid in range(first, stop)
    ]
    return simulate_paths(solver, streams, record_every, stop_after_hit)


def _blocks(n_paths, workers):
    """Contiguous ``(first, stop)`` path-id ranges: at least ``workers`` of
    them (when there are that many paths), none longer than BLOCK_ROWS."""
    n = min(n_paths, max(workers, -(-n_paths // BLOCK_ROWS)))
    bounds = [n_paths * i // n for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def run_ensemble(cfg, solvers, stop_after_hit=False):
    """Paths ``0..cfg.n_paths-1`` of each solver in ``solvers``, solver-major.

    The one fan-out: each solver's paths are split into contiguous blocks
    (``_blocks``), every block is one task of a single pool of
    ``cfg.workers`` processes (in-process at 1 worker), and the records come
    back in task order.  Paths never mix within a block, so the result does
    not depend on the worker count or the block sizes.
    """
    args = [
        (solver, cfg.master_seed, first, stop, cfg.record_every, stop_after_hit)
        for solver in solvers
        for first, stop in _blocks(cfg.n_paths, cfg.workers)
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            blocks = list(pool.map(_run_one_path, args))
    else:
        blocks = [_run_one_path(a) for a in args]
    return [record for block in blocks for record in block]


def summarize(records, cfg):
    """Quantile series, hitting times, and the spectral decay fit.

    The quantiles run over the record-grid times (the initial state, every
    ``record_every``-th step and the last step) that every path recorded; a
    crossing sample off that grid stays in paths.csv only.
    """
    tau = [r.tau_r for r in records]
    every, n_steps, dt = cfg.record_every, cfg.solver.n_steps, cfg.solver.dt
    by_time = [
        {s.t: s for s in r.samples if _on_record_grid(round(s.t / dt), every, n_steps)}
        for r in records
    ]
    times = sorted(set.intersection(*map(set, by_time))) if records else []
    hk_q, md_q = {}, {}
    if times:
        hk = np.sort([[row[t].hk for t in times] for row in by_time], axis=0)
        md = np.sort([[row[t].min_deriv for t in times] for row in by_time], axis=0)
        qs = (5, 50, 95)
        hk_q = {f"p{q:02d}": _percentile(hk, q).tolist() for q in qs}
        md_q = {f"p{q:02d}": _percentile(md, q).tolist() for q in qs}
    return EnsembleSummary(
        n_paths=len(records),
        tau_r=tau,
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
    ``runs`` are the sample sequences of ``paths.csv`` (None: no CSV), and
    ``report`` the fields ``report.json`` holds beside the checks (None: no
    report).  An output directory that cannot be created is a ConfigError,
    raised before any path is stepped; so is an artifact that cannot be
    written.
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
        raise ConfigError(f"cannot write artifact: {exc}") from exc
    return (0 if summary.all_passed() else 1), artifacts


def _check(name, value, bound, passed, kind=None):
    """One check entry of ``summary.json`` (and ``report.json``)."""
    check = {"name": name, "value": value, "bound": bound, "passed": bool(passed)}
    if kind is not None:
        check["kind"] = kind
    return check


def _per_solver(records, n_paths):
    """Split solver-major ``run_ensemble`` records into one list per solver."""
    return [records[i : i + n_paths] for i in range(0, len(records), n_paths)]


def _run_simulate(cfg):
    records = run_ensemble(cfg, [cfg.solver])
    return summarize(records, cfg), [r.samples for r in records], None


def _run_hitting(cfg):
    solvers = [replace(cfg.solver, radius=radius) for radius in cfg.radii]
    records = run_ensemble(cfg, solvers, stop_after_hit=True)
    rows = [
        hitting_row(radius, recs, cfg.solver.horizon)
        for radius, recs in zip(cfg.radii, _per_solver(records, cfg.n_paths))
    ]
    summary = summarize(records, cfg)
    summary.extra["hitting_table"] = rows
    means = [row["mean_tau"] for row in rows]
    # with every path censored the means are all the horizon: nothing to order
    any_hit = any(row["n_censored"] < cfg.n_paths for row in rows)
    ordered = any_hit and all(a <= b for a, b in zip(means, means[1:]))
    check = _check("mean_tau_nondecreasing_in_radius", means, "nondecreasing", ordered)
    summary.checks.append(check)
    return summary, [r.samples for r in records], None


def hitting_row(radius, records, horizon):
    """One table row: censored paths enter the mean at the horizon (a lower
    bound, never an imputation)."""
    taus = np.array([r.tau_r if r.tau_r is not None else horizon for r in records])
    censored = sum(1 for r in records if r.tau_r is None)
    stderr = float(taus.std(ddof=1) / np.sqrt(taus.size)) if taus.size > 1 else 0.0
    return {
        "radius": radius,
        "mean_tau": float(taus.mean()),
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
    decreasing exponential family and for the slow power-law family, and
    reports the mean per-path ratio of final H^3 norms plus the ensemble
    minimum of the warp derivative.
    """
    solvers = _contrast_solvers(cfg.solver)
    records = run_ensemble(replace(cfg, record_every=max(1, cfg.solver.n_steps)), solvers)
    per_solver = _per_solver(records, cfg.n_paths)
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
            "min_deriv": [float(r.samples[-1].min_deriv) for r in hi_recs],
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
# Validation battery
# ---------------------------------------------------------------------------


def validation_checks(seed=20240817):
    """Fast cross-module invariant battery; each entry is value vs tolerance."""
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, value, bound, passed, kind="<="):
        checks.append(_check(name, value, bound, passed, kind))

    m = 128
    theta = grid_points(m)

    def random_fn(n_modes=12, amp=1.0):
        a = np.zeros(m // 2 + 1)
        b = np.zeros(m // 2 + 1)
        a[: n_modes + 1] = rng.normal(0, amp, n_modes + 1) * np.exp(-0.3 * np.arange(n_modes + 1))
        b[1 : n_modes + 1] = rng.normal(0, amp, n_modes) * np.exp(-0.3 * np.arange(1, n_modes + 1))
        return CircleFunction.from_coefficients(a, b)

    # 1. Parseval: quadrature L2 vs coefficient L2
    worst = 0.0
    for _ in range(200):
        f = random_fn()
        quad = np.sqrt(np.mean(f.grid_values**2))
        coef = f.l2_norm()
        worst = max(worst, abs(quad - coef) / max(coef, 1e-300))
    record("parseval_quadrature_vs_coefficients", worst, 1e-10, worst <= 1e-10)

    # 2. Sobolev monotonicity (m >= 1; the two-term H^0 is sqrt(2) L2)
    worst = -np.inf
    for _ in range(200):
        f = random_fn()
        for lo, hi in ((1, 2), (2, 3), (1, 4)):
            worst = max(worst, f.hk_norm(lo) - f.hk_norm(hi))
    record("hk_monotone_in_k", worst, 1e-12, worst <= 1e-12)

    # 3. Embedding inequality with the computed constant
    c2 = sobolev_embedding_constant(2, 1)
    worst = -np.inf
    for _ in range(200):
        f = random_fn()
        worst = max(worst, f.derivative().linf_norm() / (c2 * f.hk_norm(2)))
    record("embedding_sup_f_prime_le_c2_h2", worst, 1.0, worst <= 1.0)

    # 4/5. Bell row sums: Stirling and Bell numbers
    bell_numbers = (1, 2, 5, 15, 52, 203, 877, 4140)
    ok = True
    for n in range(1, 9):
        total = sum(int(bell.bell_polynomial(n, k, np.ones(n - k + 1))) for k in range(n + 1))
        ok = ok and total == bell_numbers[n - 1]
    record("bell_row_sums_match_bell_numbers", int(ok), 1, ok, kind="==")
    s42 = bell.bell_polynomial(4, 2, np.ones(3))
    record("stirling_S42", s42, 7, s42 == 7, kind="==")

    # 6. Composition derivative: jet formula vs spectral pipeline.
    # Warp amplitude 0.2 keeps both aliasing and the n^order roundoff
    # amplification of the reference below the tolerance at this grid.
    worst = 0.0
    for _ in range(20):
        f = random_fn(n_modes=5, amp=1.0)
        g = random_fn(n_modes=3, amp=1.0)
        g = g * (0.2 / max(g.linf_norm(), 1e-9))
        warp = AffineCircleMap(g)
        composed = compose(f, warp)
        pts = theta[::16]
        gp = warp(pts)
        for order in (1, 2, 3, 4):
            deriv = composed.derivative(order)
            spectral = deriv.evaluate(pts)
            scale = max(1e-9, deriv.linf_norm())
            for idx, (p, w) in enumerate(zip(pts, gp)):
                f_jet = [f.derivative(i).evaluate([w])[0] for i in range(order + 1)]
                g_jet = [w, 1.0 + g.derivative().evaluate([p])[0]]
                g_jet += [g.derivative(i).evaluate([p])[0] for i in range(2, order + 1)]
                val = bell.compose_derivative(f_jet, g_jet, order)
                worst = max(worst, abs(val - spectral[idx]) / scale)
    record("faa_di_bruno_vs_spectral_composition", worst, 1e-8, worst <= 1e-8)

    # 7. Only the top term carries the highest derivative
    top = bell.BellTable(8)
    ok = all(top.monomials(n, 1) == ((1, tuple([0] * (n - 1) + [1])),) for n in range(2, 9))
    record("highest_derivative_term_unique", int(ok), 1, ok, kind="==")

    # 8/9. Hilbert-Schmidt certificate and its closed form at zero
    lam_basis = ScaledBasis(ScalingSequence.exponential(1.0), 16, 64)
    f = CircleFunction.harmonic(64, 1, sin_amp=0.1)
    rep = bell.hs_bound_certificate(f, 2, lam_basis)
    record("hs_certificate_below_bound", rep.actual, rep.bound, rep.holds)
    zero = CircleFunction.zero(64)
    rep0 = bell.hs_bound_certificate(zero, 2, lam_basis)
    closed = 1.0 + sum(
        np.exp(-2.0 * n) * (1 + n**4) for n in range(1, 17)
    )
    rel = abs(rep0.actual - closed) / closed
    record("hs_zero_state_closed_form", rel, 1e-10, rel <= 1e-10)

    # 10. Local Lipschitz certificate
    worst = 0.0
    for _ in range(10):
        f = random_fn(n_modes=5, amp=0.2)
        g = random_fn(n_modes=5, amp=0.2)
        f = f * min(1.0, 0.45 / max(f.hk_norm(2), 1e-12))
        g = g * min(1.0, 0.45 / max(g.hk_norm(2), 1e-12))
        rep = bell.lipschitz_certificate(f, g, 2, 0.5, lam_basis)
        worst = max(worst, 0.0 if rep.c_r == 0 else rep.ratio / rep.c_r)
    record("lipschitz_ratio_vs_constant", worst, 1.0, worst <= 1.0)

    # 11. Inclusion norm, and the trace against 1 + 2 sum_{n<=10} 1/n^2
    # summed here independently.  Ten positive terms, the square root and the
    # square round by under 9 eps relative in all; a partial sum off by one
    # term is off by at least 2/121.
    hs1 = inclusion_hs_norm(1)
    record("inclusion_hs_norm_n1", hs1, float(np.sqrt(3.0)), abs(hs1 - np.sqrt(3.0)) < 1e-14, kind="==")
    tr = q_lambda_trace(10)
    partial = 1.0 + 2.0 * math.fsum(1.0 / n**2 for n in range(1, 11))
    close = abs(tr - partial) <= 16 * np.finfo(float).eps * partial
    record("trace_matches_partial_sum", tr, partial, close, kind="==")

    # 12. Rapid decay classification
    ok = verify_rapid_decay(ScalingSequence.exponential(1.0), 6, 200) and not verify_rapid_decay(
        ScalingSequence.powerlaw(1.5), 2, 200
    )
    record("rapid_decay_classification", int(ok), 1, ok, kind="==")

    # 13. Stratonovich correction vanishes up to its rounding bound
    worst = 0.0
    basis = ScaledBasis(ScalingSequence.exponential(1.0), 16, 64)
    for _ in range(20):
        w = AffineCircleMap(CircleFunction(rng.normal(0, 0.3, 64)))
        worst = max(worst, float(np.max(np.abs(stratonovich_correction(w, basis)))))
    bound = stratonovich_rounding_bound(basis)
    record("stratonovich_correction_zero", worst, bound, worst <= bound)

    # 14. Noise determinism
    s1 = NoiseStream(seed, 3, 8, 1e-3)
    s2 = NoiseStream(seed, 3, 8, 1e-3)
    same = np.array_equal(s1.next_increment(), s2.next_increment())
    record("noise_replay_identical", int(same), 1, same, kind="==")

    # 15. Increment variance in a generous band
    s = NoiseStream(seed, 0, 4, 1e-3)
    draws = np.array([s.next_increment() for _ in range(4000)])
    var = float(draws.var())
    record("increment_variance_near_dt", var, [0.9e-3, 1.1e-3], 0.9e-3 <= var <= 1.1e-3, kind="in")

    # 16. Zero increment fixes the flow state; truncation boundary scale
    solver = SolverConfig(
        dt=1e-3, horizon=1e-3, mode_cutoff=8, grid_size=64,
        alpha=ScalingSequence.exponential(1.0), radius=0.5,
    )
    state = FlowState.initial(solver)
    stepped = next(integrate(solver, [np.zeros(17)], start=state))
    fixed = np.array_equal(stepped.x.grid_values, state.x.grid_values)
    boundary = truncation_scale(
        FlowState(CircleFunction.zero(64), 0.0, solver.radius, False), solver
    )
    record("zero_increment_fixes_state", int(fixed), 1, fixed, kind="==")
    record("truncation_scale_at_boundary", boundary, 1.0, boundary == 1.0, kind="==")

    return checks


def _run_validate(cfg):
    # no paths: paths.csv is the header alone
    return EnsembleSummary(0, checks=validation_checks(cfg.master_seed)), (), {}


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
    """One row per sample; a path's id is its position in ``runs``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "hk", "min_deriv", "stopped"])
        for pid, samples in enumerate(runs):
            for s in samples:
                writer.writerow([pid, repr(s.t), repr(s.hk), repr(s.min_deriv), int(s.stopped)])


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
