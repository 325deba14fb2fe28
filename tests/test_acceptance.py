"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All tolerances are pinned here; the documented master
seed for every stochastic criterion is 20240817.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from circleflow import (
    CircleFunction,
    NoiseStream,
    RunConfig,
    ScaledBasis,
    ScalingSequence,
    SolverConfig,
    bell_polynomial,
    compose,
    compose_derivative,
    concatenate,
    contrast_h32,
    diffeo_radius,
    flow_compose_check,
    hs_bound_certificate,
    integrate,
    lipschitz_certificate,
    run_ensemble,
    simulate_path,
    sobolev_embedding_constant,
    stratonovich_correction,
)
from circleflow.cli import main as cli_main
from circleflow.ensemble import hitting_row
from circleflow.flow import simulate_paths, stratonovich_rounding_bound
from conftest import random_band_limited
from test_bell import bell_via_partitions

SEED = 20240817
ALPHA = ScalingSequence.exponential(1.0)


def report(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {flag}  {name}  ({detail})")
    assert passed, f"criterion {num} failed: {name} ({detail})"


def timed(start):
    return f"{time.time() - start:.1f}s"


def test_criterion_01_bell_faa_di_bruno_oracles(rng):
    start = time.time()
    # exact agreement with the set-partition enumeration
    for n in range(1, 9):
        xs = [int(v) for v in rng.integers(-3, 4, n)]
        for k in range(0, n + 1):
            ours = bell_polynomial(n, k, [float(x) for x in xs[: n - k + 1]])
            assert ours == bell_via_partitions(n, k, xs)

    # 100 random band-limited pairs; FD at h=1e-4 is limited to orders <= 2
    # by the eps/h^n roundoff floor, the spectral reference covers orders <= 5
    h = 1e-4
    worst_fd, worst_spec = 0.0, 0.0
    grid = 128
    for _ in range(100):
        f = random_band_limited(rng, grid, 5, decay=0.5)
        g = random_band_limited(rng, grid, 3, decay=0.5)
        g = g * (0.2 / max(g.linf_norm(), 1e-9))
        composed = compose(f, g)
        pts = np.linspace(0.0, 2 * np.pi, 9)[:-1]
        warped = pts + g.evaluate(pts)
        f_jets = np.array([f.derivative(i).evaluate(warped) for i in range(6)])
        g_jets = np.array([g.derivative(i).evaluate(pts) for i in range(6)])
        g_jets[0] = warped
        g_jets[1] += 1.0

        stencil = composed.evaluate(np.add.outer(pts, h * np.arange(-2, 3)).ravel())
        stencil = stencil.reshape(pts.size, 5)
        fd1 = (stencil[:, 3] - stencil[:, 1]) / (2 * h)
        fd2 = (stencil[:, 3] - 2 * stencil[:, 2] + stencil[:, 1]) / h**2
        for order, fd in ((1, fd1), (2, fd2)):
            scale = max(np.max(np.abs(fd)), 1e-9)
            for i in range(pts.size):
                got = compose_derivative(f_jets[:, i], g_jets[:, i], order)
                worst_fd = max(worst_fd, abs(got - fd[i]) / scale)

        for order in range(1, 6):
            ref = composed.derivative(order)
            ref_vals = ref.evaluate(pts)
            scale = max(ref.linf_norm(), 1e-9)
            for i in range(pts.size):
                got = compose_derivative(f_jets[:, i], g_jets[:, i], order)
                worst_spec = max(worst_spec, abs(got - ref_vals[i]) / scale)

    elapsed = time.time() - start
    passed = worst_fd <= 1e-6 and worst_spec <= 1e-8 and elapsed < 10.0
    report(
        1,
        "Bell/Faa di Bruno oracle equivalence",
        passed,
        f"fd={worst_fd:.2e} spectral={worst_spec:.2e} {timed(start)}",
    )


def test_criterion_02_sobolev_machinery(rng):
    start = time.time()
    c2 = sobolev_embedding_constant(2, 1)
    worst_parseval, worst_mono, worst_embed = 0.0, -np.inf, 0.0
    for _ in range(1000):
        f = random_band_limited(rng, 64, 20)
        quad = np.sqrt(np.mean(f.grid_values**2))
        worst_parseval = max(worst_parseval, abs(quad - f.l2_norm()) / max(f.l2_norm(), 1e-30))
        for lo, hi in ((1, 2), (2, 4)):
            worst_mono = max(worst_mono, f.hk_norm(lo) - f.hk_norm(hi))
        zero_mean = random_band_limited(rng, 64, 20, include_mean=False)
        worst_mono = max(worst_mono, zero_mean.hk_norm(0) - zero_mean.hk_norm(2))
        worst_embed = max(worst_embed, f.derivative().linf_norm() / (c2 * f.hk_norm(2)))
    elapsed = time.time() - start
    passed = (
        worst_parseval <= 1e-10 and worst_mono <= 1e-12 and worst_embed <= 1.0 and elapsed < 10.0
    )
    report(
        2,
        "Parseval, H^k monotonicity, embedding inequality (1000 samples)",
        passed,
        f"parseval={worst_parseval:.2e} mono={worst_mono:.2e} embed_ratio={worst_embed:.3f} {timed(start)}",
    )


def test_criterion_03_hilbert_schmidt_certificate():
    start = time.time()
    basis = ScaledBasis(ALPHA, 32, 128)
    cases = {
        "zero": CircleFunction.zero(128),
        "0.1sin": CircleFunction.harmonic(128, 1, sin_amp=0.1),
        "0.2cos2": CircleFunction.harmonic(128, 2, cos_amp=0.2),
    }
    details = []
    ok = True
    for name, f in cases.items():
        rep = hs_bound_certificate(f, 2, basis)
        ok = ok and np.isfinite(rep.actual) and rep.holds
        details.append(f"{name}: {rep.actual:.4f}<={rep.bound:.4f}")
    closed = 1.0 + sum(math.exp(-2 * n) * (1 + n**4) for n in range(1, 33))
    zero_rep = hs_bound_certificate(cases["zero"], 2, basis)
    rel = abs(zero_rep.actual - closed) / closed
    ok = ok and rel <= 1e-10
    elapsed = time.time() - start
    report(
        3,
        "Hilbert-Schmidt certificate (k=2, exponential, N=32)",
        ok and elapsed < 30.0,
        f"{'; '.join(details)}; closed-form rel={rel:.1e} {timed(start)}",
    )


def test_criterion_04_local_lipschitz_certificate(rng):
    start = time.time()
    basis = ScaledBasis(ALPHA, 32, 128)
    max_ratio = 0.0
    c_r = None
    for _ in range(100):
        f = random_band_limited(rng, 128, 6)
        g = random_band_limited(rng, 128, 6)
        f = f * (rng.uniform(0.0, 0.5) / max(f.hk_norm(2), 1e-12))
        g = g * (rng.uniform(0.0, 0.5) / max(g.hk_norm(2), 1e-12))
        rep = lipschitz_certificate(f, g, 2, 0.5, basis)
        assert rep.holds
        max_ratio = max(max_ratio, rep.ratio)
        c_r = rep.c_r
    elapsed = time.time() - start
    report(
        4,
        "local Lipschitz certificate (100 pairs, R=0.5 ball)",
        max_ratio <= c_r and elapsed < 60.0,
        f"max ratio={max_ratio:.3f} <= C_R={c_r:.3f} {timed(start)}",
    )


def test_criterion_05_ito_equals_stratonovich(rng):
    start = time.time()
    basis = ScaledBasis(ALPHA, 8, 64)
    worst = 0.0
    for _ in range(100):
        f = CircleFunction(rng.normal(0.0, 0.7, 64))
        worst = max(worst, float(np.max(np.abs(stratonovich_correction(f, basis)))))
    # zero up to the rounding bound derived in stratonovich_rounding_bound
    correction_ok = worst <= stratonovich_rounding_bound(basis)

    # Euler vs Heun on one documented Brownian path with nested increments.
    # Single-path Richardson ratios scatter (the mode fields do not commute);
    # the pinned seed records the measured instance of the criterion.
    n_cut, grid, horizon, fine_dt = 8, 64, 0.5, 1e-3
    stream = NoiseStream(SEED, 0, n_cut, fine_dt)
    n_fine = int(round(horizon / fine_dt))
    fine = np.array([stream.increment_at(i) for i in range(n_fine)])
    gaps = {}
    for dt in (4e-3, 2e-3, 1e-3):
        k = int(round(dt / fine_dt))
        coarse = fine.reshape(n_fine // k, k, 2 * n_cut + 1).sum(axis=1)
        final = {}
        for scheme in ("euler", "heun"):
            cfg = SolverConfig(
                dt=dt, horizon=horizon, mode_cutoff=n_cut, grid_size=grid,
                alpha=ALPHA, radius=1e9, k=2, scheme=scheme,
            )
            *_, state = integrate(cfg, coarse)
            final[scheme] = state.grid_values
        gaps[dt] = float(np.max(np.abs(final["euler"] - final["heun"])))
    r1 = gaps[4e-3] / gaps[2e-3]
    r2 = gaps[2e-3] / gaps[1e-3]
    ratios_ok = 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5
    elapsed = time.time() - start
    report(
        5,
        "Ito=Stratonovich: zero correction and Euler/Heun contraction",
        correction_ok and ratios_ok and elapsed < 60.0,
        f"correction={worst:.1e} ratios={r1:.2f},{r2:.2f} {timed(start)}",
    )


def test_criterion_06_flow_composition_property():
    start = time.time()
    cfg = SolverConfig(
        dt=1e-3, horizon=0.5, mode_cutoff=8, grid_size=1024, alpha=ALPHA, radius=1e9, k=2
    )
    xi = CircleFunction.harmonic(1024, 1, sin_amp=0.1)
    rep_sine = flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), xi, record_every=1)

    cfg_rot = SolverConfig(
        dt=1e-3, horizon=0.5, mode_cutoff=8, grid_size=256, alpha=ALPHA, radius=1e9, k=2
    )
    rot = CircleFunction.constant(np.pi, 256)
    rep_rot = flow_compose_check(cfg_rot, NoiseStream(SEED, 0, 8, cfg_rot.dt), rot, record_every=1)
    elapsed = time.time() - start
    passed = rep_sine.sup_error <= 1e-4 and rep_rot.sup_error <= 1e-10 and elapsed < 60.0
    report(
        6,
        "flow/composition property (sine warp and rotation)",
        passed,
        f"sine={rep_sine.sup_error:.2e} rotation={rep_rot.sup_error:.2e} {timed(start)}",
    )


def test_criterion_07_diffeomorphism_preservation():
    start = time.time()
    radius = diffeo_radius(2)
    cfg = SolverConfig(
        dt=1e-3, horizon=1.0, mode_cutoff=32, grid_size=128, alpha=ALPHA, radius=radius, k=2
    )
    n_paths = 200
    clean = 0
    worst_min_deriv = np.inf
    streams = [NoiseStream(SEED, pid, 32, cfg.dt) for pid in range(n_paths)]
    for rec in simulate_paths(cfg, streams, record_every=1, stop_after_hit=True):
        md = rec.min_deriv
        worst_min_deriv = min(worst_min_deriv, float(md.min()))
        if np.all(md > 0.0):
            clean += 1
    elapsed = time.time() - start
    report(
        7,
        f"diffeomorphism preservation up to tau_R (R=diffeo_radius(2)={radius:.4f})",
        clean == n_paths and elapsed < 300.0,
        f"{clean}/{n_paths} paths, min over all recorded 1+x'={worst_min_deriv:.4f} {timed(start)}",
    )


def test_criterion_08_concatenation_consistency():
    start = time.time()
    # pathwise: concatenated continuation vs direct run on the same increments
    free = SolverConfig(
        dt=1e-3, horizon=0.5, mode_cutoff=8, grid_size=512, alpha=ALPHA, radius=1e9, k=2
    )
    stream = NoiseStream(SEED, 1, 8, free.dt)
    direct = integrate(free, (stream.next_increment() for _ in range(free.n_steps)))
    hit = SolverConfig(
        dt=1e-3, horizon=0.5, mode_cutoff=8, grid_size=512, alpha=ALPHA, radius=0.1, k=2
    )
    first = simulate_path(
        hit, NoiseStream(SEED, 1, 8, hit.dt), record_every=1, stop_after_hit=True
    )
    fresh = NoiseStream(SEED, 1, 8, hit.dt, step_index=first.tau_step)
    joined, states = concatenate(first, fresh, free, record_every=1)
    direct_map = dict(enumerate(direct, 1))  # step -> state
    sup = 0.0
    compared = 0
    for step, f in zip(joined.step[joined.step > first.tau_step].tolist(), states):
        ref = direct_map.get(step)
        if ref is not None:
            sup = max(sup, float(np.max(np.abs(f.grid_values - ref.grid_values))))
            compared += 1
    pathwise_ok = compared >= 400 and sup <= 1e-4

    # independence: hitting times from disjoint stream segments
    ks_cfg = SolverConfig(
        dt=1e-3, horizon=2.0, mode_cutoff=32, grid_size=128, alpha=ALPHA, radius=0.4, k=2
    )
    streams = [NoiseStream(SEED, pid, 32, ks_cfg.dt) for pid in range(200)]
    firsts = simulate_paths(ks_cfg, streams, record_every=10**6, stop_after_hit=True)
    taus_first = [r.tau_r for r in firsts]
    offsets = [
        NoiseStream(SEED, pid, 32, ks_cfg.dt, step_index=r.tau_step)
        for pid, r in enumerate(firsts)
    ]
    seconds = simulate_paths(ks_cfg, offsets, record_every=10**6, stop_after_hit=True)
    taus_second = [r.tau_r for r in seconds]
    assert all(t is not None for t in taus_first + taus_second)
    ks = stats.ks_2samp(taus_first, taus_second)
    ks_ok = ks.pvalue >= 0.01
    elapsed = time.time() - start
    report(
        8,
        "concatenation: pathwise match and KS independence of segments",
        pathwise_ok and ks_ok and elapsed < 300.0,
        f"sup={sup:.2e} over {compared} snapshots; KS p={ks.pvalue:.3f} {timed(start)}",
    )


def test_criterion_09_non_explosion_evidence():
    start = time.time()
    radii = (0.05, 0.1, 0.2, 0.4)
    solver = SolverConfig(dt=1e-3, horizon=2.0, mode_cutoff=32, grid_size=128, alpha=ALPHA, k=2)
    cfg = RunConfig(solver, n_paths=200, master_seed=SEED, record_every=10**6, workers=2)
    records = run_ensemble(cfg, [replace(solver, radius=r) for r in radii], stop_after_hit=True)
    rows = []
    for i, radius in enumerate(radii):
        row = hitting_row(radius, records[i], solver)
        rows.append((radius, row["mean_tau"], row["stderr"]))
    increasing = all(a[1] < b[1] for a, b in zip(rows, rows[1:]))
    separated = all(a[1] + a[2] < b[1] - b[2] for a, b in zip(rows, rows[1:]))
    elapsed = time.time() - start
    detail = "; ".join(f"R={r}: {m:.4f}+-{s:.4f}" for r, m, s in rows)
    report(
        9,
        "mean hitting time strictly increasing with separated error bars",
        increasing and separated and elapsed < 600.0,
        f"{detail} {timed(start)}",
    )


def test_criterion_10_smoothness_dichotomy():
    start = time.time()
    # contrast_h32 runs both families at cutoffs 32 and 64 on a 256 grid
    solver = SolverConfig(
        dt=1e-3, horizon=0.5, mode_cutoff=32, grid_size=256, alpha=ALPHA, radius=1e9, k=2
    )
    results = contrast_h32(RunConfig(solver, n_paths=50, master_seed=SEED, workers=2))
    ratios = {name: results[name]["stability_ratio"] for name in ("exponential", "powerlaw")}
    elapsed = time.time() - start
    passed = ratios["exponential"] < 1.05 and ratios["powerlaw"] > 1.20 and elapsed < 300.0
    report(
        10,
        "H^3 cutoff-doubling stability dichotomy (50 paths each)",
        passed,
        f"exponential={ratios['exponential']:.4f} powerlaw={ratios['powerlaw']:.3f} {timed(start)}",
    )


def test_criterion_11_reproducibility(tmp_path, capsys):
    start = time.time()
    cfg = {
        "experiment": "simulate",
        "master_seed": SEED,
        "n_paths": 3,
        "record_every": 5,
        "output_dir": str(tmp_path / "a"),
        "solver": {
            "dt": 0.001, "horizon": 0.05, "mode_cutoff": 16, "grid_size": 64,
            "alpha": {"family": "exponential", "parameter": 1.0},
            "radius": 0.3, "k": 2, "scheme": "euler",
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(config_path)]) == 0
    first = {
        name: (tmp_path / "a" / name).read_bytes() for name in ("paths.csv", "summary.json")
    }
    assert cli_main(["run", str(config_path)]) == 0
    same_simulate = all(
        (tmp_path / "a" / name).read_bytes() == blob for name, blob in first.items()
    )

    for command, outdir in (("validate", "v"), ("flow-check", "f"), ("hitting-times", "h")):
        assert cli_main([command, str(config_path), "--out", str(tmp_path / outdir)]) == 0
        blobs = {
            p.name: p.read_bytes() for p in sorted((tmp_path / outdir).iterdir())
        }
        assert cli_main([command, str(config_path), "--out", str(tmp_path / outdir)]) == 0
        again = {p.name: p.read_bytes() for p in sorted((tmp_path / outdir).iterdir())}
        assert blobs == again
    capsys.readouterr()
    elapsed = time.time() - start
    report(
        11,
        "byte-identical artifacts on re-run (simulate/validate/flow-check/hitting-times)",
        same_simulate and elapsed < 300.0,
        f"4 experiments re-run {timed(start)}",
    )
