import dataclasses
from unittest import mock

import numpy as np
import pytest

from circleflow import (
    AffineCircleMap,
    CircleFunction,
    FlowState,
    NoiseStream,
    ScaledBasis,
    ScalingSequence,
    SimulationDiverged,
    SolverConfig,
    concatenate,
    diffeo_radius,
    field_values,
    flow_compose_check,
    grid_points,
    integrate,
    simulate_path,
    sobolev_embedding_constant,
    stratonovich_correction,
    truncation_scale,
)
from circleflow.flow import stratonovich_rounding_bound
from conftest import random_band_limited

SEED = 20240817
ALPHA = ScalingSequence.exponential(1.0)


def make_config(**kw):
    base = dict(
        dt=1e-3, horizon=0.1, mode_cutoff=8, grid_size=64,
        alpha=ALPHA, radius=1.0, k=2, scheme="euler",
    )
    base.update(kw)
    return SolverConfig(**base)


def one_step(cfg, state, inc):
    """One step of ``state`` under ``cfg.scheme``."""
    return next(integrate(cfg, [inc], start=state))


def single_mode_increment(cfg, n, value):
    delta = np.zeros(2 * cfg.mode_cutoff + 1)
    delta[cfg.mode_cutoff + n] = value
    return delta


class TestSolverConfig:
    def test_rejects_inconsistent_settings(self):
        with pytest.raises(ValueError):
            make_config(grid_size=16)  # below 4N
        with pytest.raises(ValueError):
            make_config(dt=0.2)  # exceeds horizon
        with pytest.raises(ValueError):
            make_config(radius=0.0)
        with pytest.raises(ValueError):
            make_config(scheme="milstein")

    def test_zero_horizon_allowed(self):
        assert make_config(horizon=0.0).n_steps == 0

    def test_round_trips_through_dict(self):
        cfg = make_config()
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    def test_weights_computed_once_per_config(self):
        cfg = make_config(horizon=0.02)
        assert np.array_equal(cfg.weights, ALPHA.values(cfg.mode_cutoff))
        assert not cfg.weights.flags.writeable
        assert np.array_equal(dataclasses.replace(cfg, mode_cutoff=4).weights, ALPHA.values(4))
        stream = NoiseStream(SEED, 0, cfg.mode_cutoff, cfg.dt)
        incs = [stream.increment_at(i) for i in range(cfg.n_steps)]
        configs = [cfg, dataclasses.replace(cfg, scheme="heun")]
        with mock.patch.object(ScalingSequence, "values", side_effect=AssertionError("per step")):
            for c in configs:
                assert len(list(integrate(c, incs))) == cfg.n_steps


class TestTruncationScale:
    def test_inside_ball(self):
        cfg = make_config(radius=1.0)
        state = FlowState(CircleFunction.zero(64), 0.0, 0.5, False)
        assert truncation_scale(state, cfg) == 1.0

    def test_outside_ball(self):
        cfg = make_config(radius=1.0)
        state = FlowState(CircleFunction.zero(64), 0.0, 2.0, True)
        assert truncation_scale(state, cfg) == 0.5

    def test_boundary_in_the_unit_branch(self):
        cfg = make_config(radius=1.0)
        state = FlowState(CircleFunction.zero(64), 0.0, 1.0, False)
        assert truncation_scale(state, cfg) == 1.0


class TestSteps:
    def test_zero_increment_advances_time_only(self):
        cfg = make_config()
        state = FlowState.initial(cfg)
        nxt = one_step(cfg, state, single_mode_increment(cfg, 0, 0.0))
        assert np.array_equal(nxt.x.grid_values, state.x.grid_values)
        assert nxt.t == pytest.approx(cfg.dt)

    def test_constant_mode_gives_rigid_rotation(self):
        cfg = make_config()
        state = FlowState.initial(cfg)
        nxt = one_step(cfg, state, single_mode_increment(cfg, 0, 0.25))
        assert np.allclose(nxt.x.grid_values, 0.25 * ALPHA.value_at(0))
        assert nxt.min_deriv == pytest.approx(1.0, abs=1e-12)

    def test_first_cosine_mode_from_identity(self):
        cfg = make_config()
        state = FlowState.initial(cfg)
        nxt = one_step(cfg, state, single_mode_increment(cfg, 1, 0.5))
        expected = 0.5 * ALPHA.value_at(1) * np.cos(grid_points(64))
        assert np.max(np.abs(nxt.x.grid_values - expected)) < 1e-15

    def test_heun_zero_increment(self):
        cfg = make_config(scheme="heun")
        state = FlowState.initial(cfg)
        nxt = one_step(cfg, state, single_mode_increment(cfg, 0, 0.0))
        assert np.array_equal(nxt.x.grid_values, state.x.grid_values)

    def test_heun_equals_euler_for_additive_mode(self):
        # the constant mode is state independent, so the corrector changes nothing
        cfg = make_config()
        state = FlowState.initial(cfg)
        inc = single_mode_increment(cfg, 0, 0.3)
        heun = dataclasses.replace(cfg, scheme="heun")
        assert np.array_equal(
            one_step(heun, state, inc).x.grid_values,
            one_step(cfg, state, inc).x.grid_values,
        )

    def test_non_finite_increment_aborts(self):
        cfg = make_config()
        state = FlowState.initial(cfg)
        bad = single_mode_increment(cfg, 1, np.nan)
        with pytest.raises(SimulationDiverged):
            one_step(cfg, state, bad)
        with pytest.raises(SimulationDiverged):
            one_step(dataclasses.replace(cfg, scheme="heun"), state, bad)


def _old_euler_step(state, inc, cfg):
    """The explicit step of one state, written out as before the block kernel."""
    weights = cfg.alpha.values(cfg.mode_cutoff)
    theta = grid_points(cfg.grid_size)
    x0 = state.x.grid_values
    f0 = field_values(inc, weights, theta + truncation_scale(state, cfg) * x0)
    x = CircleFunction(x0 + f0)
    hk = x.hk_norm(cfg.k)
    return FlowState(x, state.t + cfg.dt, hk, state.stopped or hk >= cfg.radius)


def _old_heun_step(state, inc, cfg):
    """The predictor-corrector step of one state, written out as before the
    block kernel built its predictor with _advance."""
    weights = cfg.alpha.values(cfg.mode_cutoff)
    theta = grid_points(cfg.grid_size)
    x0 = state.x.grid_values
    f0 = field_values(inc, weights, theta + truncation_scale(state, cfg) * x0)
    x_pred = x0 + f0
    pred_hk = CircleFunction(x_pred).hk_norm(cfg.k)
    scale = 1.0 if pred_hk <= cfg.radius else cfg.radius / pred_hk
    f1 = field_values(inc, weights, theta + scale * x_pred)
    x = CircleFunction(x0 + 0.5 * (f0 + f1))
    hk = x.hk_norm(cfg.k)
    return FlowState(x, state.t + cfg.dt, hk, state.stopped or hk >= cfg.radius)


def reference_states(cfg, increments):
    """The hand-written stepping loop that integrate replaced."""
    step = {"euler": _old_euler_step, "heun": _old_heun_step}[cfg.scheme]
    state = FlowState.initial(cfg)
    states = []
    for inc in increments:
        state = step(state, inc, cfg)
        states.append(state)
    return states


class TestIntegrate:
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_matches_hand_loop_bit_for_bit(self, scheme):
        cfg = make_config(horizon=0.3, radius=0.05, scheme=scheme)
        stream = NoiseStream(SEED, 2, 8, cfg.dt)
        incs = [stream.increment_at(i) for i in range(cfg.n_steps)]
        got = list(integrate(cfg, incs))
        want = reference_states(cfg, incs)
        assert len(got) == len(want) == cfg.n_steps
        truncated = sum(s.hk > cfg.radius for s in want)
        assert truncated > cfg.n_steps / 2
        for a, b in zip(got, want):
            assert np.array_equal(a.x.grid_values, b.x.grid_values)
            assert (a.t, a.hk, a.stopped) == (b.t, b.hk, b.stopped)

    def test_start_state_is_continued(self):
        cfg = make_config(horizon=0.02)
        stream = NoiseStream(SEED, 0, 8, cfg.dt)
        incs = [stream.increment_at(i) for i in range(cfg.n_steps)]
        states = list(integrate(cfg, incs))
        resumed = list(integrate(cfg, incs[10:], start=states[9]))
        assert len(resumed) == cfg.n_steps - 10 > 0
        for a, b in zip(resumed, states[10:]):
            assert np.array_equal(a.x.grid_values, b.x.grid_values)
            assert a.t == b.t


class TestSimulatePath:
    def test_zero_horizon_records_initial_state_only(self):
        cfg = make_config(horizon=0.0)
        rec = simulate_path(cfg, NoiseStream(SEED, 0, 8, cfg.dt))
        assert len(rec.samples) == 1
        s = rec.samples[0]
        assert (s.t, s.hk, s.min_deriv, s.stopped) == (0.0, 0.0, 1.0, False)
        assert rec.tau_r is None

    def test_large_radius_never_crosses(self):
        cfg = make_config(horizon=0.5, mode_cutoff=16, grid_size=64, radius=50.0)
        rec = simulate_path(cfg, NoiseStream(SEED, 0, 16, cfg.dt), record_every=50)
        assert rec.tau_r is None
        assert not any(s.stopped for s in rec.samples)

    def test_replay_is_bit_identical(self):
        cfg = make_config(horizon=0.2, radius=0.3)
        rec1 = simulate_path(cfg, NoiseStream(SEED, 5, 8, cfg.dt), record_every=7)
        rec2 = simulate_path(cfg, NoiseStream(SEED, 5, 8, cfg.dt), record_every=7)
        for a, b in zip(rec1.samples, rec2.samples):
            assert (a.t, a.hk, a.min_deriv, a.stopped) == (b.t, b.hk, b.min_deriv, b.stopped)
        assert np.array_equal(rec1.final_state.grid_values, rec2.final_state.grid_values)

    def test_hitting_time_first_crossing(self):
        cfg = make_config(horizon=0.5, radius=0.05)
        rec = simulate_path(cfg, NoiseStream(SEED, 2, 8, cfg.dt), record_every=1)
        assert rec.tau_r is not None
        t, hk, _, stopped = rec.series()
        first = np.argmax(hk >= cfg.radius)
        assert t[first] == pytest.approx(rec.tau_r)
        assert np.all(hk[:first] < cfg.radius)
        assert np.all(stopped[first:])
        assert rec.state_at_tau is not None
        assert rec.state_at_tau.hk_norm(cfg.k) >= cfg.radius

    def test_continues_past_hit_under_truncated_dynamics(self):
        cfg = make_config(horizon=0.2, radius=0.05)
        rec = simulate_path(cfg, NoiseStream(SEED, 2, 8, cfg.dt), record_every=1)
        assert rec.samples[-1].t == pytest.approx(0.2)

    def test_stop_after_hit_truncates_record(self):
        cfg = make_config(horizon=0.5, radius=0.05)
        stream = NoiseStream(SEED, 2, 8, cfg.dt)
        rec = simulate_path(cfg, stream, stop_after_hit=True)
        assert rec.samples[-1].t == pytest.approx(rec.tau_r)
        assert stream.step_index == round(rec.tau_r / cfg.dt) < cfg.n_steps

    def test_samples_strictly_increasing(self):
        cfg = make_config(horizon=0.2, radius=0.08)
        rec = simulate_path(cfg, NoiseStream(SEED, 3, 8, cfg.dt), record_every=13)
        t = rec.series()[0]
        assert np.all(np.diff(t) > 0)


class _ZeroStream:
    """Stand-in noise source that always returns zero increments."""

    def __init__(self, cutoff):
        self.cutoff = cutoff

    def next_increment(self):
        return np.zeros(2 * self.cutoff + 1)


class TestConcatenate:
    def _stopped_record(self, cfg):
        return simulate_path(
            cfg, NoiseStream(SEED, 1, cfg.mode_cutoff, cfg.dt), record_every=1
        )

    def test_zero_continuation_is_constant_at_xi(self):
        cfg = make_config(horizon=0.3, radius=0.05)
        first = self._stopped_record(cfg)
        out = concatenate(first, _ZeroStream(8), cfg, record_every=10)
        xi = first.state_at_tau
        for s in out.samples:
            if s.t > first.tau_r and s.x is not None:
                assert np.max(np.abs(s.x.grid_values - xi.grid_values)) < 1e-14
                assert s.hk == pytest.approx(xi.hk_norm(cfg.k))

    def test_requires_hitting_time(self):
        cfg = make_config(horizon=0.05, radius=100.0)
        rec = simulate_path(cfg, NoiseStream(SEED, 0, 8, cfg.dt))
        with pytest.raises(ValueError):
            concatenate(rec, _ZeroStream(8), cfg)

    def test_requires_diffeomorphism_at_xi(self):
        cfg = make_config(horizon=0.3, radius=0.05)
        first = self._stopped_record(cfg)
        steep = CircleFunction.harmonic(64, 1, sin_amp=1.5)
        broken = dataclasses.replace(first, state_at_tau=steep)
        with pytest.raises(ValueError):
            concatenate(broken, _ZeroStream(8), cfg)

    def test_matches_direct_continuation(self):
        # same master increments after the crossing: interpolation error only
        cfg_free = make_config(horizon=0.2, mode_cutoff=8, grid_size=256, radius=1e9)
        stream = NoiseStream(SEED, 1, 8, cfg_free.dt)
        direct = integrate(cfg_free, (stream.next_increment() for _ in range(cfg_free.n_steps)))
        cfg_hit = make_config(horizon=0.2, mode_cutoff=8, grid_size=256, radius=0.08)
        first = simulate_path(
            cfg_hit, NoiseStream(SEED, 1, 8, cfg_hit.dt), record_every=1, stop_after_hit=True
        )
        k0 = int(round(first.tau_r / cfg_hit.dt))
        fresh = NoiseStream(SEED, 1, 8, cfg_hit.dt, step_index=k0)
        out = concatenate(first, fresh, cfg_free, record_every=1)
        direct_map = {round(s.t, 9): s.x for s in direct}
        checked = 0
        for s in out.samples:
            if s.x is None or s.t <= first.tau_r:
                continue
            ref = direct_map.get(round(s.t, 9))
            if ref is not None:
                assert np.max(np.abs(s.x.grid_values - ref.grid_values)) < 1e-4
                checked += 1
        assert checked > 100


def test_every_recording_loop_keeps_the_last_step():
    # 23 steps at record_every 10: the record grid is steps 0, 10, 20 and 23
    cfg = make_config(horizon=0.023, radius=1e9)

    def steps(samples):
        return [round(s.t / cfg.dt) for s in samples]

    rec = simulate_path(cfg, NoiseStream(SEED, 0, 8, cfg.dt), record_every=10)
    assert steps(rec.samples) == [0, 10, 20, 23]
    rep = flow_compose_check(
        cfg, NoiseStream(SEED, 0, 8, cfg.dt), AffineCircleMap.identity(64), record_every=10
    )
    assert rep.n_checked == 4 and steps(rep.runs[0]) == [0, 10, 20, 23]
    stop = dataclasses.replace(cfg, horizon=0.3, radius=0.05)
    first = simulate_path(stop, NoiseStream(SEED, 1, 8, stop.dt), stop_after_hit=True)
    remaining = stop.n_steps - round(first.tau_r / stop.dt)
    out = concatenate(first, _ZeroStream(8), stop, record_every=remaining - 1)
    assert steps(out.samples)[-2:] == [stop.n_steps - 1, stop.n_steps]


class TestFlowComposeCheck:
    def test_identity_initial_map(self):
        cfg = make_config(horizon=0.05, mode_cutoff=8, grid_size=256, radius=10.0)
        rep = flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), AffineCircleMap.identity(256))
        assert rep.sup_error <= 1e-12

    def test_rotation_initial_map(self):
        cfg = make_config(horizon=0.1, mode_cutoff=8, grid_size=256, radius=10.0)
        rep = flow_compose_check(
            cfg, NoiseStream(SEED, 0, 8, cfg.dt), AffineCircleMap.rotation(np.pi, 256)
        )
        assert rep.sup_error <= 1e-10

    def test_grid_mismatch_rejected(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), AffineCircleMap.identity(128))


class TestDiffeoRadius:
    def test_value_and_edge(self):
        r = diffeo_radius(2)
        assert 0.0 < r < 1.0
        assert r == pytest.approx(1.0 / sobolev_embedding_constant(2, 1), rel=1e-14)
        with pytest.raises(ValueError):
            diffeo_radius(1)

    def test_certifies_random_states(self, rng):
        r_star = diffeo_radius(2)
        for _ in range(1000):
            f = random_band_limited(rng, 64, 8)
            f = f * (rng.uniform(0.0, 0.999) * r_star / max(f.hk_norm(2), 1e-12))
            warp = AffineCircleMap(f)
            assert warp.min_derivative > 0.0

    def test_near_boundary_bump_certified(self, rng):
        r_star = diffeo_radius(2)
        f = random_band_limited(rng, 64, 6)
        f = f * (0.99 * r_star / f.hk_norm(2))
        assert AffineCircleMap(f).min_derivative > 0.0


@dataclasses.dataclass(frozen=True)
class _Lopsided:
    """``base`` with the sin weight of one mode multiplied by ``factor``."""

    base: ScalingSequence
    mode: int
    factor: float

    def value_at(self, n):
        return self.base.value_at(n) * (self.factor if n == -self.mode else 1.0)

    def values(self, n_max):
        return self.base.values(n_max)


class TestStratonovichCorrection:
    def test_zero_within_rounding_bound_for_random_states(self, rng):
        basis = ScaledBasis(ALPHA, 16, 64)
        bound = stratonovich_rounding_bound(basis)
        worst = 0.0
        for _ in range(50):
            warp = AffineCircleMap(CircleFunction(rng.normal(0, 0.5, 64)))
            correction = stratonovich_correction(warp, basis)
            worst = max(worst, float(np.max(np.abs(correction))))
        assert worst <= bound

    def test_unequal_weights_give_the_predicted_drift(self, rng):
        # negative control: sin weight of mode 3 doubled, so the pair 3, -3
        # leaves n (lam(-n)^2 - lam(n)^2) sin(n w) cos(n w) / 2
        n, lam = 3, ALPHA.value_at(3)
        basis = ScaledBasis(_Lopsided(ALPHA, n, 2.0), 8, 64)
        warp = AffineCircleMap(CircleFunction(rng.normal(0, 0.5, 64)))
        w = warp.grid_warp
        predicted = n * ((2 * lam) ** 2 - lam**2) * np.sin(n * w) * np.cos(n * w) / 2
        correction = stratonovich_correction(warp, basis)
        bound = stratonovich_rounding_bound(basis)
        slack = 4 * np.finfo(float).eps * np.max(np.abs(predicted))
        assert np.max(np.abs(correction - predicted)) <= bound + slack
        assert np.max(np.abs(correction)) > 1e6 * bound
