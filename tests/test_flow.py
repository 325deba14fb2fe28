import dataclasses
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest

from circleflow import (
    CircleFunction,
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
)
from circleflow import circlefn, flow, noise
from circleflow.flow import _Block, _warped_points, simulate_paths, stratonovich_rounding_bound
from conftest import columns, random_band_limited

SEED = 20240817
ALPHA = ScalingSequence.exponential(1.0)


def make_config(**kw):
    base = dict(
        dt=1e-3, horizon=0.1, mode_cutoff=8, grid_size=64,
        alpha=ALPHA, radius=1.0, k=2, scheme="euler",
    )
    base.update(kw)
    return SolverConfig(**base)


def one_step(cfg, inc):
    """The vector part after one step from the identity under ``cfg.scheme``."""
    return next(integrate(cfg, [inc]))


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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"grid_size": 48}, "grid size must be a power of two >= 4, got 48"),
            ({"grid_size": 16}, "grid size must be at least 4 \\* mode_cutoff, got 16"),
            ({"mode_cutoff": 8.0}, "mode_cutoff must be an integer, got 8.0"),
            ({"k": True}, "k must be an integer, got True"),
            ({"dt": float("nan")}, "dt must be a finite number"),
        ],
    )
    def test_checks_through_the_circlefn_validators(self, change, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make_config(**change)

    def test_zero_horizon_allowed(self):
        assert make_config(horizon=0.0).n_steps == 0

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
    @pytest.mark.parametrize(
        "hk, scale",
        [
            pytest.param(0.5, 1.0, id="inside_ball"),
            pytest.param(2.0, 0.5, id="outside_ball"),
            pytest.param(1.0, 1.0, id="boundary_in_the_unit_branch"),
        ],
    )
    def test_warped_points(self, hk, scale):
        cfg = make_config(radius=1.0)
        x = CircleFunction.harmonic(64, 1, sin_amp=0.3).grid_values
        block = _Block.start(x[None], [hk], [cfg])
        assert np.array_equal(_warped_points(block, cfg)[0], grid_points(64) + scale * x)


class TestSteps:
    def test_zero_increment_advances_time_only(self):
        cfg = make_config()
        nxt = one_step(cfg, single_mode_increment(cfg, 0, 0.0))
        assert np.array_equal(nxt.grid_values, np.zeros(64))

    def test_constant_mode_gives_rigid_rotation(self):
        cfg = make_config()
        nxt = one_step(cfg, single_mode_increment(cfg, 0, 0.25))
        assert np.allclose(nxt.grid_values, 0.25 * ALPHA.value_at(0))
        assert nxt.min_derivative == pytest.approx(1.0, abs=1e-12)

    def test_first_cosine_mode_from_identity(self):
        cfg = make_config()
        nxt = one_step(cfg, single_mode_increment(cfg, 1, 0.5))
        expected = 0.5 * ALPHA.value_at(1) * np.cos(grid_points(64))
        assert np.max(np.abs(nxt.grid_values - expected)) < 1e-15

    def test_heun_zero_increment(self):
        cfg = make_config(scheme="heun")
        nxt = one_step(cfg, single_mode_increment(cfg, 0, 0.0))
        assert np.array_equal(nxt.grid_values, np.zeros(64))

    def test_heun_equals_euler_for_additive_mode(self):
        # the constant mode is state independent, so the corrector changes nothing
        cfg = make_config()
        inc = single_mode_increment(cfg, 0, 0.3)
        heun = dataclasses.replace(cfg, scheme="heun")
        assert np.array_equal(one_step(heun, inc).grid_values, one_step(cfg, inc).grid_values)

    def test_non_finite_increment_aborts(self):
        cfg = make_config()
        bad = single_mode_increment(cfg, 1, np.nan)
        with pytest.raises(SimulationDiverged):
            one_step(cfg, bad)
        with pytest.raises(SimulationDiverged):
            one_step(dataclasses.replace(cfg, scheme="heun"), bad)


# A state of the reference loop: vector part and H^k norm.
State = namedtuple("State", "x hk")


def _scale(state, cfg):
    """The radial truncation scale: 1 inside the ball, R/||x|| outside."""
    return cfg.radius / max(state.hk, cfg.radius)


def _old_euler_step(state, inc, cfg):
    """The explicit step of one state, written out as before the block kernel."""
    weights = cfg.alpha.values(cfg.mode_cutoff)
    theta = grid_points(cfg.grid_size)
    x0 = state.x.grid_values
    f0 = field_values(inc, weights, theta + _scale(state, cfg) * x0)
    x = CircleFunction(x0 + f0)
    return State(x, x.hk_norm(cfg.k))


def _old_heun_step(state, inc, cfg):
    """The predictor-corrector step of one state, written out as before the
    block kernel built its predictor with _advance."""
    weights = cfg.alpha.values(cfg.mode_cutoff)
    theta = grid_points(cfg.grid_size)
    x0 = state.x.grid_values
    f0 = field_values(inc, weights, theta + _scale(state, cfg) * x0)
    x_pred = x0 + f0
    pred_hk = CircleFunction(x_pred).hk_norm(cfg.k)
    scale = 1.0 if pred_hk <= cfg.radius else cfg.radius / pred_hk
    f1 = field_values(inc, weights, theta + scale * x_pred)
    x = CircleFunction(x0 + 0.5 * (f0 + f1))
    return State(x, x.hk_norm(cfg.k))


def reference_states(cfg, increments):
    """The hand-written stepping loop that integrate replaced: the states
    after each increment, from the identity."""
    step = {"euler": _old_euler_step, "heun": _old_heun_step}[cfg.scheme]
    state = State(CircleFunction.zero(cfg.grid_size), 0.0)
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
            assert np.array_equal(a.grid_values, b.x.grid_values)
            assert a.hk_norm(cfg.k) == b.hk


class TestSimulatePath:
    def test_zero_horizon_records_initial_state_only(self):
        cfg = make_config(horizon=0.0)
        rec = simulate_path(cfg, NoiseStream(SEED, 0, 8, cfg.dt))
        assert len(rec.t) == 1
        assert (rec.t[0], rec.hk[0], rec.min_deriv[0], rec.stopped[0]) == (0.0, 0.0, 1.0, False)
        assert rec.tau_r is None

    def test_large_radius_never_crosses(self):
        cfg = make_config(horizon=0.5, mode_cutoff=16, grid_size=64, radius=50.0)
        rec = simulate_path(cfg, NoiseStream(SEED, 0, 16, cfg.dt), record_every=50)
        assert rec.tau_r is None
        assert not rec.stopped.any()

    def test_replay_is_bit_identical(self):
        cfg = make_config(horizon=0.2, radius=0.3)
        rec1 = simulate_path(cfg, NoiseStream(SEED, 5, 8, cfg.dt), record_every=7)
        rec2 = simulate_path(cfg, NoiseStream(SEED, 5, 8, cfg.dt), record_every=7)
        assert columns(rec1) == columns(rec2)
        assert np.array_equal(rec1.final_state.grid_values, rec2.final_state.grid_values)

    def test_a_reused_stream_continues_its_path(self):
        # A run advances the caller's stream: a second run on the same object
        # is the path's continuation, not a replay.
        cfg = make_config(horizon=0.02, radius=0.3)
        stream = NoiseStream(SEED, 5, 8, cfg.dt)
        first = simulate_path(cfg, stream)
        assert stream.step_index == cfg.n_steps
        again = simulate_path(cfg, stream)
        later = simulate_path(cfg, NoiseStream(SEED, 5, 8, cfg.dt, step_index=cfg.n_steps))
        assert columns(again) == columns(later) != columns(first)

    def test_hitting_time_first_crossing(self):
        cfg = make_config(horizon=0.5, radius=0.05)
        rec = simulate_path(cfg, NoiseStream(SEED, 2, 8, cfg.dt), record_every=1)
        assert rec.tau_r is not None
        t, hk, stopped = rec.t, rec.hk, rec.stopped
        first = np.argmax(hk >= cfg.radius)
        assert t[first] == pytest.approx(rec.tau_r)
        assert np.all(hk[:first] < cfg.radius)
        assert np.all(stopped[first:])
        assert rec.state_at_tau is not None
        assert rec.state_at_tau.hk_norm(cfg.k) >= cfg.radius

    def test_continues_past_hit_under_truncated_dynamics(self):
        cfg = make_config(horizon=0.2, radius=0.05)
        rec = simulate_path(cfg, NoiseStream(SEED, 2, 8, cfg.dt), record_every=1)
        assert rec.t[-1] == pytest.approx(0.2)

    def test_stop_after_hit_truncates_record(self):
        cfg = make_config(horizon=0.5, radius=0.05)
        stream = NoiseStream(SEED, 2, 8, cfg.dt)
        rec = simulate_path(cfg, stream, stop_after_hit=True)
        assert rec.t[-1] == pytest.approx(rec.tau_r)
        assert stream.step_index == rec.tau_step < cfg.n_steps

    def test_shared_stream_advances_while_any_row_is_live(self):
        # two rows of one path on one stream: the draws follow the row that
        # stops last, and each row stops where it does alone
        low = make_config(horizon=0.5, radius=0.05)
        high = make_config(
            horizon=0.5, radius=0.1, mode_cutoff=16, alpha=ScalingSequence.powerlaw(1.5)
        )
        stream = NoiseStream(SEED, 2, 16, low.dt)
        recs = simulate_paths([low, high], [stream], stop_after_hit=True)
        steps = [r.tau_step for r in recs]
        assert steps[0] != steps[1] and stream.step_index == max(steps) < low.n_steps
        for cfg, rec in zip((low, high), recs):
            alone = simulate_path(cfg, NoiseStream(SEED, 2, cfg.mode_cutoff, cfg.dt),
                                  stop_after_hit=True)
            assert columns(rec) == columns(alone)
            assert np.array_equal(rec.state_at_tau.grid_values, alone.state_at_tau.grid_values)

    def test_no_streams_give_no_records(self):
        cfg = make_config()
        assert simulate_paths(cfg, []) == []
        assert simulate_paths(cfg, [], stop_after_hit=True) == []

    def test_rows_must_fit_one_block(self):
        cfg = make_config()
        streams = [NoiseStream(SEED, 0, 8, cfg.dt)]
        with pytest.raises(ValueError, match="largest cutoff"):
            simulate_paths([cfg, make_config(mode_cutoff=16)], streams)
        with pytest.raises(ValueError, match="must share scheme"):
            simulate_paths([cfg, make_config(scheme="heun")], streams)

    def test_samples_strictly_increasing(self):
        cfg = make_config(horizon=0.2, radius=0.08)
        rec = simulate_path(cfg, NoiseStream(SEED, 3, 8, cfg.dt), record_every=13)
        t = rec.t
        assert np.all(np.diff(t) > 0)


class _ZeroStream:
    """Stand-in noise source that always returns zero increments; it names
    the cutoff and dt it draws at, as a NoiseStream does."""

    def __init__(self, mode_cutoff, dt=1e-3):
        self.mode_cutoff = mode_cutoff
        self.dt = dt

    def next_increment(self):
        return np.zeros(2 * self.mode_cutoff + 1)


class TestConcatenate:
    def _stopped_record(self, cfg):
        return simulate_path(
            cfg, NoiseStream(SEED, 1, cfg.mode_cutoff, cfg.dt), record_every=1
        )

    def test_zero_continuation_is_constant_at_xi(self):
        cfg = make_config(horizon=0.3, radius=0.05)
        first = self._stopped_record(cfg)
        out, states = concatenate(first, _ZeroStream(8), cfg, record_every=10)
        xi = first.state_at_tau
        for f, hk in zip(states, out.hk[out.t > first.tau_r]):
            assert np.max(np.abs(f.grid_values - xi.grid_values)) < 1e-14
            assert hk == pytest.approx(xi.hk_norm(cfg.k))

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

    def test_requires_horizon_past_the_hitting_time(self):
        cfg = make_config(horizon=0.3, radius=0.05)
        first = self._stopped_record(cfg)
        short = dataclasses.replace(cfg, horizon=first.tau_r - cfg.dt)
        assert 0 < short.horizon < first.tau_r
        with pytest.raises(ValueError, match="horizon ends before the hitting time"):
            concatenate(first, _ZeroStream(8), short)

    def test_matches_direct_continuation(self):
        # same master increments after the crossing: interpolation error only
        cfg_free = make_config(horizon=0.2, mode_cutoff=8, grid_size=256, radius=1e9)
        stream = NoiseStream(SEED, 1, 8, cfg_free.dt)
        direct = integrate(cfg_free, (stream.next_increment() for _ in range(cfg_free.n_steps)))
        cfg_hit = make_config(horizon=0.2, mode_cutoff=8, grid_size=256, radius=0.08)
        first = simulate_path(
            cfg_hit, NoiseStream(SEED, 1, 8, cfg_hit.dt), record_every=1, stop_after_hit=True
        )
        fresh = NoiseStream(SEED, 1, 8, cfg_hit.dt, step_index=first.tau_step)
        out, states = concatenate(first, fresh, cfg_free, record_every=1)
        direct_map = dict(enumerate(direct, 1))  # step -> state
        checked = 0
        for step, f in zip(out.step[out.step > first.tau_step].tolist(), states):
            ref = direct_map.get(step)
            if ref is not None:
                assert np.max(np.abs(f.grid_values - ref.grid_values)) < 1e-4
                checked += 1
        assert checked > 100


def test_every_recording_loop_keeps_the_last_step():
    # 23 steps at record_every 10: the record grid is steps 0, 10, 20 and 23
    cfg = make_config(horizon=0.023, radius=1e9)

    def steps(rec):
        return rec.step.tolist()

    rec = simulate_path(cfg, NoiseStream(SEED, 0, 8, cfg.dt), record_every=10)
    assert steps(rec) == [0, 10, 20, 23]
    rep = flow_compose_check(
        cfg, NoiseStream(SEED, 0, 8, cfg.dt), CircleFunction.zero(64), record_every=10
    )
    assert rep.n_checked == 4 and steps(rep.runs[0]) == [0, 10, 20, 23]
    stop = dataclasses.replace(cfg, horizon=0.3, radius=0.05)
    first = simulate_path(stop, NoiseStream(SEED, 1, 8, stop.dt), stop_after_hit=True)
    remaining = stop.n_steps - first.tau_step
    out, _ = concatenate(first, _ZeroStream(8), stop, record_every=remaining - 1)
    assert steps(out)[-2:] == [stop.n_steps - 1, stop.n_steps]


@pytest.mark.parametrize("bad", [0, 2.5, True, "3"])
@pytest.mark.parametrize("name", ["simulate_paths", "concatenate", "flow_compose_check"])
def test_record_every_must_be_an_integer_of_at_least_one(name, bad):
    cfg = make_config(horizon=0.3, radius=0.05)
    first = simulate_path(cfg, NoiseStream(SEED, 1, 8, cfg.dt), stop_after_hit=True)
    stream = NoiseStream(SEED, 0, 8, cfg.dt)
    calls = {
        "simulate_paths": lambda: simulate_paths(cfg, [stream], record_every=bad),
        "concatenate": lambda: concatenate(first, _ZeroStream(8), cfg, record_every=bad),
        "flow_compose_check": lambda: flow_compose_check(
            cfg, stream, CircleFunction.zero(64), record_every=bad
        ),
    }
    with pytest.raises(ValueError, match="record_every"):
        calls[name]()


@pytest.mark.parametrize(
    "stream, message",
    [
        pytest.param({"mode_cutoff": 1}, "stream mode_cutoff 1 != 8", id="cutoff-1"),
        pytest.param({"mode_cutoff": 16}, "stream mode_cutoff 16 != 8", id="cutoff-16"),
        pytest.param({"dt": 4e-3}, "stream dt 0.004 != 0.001", id="dt-4e-3"),
    ],
)
@pytest.mark.parametrize("name", ["simulate_paths", "concatenate", "flow_compose_check"])
def test_stream_must_draw_at_the_solver_cutoff_and_dt(name, stream, message):
    # Negative control: a stream of another cutoff or dt steps the solver on
    # the wrong noise (or fails to broadcast), so each entry point rejects it.
    cfg = make_config(horizon=0.3, radius=0.05)
    first = simulate_path(cfg, NoiseStream(SEED, 1, 8, cfg.dt), stop_after_hit=True)
    wrong = NoiseStream(SEED, 1, **{"mode_cutoff": 8, "dt": cfg.dt, **stream})
    calls = {
        "simulate_paths": lambda: simulate_paths(cfg, [wrong]),
        "concatenate": lambda: concatenate(first, wrong, cfg),
        "flow_compose_check": lambda: flow_compose_check(cfg, wrong, CircleFunction.zero(64)),
    }
    with pytest.raises(ValueError, match=message):
        calls[name]()


def test_no_validator_runs_per_step(monkeypatch):
    # The argument rules run when a public function or constructor is
    # called, never in the step (_advance, next_increments, the field sum):
    # a run of 100 steps calls the validators as often as one of 10.
    calls = []  # the name of each validator called

    def counted(validator):
        def wrapper(*args, **kwargs):
            calls.append(validator.__name__)
            return validator(*args, **kwargs)

        return wrapper

    for module in (flow, noise, circlefn):
        for name in ("_require_ints", "_require_reals", "_require_grid_size"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))

    def validator_calls(n_steps):
        cfg = make_config(horizon=n_steps * 1e-3, radius=1e3)  # no path reaches it
        stream = NoiseStream(SEED, 0, 8, cfg.dt)
        calls.clear()
        [record] = simulate_paths(cfg, [stream])
        assert record.tau_step is None and record.step[-1] == n_steps
        return len(calls)

    assert validator_calls(10) == validator_calls(100) > 0


def test_simulate_paths_rejects_a_stream_listed_twice():
    # Negative control: a stream listed twice was advanced once per row and
    # step, so neither row followed its path (step_index ended at 2 * n_steps).
    cfg = make_config(horizon=0.003)
    stream = NoiseStream(SEED, 0, 8, cfg.dt)
    with pytest.raises(ValueError, match="^streams lists one stream object more than once"):
        simulate_paths(cfg, [stream, NoiseStream(SEED, 1, 8, cfg.dt), stream])
    assert stream.step_index == 0
    # two equal streams are two objects: each row follows path 0
    twins = [NoiseStream(SEED, 0, 8, cfg.dt) for _ in range(2)]
    a, b = simulate_paths(cfg, twins)
    assert columns(a) == columns(b) == columns(simulate_path(cfg, stream))
    assert [s.step_index for s in twins] == [cfg.n_steps] * 2


@pytest.mark.parametrize("size", [3, 33])
def test_integrate_rejects_an_increment_of_another_length(size):
    # Negative control: a length-3 increment would broadcast over the 8
    # modes of the cutoff-8 solver.
    cfg = make_config()
    with pytest.raises(ValueError, match=rf"increment shape \({size},\) != \(17,\)"):
        next(integrate(cfg, [np.zeros(size)]))


def test_concatenate_rejects_another_dt():
    # Negative control: a record sampled at dt 1e-3, continued at dt 5e-4,
    # would get samples on a mixed time grid (t = 0.0025, 0.003, ...).
    cfg = make_config(horizon=0.3, radius=0.05)
    first = simulate_path(cfg, NoiseStream(SEED, 1, 8, cfg.dt), stop_after_hit=True)
    assert first.tau_r is not None
    half = dataclasses.replace(cfg, dt=cfg.dt / 2)
    with pytest.raises(ValueError, match="not sampled at the solver's dt 0.0005"):
        concatenate(first, NoiseStream(SEED, 1, 8, half.dt), half)


def test_concatenate_rejects_another_grid():
    # Negative control: a state at the hitting time on the 64-point grid,
    # continued under a 128-point solver, would compose the solver's states
    # onto the 64-point grid and return them there.
    cfg = make_config(horizon=0.3, radius=0.05)
    first = simulate_path(cfg, NoiseStream(SEED, 1, 8, cfg.dt), stop_after_hit=True)
    fine = dataclasses.replace(cfg, grid_size=128)
    fresh = NoiseStream(SEED, 1, 8, cfg.dt, step_index=first.tau_step)
    with pytest.raises(ValueError, match="grid 64 != solver grid 128"):
        concatenate(first, fresh, fine)


HITTING_PRODUCERS = [
    *(f"simulate_paths-{scheme}-{mode}" for scheme in ("euler", "heun") for mode in ("run", "stop")),
    "concatenate",
    "flow_compose_check",
]


def _hitting_records(name, record_every):
    """The ``(record, radius)`` pairs the producer ``name`` builds at
    ``record_every``; at 3 each producer has a crossing off the record grid."""
    if name.startswith("simulate_paths"):
        _, scheme, mode = name.split("-")
        radii = (0.1, 0.2, 0.3, 0.5, 1e9)  # paths 2 and 3 cross at steps 3, 4, 12, 7, 39, 42, 57
        solvers = [make_config(radius=r, scheme=scheme) for r in radii]
        streams = [NoiseStream(SEED, p, 8, 1e-3) for p in (2, 3)]
        records = simulate_paths(solvers, streams, record_every, stop_after_hit=mode == "stop")
        return list(zip(records, radii * len(streams)))
    if name == "concatenate":
        cfg = make_config(radius=0.2)  # path 1 crosses at step 20
        first = simulate_path(cfg, NoiseStream(SEED, 1, 8, cfg.dt), record_every, True)
        fresh = NoiseStream(SEED, 1, 8, cfg.dt, step_index=first.tau_step)
        return [(concatenate(first, fresh, cfg, record_every)[0], cfg.radius)]
    # the case of test_stopped_latches_between_recorded_steps: row 1 first
    # reaches R at step 7
    free, xi = make_config(radius=1e9), CircleFunction.harmonic(64, 1, sin_amp=0.1)
    cfg = dataclasses.replace(
        free, radius=flow_compose_check(free, NoiseStream(SEED, 0, 8, free.dt), xi).runs[1].hk[7]
    )
    runs = flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), xi, record_every).runs
    return [(run, cfg.radius) for run in runs]


@pytest.mark.parametrize("name", HITTING_PRODUCERS)
def test_one_hitting_step_per_record(name):
    # A record's t, stopped and tau_r all follow from its steps and its one
    # hitting step, which is the first step, recorded or not, at which its
    # H^k norm reaches the radius: read off the producer at record_every 1.
    coarse, every_step = (_hitting_records(name, every) for every in (3, 1))
    for (rec, radius), (ref, _) in zip(coarse, every_step, strict=True):
        assert ref.step.tolist() == list(range(ref.step.size))
        reached = np.flatnonzero(ref.hk >= radius)
        assert rec.tau_step == (int(reached[0]) if reached.size else None)
        assert np.array_equal(rec.t, rec.step * rec.dt)
        tau = np.inf if rec.tau_step is None else rec.tau_step
        assert np.array_equal(rec.stopped, rec.step >= tau)
        assert rec.tau_r == (None if rec.tau_step is None else rec.tau_step * rec.dt)
        if name != "flow_compose_check" and rec.tau_step is not None:
            assert rec.tau_step in rec.step  # the crossing sample
    taus = [rec.tau_step for rec, _ in coarse]
    assert any(tau is not None and tau % 3 for tau in taus)
    if name == "flow_compose_check":
        assert taus[1] == 7 and 7 not in coarse[1][0].step


class TestFlowComposeCheck:
    def test_identity_initial_map(self):
        cfg = make_config(horizon=0.05, mode_cutoff=8, grid_size=256, radius=10.0)
        rep = flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), CircleFunction.zero(256))
        assert rep.sup_error <= 1e-12

    def test_rotation_initial_map(self):
        cfg = make_config(horizon=0.1, mode_cutoff=8, grid_size=256, radius=10.0)
        rep = flow_compose_check(
            cfg, NoiseStream(SEED, 0, 8, cfg.dt), CircleFunction.constant(np.pi, 256)
        )
        assert rep.sup_error <= 1e-10

    def test_xi_outside_the_ball_is_never_compared(self):
        cfg = make_config(horizon=0.05, radius=0.3)
        xi = CircleFunction.harmonic(64, 1, sin_amp=0.5)
        assert xi.hk_norm(cfg.k) >= cfg.radius
        rep = flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), xi)
        assert rep.n_checked == 0 and rep.window is None
        assert rep.runs[1].stopped.all() and not rep.runs[0].stopped[0]

    def test_stopped_latches_between_recorded_steps(self):
        # row 1 (from xi) first reaches R at step 7, off the record grid of
        # record_every 3, and is back below R at the grid step 9: a latch
        # read at the recorded steps only would miss that crossing
        free = make_config(horizon=0.1, radius=1e9)
        xi = CircleFunction.harmonic(64, 1, sin_amp=0.1)
        hk = [r.hk for r in flow_compose_check(free, NoiseStream(SEED, 0, 8, free.dt), xi).runs]
        radius = hk[1][7]
        assert radius > max(hk[1][:7].max(), hk[0][:8].max()) and hk[1][9] < radius
        cfg = dataclasses.replace(free, radius=radius)
        fine, coarse = (
            flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), xi, record_every=every)
            for every in (1, 3)
        )
        assert fine.runs[1].stopped.argmax() == 7
        on_grid = coarse.runs[0].step.astype(int)
        assert on_grid.tolist() == list(range(0, cfg.n_steps + 1, 3)) + [cfg.n_steps]
        for row in (0, 1):
            assert np.array_equal(coarse.runs[row].stopped, fine.runs[row].stopped[on_grid])
        live = ~(fine.runs[0].stopped | fine.runs[1].stopped)[on_grid]
        assert coarse.n_checked == live.sum() == 3

    def test_grid_mismatch_rejected(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            flow_compose_check(cfg, NoiseStream(SEED, 0, 8, cfg.dt), CircleFunction.zero(128))


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
            assert f.min_derivative > 0.0

    def test_near_boundary_bump_certified(self, rng):
        r_star = diffeo_radius(2)
        f = random_band_limited(rng, 64, 6)
        f = f * (0.99 * r_star / f.hk_norm(2))
        assert f.min_derivative > 0.0


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
            f = CircleFunction(rng.normal(0, 0.5, 64))
            correction = stratonovich_correction(f, basis)
            worst = max(worst, float(np.max(np.abs(correction))))
        assert worst <= bound

    def test_unequal_weights_give_the_predicted_drift(self, rng):
        # negative control: sin weight of mode 3 doubled, so the pair 3, -3
        # leaves n (lam(-n)^2 - lam(n)^2) sin(n w) cos(n w) / 2
        n, lam = 3, ALPHA.value_at(3)
        basis = ScaledBasis(_Lopsided(ALPHA, n, 2.0), 8, 64)
        f = CircleFunction(rng.normal(0, 0.5, 64))
        w = grid_points(64) + f.grid_values
        predicted = n * ((2 * lam) ** 2 - lam**2) * np.sin(n * w) * np.cos(n * w) / 2
        correction = stratonovich_correction(f, basis)
        bound = stratonovich_rounding_bound(basis)
        slack = 4 * np.finfo(float).eps * np.max(np.abs(predicted))
        assert np.max(np.abs(correction - predicted)) <= bound + slack
        assert np.max(np.abs(correction)) > 1e6 * bound
