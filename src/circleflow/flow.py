"""Time stepping for the composition-driven flow in a Sobolev ball.

The state is the vector part x of the circle map id + x, advanced by the
increment field evaluated at the warped grid points.  When the H^k norm
exceeds the configured radius the warp is evaluated at the radially rescaled
state (the additive update still lands on the true state), which is the
globally Lipschitz truncation of the dynamics; the first grid time at which
the norm reaches the radius is recorded as the hitting time and the path
keeps evolving under the truncated dynamics afterwards.
"""

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .basis import ScaledBasis, ScalingSequence
from .circlefn import AffineCircleMap, CircleFunction, grid_points, sobolev_embedding_constant
from .noise import field_values

__all__ = [
    "SimulationDiverged",
    "SolverConfig",
    "FlowState",
    "PathSample",
    "PathRecord",
    "truncation_scale",
    "euler_step",
    "heun_step",
    "integrate",
    "simulate_path",
    "concatenate",
    "flow_compose_check",
    "FlowCheckReport",
    "diffeo_radius",
    "stratonovich_correction",
]


class SimulationDiverged(RuntimeError):
    """Raised when a step produces non-finite state values."""


def _require_ints(obj, names, error=ValueError):
    """Raise ``error`` unless each named attribute of ``obj`` is an integer."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise error(f"{name} must be an integer, got {value!r}")


def _require_reals(values, error=ValueError):
    """Raise ``error`` unless each value of the ``name -> value`` dict is a
    finite number."""
    for name, value in values.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)
        ):
            raise error(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and truncation parameters for one flow simulation.

    ``n_steps`` and the mode weights ``weights = alpha(0..mode_cutoff)`` are
    derived once, at construction; the steppers read them from here.
    """

    dt: float
    horizon: float
    mode_cutoff: int
    grid_size: int
    alpha: ScalingSequence
    radius: float = 1.0
    k: int = 2
    scheme: str = "euler"
    n_steps: int = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_ints(self, ("mode_cutoff", "grid_size", "k"))
        _require_reals({"dt": self.dt, "horizon": self.horizon, "radius": self.radius})
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.horizon > 0 and self.dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")
        n = int(round(self.horizon / self.dt))
        if abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be an integer number of steps")
        if n >= 2**64:
            raise ValueError("the step index must fit the 64-bit noise counter")
        object.__setattr__(self, "n_steps", n)
        if not self.radius > 0:
            raise ValueError("truncation radius must be positive")
        if self.mode_cutoff < 1:
            raise ValueError("mode cutoff must be >= 1")
        if self.k < 0:
            raise ValueError("Sobolev index must be >= 0")
        if self.grid_size < 4 * self.mode_cutoff:
            raise ValueError("grid size must be at least 4 * mode_cutoff")
        if self.grid_size & (self.grid_size - 1) or self.grid_size < 4:
            raise ValueError("grid size must be a power of two >= 4")
        if self.grid_size > 2**24:  # 128 MiB per state; larger fails in allocation
            raise ValueError("grid size must not exceed 2**24")
        if 2 * self.k * math.log2(self.grid_size // 2) >= 1024:
            raise ValueError("the H^k weight n^(2k) overflows at the top grid mode")
        if self.scheme not in ("euler", "heun"):
            raise ValueError("scheme must be 'euler' or 'heun'")
        weights = self.alpha.values(self.mode_cutoff)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def basis(self):
        return ScaledBasis(self.alpha, self.mode_cutoff, self.grid_size)

    def to_dict(self):
        return {
            "dt": self.dt,
            "horizon": self.horizon,
            "mode_cutoff": self.mode_cutoff,
            "grid_size": self.grid_size,
            "alpha": self.alpha.to_dict(),
            "radius": self.radius,
            "k": self.k,
            "scheme": self.scheme,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["alpha"] = ScalingSequence.from_dict(d["alpha"])
        return cls(**d)


@dataclass(frozen=True)
class FlowState:
    """Solution snapshot: vector part, time, H^k norm and stop flag.

    ``stopped`` latches once the H^k norm has reached the truncation radius
    (discrete first-crossing semantics); the state remains steppable since
    the truncated dynamics are defined for all time.
    """

    x: CircleFunction
    t: float
    hk: float
    stopped: bool

    @classmethod
    def initial(cls, cfg):
        return cls(CircleFunction.zero(cfg.grid_size), 0.0, 0.0, False)

    @property
    def min_deriv(self):
        """Minimum of 1 + x', computed on demand (only samples read it)."""
        return AffineCircleMap(self.x).min_derivative


@dataclass(frozen=True)
class PathSample:
    t: float
    hk: float
    min_deriv: float
    stopped: bool
    x: CircleFunction = None


@dataclass(frozen=True)
class PathRecord:
    """Sampled trajectory with hitting time and the states it ended at."""

    samples: tuple
    tau_r: float
    state_at_tau: CircleFunction = None
    final_state: CircleFunction = None

    def series(self):
        """Columns (t, hk, min_deriv, stopped) as arrays."""
        t = np.array([s.t for s in self.samples])
        hk = np.array([s.hk for s in self.samples])
        md = np.array([s.min_deriv for s in self.samples])
        stopped = np.array([s.stopped for s in self.samples])
        return t, hk, md, stopped


def _advance(prev, new_values, cfg):
    if not np.all(np.isfinite(new_values)):
        raise SimulationDiverged(f"non-finite state at t={prev.t + cfg.dt:.6g}")
    x = CircleFunction(new_values)
    hk = x.hk_norm(cfg.k)
    return FlowState(x, prev.t + cfg.dt, hk, prev.stopped or hk >= cfg.radius)


def truncation_scale(state, cfg):
    """Applied radial scale: 1 inside the ball, R/||x|| outside (boundary in)."""
    if state.hk <= cfg.radius:
        return 1.0
    return cfg.radius / state.hk


def _warped_points(state, cfg):
    scale = truncation_scale(state, cfg)
    return grid_points(cfg.grid_size) + scale * state.x.grid_values


def euler_step(state, inc, cfg):
    """One explicit step: x += field(id + x); drift-free since the
    stochastic contraction of the mode sum cancels identically."""
    fld = field_values(inc.delta_b, cfg.weights, _warped_points(state, cfg))
    return _advance(state, state.x.grid_values + fld, cfg)


def heun_step(state, inc, cfg):
    """Midpoint predictor-corrector for the same increments.

    Used to probe the Ito/Stratonovich agreement numerically; the truncation
    rule is applied at both stage states so the scheme integrates the same
    truncated dynamics as the explicit step.
    """
    f0 = field_values(inc.delta_b, cfg.weights, _warped_points(state, cfg))
    pred = _advance(state, state.x.grid_values + f0, cfg)
    f1 = field_values(inc.delta_b, cfg.weights, _warped_points(pred, cfg))
    return _advance(state, state.x.grid_values + 0.5 * (f0 + f1), cfg)


_STEPPERS = {"euler": euler_step, "heun": heun_step}


def integrate(cfg, increments, start=None):
    """Yield the state after each increment under ``cfg.scheme``.

    The one stepping driver: every loop over steps iterates over it.  The
    truncation of ``cfg`` applies at each step; ``start`` defaults to the
    identity.  Increments are pulled lazily, so a caller that stops early
    draws no further noise.
    """
    step = _STEPPERS[cfg.scheme]
    state = FlowState.initial(cfg) if start is None else start
    for inc in increments:
        state = step(state, inc, cfg)
        yield state


def simulate_path(cfg, stream, record_every=1, stop_after_hit=False, keep_snapshots=False):
    """Integrate from the identity to the horizon, recording diagnostics.

    The hitting time is the first grid time with H^k norm >= radius; the
    path continues under the truncated dynamics unless ``stop_after_hit``,
    which leaves ``stream`` at the crossing step.  Samples are kept every
    ``record_every`` steps plus the initial state, the crossing step, and
    the final step.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    state = FlowState.initial(cfg)
    samples = [_sample(state, keep_snapshots)]
    tau_r = None
    state_at_tau = None
    n_steps = cfg.n_steps
    increments = (stream.next_increment() for _ in range(n_steps))
    for i, state in enumerate(integrate(cfg, increments, start=state), 1):
        crossed = state.stopped and tau_r is None
        if crossed:
            tau_r = state.t
            state_at_tau = state.x
        if crossed or i % record_every == 0 or i == n_steps:
            samples.append(_sample(state, keep_snapshots))
        if crossed and stop_after_hit:
            break
    return PathRecord(
        samples=tuple(samples),
        tau_r=tau_r,
        state_at_tau=state_at_tau,
        final_state=state.x,
    )


def _sample(state, keep):
    return PathSample(state.t, state.hk, state.min_deriv, state.stopped, state.x if keep else None)


def concatenate(first, fresh, cfg, record_every=1, keep_snapshots=False):
    """Continue a stopped path by restarting from the identity and composing.

    A fresh solution y is run from the identity with the given stream for the
    remaining steps; the returned record extends ``first`` with the samples of
    ``t -> (id + y_{t - tau}) o (id + xi)`` where xi is the state at the
    hitting time.  The map id + xi must be a diffeomorphism for the
    composition to be a reparameterization.
    """
    if first.tau_r is None:
        raise ValueError("first record has no hitting time to continue from")
    if first.state_at_tau is None:
        raise ValueError("first record kept no state at the hitting time")
    xi = first.state_at_tau
    xi_map = AffineCircleMap(xi)
    if not xi_map.is_diffeo:
        raise ValueError("state at the hitting time is not a diffeomorphism")

    steps_at_tau = int(round(first.tau_r / cfg.dt))
    remaining = cfg.n_steps - steps_at_tau
    xi_vals = xi.grid_values
    warp_pts = xi_map.grid_warp

    samples = [s for s in first.samples if s.t <= first.tau_r + 1e-12]
    state = FlowState.initial(cfg)
    increments = (fresh.next_increment() for _ in range(remaining))
    for i, state in enumerate(integrate(cfg, increments, start=state), 1):
        if i % record_every == 0 or i == remaining:
            z = CircleFunction(xi_vals + state.x.evaluate(warp_pts))
            samples.append(
                PathSample(
                    first.tau_r + i * cfg.dt,
                    z.hk_norm(cfg.k),
                    AffineCircleMap(z).min_derivative,
                    True,
                    z if keep_snapshots else None,
                )
            )
    final = samples[-1].x
    if final is None:
        final = CircleFunction(xi_vals + state.x.evaluate(warp_pts))
    return PathRecord(
        samples=tuple(samples),
        tau_r=first.tau_r,
        state_at_tau=first.state_at_tau,
        final_state=final,
    )


@dataclass(frozen=True)
class FlowCheckReport:
    sup_error: float
    window: float  # time of the last compared sample; None if none was compared
    n_checked: int
    runs: tuple = ()  # diagnostic series of the two runs (from id, from xi)


def flow_compose_check(cfg, stream, xi_map, record_every=1):
    """Left-invariance probe: evolve from id and from xi with one noise path.

    Runs x from 0 and y from the vector part of ``xi_map`` with identical
    increments and reports sup over recorded times and grid points of
    |(id + y)(theta) - (id + x)(xi(theta))|.  For the identity the two
    recursions coincide bit for bit; for rigid rotations the grid is mapped
    onto itself so only rounding enters; for generic warps the error is the
    band-limited interpolation of the composed state.

    The identity holds for the untruncated flow only, so a sample is
    compared only while neither run has stopped at the truncation radius.
    """
    if xi_map.grid_size != cfg.grid_size:
        raise ValueError("initial map must live on the solver grid")
    n_steps = cfg.n_steps
    incs = [stream.increment_at(stream.step_index + i) for i in range(n_steps)]

    xi = xi_map.vector_part
    xi_hk = xi.hk_norm(cfg.k)
    x_state = FlowState.initial(cfg)
    y_state = FlowState(xi, 0.0, xi_hk, xi_hk >= cfg.radius)
    warp_pts = xi_map.grid_warp

    pairs = zip(integrate(cfg, incs, start=x_state), integrate(cfg, incs, start=y_state))
    recorded = (p for i, p in enumerate(pairs, 1) if i % record_every == 0 or i == n_steps)

    sup_error, window, checked = 0.0, None, 0
    x_samples, y_samples = [], []
    for x, y in chain([(x_state, y_state)], recorded):
        if not (x.stopped or y.stopped):
            err = np.max(np.abs(y.x.grid_values - xi.grid_values - x.x.evaluate(warp_pts)))
            sup_error = max(sup_error, float(err))
            window = x.t
            checked += 1
        x_samples.append(_sample(x, False))
        y_samples.append(_sample(y, False))
    return FlowCheckReport(sup_error, window, checked, (tuple(x_samples), tuple(y_samples)))


def diffeo_radius(k, n_max=4096):
    """H^k radius below which every state is certified a diffeomorphism.

    One-sided: states inside the ball have sup |x'| < 1, hence positive warp
    derivative; nothing is claimed outside.
    """
    if k < 2:
        raise ValueError("certificate needs k >= 2 (first derivative control)")
    return 1.0 / sobolev_embedding_constant(k, 1, n_max)


def stratonovich_correction(warp, basis):
    """The Ito-Stratonovich correction drift, written out term by term.

    For each mode pair the contraction contributes
    ``alpha(n)^2 * (-sin(n w) cos(n w) + sin(n w) cos(n w))``; the evaluator
    computes both products literally so the cancellation is exact in floating
    point, and the flow steppers accordingly integrate without any drift.
    """
    w = warp.grid_warp
    weights = basis.weights()
    out = np.zeros_like(w)
    for n in range(1, basis.mode_cutoff + 1):
        s = np.sin(n * w)
        c = np.cos(n * w)
        out += weights[n] ** 2 * (-(s * c) + s * c)
    return out
