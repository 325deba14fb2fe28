"""Time stepping for the composition-driven flow in a Sobolev ball.

The state is the vector part x of the circle map id + x, advanced by the
increment field evaluated at the warped grid points.  When the H^k norm
exceeds the configured radius the warp is evaluated at the radially rescaled
state (the additive update still lands on the true state), which is the
globally Lipschitz truncation of the dynamics; the first grid time at which
the norm reaches the radius is recorded as the hitting time and the path
keeps evolving under the truncated dynamics afterwards.

Paths are stepped in blocks: P states held as one ``(P, M)`` array, each
row driven by its own increments.  Every update is elementwise or per row,
so a row's values do not depend on the other rows or on P; one state is
the block with P = 1.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np

from .basis import ScalingSequence
from .circlefn import (
    AffineCircleMap,
    CircleFunction,
    grid_points,
    hk_norms,
    sobolev_embedding_constant,
)
from .noise import field_values

__all__ = [
    "SimulationDiverged",
    "SolverConfig",
    "FlowState",
    "PathSample",
    "PathRecord",
    "truncation_scale",
    "integrate",
    "simulate_path",
    "simulate_paths",
    "concatenate",
    "flow_compose_check",
    "FlowCheckReport",
    "diffeo_radius",
    "stratonovich_correction",
    "stratonovich_rounding_bound",
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


@dataclass(frozen=True)
class _Block:
    """P solution rows stepped as one array: the ``(P, M)`` vector parts,
    their H^k norms and stop flags, all at time ``t``."""

    x: np.ndarray
    t: float
    hk: np.ndarray
    stopped: np.ndarray

    @classmethod
    def of(cls, states):
        """The block of the given states (all at one time)."""
        return cls(
            np.array([s.x.grid_values for s in states]),
            states[0].t,
            np.array([s.hk for s in states], dtype=float),
            np.array([s.stopped for s in states], dtype=bool),
        )

    def take(self, rows):
        return _Block(self.x[rows], self.t, self.hk[rows], self.stopped[rows])

    def row(self, i):
        x = CircleFunction(self.x[i])
        return FlowState(x, self.t, float(self.hk[i]), bool(self.stopped[i]))


def _advance(prev, new_values, cfg):
    """The block after a step to ``new_values``: finite check, H^k norms
    (one ``rfft`` over the rows) and the latched stop flags."""
    if not np.all(np.isfinite(new_values)):
        raise SimulationDiverged(f"non-finite state at t={prev.t + cfg.dt:.6g}")
    new_values.flags.writeable = False
    hk = hk_norms(new_values, cfg.k)
    return _Block(new_values, prev.t + cfg.dt, hk, prev.stopped | (hk >= cfg.radius))


def truncation_scale(state, cfg):
    """Applied radial scale: 1 inside the ball, R/||x|| outside (boundary in).

    Row by row when ``state`` is a block of states.
    """
    return cfg.radius / np.maximum(state.hk, cfg.radius)  # R / R is exactly 1


def _warped_points(block, cfg):
    return grid_points(cfg.grid_size) + truncation_scale(block, cfg)[:, None] * block.x


def _euler(block, db, cfg):
    """One explicit step of a block, row ``p`` driven by the increments
    ``db[p]``: x += field(id + x); drift-free since the stochastic
    contraction of the mode sum cancels (``stratonovich_correction``)."""
    fld = field_values(db, cfg.weights, _warped_points(block, cfg))
    return _advance(block, block.x + fld, cfg)


def _heun(block, db, cfg):
    """Midpoint predictor-corrector for the same increments.

    Used to probe the Ito/Stratonovich agreement numerically; the truncation
    rule is applied at both stage states so the scheme integrates the same
    truncated dynamics as the explicit step.
    """
    f0 = field_values(db, cfg.weights, _warped_points(block, cfg))
    pred = _advance(block, block.x + f0, cfg)
    f1 = field_values(db, cfg.weights, _warped_points(pred, cfg))
    return _advance(block, block.x + 0.5 * (f0 + f1), cfg)


_STEPPERS = {"euler": _euler, "heun": _heun}


def _on_record_grid(step, record_every, n_steps):
    """Whether step ``step`` of ``n_steps`` is on the record grid: step 0,
    every ``record_every``-th step, and the last step."""
    return step % record_every == 0 or step == n_steps


def _integrate(cfg, block, draw, drop_stopped=False):
    """The one stepping loop: step ``block`` under ``cfg.scheme``.

    Yields ``(rows, block)`` after each step, ``rows`` being the indices into
    the starting block of the rows stepped.  ``draw(rows)`` returns their
    ``(len(rows), 2N+1)`` increments, or None to end; it is called only
    when the next step is wanted, so a caller that stops early draws no
    further noise.  With ``drop_stopped`` a row leaves the block after the
    step at which it stopped, and its noise is no longer drawn.
    """
    step = _STEPPERS[cfg.scheme]
    rows = np.arange(block.hk.size)
    while True:
        if drop_stopped and block.stopped.any():
            keep = ~block.stopped
            rows, block = rows[keep], block.take(keep)
        db = draw(rows) if rows.size else None
        if db is None:
            return
        block = step(block, db, cfg)
        yield rows, block


def integrate(cfg, increments, start=None):
    """Yield the state after each increment under ``cfg.scheme``.

    The block loop at P = 1.  ``increments`` yields one ``(2N+1,)`` array
    per step, mode ``i - N`` at index ``i`` (as ``NoiseStream`` draws them).
    The truncation of ``cfg`` applies at each step; ``start`` defaults to the
    identity.  Increments are pulled lazily, so a caller that stops early
    draws no further noise.
    """
    incs = iter(increments)

    def draw(rows):
        inc = next(incs, None)
        return None if inc is None else inc[None]

    block = _Block.of([FlowState.initial(cfg) if start is None else start])
    for _, block in _integrate(cfg, block, draw):
        yield block.row(0)


def simulate_paths(cfg, streams, record_every=1, stop_after_hit=False):
    """Integrate one path per stream, as one block, from the identity to the
    horizon; returns their records in stream order.

    The hitting time is the first grid time with H^k norm >= radius; a path
    continues under the truncated dynamics unless ``stop_after_hit``, which
    drops it from the block and leaves its stream at the crossing step.
    Samples are kept every ``record_every`` steps plus the initial state,
    the crossing step, and the final step.  Rows never mix, so a path's
    record does not depend on the other streams of the block.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_paths, n_steps = len(streams), cfg.n_steps
    start = FlowState.initial(cfg)
    block = _Block.of([start] * n_paths)
    samples = [[_sample(start)] for _ in range(n_paths)]
    hit = np.zeros(n_paths, dtype=bool)
    tau_r = [None] * n_paths
    state_at_tau = [None] * n_paths

    def draw(rows):
        return np.array([streams[r].next_increment() for r in rows])

    rows = np.arange(n_paths)  # the last block's rows, also when n_steps is 0
    stepped = _integrate(cfg, block, draw, drop_stopped=stop_after_hit)
    for i, (rows, block) in zip(range(1, n_steps + 1), stepped):
        crossed = block.stopped & ~hit[rows]
        on_grid = _on_record_grid(i, record_every, n_steps)
        for j in range(rows.size) if on_grid else np.flatnonzero(crossed):
            r = rows[j]
            state = block.row(j)
            if crossed[j]:
                hit[r] = True
                tau_r[r] = state.t
                state_at_tau[r] = state.x
            samples[r].append(_sample(state))
    # a row missing from the last block left it at its crossing step
    final = list(state_at_tau)
    for j, r in enumerate(rows):
        final[r] = CircleFunction(block.x[j])
    return [
        PathRecord(tuple(s), tau, at_tau, fin)
        for s, tau, at_tau, fin in zip(samples, tau_r, state_at_tau, final)
    ]


def simulate_path(cfg, stream, record_every=1, stop_after_hit=False):
    """``simulate_paths`` for one stream."""
    return simulate_paths(cfg, [stream], record_every, stop_after_hit)[0]


def _sample(state):
    return PathSample(state.t, state.hk, state.min_deriv, state.stopped)


def concatenate(first, fresh, cfg, record_every=1):
    """Continue a stopped path by restarting from the identity and composing.

    A fresh solution y is run from the identity with the given stream for the
    remaining steps; the returned record extends ``first`` with the samples of
    ``t -> (id + y_{t - tau}) o (id + xi)`` where xi is the state at the
    hitting time, each sample keeping its composed state as ``x``.  The map
    id + xi must be a diffeomorphism for the composition to be a
    reparameterization.
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
    final = xi
    increments = (fresh.next_increment() for _ in range(remaining))
    for i, state in enumerate(integrate(cfg, increments), 1):
        if _on_record_grid(i, record_every, remaining):
            final = CircleFunction(xi_vals + state.x.evaluate(warp_pts))
            samples.append(
                PathSample(
                    first.tau_r + i * cfg.dt,
                    final.hk_norm(cfg.k),
                    AffineCircleMap(final).min_derivative,
                    True,
                    final,
                )
            )
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

    Runs x from 0 and y from the vector part of ``xi_map`` as one 2-row
    block fed the same increment each step, and reports sup over recorded
    times and grid points of |(id + y)(theta) - (id + x)(xi(theta))|.  For the identity the two
    recursions coincide bit for bit; for rigid rotations the grid is mapped
    onto itself so only rounding enters; for generic warps the error is the
    band-limited interpolation of the composed state.

    The identity holds for the untruncated flow only, so a sample is
    compared only while neither run has stopped at the truncation radius.
    """
    if xi_map.grid_size != cfg.grid_size:
        raise ValueError("initial map must live on the solver grid")
    n_steps = cfg.n_steps
    steps = count(stream.step_index)

    def draw(rows):
        db = stream.increment_at(next(steps))
        return np.array([db, db])

    xi = xi_map.vector_part
    xi_hk = xi.hk_norm(cfg.k)
    x_state = FlowState.initial(cfg)
    y_state = FlowState(xi, 0.0, xi_hk, xi_hk >= cfg.radius)
    warp_pts = xi_map.grid_warp

    stepped = zip(range(1, n_steps + 1), _integrate(cfg, _Block.of([x_state, y_state]), draw))
    recorded = (
        (b.row(0), b.row(1)) for i, (_, b) in stepped if _on_record_grid(i, record_every, n_steps)
    )

    sup_error, window, checked = 0.0, None, 0
    x_samples, y_samples = [], []
    for x, y in chain([(x_state, y_state)], recorded):
        if not (x.stopped or y.stopped):
            err = np.max(np.abs(y.x.grid_values - xi.grid_values - x.x.evaluate(warp_pts)))
            sup_error = max(sup_error, float(err))
            window = x.t
            checked += 1
        x_samples.append(_sample(x))
        y_samples.append(_sample(y))
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
    """The Ito-Stratonovich correction drift ``1/2 sum_n e_n'(w) e_n(w)``.

    Summed over the basis functions ``e_n``, ``|n| <= cutoff``, at the warped
    grid ``w``.  The modes n and -n contribute
    ``n (lam(-n)^2 - lam(n)^2) sin(n w) cos(n w) / 2``, so with equal cos and
    sin weights the drift vanishes, up to the rounding bounded by
    ``stratonovich_rounding_bound``, and the steppers integrate without any.
    """
    w = warp.grid_warp
    out = np.zeros_like(w)
    for n in range(1, basis.mode_cutoff + 1):
        pair = [basis.basis_function(m) for m in (n, -n)]
        out += sum(e.derivative().evaluate(w) * e.evaluate(w) for e in pair)
    return 0.5 * out


def stratonovich_rounding_bound(basis):
    """Bound on ``|stratonovich_correction|`` when its exact value is zero.

    Horner's rule evaluates ``lam cos(n w)`` within ``4 eps (n + 1) lam``
    and the derivative, whose coefficient ``n lam`` is rounded once, within
    ``eps (4n + 5) n lam`` (the bound of ``trig_sum``).  A product of the two
    is then off by at most ``eps (8n + 10) n lam^2``, its own rounding and
    the second-order terms included, and the sums that follow add only
    second-order terms to values that are zero exactly.  The correction is
    half the sum over the modes n and -n, so with ``n <= N`` it is within
    ``eps (8N + 10) sum_n n (lam(n)^2 + lam(-n)^2) / 2``.
    """
    n = np.arange(1, basis.mode_cutoff + 1)
    lam_sq = np.array([basis.weight(m) ** 2 + basis.weight(-m) ** 2 for m in n]) / 2
    eps = np.finfo(float).eps
    return float(eps * (8 * basis.mode_cutoff + 10) * np.sum(n * lam_sq))
