"""Time stepping for the composition-driven flow in a Sobolev ball.

The state is the vector part x of the circle map id + x, advanced by the
increment field evaluated at the warped grid points.  When the H^k norm
exceeds the configured radius the warp is evaluated at the radially rescaled
state (the additive update still lands on the true state), which is the
globally Lipschitz truncation of the dynamics; the first grid time at which
the norm reaches the radius is recorded as the hitting time and the path
keeps evolving under the truncated dynamics afterwards.

Paths are stepped in blocks: a range of paths, each under every solver of
the block, held as one ``(P, M)`` array of rows, one per path and group of its
solvers; solvers that differ only in radius may share a row whose radii are
barriers (``_path_rows``).  A path's rows step on its one increment per
step, each under its own mode weights and radius.  Every update is
elementwise or per row, so a row's values do not depend on the other rows
or on P; one state is the block with P = 1.
The solvers of a block share the time grid, the grid size, the Sobolev
index and the scheme (``_SHARED``).
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import ScalingSequence
from .circlefn import (
    CircleFunction,
    _analyze,
    _grid_points,
    _hk_norm,
    _min_derivatives,
    _require_grid_size,
    _require_ints,
    _require_reals,
    _warp_points,
    sobolev_embedding_constant,
)
from .noise import field_values, next_increments

__all__ = [
    "SimulationDiverged",
    "SolverConfig",
    "PathRecord",
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
        if not isinstance(self.alpha, ScalingSequence):
            raise ValueError(f"alpha must be a ScalingSequence, got {self.alpha!r}")
        _require_reals({"dt": self.dt, "radius": self.radius}, positive=True)
        _require_reals({"horizon": self.horizon})
        if self.horizon != 0 and self.dt > self.horizon:
            raise ValueError(f"horizon must be 0 or at least dt, got {self.horizon!r}")
        n = int(round(self.horizon / self.dt))
        if abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be an integer number of steps")
        # the last step index must fit the 64-bit noise counter
        _require_ints({"horizon / dt": n}, lo=0, hi=2**64)
        object.__setattr__(self, "n_steps", n)
        _require_ints({"mode_cutoff": self.mode_cutoff}, lo=1)
        _require_grid_size(self.grid_size, self.mode_cutoff)
        # 128 MiB per state at 2**24 points; larger fails in allocation
        _require_ints({"grid_size": self.grid_size}, lo=4, hi=2**24 + 1)
        # the H^k weight n^(2k) at the top grid mode 2**e stays finite
        # while 2ke < 1024, that is while k < 512 / e
        e = int(self.grid_size).bit_length() - 2
        _require_ints({"k": self.k}, lo=0, hi=-(-512 // e))
        if self.scheme not in ("euler", "heun"):
            raise ValueError("scheme must be 'euler' or 'heun'")
        weights = self.alpha.values(self.mode_cutoff)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True, eq=False)
class PathRecord:
    """Sampled trajectory as columns, with its hitting step and the states
    it reached at that step and at the end.

    ``step``, ``hk`` and ``min_deriv`` hold one entry per sample, in time
    order, each a read-only copy of the sequence it was built from;
    ``tau_step`` is the first step at which the H^k norm reached the radius
    (None without one).  The read-only columns ``t = step * dt`` (``step``
    unsigned, as the noise counter) and ``stopped = step >= tau_step`` are
    derived once, at construction; ``tau_r`` is ``tau_step * dt``.
    """

    step: np.ndarray
    hk: np.ndarray
    min_deriv: np.ndarray
    dt: float
    tau_step: int = None
    state_at_tau: CircleFunction = None
    final_state: CircleFunction = None
    t: np.ndarray = field(init=False)
    stopped: np.ndarray = field(init=False)

    def __post_init__(self):
        columns = {"step": np.uint64, "hk": float, "min_deriv": float}
        for name, dtype in columns.items():
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "t", self.step * self.dt)
        tau = np.inf if self.tau_step is None else self.tau_step
        object.__setattr__(self, "stopped", self.step >= tau)
        for name in (*columns, "t", "stopped"):
            getattr(self, name).flags.writeable = False

    @property
    def tau_r(self):
        """The hitting time ``tau_step * dt``, None without one."""
        return None if self.tau_step is None else self.tau_step * self.dt


# The solver fields every row of a block shares; rows may differ in their
# mode weights (cutoff and scaling sequence) and radius.
_SHARED = ("dt", "horizon", "grid_size", "k", "scheme")


def _check_shared(cfgs):
    """Raise ValueError unless the solvers ``cfgs`` agree in ``_SHARED``."""
    for cfg in cfgs[1:]:
        for name in _SHARED:
            if getattr(cfg, name) != getattr(cfgs[0], name):
                raise ValueError(
                    f"solvers stepped as one block must share {name}: "
                    f"{getattr(cfgs[0], name)!r} != {getattr(cfg, name)!r}"
                )


def _check_streams(streams, solvers):
    """Raise ValueError unless every stream draws at the largest cutoff and
    the dt of ``solvers``, the increments their block steps on, and no
    stream object is listed twice (each of its rows would advance it)."""
    if len({id(stream) for stream in streams}) < len(streams):
        raise ValueError("streams lists one stream object more than once")
    want = (
        ("mode_cutoff", max(c.mode_cutoff for c in solvers), "the largest cutoff"),
        ("dt", solvers[0].dt, "the dt"),
    )
    for stream in streams:
        for name, value, what in want:
            if getattr(stream, name) != value:
                raise ValueError(
                    f"stream {name} {getattr(stream, name)!r} != {value!r}, "
                    f"{what} of the solvers"
                )


@dataclass(frozen=True)
class _Block:
    """P solution rows stepped as one array: the ``(P, M)`` vector parts and
    their H^k norms, all at the integer ``step`` (time ``step * dt``, one
    rounding, not a running sum), with each row's mode weights (``(P, N+1)``,
    zero-padded to the largest cutoff N of the block) and the radius of its
    truncation scale (``_warped_points``).  A block holds no hitting steps:
    ``simulate_paths`` and ``flow_compose_check`` latch each row's first
    crossing step themselves.  ``coeffs`` holds the coefficient tables of
    ``x`` when a step built them (None in a starting block)."""

    x: np.ndarray
    step: int
    hk: np.ndarray
    weights: np.ndarray
    radius: np.ndarray
    coeffs: tuple = None

    @classmethod
    def start(cls, x, hk, solvers):
        """The block at step 0 of the ``(P, M)`` vector parts ``x`` and
        their H^k norms ``hk``, row ``i`` under the solver
        ``solvers[i % len(solvers)]``."""
        weights = np.zeros((len(solvers), max(c.mode_cutoff for c in solvers) + 1))
        for row, cfg in zip(weights, solvers):
            row[: cfg.weights.size] = cfg.weights
        paths = len(x) // len(solvers)
        weights = np.tile(weights, (paths, 1))
        weights.flags.writeable = False
        radius = np.tile(np.array([c.radius for c in solvers], dtype=float), paths)
        return cls(x, 0, np.asarray(hk, dtype=float), weights, radius)

    def take(self, rows):
        coeffs = None if self.coeffs is None else tuple(c[rows] for c in self.coeffs)
        return _Block(
            self.x[rows], self.step, self.hk[rows], self.weights[rows], self.radius[rows], coeffs
        )


def _advance(prev, new_values, cfg):
    """The block after a step to ``new_values``: finite check, coefficient
    tables and H^k norms (one ``rfft`` over the rows, as ``hk_norms``)."""
    if not np.all(np.isfinite(new_values)):
        raise SimulationDiverged(f"non-finite state at t={(prev.step + 1) * cfg.dt:.6g}")
    new_values.flags.writeable = False
    coeffs = _analyze(new_values)
    hk = _hk_norm(*coeffs, cfg.k)
    return _Block(new_values, prev.step + 1, hk, prev.weights, prev.radius, coeffs)


def _warped_points(block, cfg):
    """``theta + s x`` row by row, ``s`` the radial truncation scale at the
    row's own radius: 1 inside the ball, ``R / ||x||`` outside (boundary in)."""
    scale = block.radius / np.maximum(block.hk, block.radius)  # R / R is exactly 1
    return _grid_points(cfg.grid_size) + scale[:, None] * block.x


def _euler(block, db, cfg):
    """One explicit step of a block, row ``p`` driven by the increments
    ``db[p]``: x += field(id + x); drift-free since the stochastic
    contraction of the mode sum cancels (``stratonovich_correction``)."""
    fld = field_values(db, block.weights, _warped_points(block, cfg))
    return _advance(block, block.x + fld, cfg)


def _heun(block, db, cfg):
    """Midpoint predictor-corrector for the same increments.

    Used to probe the Ito/Stratonovich agreement numerically; the truncation
    rule is applied at both stage states so the scheme integrates the same
    truncated dynamics as the explicit step.
    """
    f0 = field_values(db, block.weights, _warped_points(block, cfg))
    pred = _advance(block, block.x + f0, cfg)
    f1 = field_values(db, block.weights, _warped_points(pred, cfg))
    return _advance(block, block.x + 0.5 * (f0 + f1), cfg)


_STEPPERS = {"euler": _euler, "heun": _heun}


def _on_record_grid(step, record_every, n_steps):
    """Whether step ``step`` of ``n_steps`` is on the record grid: step 0,
    every ``record_every``-th step, and the last step.  Elementwise over an
    array of steps; a ``record_every`` past ``n_steps`` keeps the steps that
    ``n_steps`` keeps, so it is capped there to fit the step column."""
    return (step % min(record_every, max(n_steps, 1)) == 0) | (step == n_steps)


def integrate(cfg, increments):
    """Yield the vector part after each increment under ``cfg.scheme``, as a
    ``CircleFunction``, stepping from the identity.

    One row stepped under ``_STEPPERS[cfg.scheme]``.  ``increments`` yields
    one ``(2N+1,)`` array per step, mode ``i - N`` at index ``i`` (as
    ``NoiseStream`` draws them).  The truncation of ``cfg`` applies at each
    step; the ``i``-th state yielded is at step ``i``, time ``i * dt``.
    Increments are pulled lazily, so a caller that stops early draws no more
    noise.  An increment of another shape is a ValueError, not broadcast.
    """
    block = _Block.start(np.zeros((1, cfg.grid_size)), np.zeros(1), [cfg])
    stepper = _STEPPERS[cfg.scheme]
    for db in _increment_rows(increments, cfg):
        block = stepper(block, db, cfg)
        yield CircleFunction(block.x[0])


def _increment_rows(increments, cfg):
    """Each of ``increments`` as a ``(1, 2N+1)`` row; ValueError, naming the
    shapes, for one that is not ``(2N+1,)``, N the cutoff of ``cfg``."""
    size = 2 * cfg.mode_cutoff + 1
    for inc in increments:
        if np.shape(inc) != (size,):
            raise ValueError(
                f"increment shape {np.shape(inc)} != ({size},), the 2N+1 modes of "
                f"mode_cutoff {cfg.mode_cutoff}"
            )
        yield inc[None]


def _path_rows(solvers, stop_after_hit):
    """The rows one path steps under ``solvers``: ``(row_solvers, barriers,
    where)``, solver ``i`` reading barrier ``j`` of row ``g`` for
    ``where[i] = (g, j)``.

    Under ``stop_after_hit`` and Euler the solvers that differ only in
    radius step as one row, under the largest of their radii, with their
    sorted distinct radii as its barriers.  Inside its ball the truncation
    scale is exactly 1, so up to a solver's own crossing the row is bitwise
    that solver's row, and the row leaves the block at the crossing of its
    last barrier.  Otherwise only equal solvers share a row: without
    ``stop_after_hit`` a row past its first crossing steps under a scale
    below 1 that depends on its radius, and Heun scales its predictor at
    the predictor's own norm, which may pass a radius before the state does.
    """
    shared_radius = stop_after_hit and solvers[0].scheme == "euler"
    keys = [(s.mode_cutoff, s.alpha) + (() if shared_radius else (s.radius,)) for s in solvers]
    members = {}
    for key, s in zip(keys, solvers):
        members.setdefault(key, []).append(s)
    row_of = {key: g for g, key in enumerate(members)}
    barriers = [sorted({s.radius for s in group}) for group in members.values()]
    where = [
        (row_of[key], barriers[row_of[key]].index(s.radius)) for key, s in zip(keys, solvers)
    ]
    row_solvers = [max(group, key=lambda s: s.radius) for group in members.values()]
    return row_solvers, barriers, where


def simulate_paths(solvers, streams, record_every=1, stop_after_hit=False):
    """Integrate every stream's path under every solver, as one block, from
    the identity to the horizon; returns the records of the
    ``(stream, solver)`` pairs, stream-major.

    The run advances each of the caller's ``streams`` by the steps it
    drew, so passing the same objects again continues their paths; a
    stream object may be listed once only (``_check_streams``).

    ``solvers`` is one solver or a sequence of them; they must agree in
    ``_SHARED`` and may differ in mode weights and radius.  A path steps one
    row per group of solvers (``_path_rows``): solvers that differ only in
    radius share a row under ``stop_after_hit`` and Euler, equal solvers
    always.
    Every stream draws at the largest cutoff of the solvers, once per step
    while any of its rows is live, and a row of a lower cutoff steps on
    zero-padded weights.  By the prefix-stable layout of the draws
    (``noise``) and the chunked field (``field_values``), whose chunk sums
    are products of a row's own data and exact over zero-padded modes, a row
    then steps bitwise as it does alone on its own-cutoff stream.

    The block steps under ``_STEPPERS[scheme]`` on ``next_increments``.
    A solver's hitting time is the first grid time at which its row's H^k
    norm reaches its radius, a barrier of the row; the barrier table
    (``bars``, ``crossed``, ``next_bar``) is the one first-crossing latch.
    At the first crossing of each barrier the row samples its norm, its
    ``min_deriv`` and its state.  A row continues under the truncated
    dynamics unless ``stop_after_hit``, which takes it out of the block
    after the step of its last crossing; nothing is drawn once no row is
    left.  Samples are kept every ``record_every`` steps (an integer >= 1)
    plus the initial state and the final step; their ``min_deriv`` comes
    from the coefficient tables the step built, in one batch per sampled
    step.  A solver's record is cut from its row at its ``tau_step``, read
    from ``at_crossing``: the grid samples (only those before it under
    ``stop_after_hit``) and the crossing sample.  Rows never mix, so a
    record does not depend on the other rows of the block.
    """
    _require_ints({"record_every": record_every}, lo=1)
    solvers = [solvers] if isinstance(solvers, SolverConfig) else list(solvers)
    _check_shared(solvers)
    _check_streams(streams, solvers)
    cfg, n_steps = solvers[0], solvers[0].n_steps
    row_solvers, barriers, where = _path_rows(solvers, stop_after_hit)
    n_rows = len(streams) * len(row_solvers)
    block = _Block.start(np.zeros((n_rows, cfg.grid_size)), np.zeros(n_rows), row_solvers)
    # each row's barriers, ascending, then inf; a row that has reached
    # ``crossed[r]`` of them waits for ``next_bar[r] = bars[r, crossed[r]]``
    bars = np.full((len(row_solvers), 1 + max(map(len, barriers))), np.inf)
    for row, b in zip(bars, barriers):
        row[: len(b)] = b
    bars = np.tile(bars, (len(streams), 1))
    crossed = np.zeros(n_rows, dtype=int)
    next_bar = bars[:, 0].copy()
    at_crossing = {}  # (row id, barrier) -> (step, state) at its first crossing
    rows = np.arange(n_rows)  # the row ids in the block
    # (row ids, step, hk, min_deriv, on the record grid) per sampled step;
    # at step 0 every row is the identity, whose 1 + x' is 1
    ones = np.ones(n_rows)
    sampled = [(rows, np.zeros(n_rows, dtype=np.uint64), block.hk, ones, ones > 0)]

    stepper = _STEPPERS[cfg.scheme]
    for i in range(1, n_steps + 1):
        if not rows.size:
            break
        block = stepper(block, next_increments(streams, rows // len(row_solvers)), cfg)
        new = block.hk >= next_bar[rows]
        for j in np.flatnonzero(new).tolist():
            r, state = int(rows[j]), CircleFunction(block.x[j])
            reached = int(np.searchsorted(bars[r], block.hk[j], side="right"))
            for b in range(crossed[r], reached):
                at_crossing[r, b] = (block.step, state)
            crossed[r], next_bar[r] = reached, bars[r, reached]
        on_grid = _on_record_grid(i, record_every, n_steps)
        if on_grid or new.any():
            at = slice(None) if on_grid else new
            md = _min_derivatives(*(c[at] for c in block.coeffs))
            grid = np.full(md.size, on_grid)
            step = np.full(md.size, block.step, dtype=np.uint64)
            sampled.append((rows[at], step, block.hk[at], md, grid))
        if stop_after_hit and new.any():
            keep = next_bar[rows] < np.inf
            rows, block = rows[keep], block.take(keep)
    # one stable sort by row id splits the samples per row, in time order
    ids, *columns = (np.concatenate(c) for c in zip(*sampled))
    order = np.argsort(ids, kind="stable")
    cuts = np.searchsorted(ids[order], np.arange(1, n_rows))
    per_row = list(zip(*(np.split(c[order], cuts) for c in columns)))
    # a row out of the block left it at its last crossing, so each of its
    # records ends at its own crossing state instead
    final = [None] * n_rows
    for j, r in enumerate(rows):
        final[r] = CircleFunction(block.x[j])

    records = []
    for first in range(0, n_rows, len(row_solvers)):
        for g, b in where:
            r = first + g
            step, hk, md, grid = per_row[r]
            tau, at_tau = at_crossing.get((r, b), (None, None))
            keep, fin = grid, final[r]
            if tau is not None:  # the crossing sample; none after it under stop_after_hit
                keep = (step == tau) | (grid & ~(stop_after_hit & (step > tau)))
                fin = at_tau if stop_after_hit else fin
            records.append(PathRecord(step[keep], hk[keep], md[keep], cfg.dt, tau, at_tau, fin))
    return records


def simulate_path(cfg, stream, record_every=1, stop_after_hit=False):
    """``simulate_paths`` for one stream, which the run advances: a second
    run on the same object continues its path, it does not replay it."""
    return simulate_paths(cfg, [stream], record_every, stop_after_hit)[0]


def concatenate(first, fresh, cfg, record_every=1):
    """Continue a stopped path by restarting from the identity and composing.

    A fresh solution y is run from the identity with the given stream for the
    remaining steps; returns ``(record, states)``, the record extending
    ``first`` (cut at its hitting time) with the samples of
    ``t -> (id + y_{t - tau}) o (id + xi)``, where xi is the state at the
    hitting time, and ``states`` the composed states of those samples, in
    order.  The map ``id + xi`` must be a diffeomorphism
    (``xi.min_derivative > 0``) for the composition to be a
    reparameterization, and the horizon of ``cfg`` must not end before the
    hitting time.  ``first`` must be sampled at the dt of ``cfg`` and its
    state at the hitting time live on the grid of ``cfg``, and ``fresh``
    must draw at the cutoff and dt of ``cfg``.  ``fresh`` is drawn from its
    own ``step_index`` on and left advanced by the remaining steps.
    """
    _require_ints({"record_every": record_every}, lo=1)
    _check_streams([fresh], [cfg])
    if first.dt != cfg.dt:
        raise ValueError(f"first record was not sampled at the solver's dt {cfg.dt!r}")
    tau_step, xi = first.tau_step, first.state_at_tau
    if tau_step is None or xi is None:
        raise ValueError("first record kept no hitting time and state to continue from")
    if xi.grid_size != cfg.grid_size:
        raise ValueError(f"hitting state grid {xi.grid_size} != solver grid {cfg.grid_size}")
    if not xi.min_derivative > 0.0:
        raise ValueError("state at the hitting time is not a diffeomorphism")
    remaining = cfg.n_steps - tau_step
    if remaining < 0:
        raise ValueError("the solver's horizon ends before the hitting time")

    xi_vals = xi.grid_values
    warp_pts = _warp_points(xi, xi.grid_size)
    steps, states = [], []
    increments = (fresh.next_increment() for _ in range(remaining))
    for i, state in enumerate(integrate(cfg, increments), 1):
        if _on_record_grid(i, record_every, remaining):
            steps.append(tau_step + i)
            states.append(CircleFunction(xi_vals + state.evaluate(warp_pts)))
    kept = first.step <= tau_step
    step = np.append(first.step[kept], np.array(steps, dtype=np.uint64))
    record = PathRecord(
        step,
        np.append(first.hk[kept], [f.hk_norm(cfg.k) for f in states]),
        np.append(first.min_deriv[kept], [f.min_derivative for f in states]),
        cfg.dt,
        tau_step,
        xi,
        states[-1] if states else xi,
    )
    return record, states


@dataclass(frozen=True)
class FlowCheckReport:
    sup_error: float
    window: float  # time of the last compared sample; None if none was compared
    n_checked: int
    runs: tuple = ()  # the two runs (from id, from xi) as PathRecords without states


def flow_compose_check(cfg, stream, xi, record_every=1):
    """Left-invariance probe: evolve from id and from the map ``id + xi``
    with one noise path.

    Runs x from 0 and y from ``xi`` as the two rows of one path, on its one
    increment per step, and reports sup over recorded times and grid points
    of |(id + y)(theta) - (id + x)(theta + xi(theta))|.  For the identity the two
    recursions coincide bit for bit; for rigid rotations the grid is mapped
    onto itself so only rounding enters; for generic warps the error is the
    band-limited interpolation of the composed state.

    The identity holds for the untruncated flow only, so a sample is
    compared only while neither run has stopped: each run latches its
    ``tau_step`` at the first step, recorded or not, at which its H^k norm
    reaches the truncation radius.  The two runs' records hold their sample
    columns and that hitting step, but no states.  ``stream`` must draw at
    the cutoff and dt of ``cfg``; the check advances it by the horizon's
    steps, so a second check on the same object sees the next steps' noise.
    """
    _require_ints({"record_every": record_every}, lo=1)
    _check_streams([stream], [cfg])
    if xi.grid_size != cfg.grid_size:
        raise ValueError("initial map must live on the solver grid")
    n_steps = cfg.n_steps
    warp_pts = _warp_points(xi, cfg.grid_size)

    # the start keeps xi's own coefficient tables, which may be exact, for
    # its norm and its min_deriv
    x = np.array([np.zeros(cfg.grid_size), xi.grid_values])
    block = _Block.start(x, [0.0, xi.hk_norm(cfg.k)], [cfg])
    both = np.zeros(2, dtype=int)  # the two rows step on the stream's one draw
    stepper = _STEPPERS[cfg.scheme]

    sup_error, window, checked = 0.0, None, 0
    sampled = []  # (step, hk, min_deriv) of both rows per recorded step
    start_md = [1.0, xi.min_derivative]
    hit = np.full(2, -1)  # each row's first step with hk >= R, -1 before it
    for i in range(n_steps + 1):
        block = stepper(block, next_increments([stream], both), cfg) if i else block
        hit[(hit < 0) & (block.hk >= cfg.radius)] = i
        if not _on_record_grid(i, record_every, n_steps):
            continue
        if (hit < 0).all():
            x_at_xi = CircleFunction(block.x[0]).evaluate(warp_pts)
            err = np.max(np.abs(block.x[1] - xi.grid_values - x_at_xi))
            sup_error = max(sup_error, float(err))
            window = i * cfg.dt
            checked += 1
        md = start_md if block.coeffs is None else _min_derivatives(*block.coeffs)
        sampled.append(([i] * 2, block.hk, md))
    columns = [np.array(c) for c in zip(*sampled)]  # each (samples, 2)
    taus = [None if h < 0 else int(h) for h in hit]
    runs = tuple(PathRecord(*(c[:, row] for c in columns), cfg.dt, taus[row]) for row in (0, 1))
    return FlowCheckReport(sup_error, window, checked, runs)


def diffeo_radius(k):
    """H^k radius below which every state is certified a diffeomorphism.

    One-sided: states inside the ball have sup |x'| < 1, hence positive warp
    derivative; nothing is claimed outside.
    """
    _require_ints({"k": k}, lo=2)  # the certificate controls the first derivative
    return 1.0 / sobolev_embedding_constant(k, 1)


def stratonovich_correction(f, basis):
    """The Ito-Stratonovich correction drift ``1/2 sum_n e_n'(w) e_n(w)``.

    Summed over the basis functions ``e_n``, ``|n| <= cutoff``, at the grid
    ``w`` warped by the map ``id + f``.  The modes n and -n contribute
    ``n (lam(-n)^2 - lam(n)^2) sin(n w) cos(n w) / 2``, so with equal cos and
    sin weights the drift vanishes, up to the rounding bounded by
    ``stratonovich_rounding_bound``, and the steppers integrate without any.
    """
    w = _warp_points(f, f.grid_size)
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
