"""Reproducible cylindrical Brownian increments, one scalar motion per mode.

Draws are counter-based: the Gaussian block for a step is generated by a
Philox bit generator keyed on the master seed with the counter set to
``(0, path_id, step_index, 0)``, so any (seed, path, step) triple can be
regenerated independently and ensembles parallelize without shared state.
A stream keeps one generator and resets its counter for each draw, which is
the same as building a fresh one at that counter.

A step's increments are one read-only ``(2N+1,)`` array of N(0, dt) draws
holding mode ``i - N`` at index ``i``, the row the block kernel steps on.
``next_increments`` draws the next step of many streams in one pass, each
stream filling its own row of normals, and lays them out and scales them
for the whole block at once; the rows are bitwise those of ``increment_at``.

Within a step the normals are laid out in the interleaved mode order
``0, +1, -1, +2, -2, ...``.  That makes the draw for a given mode independent
of the cutoff: a run with a larger cutoff sees exactly the same increments on
the shared modes, which is what makes cutoff-doubling comparisons meaningful
path by path.  It also lets solvers of different cutoffs share one stream,
drawn at the largest of them.

``numpy.random`` loads with the first ``NoiseStream``, not with this module,
so a command that draws nothing (or has not drawn yet) does not pay for it.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circlefn import chunked_trig_sum

__all__ = ["NoiseStream", "next_increments", "field_values"]


@dataclass
class NoiseStream:
    """Per-path increment source; deterministic in (seed, path, step, mode).

    A block steps each path under every solver of the block, one row each
    (``flow.simulate_paths``), and the path's one stream drives all of those
    rows: it draws at the largest cutoff of the solvers, once per step while
    any of the rows is live, so a row that stops early leaves it running
    for the others.
    """

    master_seed: int
    path_id: int
    mode_cutoff: int
    dt: float
    step_index: int = 0
    _gen: object = field(init=False, repr=False, compare=False)  # numpy Generator
    _state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in 64 bits")
        # both are Philox counter words
        if not (0 <= self.path_id < 2**64 and 0 <= self.step_index < 2**64):
            raise ValueError("path id and step index must lie in [0, 2**64)")
        if self.mode_cutoff < 1:
            raise ValueError("mode cutoff must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        from numpy.random import Generator, Philox

        self._gen = Generator(Philox(key=self.master_seed))
        self._state = self._gen.bit_generator.state  # counter 0, empty buffer

    def increment_at(self, step):
        """Stateless draw for an arbitrary step (replay, refinement, offsets).

        The generator's counter is set to ``(0, path_id, step, 0)`` with an
        empty buffer, so the draw does not depend on earlier draws.
        """
        z = np.empty(2 * self.mode_cutoff + 1)
        self._normals_at(step, z)
        d = z[_layout(self.mode_cutoff)]
        d *= np.sqrt(self.dt)
        d.flags.writeable = False
        return d

    def next_increment(self):
        inc = self.increment_at(self.step_index)
        self.step_index += 1
        return inc

    def _normals_at(self, step, out):
        """Fill ``out`` with the standard normals of step ``step``, in drawing
        order: the counter is set to ``(0, path_id, step, 0)``, buffer empty."""
        self._state["state"]["counter"] = [0, self.path_id, step, 0]
        self._gen.bit_generator.state = self._state
        self._gen.standard_normal(out=out)


@lru_cache
def _layout(n):
    """Index of mode ``i - N`` among a step's normals, for each ``i``: the
    interleaved order ``0, +1, -1, +2, -2, ...`` of the draws (read-only)."""
    modes = np.arange(-n, n + 1)
    order = np.where(modes > 0, 2 * modes - 1, -2 * modes)
    order.flags.writeable = False
    return order


def next_increments(streams, paths):
    """The next increments of ``streams[p]`` for each ``p`` in ``paths``, as
    one ``(len(paths), 2N+1)`` array laid out as ``increment_at`` lays out
    one step.

    A path may repeat in ``paths``, its rows sharing one draw: each stream
    named draws its next step once, into its own row of normals, and
    advances; the others neither draw nor advance.  One gather then lays
    out every row and one multiply scales the block by ``sqrt(dt)``: the
    same permutation and the same product as ``increment_at``, so each row
    is bitwise its draw.  The streams share ``mode_cutoff`` and ``dt``.
    """
    n = streams[0].mode_cutoff
    normals = np.empty((len(streams), 2 * n + 1))
    for p in set(paths.tolist()):
        stream = streams[p]
        stream._normals_at(stream.step_index, normals[p])
        stream.step_index += 1
    incs = normals[paths[:, None], _layout(n)]
    incs *= np.sqrt(streams[0].dt)
    return incs


def field_values(delta_b, weights, points):
    """sum_n dB_n e_n evaluated at arbitrary angles, as a raw array.

    ``weights[n]`` is the basis scale for |n| = n; the sign convention for
    negative modes is sin(n theta) with n < 0, i.e. -sin(|n| theta).  So the
    sum is ``Re sum_n c_n exp(i n theta)`` with ``c_n = w_n (dB_n + i dB_-n)``,
    evaluated in chunks of eight modes (``chunked_trig_sum``).  The modes lie
    on the last axis of ``delta_b``: a ``(P, 2N+1)`` block of increments is
    evaluated row by row at ``(P, M)`` points, under one ``(N+1,)`` row of
    weights or a ``(P, N+1)`` row per increment row.  A row's chunk sums are
    products of its own coefficients and powers only, so its values do not
    depend on the other rows.  Weights zero-padded to the cutoff of the
    increments leave the values bitwise those of the unpadded sum: the
    padded modes hold zero coefficients, which fill the row's last chunk
    as its own zero padding does, a chunk of zeros sums to exact zero, and
    Horner's rule over exact zeros is exact.
    """
    n_cut = (delta_b.shape[-1] - 1) // 2
    c = weights[..., 1:] * (delta_b[..., n_cut + 1 :] + 1j * delta_b[..., n_cut - 1 :: -1])
    return chunked_trig_sum(weights[..., 0] * delta_b[..., n_cut], c, points)
