"""Reproducible cylindrical Brownian increments, one scalar motion per mode.

Draws are counter-based: the Gaussian block for a step is generated by a
Philox bit generator keyed on the master seed with the counter set to
``(0, path_id, step_index, 0)``, so any (seed, path, step) triple can be
regenerated independently and ensembles parallelize without shared state.
A stream keeps one generator and resets its counter for each draw, which is
the same as building a fresh one at that counter.

A step's increments are one read-only ``(2N+1,)`` array of N(0, dt) draws
holding mode ``i - N`` at index ``i``, the row the block kernel steps on.

Within a step the normals are laid out in the interleaved mode order
``0, +1, -1, +2, -2, ...``.  That makes the draw for a given mode independent
of the cutoff: a run with a larger cutoff sees exactly the same increments on
the shared modes, which is what makes cutoff-doubling comparisons meaningful
path by path.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .circlefn import trig_sum

__all__ = ["NoiseStream", "field_values"]


@dataclass
class NoiseStream:
    """Per-path increment source; deterministic in (seed, path, step, mode)."""

    master_seed: int
    path_id: int
    mode_cutoff: int
    dt: float
    step_index: int = 0
    _gen: Generator = field(init=False, repr=False, compare=False)
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
        self._gen = Generator(Philox(key=self.master_seed))
        self._state = self._gen.bit_generator.state  # counter 0, empty buffer

    def increment_at(self, step):
        """Stateless draw for an arbitrary step (replay, refinement, offsets).

        The generator's counter is set to ``(0, path_id, step, 0)`` with an
        empty buffer, so the draw does not depend on earlier draws.
        """
        self._state["state"]["counter"] = [0, self.path_id, step, 0]
        self._gen.bit_generator.state = self._state
        z = self._gen.standard_normal(2 * self.mode_cutoff + 1)
        n = self.mode_cutoff
        d = np.empty(2 * n + 1)
        d[n] = z[0]
        d[n + 1 :] = z[1::2]
        d[n - 1 :: -1] = z[2::2]
        d *= np.sqrt(self.dt)
        d.flags.writeable = False
        return d

    def next_increment(self):
        inc = self.increment_at(self.step_index)
        self.step_index += 1
        return inc


def field_values(delta_b, weights, points):
    """sum_n dB_n e_n evaluated at arbitrary angles, as a raw array.

    ``weights[n]`` is the basis scale for |n| = n; the sign convention for
    negative modes is sin(n theta) with n < 0, i.e. -sin(|n| theta).  So the
    sum is ``Re sum_n c_n exp(i n theta)`` with ``c_n = w_n (dB_n + i dB_-n)``,
    evaluated by Horner's rule (``trig_sum``).  The modes lie on the last
    axis of ``delta_b``: a ``(P, 2N+1)`` block of increments is evaluated row
    by row at ``(P, M)`` points.
    """
    n_cut = (delta_b.shape[-1] - 1) // 2
    c = weights[1:] * (delta_b[..., n_cut + 1 :] + 1j * delta_b[..., n_cut - 1 :: -1])
    return trig_sum(weights[0] * delta_b[..., n_cut], c, points)
