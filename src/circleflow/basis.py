"""Scaling sequences and the scaled trigonometric basis.

A scaling sequence is a positive even function on the integers.  The rapidly
decreasing ones (exponential, gaussian) generate bases whose span stays inside
the smooth vector fields; the power-law family decays too slowly for that and
is kept only as the contrast case.

The scaled basis attaches weight ``lam(n)`` to ``cos(n theta)`` for ``n >= 0``
and to ``sin(n theta)`` for ``n < 0``.  Orthonormality is by fiat in
coefficient space: the norm of ``sum c_n e_n`` is the plain l2 norm of the
coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .circlefn import CircleFunction, _require_grid_size, _require_ints, _require_reals

__all__ = ["ScalingSequence", "ScaledBasis"]

_FAMILIES = ("exponential", "gaussian", "powerlaw")


@dataclass(frozen=True)
class ScalingSequence:
    """Positive even weight family lam(n), selected by name and parameter.

    exponential(c): exp(-c|n|)      rapidly decreasing
    gaussian(c):    exp(-c n^2)     rapidly decreasing
    powerlaw(p):    (1+|n|)^-p      NOT rapidly decreasing (contrast only)

    ``parameter`` is a finite real > 0, stored as a float.
    """

    family: str
    parameter: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown scaling family {self.family!r}")
        _require_reals({"parameter": self.parameter}, positive=True)
        object.__setattr__(self, "parameter", float(self.parameter))

    @classmethod
    def exponential(cls, c=1.0):
        return cls("exponential", c)

    @classmethod
    def gaussian(cls, c=1.0):
        return cls("gaussian", c)

    @classmethod
    def powerlaw(cls, p=1.5):
        return cls("powerlaw", p)

    def value_at(self, n):
        """lam(n), bitwise the entry |n| of ``values``."""
        _require_ints({"n": n})
        return float(self.values(abs(n))[-1])

    def values(self, n_max):
        """Vector [lam(0), ..., lam(n_max)], for an integer ``n_max >= 0``."""
        _require_ints({"n_max": n_max}, lo=0)
        n = np.arange(n_max + 1, dtype=float)
        if self.family == "exponential":
            return np.exp(-self.parameter * n)
        if self.family == "gaussian":
            return np.exp(-self.parameter * n * n)
        return (1.0 + n) ** (-self.parameter)

    @property
    def is_rapidly_decreasing(self):
        return self.family in ("exponential", "gaussian")

    @classmethod
    def from_dict(cls, d):
        return cls(d["family"], d["parameter"])


@dataclass(frozen=True)
class ScaledBasis:
    """Weighted trig modes e_n, |n| <= mode_cutoff, sampled on a working grid.

    The grid keeps a 4x margin over the mode band so that compositions stay
    below test tolerances when re-sampled.  ``scaling`` is read through its
    ``value_at`` and ``values`` only, so any object with those two methods
    serves as well as a ``ScalingSequence`` (a weight family modified in
    one mode, say).
    """

    scaling: ScalingSequence
    mode_cutoff: int
    grid_size: int

    def __post_init__(self):
        if not all(callable(getattr(self.scaling, m, None)) for m in ("value_at", "values")):
            raise ValueError(f"scaling must be a ScalingSequence, got {self.scaling!r}")
        _require_ints({"mode_cutoff": self.mode_cutoff}, lo=1)
        _require_grid_size(self.grid_size, self.mode_cutoff)

    def weight(self, n):
        """lam(n), for an integer ``n`` in ``[-N, N]``."""
        _require_ints({"n": n}, lo=-self.mode_cutoff, hi=self.mode_cutoff + 1)
        return self.scaling.value_at(n)

    def weights(self):
        return self.scaling.values(self.mode_cutoff)

    def basis_function(self, n):
        """lam(n) cos(n theta) for n >= 0, lam(n) sin(n theta) for n < 0."""
        w = self.weight(n)
        if n >= 0:
            return CircleFunction.harmonic(self.grid_size, n, cos_amp=w)
        # sin(n theta) = -sin(|n| theta) for n < 0
        return CircleFunction.harmonic(self.grid_size, -n, sin_amp=-w)
