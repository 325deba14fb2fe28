"""Scaling sequences, the scaled trigonometric basis, and the inclusion map.

A scaling sequence is a positive even function on the integers.  The rapidly
decreasing ones (exponential, gaussian) generate bases whose span stays inside
the smooth vector fields; the power-law family decays too slowly for that and
is kept only as the contrast case.

The scaled basis attaches weight ``lam(n)`` to ``cos(n theta)`` for ``n >= 0``
and to ``sin(n theta)`` for ``n < 0``.  Orthonormality is by fiat in
coefficient space: the norm of ``sum c_n e_n`` is the plain l2 norm of the
coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circlefn import CircleFunction

__all__ = [
    "ScalingSequence",
    "DerivedScaling",
    "ScaledBasis",
    "BasisPair",
    "basis_coefficients",
    "hlambda_norm",
    "inclusion_hs_norm",
    "inclusion_tail_bound",
    "q_lambda_trace",
]

_FAMILIES = ("exponential", "gaussian", "powerlaw")


@dataclass(frozen=True)
class ScalingSequence:
    """Positive even weight family lam(n), selected by name and parameter.

    exponential(c): exp(-c|n|)      rapidly decreasing
    gaussian(c):    exp(-c n^2)     rapidly decreasing
    powerlaw(p):    (1+|n|)^-p      NOT rapidly decreasing (contrast only)
    """

    family: str
    parameter: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown scaling family {self.family!r}")
        if not (math.isfinite(self.parameter) and self.parameter > 0):
            raise ValueError("scaling parameter must be finite and positive")

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
        return float(self.values(abs(n))[-1])

    def values(self, n_max):
        """Vector [lam(0), ..., lam(n_max)]."""
        n = np.arange(n_max + 1, dtype=float)
        if self.family == "exponential":
            return np.exp(-self.parameter * n)
        if self.family == "gaussian":
            return np.exp(-self.parameter * n * n)
        return (1.0 + n) ** (-self.parameter)

    @property
    def is_rapidly_decreasing(self):
        return self.family in ("exponential", "gaussian")

    def to_dict(self):
        return {"family": self.family, "parameter": self.parameter}

    @classmethod
    def from_dict(cls, d):
        parameter = d["parameter"]
        if isinstance(parameter, (bool, str)):  # float() would accept both
            raise ValueError(f"scaling parameter must be a number, got {parameter!r}")
        return cls(d["family"], float(parameter))


@dataclass(frozen=True)
class DerivedScaling:
    """The sequence |n| * base(n) for n != 0, pinned to base(0) at n = 0.

    This is the strong-norm partner of a rapidly decreasing base sequence;
    multiplying by |n| preserves rapid decay.
    """

    base: ScalingSequence

    def value_at(self, n):
        n = abs(n)
        return self.base.value_at(n) * (n if n else 1.0)

    def values(self, n_max):
        ramp = np.arange(n_max + 1, dtype=float)
        ramp[0] = 1.0
        return self.base.values(n_max) * ramp

    @property
    def is_rapidly_decreasing(self):
        return self.base.is_rapidly_decreasing


@dataclass(frozen=True)
class ScaledBasis:
    """Weighted trig modes e_n, |n| <= mode_cutoff, sampled on a working grid.

    The grid keeps a 4x margin over the mode band so that compositions stay
    below test tolerances when re-sampled.
    """

    scaling: object  # ScalingSequence or DerivedScaling
    mode_cutoff: int
    grid_size: int = 0

    def __post_init__(self):
        if self.mode_cutoff < 1:
            raise ValueError("mode cutoff must be >= 1")
        if self.grid_size == 0:
            object.__setattr__(self, "grid_size", 4 * self.mode_cutoff)
        if self.grid_size < 4 * self.mode_cutoff:
            raise ValueError("grid size must be at least 4 * mode_cutoff")
        if self.grid_size & (self.grid_size - 1):
            raise ValueError("grid size must be a power of two")

    def weight(self, n):
        return self.scaling.value_at(n)

    def weights(self):
        return self.scaling.values(self.mode_cutoff)

    def basis_function(self, n):
        """lam(n) cos(n theta) for n >= 0, lam(n) sin(n theta) for n < 0."""
        if abs(n) > self.mode_cutoff:
            raise ValueError(f"mode {n} outside cutoff {self.mode_cutoff}")
        w = self.weight(n)
        if n >= 0:
            return CircleFunction.harmonic(self.grid_size, n, cos_amp=w)
        # sin(n theta) = -sin(|n| theta) for n < 0
        return CircleFunction.harmonic(self.grid_size, -n, sin_amp=-w)


@dataclass(frozen=True)
class BasisPair:
    """A base sequence alpha together with its strong partner lam = |n| alpha.

    If ``lam`` is passed explicitly it must satisfy the relation exactly;
    in particular handing the same sequence for both slots is rejected.
    """

    alpha: ScalingSequence
    lam: object = None

    def __post_init__(self):
        if self.lam is None:
            object.__setattr__(self, "lam", DerivedScaling(self.alpha))
            return
        for n in range(9):
            expect = self.alpha.value_at(n) * (abs(n) if n else 1.0)
            if self.lam.value_at(n) != expect:
                raise ValueError(
                    "lam(n) must equal |n|*alpha(n) for n != 0 and alpha(0) at n=0"
                )

    def alpha_value(self, n):
        return self.alpha.value_at(n)

    def lambda_value(self, n):
        return self.lam.value_at(n)

    def alpha_basis(self, mode_cutoff, grid_size=0):
        return ScaledBasis(self.alpha, mode_cutoff, grid_size)

    def lambda_basis(self, mode_cutoff, grid_size=0):
        return ScaledBasis(self.lam, mode_cutoff, grid_size)


def basis_coefficients(f, basis):
    """Expansion coefficients of ``f`` over the basis modes |n| <= cutoff.

    Index layout: entry ``i`` holds mode ``i - cutoff`` (so sin modes first,
    the constant in the middle, cos modes last).
    """
    cutoff = basis.mode_cutoff
    a, b = f.coefficients
    if a.size - 1 < cutoff:
        raise ValueError("function grid too coarse for the basis cutoff")
    w = basis.weights()
    out = np.empty(2 * cutoff + 1)
    out[cutoff] = a[0] / w[0]
    out[cutoff + 1 :] = a[1 : cutoff + 1] / w[1:]
    out[cutoff - 1 :: -1] = -b[1 : cutoff + 1] / w[1:]
    return out


def hlambda_norm(f, basis):
    """Coefficient-space norm of the truncated expansion of ``f``."""
    return float(np.linalg.norm(basis_coefficients(f, basis)))


def inclusion_hs_norm(n_cutoff):
    """Hilbert-Schmidt norm of the truncated inclusion of the alpha space
    into the lam space of a ``BasisPair``; it does not depend on alpha.

    The inclusion sends the alpha mode n to ``(1/|n|)`` times the lam mode
    (coefficient 1 at n = 0), so the squared norm is the partial sum
    ``1 + sum_{0 < |n| <= N} 1/n^2``.  The dropped tail is below
    ``inclusion_tail_bound(N)``.
    """
    if n_cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    n = np.arange(1, n_cutoff + 1, dtype=float)
    return float(np.sqrt(1.0 + 2.0 * np.sum(1.0 / n**2)))


def inclusion_tail_bound(n_cutoff):
    """Upper bound for the dropped tail sum_{|n| > N} 1/n^2 < 2/N."""
    return 2.0 / n_cutoff


def q_lambda_trace(n_cutoff):
    """Trace of the truncated covariance = squared HS norm of the inclusion."""
    return inclusion_hs_norm(n_cutoff) ** 2
