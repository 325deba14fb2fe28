"""Bell polynomials, the composition-derivative formula, and bound certificates.

The partial Bell polynomials B_{n,k} come from their recurrence in n and k,
one small table of floats per call with no monomial listed: integer inputs
give exact integers, and nonnegative inputs are only multiplied and added,
so every rounding is relative.  The certificates at the bottom turn the
Hilbert-Schmidt and local-Lipschitz estimates for the left-translation operator
``f -> (g -> g o (id+f))`` into checkable numerical reports: the HS bound is
Faà di Bruno's formula, ``bell_polynomial``, at a majorant jet of ``f``, and
the Lipschitz constant counts that formula's expanded terms, the Bell number
B_{k+1}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circlefn import (
    CircleFunction,
    _require_ints,
    _require_reals,
    _warp_points,
    hk_norms,
    sobolev_embedding_constant,
)

__all__ = [
    "bell_polynomial",
    "compose_derivative",
    "expansion_term_count",
    "HSBoundReport",
    "LipschitzReport",
    "hs_bound_certificate",
    "lipschitz_certificate",
]

MAX_ORDER = 12  # the tested orders; K^2 = B_{k+1}^2 is an exact float up to here


def bell_polynomial(n, k, xs):
    """The partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    By the recurrence B_{m,j} = sum_i C(m-1, i-1) x_i B_{m-i,j-1} (Comtet,
    *Advanced Combinatorics*, 1974, §3.3) from B_{m,1} = x_m, one row
    ``B_{j+d,j}``, d = 0..n-k, per j.  Integer inputs give exact results
    while the table's products and sums stay below 2**53.
    """
    _require_ints({"n": n}, lo=1, hi=MAX_ORDER + 1)
    _require_ints({"k": k}, lo=0, hi=n + 1)
    if k == 0:
        return 0.0
    width = n - k + 1
    xs = np.asarray(xs, dtype=float).tolist()
    if len(xs) < width:
        raise ValueError("need n - k + 1 variables")
    row = xs[:width]
    for j in range(2, k + 1):
        row = [
            sum(math.comb(j + d - 1, i) * xs[i] * row[d - i] for i in range(d + 1))
            for d in range(width)
        ]
    return row[-1]


def compose_derivative(f_jet, g_jet, n):
    """n-th derivative of f o g at x from the one-point jets of f and g.

    ``f_jet[i]`` holds f^(i) evaluated at g(x) and ``g_jet[i]`` holds g^(i)
    at x; both need at least n+1 entries.
    """
    f_jet = np.asarray(f_jet, dtype=float)
    g_jet = np.asarray(g_jet, dtype=float)
    _require_ints({"n": n}, lo=1, hi=MAX_ORDER + 1)
    if f_jet.size < n + 1 or g_jet.size < n + 1:
        raise ValueError("jets must carry at least n + 1 derivatives")
    total = 0.0
    for k in range(1, n + 1):
        total += f_jet[k] * bell_polynomial(n, k, g_jet[1 : n - k + 2])
    return float(total)


def expansion_term_count(k):
    """Terms of the k-th derivative of e o (id + f), counted with multiplicity.

    Faà di Bruno's formula with g = id + f, g' = 1 + f' and the binomial
    powers of 1 + f' expanded: monomial ``coef * x_1^e_1 ...`` of B_{k,j}
    stands for ``coef * 2^e_1`` terms, so the count is
    ``sum_j B_{k,j}(2, 1, ..., 1)``, the Bell number B_{k+1} (2, 5, 15, 52, ...).
    """
    _require_ints({"k": k}, lo=1, hi=MAX_ORDER + 1)
    xs = [2.0] + [1.0] * (k - 1)  # g' = 1 + f' counts twice
    return int(sum(bell_polynomial(k, j, xs) for j in range(1, k + 1)))


@dataclass(frozen=True)
class HSBoundReport:
    actual: float
    bound: float
    embedding_constant: float
    mode_cutoff: int

    @property
    def holds(self):
        return self.actual <= self.bound


@dataclass(frozen=True)
class LipschitzReport:
    ratio: float
    c_r: float
    radius: float
    term_count: int
    embedding_constant: float

    @property
    def holds(self):
        return self.ratio <= self.c_r


def _embedding_for_order(k):
    # factors f', ..., f^(k-1) are sup-bounded through H^k; one constant
    # serving every order that occurs
    if k == 1:
        return sobolev_embedding_constant(1, 0)
    return max(sobolev_embedding_constant(k, m) for m in range(1, k))


def _modes(basis):
    """Columns of the modes ``n = -N..N`` and of the even weights ``lam(n)``."""
    n = np.arange(-basis.mode_cutoff, basis.mode_cutoff + 1, dtype=float)[:, None]
    return n, basis.weights()[np.abs(n).astype(int)]


def _warped_basis(basis, f):
    """The warped basis ``e_n o (id + f)``, |n| <= N, as one ``(2N+1, M)`` array.

    Row ``n + N`` holds ``lam(n) cos(n w)`` for ``n >= 0`` and
    ``lam(n) sin(n w)`` for ``n < 0``, evaluated directly at the points ``w``
    where ``compose`` samples (``_warp_points`` on the finer of the grids).
    Each row evaluates only the function it keeps.
    """
    w = _warp_points(f, max(basis.grid_size, f.grid_size))
    n, lam = _modes(basis)
    cut = basis.mode_cutoff  # rows 0..cut-1 hold n < 0
    rows = np.empty((n.size, w.size))
    np.sin(n[:cut] * w, out=rows[:cut])
    np.cos(n[cut:] * w, out=rows[cut:])
    rows *= lam
    return rows


def hs_bound_certificate(f, k, basis):
    """Certify that the composition operator at ``f`` is Hilbert-Schmidt.

    ``actual`` is the direct sum of squared H^k norms of the warped basis
    functions over |n| <= cutoff.  ``bound`` adds up, per mode, the L2 part
    ``lam(n)^2`` plus the square of Faà di Bruno's formula for the k-th
    derivative of ``e_n o (id + f)`` at the majorant jet

        lam(n) sum_{j=1..k} |n|^j B_{k,j}(1 + X, X, ..., X, ||f||_{H^k}),

    where ``X = c_k ||f||_{H^k}`` bounds f', ..., f^(k-1) in sup and the top
    derivative f^(k) is measured in L2 (for k = 1 the jet is
    ``1 + ||f||_{H^1}``).  B_{k,j} has positive coefficients, so this is the
    binomially expanded estimate bounded term by term.  Every step of that
    chain is an inequality, so ``actual <= bound`` must hold whenever the
    aliasing margin is respected.  A bound past the float range reads inf.
    """
    _require_ints({"k": k}, lo=1, hi=MAX_ORDER + 1)
    if not isinstance(f, CircleFunction):
        raise TypeError("f must be a CircleFunction")
    actual = np.sum(hk_norms(_warped_basis(basis, f), k) ** 2)

    f_hk = f.hk_norm(k)
    c_k = _embedding_for_order(k)
    n, lam = _modes(basis)
    with np.errstate(over="ignore"):
        jet = [c_k * f_hk] * (k - 1) + [f_hk]
        jet[0] += 1.0  # g' = 1 + f'
        b = [bell_polynomial(k, j, jet) for j in range(1, k + 1)]
        if np.isinf(b).any():  # inf, not the nan of 0^j * inf at n = 0
            bound = math.inf
        else:
            deriv = sum(lam * np.abs(n) ** j * b_j for j, b_j in enumerate(b, start=1))
            bound = np.sum(lam**2 + deriv**2)
    return HSBoundReport(float(actual), float(bound), c_k, basis.mode_cutoff)


def lipschitz_certificate(f, g, k, radius, basis):
    """Local Lipschitz certificate for the composition operator.

    ``ratio`` is the measured HS-difference norm divided by the H^k distance
    (0 when both vanish); ``c_r`` is the closed-form constant

        ( sum_n lam(n)^2 |n|^2
              + K^2 lam(n)^2 |n|^(2k+2) c_k^(2k) R^(2k) )^(1/2)

    with K = ``expansion_term_count(k)``, the Bell number B_{k+1}.  A
    constant past the float range reads inf.  Both inputs must lie in the
    H^k ball of the given radius.
    """
    _require_ints({"k": k}, lo=1, hi=MAX_ORDER + 1)
    _require_reals({"radius": radius}, positive=True)
    for name, fn in {"f": f, "g": g}.items():
        if not isinstance(fn, CircleFunction):
            raise TypeError(f"{name} must be a CircleFunction")
    f_hk = f.hk_norm(k)
    g_hk = g.hk_norm(k)
    if f_hk > radius or g_hk > radius:
        raise ValueError("inputs must lie in the H^k ball of the given radius")

    denom = (f - g).hk_norm(k)  # first: it names a grid mismatch
    diff = hk_norms(_warped_basis(basis, f) - _warped_basis(basis, g), k)
    ratio = 0.0 if denom == 0.0 else float(np.sqrt(np.sum(diff**2))) / denom

    c_k = _embedding_for_order(k)
    k_count = expansion_term_count(k)
    n, lam = _modes(basis)
    with np.errstate(over="ignore"):
        r_2k = np.float64(radius) ** (2 * k)
        c_r_sq = math.inf if np.isinf(r_2k) else np.sum(  # not the nan of 0 * inf at n = 0
            lam**2 * n**2
            + k_count**2 * lam**2 * np.abs(n) ** (2 * k + 2) * c_k ** (2 * k) * r_2k
        )
    return LipschitzReport(ratio, float(np.sqrt(c_r_sq)), radius, k_count, c_k)
