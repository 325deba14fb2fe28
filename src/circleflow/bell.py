"""Bell polynomials, the composition-derivative formula, and bound certificates.

The combinatorial core is exact: admissible exponent sequences are enumerated
by backtracking over the two Diophantine constraints and coefficients are
integer arithmetic throughout, so there is no floating point doubt in the
term bookkeeping.  The certificates at the bottom turn the Hilbert-Schmidt
and local-Lipschitz estimates for the left-translation operator
``f -> (g -> g o (id+f))`` into checkable numerical reports.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circlefn import (
    _require_ints, _require_reals, _warp_points, hk_norms, sobolev_embedding_constant
)

__all__ = [
    "bell_polynomial",
    "compose_derivative",
    "warp_expansion_terms",
    "expansion_term_count",
    "HSBoundReport",
    "LipschitzReport",
    "hs_bound_certificate",
    "lipschitz_certificate",
]

MAX_ORDER = 12  # factorial bookkeeping is only exercised up to here


@lru_cache(maxsize=None)
def _monomials(n, k):
    """Monomials of the partial Bell polynomial B_{n,k}, read-only.

    Tuples ``(coefficient, exponents)`` where ``exponents`` ranges over the
    variables x_1..x_{n-k+1}; every monomial satisfies sum(j_i) = k and
    sum(i*j_i) = n.  The cache answers ``(3, 1.0)`` from the entry of
    ``(3, 1)``, equal keys, so the public callers check their orders too.
    """
    _require_ints({"n": n}, lo=1, hi=MAX_ORDER + 1)
    _require_ints({"k": k}, lo=0, hi=n + 1)
    return tuple(_enumerate_monomials(n, k))


def _enumerate_monomials(n, k):
    """All (coef, exponents) with sum j = k, sum i*j_i = n over x_1..x_{n-k+1}."""
    width = n - k + 1
    seq = [0] * width

    def rec(i, remaining_j, remaining_n):
        if i == width:
            if remaining_j == 0 and remaining_n == 0:
                coef = math.factorial(n)
                for idx, j in enumerate(seq, start=1):
                    coef //= math.factorial(j) * math.factorial(idx) ** j
                yield (coef, tuple(seq))
            return
        step = i + 1
        for j in range(min(remaining_j, remaining_n // step) + 1):
            seq[i] = j
            yield from rec(i + 1, remaining_j - j, remaining_n - step * j)
        seq[i] = 0

    yield from rec(0, k, n)


def bell_polynomial(n, k, xs):
    """Exact evaluation of the partial Bell polynomial B_{n,k}(x_1, ...)."""
    _require_ints({"n": n}, lo=1, hi=MAX_ORDER + 1)
    _require_ints({"k": k}, lo=0, hi=n + 1)
    monomials = _monomials(n, k)
    xs = np.asarray(xs, dtype=float)
    if k >= 1 and xs.size < n - k + 1:
        raise ValueError("need n - k + 1 variables")
    total = 0.0
    for coef, exps in monomials:
        term = float(coef)
        for x, j in zip(xs, exps):
            if j:
                term *= x**j
        total += term
    return total


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


# ---------------------------------------------------------------------------
# Expansion of d^k/dtheta^k [ e(theta + f(theta)) ] into monomial terms.
# ---------------------------------------------------------------------------


def warp_expansion_terms(k):
    """Fully expanded monomial terms of the k-th derivative of e o (id + f).

    With g = id + f one has g' = 1 + f' and g^(i) = f^(i) for i >= 2; the
    binomial powers of (1 + f') are expanded so that every returned term is

        coefficient * e^(j)(id + f) * prod_i (f^(i))^(p_i).

    Returns tuples ``(coefficient, j, powers)`` with ``powers`` a dict mapping
    derivative order i >= 1 to its exponent.
    """
    _require_ints({"k": k}, lo=1, hi=MAX_ORDER + 1)
    terms = []
    for j in range(1, k + 1):
        for coef, exps in _monomials(k, j):
            j1 = exps[0]
            base = {i + 1: e for i, e in enumerate(exps) if i >= 1 and e}
            for t in range(j1 + 1):
                powers = dict(base)
                if t:
                    powers[1] = powers.get(1, 0) + t
                terms.append((coef * math.comb(j1, t), j, powers))
    return terms


def expansion_term_count(k):
    """Number of expanded terms at order k, counted with multiplicity."""
    return sum(coef for coef, _, _ in warp_expansion_terms(k))


@dataclass(frozen=True)
class HSBoundReport:
    actual: float
    bound: float
    term_count: int
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
    ``lam(n)^2`` plus the square of the expanded term-by-term estimate

        coefficient * lam(n) |n|^j * (c_k ||f||_{H^k})^(deg)

    with the single top-derivative term measured in L2 (so one factor is
    ``||f||_{H^k}`` itself).  Every step of that chain is an inequality, so
    ``actual <= bound`` must hold whenever the aliasing margin is respected.
    """
    _require_ints({"k": k}, lo=1, hi=MAX_ORDER + 1)
    actual = np.sum(hk_norms(_warped_basis(basis, f), k) ** 2)

    f_hk = f.hk_norm(k)
    c_k = _embedding_for_order(k)
    n, lam = _modes(basis)
    terms = warp_expansion_terms(k)
    deriv_sum = 0.0
    for coef, j, powers in terms:
        deg = sum(powers.values())
        if powers.get(k, 0) >= 1:
            amp = f_hk * (c_k * f_hk) ** (deg - 1)
        else:
            amp = (c_k * f_hk) ** deg
        deriv_sum = deriv_sum + coef * lam * np.abs(n) ** j * amp
    bound = np.sum(lam**2 + deriv_sum**2)
    k_count = sum(coef for coef, _, _ in terms)
    return HSBoundReport(float(actual), float(bound), k_count, c_k, basis.mode_cutoff)


def lipschitz_certificate(f, g, k, radius, basis):
    """Local Lipschitz certificate for the composition operator.

    ``ratio`` is the measured HS-difference norm divided by the H^k distance
    (0 when both vanish); ``c_r`` is the closed-form constant

        ( sum_n lam(n)^2 |n|^2
              + K^2 lam(n)^2 |n|^(2k+2) c_k^(2k) R^(2k) )^(1/2)

    with K the expanded term count at order k.  Both inputs must lie in the
    H^k ball of the given radius.
    """
    _require_ints({"k": k}, lo=1, hi=MAX_ORDER + 1)
    _require_reals({"radius": radius}, positive=True)
    f_hk = f.hk_norm(k)
    g_hk = g.hk_norm(k)
    if f_hk > radius or g_hk > radius:
        raise ValueError("inputs must lie in the H^k ball of the given radius")

    diff = hk_norms(_warped_basis(basis, f) - _warped_basis(basis, g), k)
    denom = (f - g).hk_norm(k)
    ratio = 0.0 if denom == 0.0 else float(np.sqrt(np.sum(diff**2))) / denom

    c_k = _embedding_for_order(k)
    k_count = expansion_term_count(k)
    n, lam = _modes(basis)
    c_r_sq = np.sum(
        lam**2 * n**2
        + k_count**2 * lam**2 * np.abs(n) ** (2 * k + 2) * c_k ** (2 * k) * radius ** (2 * k)
    )
    return LipschitzReport(ratio, float(np.sqrt(c_r_sq)), radius, k_count, c_k)
