import math
from fractions import Fraction

import numpy as np
import pytest

from circleflow import (
    CircleFunction,
    ScaledBasis,
    ScalingSequence,
    bell_polynomial,
    compose,
    compose_derivative,
    grid_points,
    hs_bound_certificate,
    lipschitz_certificate,
)
from circleflow.bell import (
    MAX_ORDER,
    _embedding_for_order,
    _modes,
    _warped_basis,
    expansion_term_count,
)
from conftest import random_band_limited

# B_1, ..., B_13
BELL_NUMBERS = (
    1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437
)


def set_partitions(items):
    """All partitions of a list into blocks (oracle, exponential cost)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def integer_partitions(n, largest=None):
    """The partitions of n as non-increasing tuples (oracle)."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def _monomials(n, k):
    """Monomials ``(coefficient, exponents)`` of B_{n,k}, one per partition
    of n into k parts, ``exponents`` the part multiplicities over
    x_1..x_{n-k+1} and the coefficient n! / prod_i (j_i! i!^j_i) (oracle)."""
    monomials = []
    for parts in integer_partitions(n):
        if len(parts) != k:
            continue
        exps = tuple(parts.count(i) for i in range(1, n - k + 2))
        coef = math.factorial(n)
        for i, j in enumerate(exps, start=1):
            coef //= math.factorial(j) * math.factorial(i) ** j
        monomials.append((coef, exps))
    return tuple(monomials)


def monomial_sum(n, k, xs):
    """B_{n,k} at ``xs`` summed over ``_monomials``, in the arithmetic of
    ``xs`` (exact for ints and Fractions)."""
    return sum(
        coef * math.prod(x**j for x, j in zip(xs, exps)) for coef, exps in _monomials(n, k)
    )


def bell_via_partitions(n, k, xs):
    """B_{n,k} as a sum over set partitions weighted by block sizes."""
    total = 0
    for part in set_partitions(list(range(n))):
        if len(part) != k:
            continue
        term = 1
        for block in part:
            term *= xs[len(block) - 1]
        total += term
    return total


class TestBellPolynomial:
    def test_chain_rule_base_case(self):
        assert bell_polynomial(1, 1, [3.5]) == 3.5

    def test_b32(self):
        # B_{3,2}(x1, x2) = 3 x1 x2
        assert bell_polynomial(3, 2, [2.0, 5.0]) == 30.0
        assert bell_via_partitions(3, 2, [2, 5]) == 30

    def test_b42_stirling(self):
        # B_{4,2}(1,1,1) = 3 x2^2 + 4 x1 x3 at ones = 7 = S(4,2)
        assert bell_polynomial(4, 2, [1.0, 1.0, 1.0]) == 7.0
        assert stirling2(4, 2) == 7

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            bell_polynomial(3, 4, [1, 1, 1])
        with pytest.raises(ValueError):
            bell_polynomial(0, 0, [])

    def test_matches_partition_oracle_exactly(self, rng):
        # integer inputs keep both sides in exact arithmetic
        for n in range(1, 9):
            xs = [int(v) for v in rng.integers(-3, 4, n)]
            for k in range(0, n + 1):
                ours = bell_polynomial(n, k, [float(x) for x in xs[: n - k + 1]])
                oracle = bell_via_partitions(n, k, xs)
                assert ours == oracle

    def test_oracle_matches_set_partitions(self, rng):
        # the monomials from integer partitions against the set partitions
        for n in range(1, 9):
            xs = [int(v) for v in rng.integers(-3, 4, n)]
            for k in range(0, n + 1):
                assert monomial_sum(n, k, xs) == bell_via_partitions(n, k, xs)

    @pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
    def test_float_inputs_match_the_oracle(self, rng, n):
        # B_{n,k} by its recurrence rounds each product twice and sums at
        # most n - k + 1 of them per level, over k - 1 levels: fewer than
        # k (n - k + 2) roundings on any path, so the error is below that
        # many eps times B_{n,k} at |x| (both exact in Fractions).
        eps = Fraction(np.finfo(float).eps)
        for k in range(0, n + 1):
            for _ in range(3):
                xs = rng.uniform(-2.0, 2.0, n - k + 1).tolist()
                exact = monomial_sum(n, k, [Fraction(x) for x in xs])
                majorant = monomial_sum(n, k, [abs(Fraction(x)) for x in xs])
                error = abs(Fraction(bell_polynomial(n, k, xs)) - exact)
                assert error <= k * (n - k + 2) * eps * majorant

    def test_infinite_input_gives_inf(self):
        # B_{3,2} = 3 x1 x2: no 0 * inf from a table row of B_{m,0}
        assert bell_polynomial(3, 2, [math.inf, 1.0]) == math.inf

    @pytest.mark.parametrize("xs", [[], [math.nan], [1.0, 2.0]], ids=["empty", "nan", "two"])
    def test_order_zero_is_zero(self, xs):
        for n in range(1, MAX_ORDER + 1):
            assert bell_polynomial(n, 0, xs) == 0.0

    def test_row_sums_are_stirling_numbers(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                assert bell_polynomial(n, k, np.ones(max(n - k + 1, 1))) == stirling2(n, k)

    def test_row_totals_are_bell_numbers(self):
        for n in range(1, 9):
            total = sum(bell_polynomial(n, k, np.ones(n - k + 1)) for k in range(n + 1))
            assert total == BELL_NUMBERS[n - 1]

    def test_table_monomial_constraints(self):
        for n in range(1, 9):
            for k in range(n + 1):
                for coef, exps in _monomials(n, k):
                    assert coef >= 1
                    assert sum(exps) == k
                    assert sum(i * j for i, j in enumerate(exps, start=1)) == n

    def test_orders_above_max_order_are_rejected(self):
        top = MAX_ORDER + 1
        with pytest.raises(ValueError):
            bell_polynomial(top, 1, np.ones(top))
        with pytest.raises(ValueError):
            compose_derivative(np.ones(top + 1), np.ones(top + 1), top)
        with pytest.raises(ValueError):
            expansion_term_count(top)
        # the largest order is still served
        assert bell_polynomial(MAX_ORDER, MAX_ORDER, [1.0]) == 1.0

    def test_too_few_variables_are_rejected(self):
        with pytest.raises(ValueError, match="need n - k \\+ 1 variables"):
            bell_polynomial(4, 2, [1.0])


class TestComposeDerivative:
    def test_first_order_chain_rule(self, rng):
        for _ in range(20):
            fp, gp, fv, gv = rng.normal(size=4)
            assert compose_derivative([fv, fp], [gv, gp], 1) == pytest.approx(fp * gp, rel=1e-14)

    def test_sin_of_square(self):
        # d^2/dx^2 sin(x^2) at x=1 is 2cos(1) - 4sin(1)
        f_jet = [np.sin(1.0), np.cos(1.0), -np.sin(1.0)]
        g_jet = [1.0, 2.0, 2.0]
        expected = 2.0 * np.cos(1.0) - 4.0 * np.sin(1.0)
        got = compose_derivative(f_jet, g_jet, 2)
        assert got == pytest.approx(expected, rel=1e-14)
        # central finite difference cross-check
        h = 1e-4
        x = np.array([1.0 - h, 1.0, 1.0 + h])
        vals = np.sin(x**2)
        fd = (vals[2] - 2.0 * vals[1] + vals[0]) / h**2
        assert got == pytest.approx(fd, rel=1e-6)

    def test_identity_warp_returns_plain_derivative(self, rng):
        for n in range(1, 7):
            f_jet = rng.normal(size=n + 1)
            g_jet = np.zeros(n + 1)
            g_jet[0] = 0.7
            g_jet[1] = 1.0
            assert compose_derivative(f_jet, g_jet, n) == pytest.approx(f_jet[n], rel=1e-14)

    def test_rejects_short_jets(self):
        with pytest.raises(ValueError):
            compose_derivative([1.0, 2.0], [0.0, 1.0, 0.5], 2)


def expanded_terms(k):
    """Reference: the k-th derivative of e o (id + f) fully expanded.

    Faà di Bruno's formula with g = id + f, g' = 1 + f' and g^(i) = f^(i)
    for i >= 2, the binomial powers of 1 + f' expanded, so that every term is

        coefficient * e^(j)(id + f) * prod_i (f^(i))^(p_i).

    Tuples ``(coefficient, j, powers)``, ``powers`` a dict mapping the
    derivative order i >= 1 to its exponent.
    """
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


def term_by_term_bound(f, k, basis):
    """Reference for ``hs_bound_certificate``'s bound: each expanded term
    bounded by ``coefficient lam(n) |n|^j`` times ``c_k ||f||_{H^k}`` per
    factor, except the top derivative's, ``||f||_{H^k}`` (it is in L2)."""
    f_hk = f.hk_norm(k)
    c_k = _embedding_for_order(k)
    n, lam = _modes(basis)
    deriv = 0.0
    for coef, j, powers in expanded_terms(k):
        deg = sum(powers.values())
        if powers.get(k, 0) >= 1:
            amp = f_hk * (c_k * f_hk) ** (deg - 1)
        else:
            amp = (c_k * f_hk) ** deg
        deriv = deriv + coef * lam * np.abs(n) ** j * amp
    return float(np.sum(lam**2 + deriv**2))


class TestWarpExpansion:
    def test_order_two_terms(self):
        terms = {(coef, j, tuple(sorted(p.items()))) for coef, j, p in expanded_terms(2)}
        assert terms == {
            (1, 1, ((2, 1),)),     # e' f''
            (1, 2, ()),            # e''
            (2, 2, ((1, 1),)),     # 2 e'' f'
            (1, 2, ((1, 2),)),     # e'' (f')^2
        }
        assert expansion_term_count(2) == 5

    def test_count_at_least_partition_count(self):
        for k in range(1, 7):
            partitions = sum(len(_monomials(k, j)) for j in range(1, k + 1))
            assert expansion_term_count(k) >= partitions

    def test_count_is_the_bell_number_of_the_next_order(self):
        for k in range(1, MAX_ORDER + 1):
            assert expansion_term_count(k) == BELL_NUMBERS[k]
            assert expansion_term_count(k) == sum(coef for coef, _, _ in expanded_terms(k))

    def test_only_top_term_carries_highest_derivative(self):
        for n in range(2, 9):
            assert _monomials(n, 1) == ((1, tuple([0] * (n - 1) + [1])),)
            assert bell_polynomial(n, 1, np.arange(1.0, n + 1)) == n


def _old_warped_basis(basis, f):
    """Reference for ``_warped_basis``: the per-mode loop the certificates
    ran before, one ``compose`` of each basis function with id + f."""
    cutoff = basis.mode_cutoff
    rows = [compose(basis.basis_function(n), f) for n in range(-cutoff, cutoff + 1)]
    return np.array([e.grid_values for e in rows])


class TestWarpedBasis:
    @pytest.mark.parametrize("zero", [False, True], ids=["warped", "zero-state"])
    @pytest.mark.parametrize(
        "basis_grid, f_grid", [(64, 64), (128, 64), (64, 128)], ids=["equal", "f-coarser", "f-finer"]
    )
    def test_rows_match_per_mode_compose(self, rng, basis_grid, f_grid, zero):
        cutoff = 16
        basis = ScaledBasis(ScalingSequence.exponential(1.0), cutoff, basis_grid)
        f = random_band_limited(rng, f_grid, 5)
        f = f * (0.0 if zero else 0.3 / f.hk_norm(2))
        block = _warped_basis(basis, f)
        ref = _old_warped_basis(basis, f)
        assert block.shape == ref.shape == (2 * cutoff + 1, max(basis_grid, f_grid))
        # Both sides sample the same points w.  Horner's rule is within
        # 4 eps (|n| + 1) lam (see stratonovich_rounding_bound); cos(n w) and
        # sin(n w) carry the rounding of n w, eps |n| max|w|, plus one ulp for
        # the call and one for the product with lam.  At the zero state the
        # reference is the synthesized mode, well inside the same bound.
        n = np.abs(np.arange(-cutoff, cutoff + 1))
        lam = np.array([basis.weight(m) for m in range(-cutoff, cutoff + 1)])
        theta = grid_points(block.shape[1])
        w_max = np.max(np.abs(theta + f.evaluate(theta)))
        eps = np.finfo(float).eps
        bound = lam * eps * (4 * (n + 1) + n * w_max + 2)
        assert np.all(np.max(np.abs(block - ref), axis=1) <= bound)


class TestHSCertificate:
    def test_zero_state_matches_closed_form(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 32, 128)
        rep = hs_bound_certificate(CircleFunction.zero(128), 2, basis)
        closed = 1.0 + sum(math.exp(-2 * n) * (1 + n**4) for n in range(1, 33))
        assert rep.actual == pytest.approx(closed, rel=1e-10)
        assert rep.holds

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    def test_zero_state_bound_matches_closed_form(self, k):
        # At f = 0 the jet is (1, 0, ..., 0) and only B_{k,k} = x_1^k = 1
        # remains: mode n adds lam(n)^2 (1 + n^2k) and -n the same.  The
        # closed form rounds 3 times per term and once in fsum; the bound
        # about 6 times per mode and at most 2N times in its sum.
        cutoff = 32
        basis = ScaledBasis(ScalingSequence.exponential(1.0), cutoff, 128)
        lam = basis.weights()
        closed = math.fsum(
            [lam[0] ** 2] + [2 * lam[n] ** 2 * (1 + n ** (2 * k)) for n in range(1, cutoff + 1)]
        )
        bound = hs_bound_certificate(CircleFunction.zero(128), k, basis).bound
        assert bound == pytest.approx(closed, rel=(2 * cutoff + 10) * np.finfo(float).eps)

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    def test_bound_matches_the_term_by_term_oracle(self, rng, k):
        # Both sides add and multiply nonnegative numbers, so each is within
        # (number of roundings on a term's path) eps of the exact bound:
        # the oracle about 2T + 2k + 2N + 10 for T expanded terms.  Faà di
        # Bruno rounds 1 + X once and B_{k,j} by its recurrence at most
        # (j - 1)(k - j + 2) times, so B_{k,j} at the jet carries at most
        # j (k - j + 3) <= (k + 3)^2 / 4; two products and k - 1 sums per
        # mode, the square, adding lam^2 and the sum over 2N + 1 modes make
        # about (k + 3)^2 / 2 + 2k + 2N + 4.
        cutoff = 16
        basis = ScaledBasis(ScalingSequence.exponential(0.5), cutoff, 64)
        terms = len(expanded_terms(k))
        rel = (2 * terms + (k + 3) ** 2 / 2 + 4 * k + 4 * cutoff + 14) * np.finfo(float).eps
        for _ in range(5):
            f = random_band_limited(rng, 64, 5)
            f = f * (rng.uniform(0.0, 2.0) / f.hk_norm(k))
            bound = hs_bound_certificate(f, k, basis).bound
            assert bound == pytest.approx(term_by_term_bound(f, k, basis), rel=rel)

    def test_bound_past_the_float_range_reads_inf(self):
        # X^12 passes the float range at ||f||_{H^12} near 1e25; nothing
        # warns (the suite makes a RuntimeWarning an error)
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 16, 64)
        rep = hs_bound_certificate(CircleFunction.harmonic(64, 1, sin_amp=1e30), 12, basis)
        assert (rep.bound, rep.holds) == (math.inf, True)

    def test_small_sine_below_bound(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 32, 128)
        f = CircleFunction.harmonic(128, 1, sin_amp=0.1)
        rep = hs_bound_certificate(f, 2, basis)
        assert np.isfinite(rep.actual)
        assert rep.holds

    def test_rejects_k_zero(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 4, 16)
        with pytest.raises(ValueError):
            hs_bound_certificate(CircleFunction.zero(16), 0, basis)

    def test_rejects_a_state_that_is_no_function(self):
        # an AttributeError from inside the certificate at the parent
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 8, 64)
        with pytest.raises(TypeError, match="^f must be a CircleFunction$"):
            hs_bound_certificate(np.zeros(64), 2, basis)


class TestLipschitzCertificate:
    def test_constant_past_the_float_range_reads_inf(self):
        # R^24 passes the float range from R near 1e12.8; nothing warns
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 16, 64)
        f = CircleFunction.harmonic(64, 1, sin_amp=0.1)
        g = CircleFunction.harmonic(64, 1, cos_amp=0.1)
        rep = lipschitz_certificate(f, g, 12, 1e13, basis)
        assert (rep.c_r, rep.holds) == (math.inf, True)

    def test_identical_inputs_give_zero_ratio(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 16, 64)
        f = CircleFunction.harmonic(64, 1, sin_amp=0.1)
        rep = lipschitz_certificate(f, f, 2, 0.5, basis)
        assert rep.ratio == 0.0
        assert rep.holds

    def test_sine_versus_cosine(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 16, 64)
        f = CircleFunction.harmonic(64, 1, sin_amp=0.1)
        g = CircleFunction.harmonic(64, 1, cos_amp=0.1)
        rep = lipschitz_certificate(f, g, 2, 0.5, basis)
        assert 0.0 < rep.ratio <= rep.c_r

    def test_constant_stabilizes_in_cutoff(self):
        f = CircleFunction.zero(512)
        g = CircleFunction.harmonic(512, 1, sin_amp=0.01)
        c_rs = []
        for cutoff in (32, 64, 128):
            basis = ScaledBasis(ScalingSequence.exponential(1.0), cutoff, 512)
            c_rs.append(lipschitz_certificate(f, g, 2, 0.5, basis).c_r)
        assert abs(c_rs[2] - c_rs[1]) / c_rs[1] < 1e-8
        assert abs(c_rs[1] - c_rs[0]) / c_rs[0] < 1e-8

    def test_rejects_a_state_that_is_no_function(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 8, 64)
        f = CircleFunction.harmonic(64, 1, sin_amp=0.1)
        with pytest.raises(TypeError, match="^g must be a CircleFunction$"):
            lipschitz_certificate(f, np.zeros(64), 2, 0.5, basis)

    def test_rejects_states_on_other_grids(self):
        # numpy's broadcast error between the two warped bases at the parent
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 8, 64)
        f = CircleFunction.harmonic(64, 1, sin_amp=0.1)
        g = CircleFunction.harmonic(128, 1, cos_amp=0.1)
        with pytest.raises(ValueError, match="^grid sizes differ$"):
            lipschitz_certificate(f, g, 2, 0.5, basis)

    def test_rejects_states_outside_ball(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 8, 32)
        f = CircleFunction.harmonic(32, 1, sin_amp=3.0)
        with pytest.raises(ValueError):
            lipschitz_certificate(f, CircleFunction.zero(32), 2, 0.5, basis)


class TestAgainstSpectralPipeline:
    def test_composition_derivatives_match(self, rng):
        # warp amplitude 0.2 keeps the spectral reference accurate to 1e-8
        # (roundoff in the reference grows like (M/2)^order)
        basis_grid = 128
        worst = 0.0
        for _ in range(20):
            f = random_band_limited(rng, basis_grid, 5, decay=0.5)
            g = random_band_limited(rng, basis_grid, 3, decay=0.5)
            g = g * (0.2 / max(g.linf_norm(), 1e-9))
            composed = compose(f, g)
            pts = np.linspace(0.0, 2 * np.pi, 9)[:-1]
            warped = pts + g.evaluate(pts)
            f_derivs = [f.derivative(i) for i in range(6)]
            g_derivs = [g.derivative(i) for i in range(6)]
            f_jets = np.array([d.evaluate(warped) for d in f_derivs])
            g_jets = np.array([d.evaluate(pts) for d in g_derivs])
            g_jets[0] = warped
            g_jets[1] += 1.0
            for order in range(1, 6):
                ref = composed.derivative(order)
                ref_vals = ref.evaluate(pts)
                scale = max(ref.linf_norm(), 1e-9)
                for i in range(pts.size):
                    got = compose_derivative(f_jets[:, i], g_jets[:, i], order)
                    worst = max(worst, abs(got - ref_vals[i]) / scale)
        assert worst <= 1e-8
