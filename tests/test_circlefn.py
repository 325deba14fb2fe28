import math
import re

import numpy as np
import pytest

from circleflow import (
    CircleFunction,
    NoiseStream,
    RunConfig,
    ScaledBasis,
    ScalingSequence,
    SolverConfig,
    bell,
    compose,
    diffeo_radius,
    flow,
    grid_points,
    run_ensemble,
    sobolev_embedding_constant,
)
from circleflow.circlefn import (
    EMBEDDING_MODES,
    _analyze,
    _hk_norm,
    _min_derivatives,
    _require_grid_size,
    _require_ints,
    _require_reals,
    _warp_points,
    hk_norms,
)
from conftest import quadrature_norms, random_band_limited


def old_min_derivative(f):
    """``1 + min f'`` by the per-function pipeline the batched one replaced:
    derivative tables, then a 1-d zero-padded synthesis on the 4x grid."""
    a, b = f.coefficients
    n = np.arange(a.size, dtype=float)
    c = (1j * n) ** 1 * (a - 1j * b)
    da, db = c.real.copy(), (-c.imag).copy()
    da[-1] = db[-1] = da[0] = db[0] = 0.0
    p = 4 * f.grid_size
    spec = np.zeros(p // 2 + 1, dtype=complex)
    spec[: a.size] = (da - 1j * db) * (p / 2.0)
    spec[0] = da[0] * p
    return 1.0 + float(np.min(np.fft.irfft(spec, n=p)))


def old_hk_norm(a, b, k):
    """The H^k norm formula before the mode powers were cached: one
    function's coefficient tables."""
    l2sq = a[0] ** 2 + 0.5 * np.sum(a[1:] ** 2 + b[1:] ** 2)
    if k == 0:
        return np.sqrt(2.0 * l2sq)
    n = np.arange(1, a.size, dtype=float)
    return np.sqrt(l2sq + 0.5 * np.sum(n ** (2 * k) * (a[1:] ** 2 + b[1:] ** 2)))


class TestFromGrid:
    def test_zero_function(self):
        f = CircleFunction(np.zeros(8))
        assert f.l2_norm() == 0.0
        assert f.hk_norm(3) == 0.0
        assert f.linf_norm() == 0.0

    def test_pure_sine_coefficients(self):
        theta = grid_points(8)
        f = CircleFunction(np.sin(theta))
        a, b = f.coefficients
        assert b[1] == pytest.approx(1.0, abs=1e-15)
        others = np.concatenate([a, b[2:]])
        assert np.max(np.abs(others)) < 1e-15

    def test_mean_plus_cosine(self):
        theta = grid_points(16)
        f = CircleFunction(3.0 + np.cos(2 * theta))
        a, b = f.coefficients
        assert a[0] == pytest.approx(3.0, abs=1e-14)
        assert a[2] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(b)) < 1e-14

    @pytest.mark.parametrize("m", [2, 6, 12, 100])
    def test_rejects_bad_grid_sizes(self, m):
        with pytest.raises(ValueError):
            CircleFunction(np.zeros(m))

    def test_rejects_malformed_samples_and_tables(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            CircleFunction(np.zeros((2, 8)))
        with pytest.raises(ValueError, match="equal length"):
            CircleFunction.from_coefficients(np.zeros(5), np.zeros(4))

    def test_arithmetic_needs_a_function_on_the_same_grid(self):
        f = CircleFunction.harmonic(16, 1, cos_amp=1.0)
        with pytest.raises(TypeError):
            f - 3
        with pytest.raises(ValueError, match="grid sizes differ"):
            f - CircleFunction.zero(32)

    def test_round_trip_grid_coefficients_grid(self, rng):
        for _ in range(50):
            f = random_band_limited(rng, 64, 31)
            rebuilt = CircleFunction.from_coefficients(*f.coefficients)
            err = np.max(np.abs(rebuilt.grid_values - f.grid_values))
            assert err <= 1e-12 * max(1.0, f.linf_norm())


class TestDerivative:
    def test_sine_to_cosine(self):
        f = CircleFunction.harmonic(16, 1, sin_amp=1.0)
        theta = grid_points(16)
        assert np.allclose(f.derivative().grid_values, np.cos(theta), atol=1e-14)

    def test_second_derivative_of_cos2(self):
        f = CircleFunction.harmonic(16, 2, cos_amp=1.0)
        theta = grid_points(16)
        assert np.allclose(f.derivative(2).grid_values, -4.0 * np.cos(2 * theta), atol=1e-13)

    def test_constant_has_zero_derivative(self):
        f = CircleFunction.constant(5.0, 8)
        assert np.all(f.derivative().grid_values == 0.0)

    def test_order_zero_is_identity(self):
        f = CircleFunction.harmonic(16, 3, cos_amp=0.7)
        assert f.derivative(0) is f


class TestNorms:
    def test_hk_zero_function(self):
        assert CircleFunction.zero(8).hk_norm(4) == 0.0

    def test_h1_of_sine_is_one(self):
        f = CircleFunction.harmonic(32, 1, sin_amp=1.0)
        assert f.hk_norm(1) == pytest.approx(1.0, rel=1e-12)
        _, oracle = quadrature_norms(f, 1)
        assert f.hk_norm(1) == pytest.approx(oracle, rel=1e-12)

    def test_h2_of_cos2(self):
        f = CircleFunction.harmonic(32, 2, cos_amp=1.0)
        assert f.hk_norm(2) == pytest.approx(np.sqrt(8.5), rel=1e-12)
        _, oracle = quadrature_norms(f, 2)
        assert f.hk_norm(2) == pytest.approx(oracle, rel=1e-12)

    def test_h0_is_sqrt2_l2(self, rng):
        # literal two-term formula: k = 0 doubles the L2 part
        f = random_band_limited(rng, 64, 10)
        assert f.hk_norm(0) == pytest.approx(np.sqrt(2.0) * f.l2_norm(), rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_mean_whose_square_overflows_gives_inf(self, k):
        # a0^2 overflows; for k >= 1 its weight is 0^2k = 0, and 0 * inf is nan
        f = CircleFunction.constant(1e160, 64)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert f.hk_norm(k) == math.inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert hk_norms(np.stack([f.grid_values] * 2), k).tolist() == [math.inf] * 2

    def test_linf_examples(self):
        assert CircleFunction.zero(16).linf_norm() == 0.0
        f = CircleFunction.harmonic(32, 1, sin_amp=1.0)
        assert f.linf_norm() == pytest.approx(1.0, abs=1e-10)
        g = CircleFunction.harmonic(32, 3, cos_amp=0.3)
        assert g.linf_norm() == pytest.approx(0.3, abs=1e-12)

    def test_parseval(self, rng):
        for _ in range(100):
            f = random_band_limited(rng, 128, 40)
            quad = np.sqrt(np.mean(f.grid_values**2))
            assert quad == pytest.approx(f.l2_norm(), rel=1e-10)

    def test_hk_monotone_in_k(self, rng):
        for _ in range(100):
            f = random_band_limited(rng, 64, 20)
            for lo, hi in ((1, 2), (2, 3), (1, 5)):
                assert f.hk_norm(lo) <= f.hk_norm(hi) + 1e-12
            g = random_band_limited(rng, 64, 20, include_mean=False)
            assert g.hk_norm(0) <= g.hk_norm(2) + 1e-12


class TestDenseValues:
    """The oversampled interpolant keeps every mode, the Nyquist cosine in full.

    Tolerance: an FFT of length n has 2-norm error below about
    ``4 eps log2(n)`` relative (Higham, Accuracy and Stability, 2nd ed.,
    section 24.1); the grid values pass through one forward and one inverse
    transform, so ``8 eps log2(p)`` times their 2-norm bounds the error.
    Dropping half the Nyquist term misses by about 0.1 here.
    """

    @pytest.mark.parametrize("oversample", [1, 2, 4])
    @pytest.mark.parametrize("m", [16, 64])
    def test_subsampling_reproduces_grid_values(self, rng, m, oversample):
        f = CircleFunction(rng.normal(size=m))  # full band
        assert f.coefficients[0][-1] != 0.0
        dense = f.dense_values(oversample)
        p = oversample * m
        assert dense.size == p
        tol = 8 * np.finfo(float).eps * np.log2(p) * np.linalg.norm(f.grid_values)
        assert np.max(np.abs(dense[::oversample] - f.grid_values)) <= tol

    @pytest.mark.parametrize("oversample", [1, 2, 4])
    def test_nyquist_harmonic(self, oversample):
        f = CircleFunction.harmonic(16, 8, cos_amp=1.0)
        p = 16 * oversample
        want = np.cos(8 * grid_points(p))
        tol = 8 * np.finfo(float).eps * np.log2(p) * np.linalg.norm(want)
        assert np.max(np.abs(f.dense_values(oversample) - want)) <= tol
        assert f.linf_norm() == pytest.approx(1.0, abs=tol)


class TestEvaluate:
    def test_sine_at_half_pi(self):
        f = CircleFunction.harmonic(16, 1, sin_amp=1.0)
        assert f.evaluate([np.pi / 2])[0] == pytest.approx(1.0, abs=1e-14)

    def test_grid_consistency(self):
        theta = grid_points(32)
        f = CircleFunction(np.cos(theta))
        assert np.max(np.abs(f.evaluate(theta) - f.grid_values)) < 1e-12

    def test_cos2_at_quarter_pi(self):
        f = CircleFunction.harmonic(16, 2, cos_amp=1.0)
        assert abs(f.evaluate([np.pi / 4])[0]) < 1e-14

    def test_grid_consistency_random(self, rng):
        f = random_band_limited(rng, 64, 30)
        theta = grid_points(64)
        assert np.max(np.abs(f.evaluate(theta) - f.grid_values)) < 1e-12


class TestCompose:
    def test_identity_warp_exact(self, rng):
        g = random_band_limited(rng, 64, 12)
        out = compose(g, CircleFunction.zero(64))
        assert np.array_equal(out.grid_values, g.grid_values)

    def test_rotation_by_pi_flips_sine(self):
        g = CircleFunction.harmonic(64, 1, sin_amp=1.0)
        out = compose(g, CircleFunction.constant(np.pi, 64))
        assert np.allclose(out.grid_values, -g.grid_values, atol=1e-12)

    def test_against_pointwise_oracle(self):
        g = CircleFunction.harmonic(128, 1, sin_amp=1.0)
        warp = CircleFunction.harmonic(128, 1, sin_amp=0.1)
        out = compose(g, warp)
        theta = grid_points(128)
        oracle = np.sin(theta + 0.1 * np.sin(theta))
        assert np.max(np.abs(out.grid_values - oracle)) < 1e-10

    def test_derivative_commutes_with_zero_warp(self, rng):
        # finer-grid identity warp forces the spectral evaluation path
        g = random_band_limited(rng, 64, 14)
        warp = CircleFunction.zero(256)
        left = compose(g, warp).derivative()
        right = compose(g.derivative(), warp)
        assert np.max(np.abs(left.grid_values - right.grid_values)) < 1e-11

    def test_mixed_grids_resample_on_finer(self):
        g = CircleFunction.harmonic(64, 2, cos_amp=1.0)
        warp = CircleFunction.zero(16)
        out = compose(g, warp)
        assert out.grid_size == 64
        assert np.max(np.abs(out.grid_values - g.grid_values)) < 1e-12

    def test_rejects_a_map_that_is_not_a_circle_function(self):
        g = CircleFunction.harmonic(64, 1, sin_amp=1.0)
        with pytest.raises(TypeError):
            compose(g, np.zeros(64))

    def test_rejects_a_composed_function_that_is_not_a_circle_function(self):
        # Negative control: compose(3, f) raised AttributeError on g.grid_size.
        with pytest.raises(TypeError, match="^g must be a CircleFunction"):
            compose(3, CircleFunction.harmonic(64, 1, sin_amp=0.1))


class TestCircleMap:
    """The map ``id + f``, passed as its vector part ``f``."""

    def test_degree_one(self, rng):
        f = random_band_limited(rng, 64, 8) * 0.1

        def warp(pts):
            return pts + f.evaluate(pts)

        pts = rng.uniform(0, 2 * np.pi, 16)
        assert np.allclose(warp(pts + 2 * np.pi), warp(pts) + 2 * np.pi, rtol=0, atol=1e-9)

    def test_warp_points_on_both_branches(self, rng):
        f = random_band_limited(rng, 64, 12) * 0.1
        own = _warp_points(f, 64)  # the stored samples, exactly
        assert np.array_equal(own, grid_points(64) + f.grid_values)
        theta = grid_points(256)  # a finer grid: the interpolant
        finer = _warp_points(f, 256)
        assert np.array_equal(finer, theta + f.evaluate(theta))
        assert np.max(np.abs(finer[::4] - own)) < 1e-12

    def test_min_derivative_matches_derivative_sign(self):
        gentle = CircleFunction.harmonic(64, 1, sin_amp=0.5)
        steep = CircleFunction.harmonic(64, 1, sin_amp=1.5)
        assert gentle.min_derivative > 0.0
        assert gentle.min_derivative == pytest.approx(0.5, abs=1e-10)
        assert not steep.min_derivative > 0.0


class TestBatchedDiagnostics:
    @pytest.mark.parametrize("rows, grid_size", [(1, 64), (4, 128), (25, 256)])
    def test_min_derivatives_equal_the_per_function_value(self, rng, rows, grid_size):
        fns = [random_band_limited(rng, grid_size, grid_size // 4) * 0.05 for _ in range(rows)]
        a, b = _analyze(np.array([f.grid_values for f in fns]))
        got = _min_derivatives(a, b)
        assert got.shape == (rows,)
        for md, f in zip(got, fns):
            assert md == f.min_derivative == old_min_derivative(f)

    @pytest.mark.parametrize("rows", [1, 4, 25])
    def test_hk_norms_equal_the_old_formula(self, rng, rows):
        values = np.array([random_band_limited(rng, 128, 40).grid_values for _ in range(rows)])
        a, b = _analyze(values)
        for k in (0, 2, 3):
            got = _hk_norm(a, b, k)
            assert np.array_equal(got, [old_hk_norm(ra, rb, k) for ra, rb in zip(a, b)])

    def test_grid_points_are_shared_and_read_only(self):
        theta = grid_points(64)
        assert grid_points(64) is theta
        assert np.array_equal(theta, 2.0 * np.pi * np.arange(64) / 64)
        with pytest.raises(ValueError):
            theta[0] = 1.0


class TestEmbeddingConstant:
    def test_rejects_m_not_below_k(self):
        with pytest.raises(ValueError):
            sobolev_embedding_constant(2, 2)
        with pytest.raises(ValueError):
            sobolev_embedding_constant(1, 3)

    def test_zero_function_trivially_bounded(self):
        f = CircleFunction.zero(16)
        c = sobolev_embedding_constant(1, 0)
        assert f.linf_norm() <= c * f.hk_norm(1)

    def test_sup_bound_m0_k1(self, rng):
        c = sobolev_embedding_constant(1, 0)
        assert np.isfinite(c) and c > 0
        for _ in range(1000):
            f = random_band_limited(rng, 64, 20)
            assert f.linf_norm() <= c * f.hk_norm(1) * (1 + 1e-12)

    def test_sine_first_derivative_case(self):
        f = CircleFunction.harmonic(32, 1, sin_amp=1.0)
        c2 = sobolev_embedding_constant(2, 1)
        assert f.derivative().linf_norm() <= c2 * f.hk_norm(2)

    @pytest.mark.parametrize(
        "k, m", [(1, 0), (2, 0), (2, 1), (3, 2), (12, 1), (12, 11), (42, 1), (42, 41)]
    )
    def test_matches_the_series_in_exact_arithmetic(self, k, m):
        # The docstring's sum, each term n^2m / max(1, (1 + n^2k) / 2) an int
        # quotient (correctly rounded by Python's true division) and the terms
        # summed by fsum, plus the docstring's tail: the promised upper bound.
        n_max = EMBEDDING_MODES
        terms = (2 * n ** (2 * m) / (1 + n ** (2 * k)) for n in range(1, n_max + 1))
        body = 2 * math.fsum(terms) + (1 if m == 0 else 0)
        p = 2 * (k - m) - 1
        reference = math.sqrt(body + 4 * n_max ** -p / p)
        assert sobolev_embedding_constant(k, m) == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [43, 44])
    def test_refuses_orders_whose_weights_overflow(self, k):
        # 4096^2k overflows from k = 43: the sum read 7.1e-6 below the exact
        # series at (43, 42), and NaN at (44, 43)
        with pytest.raises(ValueError, match=rf"^k must be an integer in \[0, 42\], got {k}$"):
            sobolev_embedding_constant(k, k - 1)


class TestArgumentValidators:
    """The integer, finite-real and grid-size rules every public constructor
    checks its arguments by."""

    @pytest.mark.parametrize("value", [0, -3, 2**70, np.int64(5), np.uint64(2**64 - 1)])
    def test_integers_pass(self, value):
        _require_ints({"n": value})

    @pytest.mark.parametrize("value", [True, 2.0, np.float64(2.0), "2", None])
    def test_non_integers_are_named(self, value):
        with pytest.raises(KeyError, match=re.escape(f"n must be an integer, got {value!r}")):
            _require_ints({"m": 1, "n": value}, KeyError)

    @pytest.mark.parametrize("value", [0, -1.5, 1e300, np.int64(3), np.float32(0.5)])
    def test_finite_reals_pass(self, value):
        _require_reals({"x": value})

    @pytest.mark.parametrize("value", [False, np.inf, -np.inf, np.nan, "1.0", None, 1j])
    def test_non_finite_or_non_real_values_are_named(self, value):
        with pytest.raises(ValueError, match="^x must be a finite number"):
            _require_reals({"x": value})

    @pytest.mark.parametrize("m, cutoff", [(4, 0), (4, 1), (64, 16), (2**24, 8)])
    def test_powers_of_two_with_the_band_margin_pass(self, m, cutoff):
        _require_grid_size(m, cutoff)

    @pytest.mark.parametrize(
        "m, cutoff, message",
        [(2, 0, "power of two >= 4"), (48, 8, "power of two >= 4"), (32, 16, "4 \\* mode_cutoff")],
    )
    def test_bad_grid_sizes_are_rejected(self, m, cutoff, message):
        with pytest.raises(ValueError, match=message):
            _require_grid_size(m, cutoff)


_ALPHA = ScalingSequence.exponential(1.0)
_F = CircleFunction.harmonic(64, 1, sin_amp=0.1)
_XS = [1.0, 1.0, 1.0]


def _bell_after_its_integer_twin():
    bell.bell_polynomial(3, 1, _XS)  # a cache keyed on (n, k) would answer (3, 1.0) here
    return bell.bell_polynomial(3, 1.0, _XS)


def _row(name, call, message):
    return pytest.param(call, message, id=name)


@pytest.mark.parametrize(
    "call, message",
    [
        # a non-integer index returned a number at the parent
        _row("hk_norm-2.5", lambda: _F.hk_norm(2.5), "k must be an integer, got 2.5"),
        _row(
            "embedding-2.5",
            lambda: sobolev_embedding_constant(2.5, 1),
            "k must be an integer, got 2.5",
        ),
        _row("diffeo_radius-2.5", lambda: diffeo_radius(2.5), "k must be an integer, got 2.5"),
        _row("value_at-1.5", lambda: _ALPHA.value_at(1.5), "n must be an integer, got 1.5"),
        _row("values-2.5", lambda: _ALPHA.values(2.5), "n_max must be an integer, got 2.5"),
        _row("values--1", lambda: _ALPHA.values(-1), "n_max must be an integer >= 0, got -1"),
        _row("derivative-1.5", lambda: _F.derivative(1.5), "m must be an integer, got 1.5"),
        _row("derivative-True", lambda: _F.derivative(True), "m must be an integer, got True"),
        _row("bell-cached", _bell_after_its_integer_twin, "k must be an integer, got 1.0"),
        # numpy's IndexError or TypeError at the parent, naming no argument
        _row(
            "harmonic-2.5",
            lambda: CircleFunction.harmonic(64, 2.5),
            "n must be an integer, got 2.5",
        ),
        _row(
            "zero-64.0",
            lambda: CircleFunction.zero(64.0),
            "grid_size must be an integer, got 64.0",
        ),
        _row(
            "constant-64.0",
            lambda: CircleFunction.constant(1.0, 64.0),
            "grid_size must be an integer, got 64.0",
        ),
        _row(
            "basis_function-2.5",
            lambda: ScaledBasis(_ALPHA, 8, 64).basis_function(2.5),
            "n must be an integer, got 2.5",
        ),
        _row(
            "dense_values-1.5",
            lambda: _F.dense_values(1.5),
            "oversample must be an integer, got 1.5",
        ),
        _row(
            "bell-1.0",
            lambda: bell.bell_polynomial(3, 1.0, _XS),
            "k must be an integer, got 1.0",
        ),
        _row(
            "hs_certificate-2.5",
            lambda: bell.hs_bound_certificate(_F, 2.5, ScaledBasis(_ALPHA, 8, 64)),
            "k must be an integer, got 2.5",
        ),
        _row("grid_points-2.5", lambda: grid_points(2.5), "grid_size must be an integer, got 2.5"),
        _row(
            "lipschitz_certificate-2.5",
            lambda: bell.lipschitz_certificate(_F, _F, 2.5, 0.5, ScaledBasis(_ALPHA, 8, 64)),
            "k must be an integer, got 2.5",
        ),
        # ranges: another message, or none, at the parent
        _row(
            "path_id--1",
            lambda: NoiseStream(1, -1, 8, 1e-3),
            f"path_id must be an integer in [0, {2**64 - 1}], got -1",
        ),
        _row(
            "dt--1e-3",
            lambda: SolverConfig(-1e-3, 0.1, 8, 64, _ALPHA),
            "dt must be a finite number > 0, got -0.001",
        ),
        _row(
            "harmonic-33",
            lambda: CircleFunction.harmonic(64, 33),
            "n must be an integer in [0, 32], got 33",
        ),
        _row(
            "basis_function--9",
            lambda: ScaledBasis(_ALPHA, 8, 64).basis_function(-9),
            "n must be an integer in [-8, 8], got -9",
        ),
        _row(
            "weight-20",
            lambda: ScaledBasis(_ALPHA, 8, 64).weight(20),
            "n must be an integer in [-8, 8], got 20",
        ),
        _row(
            "lipschitz_certificate-radius-nan",
            lambda: bell.lipschitz_certificate(_F, _F, 2, np.nan, ScaledBasis(_ALPHA, 8, 64)),
            "radius must be a finite number, got nan",
        ),
        _row("hk_norm--1", lambda: _F.hk_norm(-1), "k must be an integer >= 0, got -1"),
        _row(
            "embedding-m-2",
            lambda: sobolev_embedding_constant(2, 2),
            "m must be an integer in [0, 1], got 2",
        ),
        _row(
            "solver-k-86",
            lambda: SolverConfig(1e-3, 0.1, 8, 128, _ALPHA, k=86),
            "k must be an integer in [0, 85], got 86",
        ),
        # the weights n^2k overflow past the limit SolverConfig gives: inf
        # with a RuntimeWarning, a wrong bound or NaN at the parent
        _row(
            "hk_norm-86",
            lambda: CircleFunction.harmonic(128, 1, sin_amp=0.1).hk_norm(86),
            "k must be an integer in [0, 85], got 86",
        ),
        _row(
            "hk_norms-86",
            lambda: hk_norms(np.zeros((2, 128)), 86),
            "k must be an integer in [0, 85], got 86",
        ),
        _row(
            "diffeo_radius-43",
            lambda: diffeo_radius(43),
            "k must be an integer in [0, 42], got 43",
        ),
        # an empty solver list: ZeroDivisionError or max() of nothing at the parent
        _row(
            "simulate_paths-no-solver",
            lambda: flow.simulate_paths([], []),
            "solvers must hold at least one solver",
        ),
        _row(
            "run_ensemble-no-solver",
            lambda: run_ensemble(RunConfig(SolverConfig(1e-3, 0.1, 8, 64, _ALPHA)), []),
            "solvers must hold at least one solver",
        ),
        # an object that is no weight family failed late, or with AttributeError
        _row(
            "solver-alpha-None",
            lambda: SolverConfig(1e-3, 0.1, 8, 64, None),
            "alpha must be a ScalingSequence, got None",
        ),
        _row(
            "basis-scaling-None",
            lambda: ScaledBasis(None, 8, 64),
            "scaling must be a ScalingSequence, got None",
        ),
        # a NaN function, a RuntimeWarning, numpy's unnamed message or (for
        # "2") a doubled function at the parent
        _row(
            "constant-nan",
            lambda: CircleFunction.constant(np.nan, 64),
            "value must be a finite number, got nan",
        ),
        _row(
            "constant-str",
            lambda: CircleFunction.constant("x", 64),
            "value must be a finite number, got 'x'",
        ),
        _row(
            "harmonic-cos-inf",
            lambda: CircleFunction.harmonic(64, 1, cos_amp=np.inf),
            "cos_amp must be a finite number, got inf",
        ),
        _row(
            "harmonic-sin-nan",
            lambda: CircleFunction.harmonic(64, 1, sin_amp=np.nan),
            "sin_amp must be a finite number, got nan",
        ),
        _row("mul-nan", lambda: _F * np.nan, "scalar must be a finite number, got nan"),
        _row("rmul-inf", lambda: np.inf * _F, "scalar must be a finite number, got inf"),
        _row("mul-str", lambda: _F * "2", "scalar must be a finite number, got '2'"),
    ],
)
def test_public_calls_name_a_bad_argument(call, message):
    # Each message starts with the argument's name and gives its type or
    # admissible range and the value it got.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
