import numpy as np
import pytest

from circleflow import CircleFunction, ScaledBasis, ScalingSequence
from conftest import basis_coefficients


@pytest.fixture
def exp_basis():
    return ScaledBasis(ScalingSequence.exponential(1.0), 8, 64)


class TestScalingSequence:
    def test_even_and_positive(self):
        for seq in (
            ScalingSequence.exponential(0.7),
            ScalingSequence.gaussian(0.2),
            ScalingSequence.powerlaw(1.5),
        ):
            for n in range(0, 12):
                assert seq.value_at(n) == seq.value_at(-n)
                assert seq.value_at(n) > 0.0

    def test_decay_classification_flag(self):
        assert ScalingSequence.exponential(1.0).is_rapidly_decreasing
        assert ScalingSequence.gaussian(0.1).is_rapidly_decreasing
        assert not ScalingSequence.powerlaw(1.5).is_rapidly_decreasing

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ScalingSequence.exponential(0.0)
        with pytest.raises(ValueError):
            ScalingSequence("cauchy", 1.0)


class TestScaledBasis:
    def test_constant_mode(self, exp_basis):
        e0 = exp_basis.basis_function(0)
        assert np.all(e0.grid_values == exp_basis.weight(0))

    def test_positive_mode_at_zero(self, exp_basis):
        e2 = exp_basis.basis_function(2)
        assert e2.evaluate([0.0])[0] == pytest.approx(exp_basis.weight(2), rel=1e-15)

    def test_negative_mode_sign_convention(self, exp_basis):
        # e_{-1}(pi/2) = lam(1) * sin(-pi/2) = -lam(1)
        e_m1 = exp_basis.basis_function(-1)
        assert e_m1.evaluate([np.pi / 2])[0] == pytest.approx(-exp_basis.weight(1), rel=1e-14)

    def test_rejects_mode_outside_cutoff(self, exp_basis):
        with pytest.raises(ValueError):
            exp_basis.basis_function(9)

    def test_rejects_undersized_grid(self):
        with pytest.raises(ValueError):
            ScaledBasis(ScalingSequence.exponential(1.0), 8, 16)

    def test_coefficient_space_orthonormality_exact(self, exp_basis):
        for n in range(-8, 9):
            coeffs = basis_coefficients(exp_basis.basis_function(n), exp_basis)
            expected = np.zeros(17)
            expected[n + 8] = 1.0
            assert np.array_equal(coeffs, expected)


class TestNoiseFieldStabilization:
    def test_hk_norm_stabilizes_under_cutoff_doubling(self, rng):
        # same mode coefficients at both cutoffs; rapidly decreasing weights
        # make the added band negligible in every H^k, k <= 6
        xi = rng.standard_normal(2 * 128 + 1)
        lam = ScalingSequence.exponential(1.0)

        def field(cutoff):
            grid = 512
            a = np.zeros(grid // 2 + 1)
            b = np.zeros(grid // 2 + 1)
            for n in range(0, cutoff + 1):
                a[n] = lam.value_at(n) * xi[128 + n]
            for n in range(1, cutoff + 1):
                b[n] = -lam.value_at(n) * xi[128 - n]
            return CircleFunction.from_coefficients(a, b)

        for k in (2, 4, 6):
            lo = field(64).hk_norm(k)
            hi = field(128).hk_norm(k)
            assert abs(hi - lo) / lo < 0.01
