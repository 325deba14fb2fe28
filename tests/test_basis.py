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

    @pytest.mark.parametrize("parameter", [True, "1.0", None, np.inf, np.nan])
    def test_parameter_must_be_a_finite_number(self, parameter):
        # Negative control: True passed as the parameter 1.
        with pytest.raises(ValueError, match="^parameter must be a finite number"):
            ScalingSequence("exponential", parameter)
        with pytest.raises(ValueError, match="^parameter must be a finite number"):
            ScalingSequence.from_dict({"family": "exponential", "parameter": parameter})

    def test_parameter_is_stored_as_a_float(self):
        from_config = ScalingSequence.from_dict({"family": "powerlaw", "parameter": np.int64(2)})
        for seq in (ScalingSequence.powerlaw(2), from_config):
            assert type(seq.parameter) is float
            assert seq == ScalingSequence.powerlaw(2.0)


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

    @pytest.mark.parametrize(
        "cutoff, grid, message",
        [
            (8, 48, "grid size must be a power of two"),
            (8.5, 64, "mode_cutoff must be an integer"),
            (8, 64.0, "grid_size must be an integer"),
            (True, 64, "mode_cutoff must be an integer"),
        ],
    )
    def test_rejects_a_bad_cutoff_or_grid(self, cutoff, grid, message):
        # Negative control: a cutoff of 8.5 held 10 weights and no grid check
        # applied to a float grid.
        with pytest.raises(ValueError, match=message):
            ScaledBasis(ScalingSequence.exponential(1.0), cutoff, grid)

    def test_grid_size_has_no_default(self):
        with pytest.raises(TypeError):
            ScaledBasis(ScalingSequence.exponential(1.0), 8)

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
