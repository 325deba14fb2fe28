import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from circleflow import (
    CircleFunction,
    NoiseStream,
    ScaledBasis,
    ScalingSequence,
    field_values,
    grid_points,
)
from circleflow.noise import next_increments
from conftest import basis_coefficients

SEED = 20240817


@pytest.fixture(scope="module")
def draw_table():
    """(100000, 5) table of increments at N=2, shared across the statistics."""
    stream = NoiseStream(SEED, 0, 2, 1e-3)
    return np.array([stream.next_increment() for _ in range(100_000)])


class TestDeterminism:
    def test_same_indices_same_vector(self):
        a = NoiseStream(SEED, 4, 8, 1e-3)
        b = NoiseStream(SEED, 4, 8, 1e-3)
        for _ in range(5):
            assert np.array_equal(a.next_increment(), b.next_increment())

    def test_stateless_peek_matches_stateful_draw(self):
        s = NoiseStream(SEED, 1, 4, 1e-2)
        peeked = [s.increment_at(i) for i in range(4)]
        drawn = [s.next_increment() for i in range(4)]
        for p, d in zip(peeked, drawn):
            assert np.array_equal(p, d)

    def test_distinct_paths_and_steps_differ(self):
        base = NoiseStream(SEED, 0, 4, 1e-3).increment_at(0)
        other_path = NoiseStream(SEED, 1, 4, 1e-3).increment_at(0)
        other_step = NoiseStream(SEED, 0, 4, 1e-3).increment_at(1)
        assert not np.array_equal(base, other_path)
        assert not np.array_equal(base, other_step)

    def test_continuation_view_offsets_steps(self):
        s = NoiseStream(SEED, 7, 4, 1e-3)
        cont = NoiseStream(SEED, 7, 4, 1e-3, step_index=10)
        assert np.array_equal(cont.next_increment(), s.increment_at(10))

    def test_mode_draws_prefix_stable_across_cutoffs(self):
        # the draw for mode n must not depend on the cutoff
        small = NoiseStream(SEED, 3, 8, 1e-3).increment_at(5)
        large = NoiseStream(SEED, 3, 16, 1e-3).increment_at(5)
        for n in range(-8, 9):
            assert small[n + 8] == large[n + 16]

    def test_increments_are_read_only_arrays(self):
        s = NoiseStream(SEED, 3, 4, 1e-3)
        for inc in (s.increment_at(7), s.next_increment()):
            assert inc.shape == (9,)
            assert not inc.flags.writeable
            with pytest.raises(ValueError):
                inc[4] = 0.0

    def test_reused_generator_matches_a_fresh_one(self):
        # oracle: the documented counter layout, one fresh generator per draw
        rng = np.random.default_rng(7)
        streams = [
            NoiseStream(int(rng.integers(0, 2**63)) * 2 + 1, int(rng.integers(0, 2**32)), n, 1e-3)
            for n in (1, 8, 32)
        ]
        steps = [0, 1, 2**31, 2**63, 2**64 - 1] + [int(v) for v in rng.integers(0, 2**40, 20)]
        for step in steps:  # out of order, the other streams drawing in between
            for s in streams:
                counter = np.array([0, s.path_id, step, 0], dtype=np.uint64)
                z = Generator(Philox(key=s.master_seed, counter=counter)).standard_normal(
                    2 * s.mode_cutoff + 1
                )
                n = s.mode_cutoff
                want = np.empty_like(z)
                want[n] = z[0]
                want[n + 1 :] = z[1::2]
                want[n - 1 :: -1] = z[2::2]
                assert np.array_equal(s.increment_at(step), want * np.sqrt(1e-3))

    def test_block_draw_equals_single_draws(self):
        # One pass over streams at different steps equals their single
        # draws bitwise; a stream with no live row (path 2) neither draws
        # nor advances, and a path with several rows draws once for all.
        starts = {0: 0, 5: 3, 2: 2**40, 9: 2**64 - 2}

        def make():
            return [NoiseStream(SEED, pid, 8, 1e-3, step_index=k) for pid, k in starts.items()]

        streams, twins = make(), make()
        paths = np.array([0, 0, 1, 3, 3, 3])
        for _ in range(2):
            block = next_increments(streams, paths)
            for row, p in zip(block, paths.tolist()):
                assert np.array_equal(row, twins[p].increment_at(twins[p].step_index))
            for p in set(paths.tolist()):
                twins[p].step_index += 1
        assert [s.step_index for s in streams] == [2, 5, 2**40, 2**64]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            NoiseStream(-1, 0, 4, 1e-3)
        with pytest.raises(ValueError):
            NoiseStream(SEED, 0, 0, 1e-3)
        with pytest.raises(ValueError):
            NoiseStream(SEED, 0, 4, 0.0)
        # path id and step index are 64-bit Philox counter words
        with pytest.raises(ValueError):
            NoiseStream(SEED, 2**64, 4, 1e-3)
        with pytest.raises(ValueError):
            NoiseStream(SEED, 0, 4, 1e-3, step_index=2**64)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((1.5, 0, 4, 1e-3), "master_seed"),
            ((SEED, 0.5, 4, 1e-3), "path_id"),
            ((SEED, True, 4, 1e-3), "path_id"),
            ((SEED, 0, 4.0, 1e-3), "mode_cutoff"),
            ((SEED, 0, 4, 1e-3, 2.0), "step_index"),
            ((SEED, 0, 4, np.inf), "dt"),
            ((SEED, 0, 4, "1e-3"), "dt"),
        ],
    )
    def test_rejects_a_non_integer_word_or_a_non_finite_dt(self, args, name):
        # Negative control: a float path id or step was truncated to the
        # counter word below it (path 0.5 drew path 0's noise), and dt = inf
        # scaled every draw to inf.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            NoiseStream(*args)

    @pytest.mark.parametrize("step", [2.7, -1, 2**64, np.float64(2.0), None])
    def test_increment_at_rejects_a_step_outside_the_counter_word(self, step):
        # Negative control: increment_at(2.7) drew step 2's noise.
        with pytest.raises(ValueError, match="^step must"):
            NoiseStream(SEED, 0, 4, 1e-3).increment_at(step)

    def test_increment_at_takes_numpy_integer_steps(self):
        s = NoiseStream(SEED, 3, 4, 1e-3)
        assert np.array_equal(s.increment_at(np.uint64(2**64 - 1)), s.increment_at(2**64 - 1))


class TestStatistics:
    def test_single_coordinate_variance(self, draw_table):
        # chi-square 99% interval for 1e5 samples is well inside dt*[0.985, 1.015]
        var = draw_table[:, 2].var()
        assert 0.985e-3 <= var <= 1.015e-3

    def test_cross_mode_correlation_small(self, draw_table):
        for i, j in ((0, 1), (1, 2), (0, 4), (2, 3)):
            r = np.corrcoef(draw_table[:, i], draw_table[:, j])[0, 1]
            assert abs(r) <= 0.01

    def test_brownian_coefficient_variance_identity(self):
        # identity covariance: the pooled statistic sum W^2 / t over all modes
        # and paths is chi-square with n_paths * n_modes degrees of freedom
        n_paths, n_steps, dt = 2000, 20, 0.05
        coords = np.empty((n_paths, 5))
        for pid in range(n_paths):
            s = NoiseStream(SEED, pid, 2, dt)
            coords[pid] = sum(s.next_increment() for _ in range(n_steps))
        t = n_steps * dt
        dof = coords.size
        lo, hi = stats.chi2.ppf([0.005, 0.995], dof) / dof
        pooled = float(np.sum(coords**2) / t) / dof
        assert lo <= pooled <= hi

    def test_lambda_basis_coefficient_variance_scales_inverse_square(self):
        # expanded over the strong basis the mode-n coefficient has variance
        # t/n^2; chi-square band per mode, verified for the pinned seed
        n_paths, n_steps, dt = 2000, 20, 0.05
        totals = []
        for pid in range(n_paths):
            s = NoiseStream(SEED + 1, pid, 2, dt)
            totals.append(sum(s.next_increment() for _ in range(n_steps)))
        totals = np.array(totals)
        t = n_steps * dt
        lo, hi = stats.chi2.ppf([0.005, 0.995], n_paths) / n_paths
        for n in (1, 2):
            lambda_coef = totals[:, 2 + n] / n  # alpha coefficient / n
            pooled = float(np.sum(lambda_coef**2) * n**2 / t) / n_paths
            assert lo <= pooled <= hi


def noise_field(inc, basis, f):
    """The increment field theta -> sum_n dB_n e_n(theta + f(theta)) on the grid."""
    warped = grid_points(f.grid_size) + f.grid_values
    return CircleFunction(field_values(inc, basis.weights(), warped))


class TestNoiseField:
    def test_single_mode_identity_warp(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 4, 32)
        delta = np.zeros(9)
        delta[4 + 1] = 1.0
        field = noise_field(delta, basis, CircleFunction.zero(32))
        theta = grid_points(32)
        expected = np.exp(-1.0) * np.cos(theta)
        assert np.max(np.abs(field.grid_values - expected)) < 1e-15

    def test_zero_increment_gives_zero_field(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 4, 32)
        field = noise_field(np.zeros(9), basis, CircleFunction.zero(32))
        assert np.all(field.grid_values == 0.0)

    def test_rotation_warp_flips_cosine(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 4, 32)
        delta = np.zeros(9)
        delta[4 + 1] = 1.0
        field = noise_field(delta, basis, CircleFunction.constant(np.pi, 32))
        theta = grid_points(32)
        expected = -np.exp(-1.0) * np.cos(theta)
        assert np.max(np.abs(field.grid_values - expected)) < 1e-12

    def test_negative_mode_sign_convention(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 4, 32)
        delta = np.zeros(9)
        delta[4 - 1] = 1.0  # mode -1
        field = noise_field(delta, basis, CircleFunction.zero(32))
        expanded = basis_coefficients(field, basis)
        expected = np.zeros(9)
        expected[4 - 1] = 1.0
        assert np.allclose(expanded, expected, atol=1e-14)

    def test_full_path_replay_bit_identical(self):
        basis = ScaledBasis(ScalingSequence.exponential(1.0), 4, 32)
        warp = basis.basis_function(1)

        def run():
            s = NoiseStream(SEED, 11, 4, 1e-3)
            return [noise_field(s.next_increment(), basis, warp).grid_values for _ in range(20)]

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)
