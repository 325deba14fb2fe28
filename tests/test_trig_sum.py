"""Oracle tests for the evaluators behind field_values and evaluate.

``CircleFunction.evaluate`` sums by Horner's rule in ``z`` (``trig_sum``);
``field_values`` sums in chunks of eight modes (``chunked_trig_sum``).  The
reference is the dense cos/sin summation both replaced, run in long double
so that its own rounding sits far below the bound.

Bound for ``c0 + Re sum_{n=1}^N c_n z^n`` (u = eps/2, Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., sections 3.6 and 5.1):

* ``z = exp(i theta)`` has components within 2 ulp, so ``|z^ - z| <= 2 eps``
  and the power ``z^n`` is off by at most ``2 n eps``;
* under Horner's rule ``c_n`` goes through n complex multiplications (each
  ``sqrt(2) gamma_2``, about ``1.42 eps``) and n - 1 additions (each ``u``):
  ``1.92 n eps``;
* forming ``c_n`` (one product) and the final ``c0 + .real`` cost ``u`` each.

That is at most ``(3.92 n + 1) eps |c_n|`` per term, and ``eps |c0|`` at the
constant, so ``4 eps sum_n (n + 1) |c_n| + eps |c0|`` bounds the evaluator.

In chunks, with ``n = 1 + 8k + j`` (0 <= j < 8) and ``w = z^8``, ``c_n``
meets the same ``2 n eps`` from ``z``; n - 1 complex multiplications outside
the chunk sum (j - 1 for ``z^j``, 8k for ``w^k``: seven to form ``w`` raised
to the k-th power plus k Horner steps in ``w``, and one by the final ``z``;
n of them when j = 0); the chunk sum, at most 4.92 eps (one product and
seven additions as complex multiply-adds, ``sqrt(2) gamma_6`` = 4.24 eps in
OpenBLAS's AVX2 kernel, 3.5 eps when j = 0 and the product by ``z^0 = 1`` is
exact); and ``(k + 2) u`` for k Horner additions, forming ``c_n`` and adding
``c0``.  That is ``(3.42 n + 4.5 + k/2) eps <= (3.48 n + 4.44) eps`` per
term, within ``4 (n + 1) eps`` for every n >= 1, so the one bound covers
both evaluators.  (A kernel that chained all sixteen real products of a
component in one sum would cost up to ``8 sqrt(2) eps`` per term and exceed
it at small n.)

The reference adds, in its own epsilon, ``n |theta| / 2`` for the product
``n theta``, one for cos/sin, and N for the summation, per term.
"""

import numpy as np
import pytest

from circleflow import CircleFunction, NoiseStream, ScalingSequence, field_values, grid_points
from circleflow.circlefn import hk_norms, trig_sum

from conftest import random_band_limited

EPS = np.finfo(float).eps
EPS_REF = np.finfo(np.longdouble).eps
SEED = 20240817


def dense_field_values(delta_b, weights, points):
    """The replaced dense summation of field_values, in long double."""
    n_cut = (delta_b.size - 1) // 2
    n = np.arange(1, n_cut + 1, dtype=np.longdouble)
    ang = np.multiply.outer(np.asarray(points, dtype=np.longdouble), n)
    w = weights.astype(np.longdouble)
    d = delta_b.astype(np.longdouble)
    cos_part = np.cos(ang) @ (w[1:] * d[n_cut + 1 :])
    sin_part = np.sin(ang) @ (w[1:] * d[n_cut - 1 :: -1])
    return w[0] * d[n_cut] + cos_part - sin_part


def dense_evaluate(f, points):
    """The replaced dense summation of CircleFunction.evaluate, in long double."""
    a, b = (c.astype(np.longdouble) for c in f.coefficients)
    n = np.arange(1, a.size, dtype=np.longdouble)
    ang = np.multiply.outer(np.asarray(points, dtype=np.longdouble), n)
    return a[0] + np.cos(ang) @ a[1:] + np.sin(ang) @ b[1:]


def error_bound(c0, c, points):
    """The evaluators' rounding bound plus the reference's own (module docstring)."""
    n = np.arange(1, c.size + 1)
    size = np.abs(c)
    theta = float(np.max(np.abs(points)))
    horner = EPS * (4.0 * np.sum((n + 1) * size) + abs(c0))
    reference = EPS_REF * (np.sum((n * theta / 2 + 1 + c.size) * size) + abs(c0))
    return horner + reference


def max_error(got, ref):
    return float(np.max(np.abs(np.asarray(got, dtype=np.longdouble) - ref)))


def warped_grid(rng, grid_size):
    """theta + x(theta) for a random band-limited x of sup norm 0.3."""
    x = random_band_limited(rng, grid_size, 6)
    return grid_points(grid_size) + x.grid_values * (0.3 / np.max(np.abs(x.grid_values)))


def full_band(rng, grid_size):
    """Random coefficients on every mode, Nyquist cosine set to 1."""
    a = rng.normal(0.0, 1.0, grid_size // 2 + 1)
    b = rng.normal(0.0, 1.0, grid_size // 2 + 1)
    a[-1] = 1.0
    return CircleFunction.from_coefficients(a, b)


def coefficient_form(f):
    a, b = f.coefficients
    return a[0], a[1:] - 1j * b[1:]


@pytest.mark.parametrize("family", [ScalingSequence.exponential(1.0), ScalingSequence.powerlaw(1.5)])
@pytest.mark.parametrize("n_cut, grid_size", [(4, 32), (30, 128), (32, 128), (64, 256)])
def test_field_values_matches_dense_summation(rng, family, n_cut, grid_size):
    weights = family.values(n_cut)
    stream = NoiseStream(SEED, 0, n_cut, 1e-3)
    for step in range(5):
        delta_b = stream.increment_at(step)
        points = warped_grid(rng, grid_size)
        got = field_values(delta_b, weights, points)
        assert got.shape == points.shape
        c0 = weights[0] * delta_b[n_cut]
        c = weights[1:] * (delta_b[n_cut + 1 :] + 1j * delta_b[n_cut - 1 :: -1])
        err = max_error(got, dense_field_values(delta_b, weights, points))
        assert err <= error_bound(c0, c, points)


@pytest.mark.parametrize("order", [0, 4])
@pytest.mark.parametrize("grid_size", [32, 128, 256])
def test_evaluate_matches_dense_summation(rng, grid_size, order):
    f = full_band(rng, grid_size).derivative(order)
    assert f.coefficients[0][-1] != 0.0  # the Nyquist term is exercised
    c0, c = coefficient_form(f)
    for points in (warped_grid(rng, grid_size), rng.uniform(-np.pi, 3 * np.pi, 500)):
        err = max_error(f.evaluate(points), dense_evaluate(f, points))
        assert err <= error_bound(c0, c, points)


def test_evaluate_accepts_lists_and_scalars(rng):
    f = full_band(rng, 64)
    c0, c = coefficient_form(f)
    listed = [0.1, 2.0, -4.5]
    got = f.evaluate(listed)
    assert got.shape == (3,)
    assert max_error(got, dense_evaluate(f, listed)) <= error_bound(c0, c, np.array(listed))
    scalar = f.evaluate(1.25)
    assert np.ndim(scalar) == 0
    assert max_error(scalar, dense_evaluate(f, 1.25)) <= error_bound(c0, c, np.array([1.25]))
    block = rng.uniform(0.0, 2 * np.pi, (2, 5))
    got = f.evaluate(block)
    assert got.shape == (2, 5)
    assert max_error(got, dense_evaluate(f, block)) <= error_bound(c0, c, block)


def test_wrong_conjugation_fails_the_bound(rng):
    # Negative control: c_n = a_n + i b_n flips every sine term.
    f = full_band(rng, 128)
    a, b = f.coefficients
    c0, c = coefficient_form(f)
    points = warped_grid(rng, 128)
    wrong = trig_sum(a[0], a[1:] + 1j * b[1:], points)
    assert max_error(wrong, dense_evaluate(f, points)) > error_bound(c0, c, points)


def test_value_at_a_point_does_not_depend_on_the_shape(rng):
    f = full_band(rng, 128)
    points = rng.uniform(0.0, 2 * np.pi, 101)
    whole = f.evaluate(points)
    assert np.array_equal(whole, [f.evaluate(p) for p in points])
    for size in (1, 2, 3, 8):
        chunks = [f.evaluate(points[i : i + size]) for i in range(0, points.size, size)]
        assert np.array_equal(whole, np.concatenate(chunks))
    assert np.array_equal(whole[:100].reshape(4, 25), f.evaluate(points[:100].reshape(4, 25)))


@pytest.mark.parametrize(
    "rows, n_cut, grid_size", [(1, 4, 32), (7, 32, 128), (3, 64, 256), (64, 32, 128)]
)
def test_block_rows_equal_single_evaluations(rng, rows, n_cut, grid_size):
    # a (P, 2N+1) block of increments at (P, M) points, row by row
    weights = ScalingSequence.exponential(1.0).values(n_cut)
    streams = [NoiseStream(SEED, p, n_cut, 1e-3) for p in range(rows)]
    delta_b = np.array([s.increment_at(0) for s in streams])
    points = np.array([warped_grid(rng, grid_size) for _ in range(rows)])
    block = field_values(delta_b, weights, points)
    assert block.shape == points.shape
    for p in range(rows):
        assert np.array_equal(block[p], field_values(delta_b[p], weights, points[p]))


def test_block_hk_norms_equal_single_norms(rng):
    fns = [random_band_limited(rng, 128, 30) for _ in range(5)]
    values = np.array([f.grid_values for f in fns])
    for k in (0, 2, 3):
        got = hk_norms(values, k)
        assert got.shape == (5,)
        for norm, f in zip(got, fns):
            assert norm == CircleFunction(f.grid_values).hk_norm(k)


@pytest.mark.parametrize(
    "n_cut, n_max, grid_size", [(4, 8, 32), (32, 64, 256), (5, 64, 256), (30, 33, 256)]
)
def test_zero_padding_is_bitwise_exact(rng, n_cut, n_max, grid_size):
    # Horner's rule over zero leading coefficients adds exact zeros.
    c0 = rng.normal()
    c = rng.normal(size=n_cut) + 1j * rng.normal(size=n_cut)
    padded = np.concatenate([c, np.zeros(n_max - n_cut, dtype=complex)])
    points = warped_grid(rng, grid_size)
    assert np.array_equal(trig_sum(c0, padded, points), trig_sum(c0, c, points))
    # field_values: a block of rows at cutoffs n_cut and n_max, drawn at
    # n_max and weighted by (P, n_max + 1) zero-padded weights, is row by
    # row the unpadded sum on the row's own-cutoff stream
    rows = [(n_cut, ScalingSequence.exponential(1.0)), (n_max, ScalingSequence.powerlaw(1.5)),
            (n_cut, ScalingSequence.powerlaw(1.5))]
    weights = np.zeros((len(rows), n_max + 1))
    for w, (cut, family) in zip(weights, rows):
        w[: cut + 1] = family.values(cut)
    delta_b = np.array([NoiseStream(SEED, p, n_max, 1e-3).increment_at(3) for p in range(3)])
    points = np.array([warped_grid(rng, grid_size) for _ in rows])
    block = field_values(delta_b, weights, points)
    for p, (cut, family) in enumerate(rows):
        own = NoiseStream(SEED, p, cut, 1e-3).increment_at(3)
        assert np.array_equal(block[p], field_values(own, family.values(cut), points[p]))
        assert np.array_equal(field_values(delta_b[p], weights[p], points[p]), block[p])
