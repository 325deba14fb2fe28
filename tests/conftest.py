import numpy as np
import pytest

from circleflow import CircleFunction


def random_band_limited(rng, grid_size, n_modes, decay=0.4, include_mean=True):
    """Random function with modes <= n_modes and geometrically damped amplitudes."""
    a = np.zeros(grid_size // 2 + 1)
    b = np.zeros(grid_size // 2 + 1)
    damp = np.exp(-decay * np.arange(n_modes + 1))
    a[: n_modes + 1] = rng.normal(0.0, 1.0, n_modes + 1) * damp
    if not include_mean:
        a[0] = 0.0
    b[1 : n_modes + 1] = rng.normal(0.0, 1.0, n_modes) * damp[1:]
    return CircleFunction.from_coefficients(a, b)


def quadrature_norms(f, k, oversample=32):
    """Trapezoid-rule oracle for the L2 and H^k norms on a fine grid.

    Periodic trapezoid = plain mean under the normalized measure; kept
    independent of the coefficient formulas it is used to check.
    """
    dense = f.dense_values(oversample)
    l2_sq = float(np.mean(dense**2))
    dk = f.derivative(k).dense_values(oversample) if k > 0 else dense
    dk_sq = float(np.mean(dk**2))
    return np.sqrt(l2_sq), np.sqrt(l2_sq + dk_sq)


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


def columns(record):
    """The sample columns of a path record as raw bytes, for bitwise
    comparison."""
    return tuple(c.tobytes() for c in (record.t, record.hk, record.min_deriv, record.stopped))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
