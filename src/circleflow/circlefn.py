"""Real 2*pi-periodic functions on a uniform grid with a Fourier dual view.

Everything downstream (noise fields, flow states, bound certificates) is built
from the ``CircleFunction`` value type defined here.  A function is stored as
its samples at ``theta_j = 2*pi*j/M`` with ``M`` a power of two, together with
a lazily computed real coefficient table ``{a_0, a_n, b_n}`` such that

    f(theta) = a_0 + sum_n a_n cos(n theta) + b_n sin(n theta).

All L2 quantities use the normalized measure ``dtheta / 2*pi``, so constants
have L2 norm ``|c|`` and a pure mode has squared norm ``1/2``.  The H^k norm
is the two-term form ``sqrt(||f||_L2^2 + ||f^(k)||_L2^2)`` (for ``k = 0`` this
is literally ``sqrt(2)`` times the L2 norm; the full-sum Sobolev norm is
equivalent but not what is implemented here).
"""

import functools

import numpy as np

__all__ = [
    "CircleFunction",
    "AffineCircleMap",
    "compose",
    "grid_points",
    "hk_norms",
    "sobolev_embedding_constant",
]

TWO_PI = 2.0 * np.pi

MIN_DERIV_OVERSAMPLE = 4  # grid of ``_min_derivatives`` over the stored grid
EMBEDDING_MODES = 4096  # modes ``sobolev_embedding_constant`` sums before its tail bound
CHUNK = 8  # modes per chunk sum of ``chunked_trig_sum``


@functools.lru_cache(maxsize=32)
def grid_points(grid_size):
    """Uniform angles theta_j = 2*pi*j/M, j = 0..M-1, as one read-only
    array per M (every step reads them)."""
    theta = TWO_PI * np.arange(grid_size) / grid_size
    theta.flags.writeable = False
    return theta


def _require_grid_size(m):
    if m < 4 or (m & (m - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 4, got {m}")


class CircleFunction:
    """Immutable periodic function: locked sample buffer plus coefficient view.

    The coefficient table is computed at most once (lazily) and the sample
    buffer is write-protected, so instances can be shared freely across
    threads and processes.
    """

    __slots__ = ("grid_values", "_coeffs")

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("grid values must be one-dimensional")
        _require_grid_size(values.size)
        values.flags.writeable = False
        self.grid_values = values
        self._coeffs = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, a, b):
        """Build from real cos/sin coefficient tables of length M/2 + 1.

        The stored coefficients are exactly the given ones (no FFT round
        trip), which keeps basis-expansion identities exact in floating point.
        """
        a = np.array(a, dtype=float)
        b = np.array(b, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("coefficient tables must be 1-d and equal length")
        m = 2 * (a.size - 1)
        _require_grid_size(m)
        b = b.copy()
        b[0] = 0.0
        b[-1] = 0.0  # Nyquist sine vanishes on the grid
        fn = cls(_synthesize(a, b, m))
        a = a.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        fn._coeffs = (a, b)
        return fn

    @classmethod
    def zero(cls, grid_size):
        return cls.from_coefficients(
            np.zeros(grid_size // 2 + 1), np.zeros(grid_size // 2 + 1)
        )

    @classmethod
    def constant(cls, value, grid_size):
        a = np.zeros(grid_size // 2 + 1)
        a[0] = value
        return cls.from_coefficients(a, np.zeros_like(a))

    @classmethod
    def harmonic(cls, grid_size, n, cos_amp=0.0, sin_amp=0.0):
        """The single mode cos_amp*cos(n theta) + sin_amp*sin(n theta)."""
        if not 0 <= n <= grid_size // 2:
            raise ValueError("mode outside the representable band")
        a = np.zeros(grid_size // 2 + 1)
        b = np.zeros(grid_size // 2 + 1)
        a[n] = cos_amp
        if n > 0:
            b[n] = sin_amp
        return cls.from_coefficients(a, b)

    # -- views ---------------------------------------------------------------

    @property
    def grid_size(self):
        return self.grid_values.size

    @property
    def coefficients(self):
        """Real coefficient tables ``(a, b)``, each of length M/2 + 1."""
        if self._coeffs is None:
            self._coeffs = _analyze(self.grid_values)
        return self._coeffs

    # -- calculus ------------------------------------------------------------

    def derivative(self, m=1):
        """Spectral m-th derivative (exact for the band-limited interpolant)."""
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        if m == 0:
            return self
        return CircleFunction.from_coefficients(*_derivative_tables(*self.coefficients, m))

    def l2_norm(self):
        a, b = self.coefficients
        return float(np.sqrt(a[0] ** 2 + 0.5 * np.sum(a[1:] ** 2 + b[1:] ** 2)))

    def hk_norm(self, k):
        """Two-term Sobolev norm sqrt(||f||_L2^2 + ||f^(k)||_L2^2)."""
        return float(_hk_norm(*self.coefficients, k))

    def linf_norm(self, oversample=4):
        """Max |f| over a grid ``oversample`` times denser than the stored one."""
        return float(np.max(np.abs(self.dense_values(oversample))))

    def dense_values(self, oversample=4):
        """Samples of the band-limited interpolant on an oversampled grid."""
        if oversample < 1:
            raise ValueError("oversample must be >= 1")
        a, b = self.coefficients
        return _synthesize(a, b, oversample * self.grid_size)

    def evaluate(self, points):
        """The band-limited interpolant at arbitrary angles (any array shape).

        Summed by ``trig_sum`` with ``c_n = a_n - i b_n``, Nyquist term
        included: one ``exp`` per point plus M/2 complex multiply-adds.
        """
        a, b = self.coefficients
        return trig_sum(a[0], a[1:] - 1j * b[1:], points)

    # -- arithmetic (same grid) ----------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, CircleFunction):
            return NotImplemented
        if other.grid_size != self.grid_size:
            raise ValueError("grid sizes differ")
        return CircleFunction(op(self.grid_values, other.grid_values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return CircleFunction(self.grid_values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return CircleFunction(-self.grid_values)

    def __repr__(self):
        return f"CircleFunction(M={self.grid_size})"


def trig_sum(c0, c, points):
    """``c0 + Re sum_{n=1}^{N} c[n-1] z^n`` with ``z = exp(i * points)``.

    Horner's rule in ``z`` (Clenshaw, Math. Comp. 9, 1955): one ``exp`` per
    point and N complex multiply-adds, instead of N ``cos`` and ``sin`` calls
    per point, for 1-d ``c`` at ``points`` of any shape.  Every update is
    elementwise, so a point's value does not depend on the shape of
    ``points``.  The product goes to a second buffer because NumPy's
    in-place complex multiply rounds a one-element array differently from a
    longer one.  ``c`` must hold at least one term.
    """
    z = np.exp(1j * np.asarray(points, dtype=float))
    acc = np.empty(z.shape, dtype=complex)
    acc[...] = c[-1]
    prod = np.empty_like(acc)
    for cn in c[-2::-1]:
        np.multiply(acc, z, prod)
        np.add(prod, cn, acc)
    np.multiply(acc, z, prod)
    return c0 + prod.real


def chunked_trig_sum(c0, c, points):
    """``trig_sum`` row by row, in chunks of ``CHUNK`` modes.

    Row ``p`` of ``(P, N)`` coefficients ``c`` and ``(P,)`` constants ``c0``
    is evaluated at the row ``points[p]`` of ``(P, M)`` points; 1-d ``c``
    and ``points`` are one row.  Baby-step giant-step evaluation (Paterson
    and Stockmeyer, SIAM J. Comput. 2, 1973): the coefficients are
    zero-padded to K whole chunks, the powers ``z^0..z^7`` are one
    ``(P, 8, M)`` array, and with ``w = z^8`` the sum
    ``sum_{m<8K} c_{m+1} z^m = sum_k S_k w^k`` is folded from the top chunk
    down by Horner's rule in ``w``, each chunk sum ``S_k`` being one
    ``(1 x 8) @ (8 x M)`` product per row.  That is one ``matmul`` and two
    array updates per chunk, where ``trig_sum`` makes two updates per mode.

    Every chunk sum is the same product of the row's own data whatever the
    number of rows or chunks, so a row's values do not depend on the other
    rows.  A chunk of zeros sums to exact zero and Horner's rule over exact
    zeros is exact, so zero modes appended to ``c`` leave the values bitwise
    unchanged.  A BLAS product's value at a point does depend on the number
    of points, which is why ``CircleFunction.evaluate`` keeps ``trig_sum``.

    Rounding (u = eps/2, the standard model of Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sections 3.6 and 5.1).
    Term n = 1 + 8k + j, 0 <= j < 8, reaches the result through
    * the error of ``z`` (``|z^ - z| <= 2 eps``), seen as ``z^n``: ``2n eps``;
    * n - 1 complex multiplications (``sqrt(2) gamma_2``, about 1.42 eps,
      each) outside the chunk sum: j - 1 for ``z^j`` (none for j <= 1), 8k
      for ``w^k`` (7 form ``w = z^7 z``, raised to the k-th power, and k
      Horner steps) and one by the final ``z``, or n of them for j = 0;
    * the chunk sum, at most 4.92 eps: one product and seven additions as
      complex multiply-adds, ``sqrt(2) gamma_6`` (4.24 eps) in OpenBLAS's
      AVX2 kernel, which sums each real component of four terms by FMA and
      adds the two partial sums; for j = 0 the product by ``z^0 = 1`` is
      exact and it costs 3.5 eps;
    * k Horner additions, forming ``c_n`` and adding ``c0``: ``(k + 2) u``.
    That is at most ``(3.42 n + 4.5 + k/2) eps <= (3.48 n + 4.44) eps`` per
    term, within the bound ``4 (n + 1) eps`` of ``trig_sum`` for n >= 1.
    """
    z = np.exp(1j * np.asarray(points, dtype=float))
    n_chunks = -(-c.shape[-1] // CHUNK)
    padded = np.zeros(c.shape[:-1] + (n_chunks * CHUNK,), dtype=complex)
    padded[..., : c.shape[-1]] = c
    chunks = padded.reshape(c.shape[:-1] + (n_chunks, 1, CHUNK))
    powers = np.empty(z.shape[:-1] + (CHUNK,) + z.shape[-1:], dtype=complex)
    powers[..., 0, :] = 1.0
    powers[..., 1, :] = z
    for j in range(2, CHUNK):
        np.multiply(powers[..., j - 1, :], z, powers[..., j, :])
    z = z[..., None, :]  # (..., 1, M), the shape of a chunk sum
    w = powers[..., -1:, :] * z
    acc = chunks[..., -1, :, :] @ powers
    prod = np.empty_like(acc)
    for k in range(n_chunks - 2, -1, -1):
        np.multiply(acc, w, prod)
        np.add(prod, chunks[..., k, :, :] @ powers, acc)
    np.multiply(acc, z, prod)
    return np.asarray(c0)[..., None] + prod[..., 0, :].real


def hk_norms(values, k):
    """H^k norms of the functions sampled on the last axis of ``values``.

    One ``rfft`` over all rows and the formula of ``CircleFunction.hk_norm``
    (``_hk_norm``), so a row's norm is bitwise ``CircleFunction(row).hk_norm(k)``.
    """
    return _hk_norm(*_analyze(values), k)


def _hk_norm(a, b, k):
    """Two-term H^k norms from coefficient tables with modes on the last axis."""
    if k < 0:
        raise ValueError("Sobolev index must be >= 0")
    sq = a[..., 1:] ** 2 + b[..., 1:] ** 2
    l2sq = a[..., 0] ** 2 + 0.5 * sq.sum(axis=-1)
    if k == 0:
        return np.sqrt(2.0 * l2sq)
    dsq = 0.5 * (_mode_powers(a.shape[-1], 2 * k) * sq).sum(axis=-1)
    return np.sqrt(l2sq + dsq)


@functools.lru_cache(maxsize=32)
def _mode_powers(size, p):
    """``n ** p`` for the modes n = 1..size-1, one read-only array per
    ``(size, p)``."""
    w = np.arange(1, size, dtype=float) ** p
    w.flags.writeable = False
    return w


def _derivative_tables(a, b, m):
    """Coefficient tables of the spectral m-th derivative, m >= 1, of the
    tables ``(a, b)`` with modes on the last axis (Nyquist sine dropped)."""
    n = np.arange(a.shape[-1], dtype=float)
    c = (1j * n) ** m * (a - 1j * b)
    da = c.real.copy()
    db = (-c.imag).copy()
    da[..., -1] = c.real[..., -1] if m % 2 == 0 else 0.0
    db[..., -1] = 0.0
    da[..., 0] = 0.0
    db[..., 0] = 0.0
    return da, db


def _min_derivatives(a, b):
    """Minimum of ``1 + f'`` on a grid ``MIN_DERIV_OVERSAMPLE`` times denser
    than the stored one, for each function whose coefficient tables are the
    rows of ``(a, b)``: one zero-padded ``irfft`` over all rows.  A row's
    value is bitwise ``AffineCircleMap.min_derivative`` of its function."""
    p = MIN_DERIV_OVERSAMPLE * 2 * (a.shape[-1] - 1)
    return 1.0 + np.min(_synthesize(*_derivative_tables(a, b, 1), p), axis=-1)


def _analyze(values):
    """Coefficient tables ``(a, b)`` of the samples on the last axis.

    The spectrum is scaled by ``_analysis_scales``: M is a power of two, so
    ``x * (2/M)`` is ``2x/M`` exactly.  ``rfft`` of real samples has exact
    zero imaginary parts at mode 0 and at the Nyquist mode, so those entries
    of ``b`` are exact zeros."""
    scale_a, scale_b = _analysis_scales(values.shape[-1])
    spec = np.fft.rfft(values, axis=-1)
    a = spec.real * scale_a
    b = spec.imag * scale_b
    for arr in (a, b):
        arr.flags.writeable = False
    return a, b


@functools.lru_cache(maxsize=32)
def _analysis_scales(m):
    """The factors of ``_analyze`` for M samples, as two read-only
    ``(M/2+1,)`` rows: ``1/M, 2/M, ..., 2/M, 1/M`` for the cosine table and
    ``0, -2/M, ..., -2/M, 0`` for the sine table."""
    scale_a = np.full(m // 2 + 1, 2.0 / m)
    scale_a[[0, -1]] = 1.0 / m
    scale_b = np.full(m // 2 + 1, -2.0 / m)
    scale_b[[0, -1]] = 0.0
    for arr in (scale_a, scale_b):
        arr.flags.writeable = False
    return scale_a, scale_b


def _synthesize(a, b, p):
    """Samples at ``p >= M`` uniform angles of the function with coefficient
    tables ``(a, b)``, Nyquist cosine included in full (zero padding).
    Modes lie on the last axis; one ``irfft`` synthesizes every row."""
    size = a.shape[-1]
    spec = np.zeros(a.shape[:-1] + (p // 2 + 1,), dtype=complex)
    spec[..., :size] = (a - 1j * b) * (p / 2.0)
    spec[..., 0] = a[..., 0] * p
    if size == spec.shape[-1]:
        spec[..., -1] = a[..., -1] * p  # the irfft counts its own Nyquist bin once
    return np.fft.irfft(spec, n=p, axis=-1)


class AffineCircleMap:
    """Degree-one circle map ``id + f``: satisfies map(t + 2*pi) = map(t) + 2*pi.

    It is an orientation preserving diffeomorphism exactly when
    ``1 + f' > 0`` everywhere; ``min_derivative`` reports the grid minimum of
    ``1 + f'`` on a 4x oversampled grid.
    """

    __slots__ = ("vector_part",)

    def __init__(self, vector_part):
        if not isinstance(vector_part, CircleFunction):
            raise TypeError("vector part must be a CircleFunction")
        self.vector_part = vector_part

    @classmethod
    def identity(cls, grid_size):
        return cls(CircleFunction.zero(grid_size))

    @classmethod
    def rotation(cls, angle, grid_size):
        return cls(CircleFunction.constant(angle, grid_size))

    @property
    def grid_size(self):
        return self.vector_part.grid_size

    @property
    def grid_warp(self):
        """theta_j + f(theta_j), exact at the stored grid."""
        return grid_points(self.grid_size) + self.vector_part.grid_values

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        return points + self.vector_part.evaluate(points)

    @property
    def min_derivative(self):
        return float(_min_derivatives(*self.vector_part.coefficients))

    @property
    def is_diffeo(self):
        return self.min_derivative > 0.0


def compose(g, warp):
    """Left translation of ``g`` by the map ``warp``: theta -> g(warp(theta)).

    The result is re-sampled on the finer of the two grids; composed
    functions are not band-limited, so callers keep aliasing in check by the
    usual margin (grid at least 4x the active mode band).
    """
    if not isinstance(warp, AffineCircleMap):
        raise TypeError("warp must be an AffineCircleMap")
    if not np.any(warp.vector_part.grid_values) and g.grid_size >= warp.grid_size:
        return g  # identity warp: exact on the grid
    return CircleFunction(g.evaluate(_warp_points(warp, max(g.grid_size, warp.grid_size))))


def _warp_points(warp, m):
    """The points ``warp(theta_j)`` of the m-point grid, m at least the
    warp's own grid: its exact ``grid_warp`` when m is that grid, else
    ``warp`` evaluated at ``grid_points(m)``."""
    return warp.grid_warp if warp.grid_size == m else warp(grid_points(m))


def sobolev_embedding_constant(k, m):
    """Admissible constant c with ||f^(m)||_inf <= c * ||f||_{H^k} for m < k.

    Computed as the Cauchy-Schwarz weight sum
    ``(sum_{n in Z} n^{2m} / max(1, (1 + n^{2k})/2))^{1/2}`` truncated at
    ``N = EMBEDDING_MODES``, plus the integral tail bound
    ``2 * sum_{n > N} n^{2(m-k)} <= 4 * N^{1-2(k-m)} / (2(k-m) - 1)``
    added inside the square root, so the returned value is an upper bound of
    the full series and the inequality holds for every band-limited sample.
    """
    if m < 0 or k <= m:
        raise ValueError("need 0 <= m < k")
    n = np.arange(1, EMBEDDING_MODES + 1, dtype=float)
    body = 2.0 * np.sum(n ** (2 * m) / np.maximum(1.0, (1.0 + n ** (2 * k)) / 2.0))
    if m == 0:
        body += 1.0  # n = 0 term, weight max(1, 1/2) = 1
    p = 2 * (k - m) - 1
    tail = 4.0 * EMBEDDING_MODES ** (-p) / p
    return float(np.sqrt(body + tail))
