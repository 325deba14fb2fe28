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


def grid_points(grid_size):
    """Uniform angles theta_j = 2*pi*j/M, j = 0..M-1."""
    return TWO_PI * np.arange(grid_size) / grid_size


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
    def from_grid(cls, values):
        """Wrap raw samples; the coefficient view stays unset until needed."""
        return cls(values)

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
        a, b = self.coefficients
        n = np.arange(a.size, dtype=float)
        c = (1j * n) ** m * (a - 1j * b)
        da = c.real.copy()
        db = (-c.imag).copy()
        da[-1] = c.real[-1] if m % 2 == 0 else 0.0
        db[-1] = 0.0
        da[0] = 0.0
        db[0] = 0.0
        return CircleFunction.from_coefficients(da, db)

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
    """``c0 + Re sum_{n=1}^{N} c[..., n-1] z^n`` with ``z = exp(i * points)``.

    Horner's rule in ``z`` (Clenshaw, Math. Comp. 9, 1955): one ``exp`` per
    point and N complex multiply-adds, instead of N ``cos`` and ``sin`` calls
    per point.  The modes lie on the last axis of ``c``.  A 1-d ``c`` is one
    sum, evaluated at ``points`` of any shape; a ``(P, N)`` ``c`` with ``(P,)``
    ``c0`` is P sums, row ``p`` evaluated at the row ``points[p]`` of ``(P, M)``
    points.  Every update is elementwise, so a point's value does not depend
    on the shape of ``points`` or on the number of rows.  The product goes to
    a second buffer because NumPy's in-place complex multiply rounds a
    one-element array differently from a longer one.  ``c`` must hold at
    least one term.
    """
    z = np.exp(1j * np.asarray(points, dtype=float))
    terms = np.asarray(c)
    if terms.ndim > 1:  # one coefficient row per row of points
        c0 = np.asarray(c0)[:, None]
        # NumPy adds a scalar faster than a broadcast column, so a single
        # row keeps scalar coefficients
        terms = terms[0] if terms.shape[0] == 1 else terms.T[:, :, None]
    acc = np.empty(z.shape, dtype=complex)
    acc[...] = terms[-1]
    prod = np.empty_like(acc)
    for cn in terms[-2::-1]:
        np.multiply(acc, z, prod)
        np.add(prod, cn, acc)
    np.multiply(acc, z, prod)
    return c0 + prod.real


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
    l2sq = a[..., 0] ** 2 + 0.5 * np.sum(a[..., 1:] ** 2 + b[..., 1:] ** 2, axis=-1)
    if k == 0:
        return np.sqrt(2.0 * l2sq)
    n = np.arange(1, a.shape[-1], dtype=float)
    dsq = 0.5 * np.sum(n ** (2 * k) * (a[..., 1:] ** 2 + b[..., 1:] ** 2), axis=-1)
    return np.sqrt(l2sq + dsq)


def _analyze(values):
    """Coefficient tables ``(a, b)`` of the samples on the last axis."""
    m = values.shape[-1]
    spec = np.fft.rfft(values, axis=-1)
    a = np.empty(spec.shape)
    b = np.zeros(spec.shape)
    a[..., 0] = spec[..., 0].real / m
    a[..., 1 : m // 2] = 2.0 * spec[..., 1 : m // 2].real / m
    b[..., 1 : m // 2] = -2.0 * spec[..., 1 : m // 2].imag / m
    a[..., m // 2] = spec[..., m // 2].real / m
    for arr in (a, b):
        arr.flags.writeable = False
    return a, b


def _synthesize(a, b, p):
    """Samples at ``p >= M`` uniform angles of the function with coefficient
    tables ``(a, b)``, Nyquist cosine included in full (zero padding)."""
    spec = np.zeros(p // 2 + 1, dtype=complex)
    spec[: a.size] = (a - 1j * b) * (p / 2.0)
    spec[0] = a[0] * p
    if a.size == spec.size:
        spec[-1] = a[-1] * p  # the irfft counts its own Nyquist bin once
    return np.fft.irfft(spec, n=p)


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
        return 1.0 + float(np.min(self.vector_part.derivative().dense_values()))

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
    m = max(g.grid_size, warp.grid_size)
    if warp.grid_size == m:
        pts = warp.grid_warp
    else:
        pts = warp(grid_points(m))
    return CircleFunction(g.evaluate(pts))


def sobolev_embedding_constant(k, m, n_max=4096):
    """Admissible constant c with ||f^(m)||_inf <= c * ||f||_{H^k} for m < k.

    Computed as the Cauchy-Schwarz weight sum
    ``(sum_{n in Z} n^{2m} / max(1, (1 + n^{2k})/2))^{1/2}`` truncated at
    ``n_max``, plus the integral tail bound
    ``2 * sum_{n > n_max} n^{2(m-k)} <= 4 * n_max^{1-2(k-m)} / (2(k-m) - 1)``
    added inside the square root, so the returned value is an upper bound of
    the full series and the inequality holds for every band-limited sample.
    """
    if m < 0 or k <= m:
        raise ValueError("need 0 <= m < k")
    n = np.arange(1, n_max + 1, dtype=float)
    body = 2.0 * np.sum(n ** (2 * m) / np.maximum(1.0, (1.0 + n ** (2 * k)) / 2.0))
    if m == 0:
        body += 1.0  # n = 0 term, weight max(1, 1/2) = 1
    p = 2 * (k - m) - 1
    tail = 4.0 * n_max ** (-p) / p
    return float(np.sqrt(body + tail))
