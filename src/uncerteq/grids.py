"""Discretized L2(R^n): uniform tensor grids, quadrature and operators.

The box is [-L, L)^n with N points per axis at x_j = -L + (j + offset) h,
h = 2L/N.  A nonzero offset keeps every sample away from the origin, which
the singular operators (1/|x|, x/|x|) require.  Derivatives come from the
periodic Fourier transform or from periodic central differences; test states
are smooth and rapidly decaying, so the periodic wrap carries no mass.  Real
input is stored as float64, anything else as complex128, and the operators
keep the dtype of their input.  The Fourier path picks its transform from
the dtype: a real field (every Hardy state) takes the real-input transform on
the half spectrum, a complex one the full transform.  Derivatives are written
into the caller's buffer, and x.grad is summed axis by axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .report import EqualityReport, compare

SCHEMES = ("spectral_periodic", "central_diff_2", "central_diff_4")
MAX_POINTS = 2 ** 24    # points per grid; also the largest --dim of a vector pair


@dataclass(frozen=True)
class GridSpec:
    """Uniform n-dimensional tensor grid on [-L, L)^n."""

    n: int
    N: int
    L: float
    offset: float = 0.0
    scheme: str = "spectral_periodic"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.N < 2:
            raise ValueError("need at least two points per axis")
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"half-width must be finite and positive, got {self.L}")
        if not 0.0 <= self.offset < 1.0:
            raise ValueError("offset must lie in [0, 1)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "spectral_periodic" and self.N % 2:
            raise ValueError("spectral scheme requires an even point count")
        if self.N ** self.n > MAX_POINTS:
            raise ValueError("grid exceeds the 2^24 point cap")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def weight(self) -> float:
        return self.h ** self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def axis_coords(self) -> np.ndarray:
        return -self.L + (np.arange(self.N) + self.offset) * self.h

    def coord(self, axis: int) -> np.ndarray:
        """Coordinate x_axis broadcastable over the full grid shape."""
        shape = [1] * self.n
        shape[axis] = self.N
        return self.axis_coords().reshape(shape)

    @property
    def excludes_origin(self) -> bool:
        return float(_radius(self).min()) > 0.0

    def to_dict(self) -> dict:
        return {"n": self.n, "N": self.N, "L": self.L,
                "offset": self.offset, "scheme": self.scheme}


@lru_cache(maxsize=2)
def _radius_sq(grid: GridSpec) -> np.ndarray:
    r2 = np.zeros(grid.shape)
    for axis in range(grid.n):
        r2 = r2 + grid.coord(axis) ** 2
    r2.setflags(write=False)
    return r2


@lru_cache(maxsize=2)
def _radius(grid: GridSpec) -> np.ndarray:
    r = np.sqrt(_radius_sq(grid))
    r.setflags(write=False)
    return r


@lru_cache(maxsize=8)
def _wavenumbers(grid: GridSpec, half: bool) -> np.ndarray:
    """Angular wavenumbers of the full spectrum, or of the half one (rfft)."""
    freq = np.fft.rfftfreq if half else np.fft.fftfreq
    k = 2.0 * math.pi * freq(grid.N, d=grid.h)
    k.setflags(write=False)
    return k


@lru_cache(maxsize=8)
def lattice_zeta(n: int, c: float) -> float:
    """Z_{n,c}(2), the sum of |m + c(1, ..., 1)|^-2 over m in Z^n continued to
    n >= 3, c outside Z: on a grid of spacing h and offset c (N even) the grid
    sum of f/|x|^2 misses its integral by h^(n-2) f(0) Z.  Ewald's split at pi,
    a = (n-2)/2: Z = pi [sum_m e^(-pi|m+c|^2) / (pi|m+c|^2) - 1/a + sum_{k != 0}
    cos(2 pi k.c) Gamma(a, pi|k|^2) / (pi|k|^2)^a]; with c in [-1/2, 1/2]
    (period 1), |m_i|, |k_i| <= 3 omit no term above 1e-16."""
    c, a = c - round(c), 0.5 * (n - 2)
    pts = np.indices((7,) * n).reshape(n, -1) - 3
    x = math.pi * np.sum((pts + c) ** 2, axis=0)
    # Gamma(a, y) / y^a at y = pi |k|^2 in pi * (1..9n), from Gamma(1/2, y) or
    # Gamma(1, y) by Gamma(b + 1, y) = b Gamma(b, y) + y^b e^-y.
    y = math.pi * np.arange(1.0, 9 * n + 1)
    g = math.sqrt(math.pi) * np.vectorize(math.erfc)(y ** 0.5) if a % 1 else np.exp(-y)
    for b in np.arange(a % 1 or 1.0, a):
        g = b * g + y ** b * np.exp(-y)
    weights = np.concatenate(([0.0], g / y ** a))[np.sum(pts * pts, axis=0)]
    recip = np.cos(2.0 * math.pi * c * pts.sum(axis=0)) @ weights
    return float(math.pi * (np.sum(np.exp(-x) / x) - 1.0 / a + recip))


def _require_origin_free(grid: GridSpec):
    if not grid.excludes_origin:
        raise ValueError(
            "a grid sample sits at the origin; use a nonzero offset for "
            "operators singular at 0")


class _GridQuantity:
    """Shared arithmetic and quadrature for scalar and vector grid data."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: GridSpec, data: np.ndarray):
        data = np.asarray(data, dtype=np.complex128 if np.iscomplexobj(data)
                          else np.float64)
        if data.shape != self._expected_shape(grid):
            raise ValueError(
                f"data shape {data.shape} does not match grid "
                f"{self._expected_shape(grid)}")
        if not np.isfinite(data).all():
            raise ValueError("field values must be finite")
        self.grid = grid
        self.data = data

    def _expected_shape(self, grid: GridSpec) -> tuple[int, ...]:
        raise NotImplementedError

    def inner(self, other) -> complex:
        if type(other) is not type(self) or other.grid != self.grid:
            raise ValueError("grid or kind mismatch in scalar product")
        return complex(np.vdot(other.data, self.data) * self.grid.weight)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def norm_sq(self) -> float:
        return float(np.vdot(self.data, self.data).real) * self.grid.weight

    def __add__(self, other):
        if type(other) is not type(self) or other.grid != self.grid:
            raise ValueError("grid or kind mismatch")
        return type(self)(self.grid, self.data + other.data)

    def __sub__(self, other):
        if type(other) is not type(self) or other.grid != self.grid:
            raise ValueError("grid or kind mismatch")
        return type(self)(self.grid, self.data - other.data)

    def __mul__(self, scalar):
        return type(self)(self.grid, self.data * _scalar(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return type(self)(self.grid, self.data / _scalar(scalar))


def _scalar(value) -> float | complex:
    """``value`` as a Python number; a real one stays real."""
    return complex(value) if np.iscomplexobj(value) else float(value)


class StateField(_GridQuantity):
    """Real or complex scalar function sampled on a GridSpec."""

    def _expected_shape(self, grid: GridSpec) -> tuple[int, ...]:
        return grid.shape

    @property
    def values(self) -> np.ndarray:
        return self.data

    @classmethod
    def from_callable(cls, grid: GridSpec, fn) -> "StateField":
        coords = np.meshgrid(*[grid.axis_coords()] * grid.n, indexing="ij")
        return cls(grid, fn(*coords))


class VectorField(_GridQuantity):
    """R^n- or C^n-valued function on a GridSpec; one component per axis."""

    def _expected_shape(self, grid: GridSpec) -> tuple[int, ...]:
        return (grid.n,) + grid.shape


def _spectral_axis(grid: GridSpec, values: np.ndarray, axis: int,
                   symbol, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply the transform of ``values`` along ``axis`` by ``symbol(k)``.

    Real data take the real-input transform and the half spectrum
    k = 0..N/2; complex data take the full one.  Either way the symbol is
    multiplied into the spectrum in place and the result goes to ``out`` if
    given, so the spectrum is the only temporary of the size of the data.
    """
    shape = [1] * grid.n
    shape[axis] = -1
    if np.iscomplexobj(values):
        fk = np.fft.fft(values, axis=axis)
        fk *= symbol(_wavenumbers(grid, False)).reshape(shape)
        return np.fft.ifft(fk, axis=axis, out=out)
    fk = np.fft.rfft(values, axis=axis)
    fk *= symbol(_wavenumbers(grid, True)).reshape(shape)
    return np.fft.irfft(fk, n=grid.N, axis=axis, out=out)


def _derivative_axis(grid: GridSpec, values: np.ndarray, axis: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    if grid.scheme == "spectral_periodic":
        def ik(k):
            # The Nyquist mode (entry N/2 of the full and of the half
            # spectrum) has no well-defined sign for an odd derivative.  k is
            # cached read-only; 1j * k is a fresh array.
            s = 1j * k
            s[grid.N // 2] = 0.0
            return s
        return _spectral_axis(grid, values, axis, ik, out)
    if grid.scheme == "central_diff_2":
        num, den = np.roll(values, -1, axis) - np.roll(values, 1, axis), 2
    else:  # central_diff_4
        num, den = (-np.roll(values, -2, axis) + 8 * np.roll(values, -1, axis)
                    - 8 * np.roll(values, 1, axis) + np.roll(values, 2, axis)), 12
    return np.divide(num, den * grid.h, out=out)


def gradient(phi: StateField) -> VectorField:
    grid = phi.grid
    comps = np.empty((grid.n,) + grid.shape, dtype=phi.data.dtype)
    for axis in range(grid.n):
        _derivative_axis(grid, phi.data, axis, comps[axis])
    return VectorField(grid, comps)


def position(phi: StateField) -> VectorField:
    grid = phi.grid
    comps = np.empty((grid.n,) + grid.shape, dtype=phi.data.dtype)
    for axis in range(grid.n):
        comps[axis] = grid.coord(axis) * phi.data
    return VectorField(grid, comps)


def momentum(phi: StateField) -> VectorField:
    return -1j * gradient(phi)


def x_dot_grad(phi: StateField) -> StateField:
    grid = phi.grid
    out = np.zeros(grid.shape, dtype=phi.data.dtype)
    d = np.empty_like(out)
    for axis in range(grid.n):
        _derivative_axis(grid, phi.data, axis, d)
        out += np.multiply(grid.coord(axis), d, out=d)
    return StateField(grid, out)


def dilation_generator(phi: StateField) -> StateField:
    """-i x.grad phi - i (n/2) phi, the symmetrized scaling generator."""
    grid = phi.grid
    return StateField(grid, -1j * (x_dot_grad(phi).data + 0.5 * grid.n * phi.data))


def neg_laplacian(phi: StateField) -> StateField:
    grid = phi.grid
    out = np.zeros(grid.shape, dtype=phi.data.dtype)
    for axis in range(grid.n):
        if grid.scheme == "spectral_periodic":
            out += _spectral_axis(grid, phi.data, axis, np.square)
        else:
            # Central schemes apply the first-derivative stencil twice, so
            # that summation by parts ((-lap phi|phi) = ||grad phi||^2) holds
            # exactly.
            d = _derivative_axis(grid, phi.data, axis)
            out -= _derivative_axis(grid, d, axis)
    return StateField(grid, out)


def _radial_part(grid: GridSpec, g: np.ndarray) -> np.ndarray:
    """(x/|x|).g for gradient data g, accumulated in axis order."""
    out = np.zeros(grid.shape, dtype=g.dtype)
    buf = np.empty_like(out)
    for axis in range(grid.n):
        out += np.multiply(np.divide(grid.coord(axis), _radius(grid), out=buf),
                           g[axis], out=buf)
    return out


def _tangential_part(grid: GridSpec, g: np.ndarray, dr: np.ndarray,
                     buf: np.ndarray | None = None) -> np.ndarray:
    """g - (x/|x|) dr into g, dr the radial part of g; buf: scratch or None."""
    for axis in range(grid.n):
        g[axis] -= np.multiply(np.divide(grid.coord(axis), _radius(grid),
                                         out=buf), dr, out=buf)
    return g


def radial_part(g: VectorField) -> StateField:
    """(x/|x|).g; of g = grad phi it is the radial derivative of phi."""
    _require_origin_free(g.grid)
    return StateField(g.grid, _radial_part(g.grid, g.data))


def radial_derivative(phi: StateField) -> StateField:
    """(x/|x|).grad phi."""
    return radial_part(gradient(phi))


def radial_derivative_sym(phi: StateField) -> StateField:
    """-i (x/|x|).grad phi - i (n-1)/(2|x|) phi."""
    grid = phi.grid
    dr = radial_derivative(phi)
    return StateField(grid, -1j * (dr.data + 0.5 * (grid.n - 1) / _radius(grid)
                                   * phi.data))


def coulomb(phi: StateField) -> StateField:
    grid = phi.grid
    _require_origin_free(grid)
    return StateField(grid, phi.data / _radius(grid))


def spherical_derivative(phi: StateField) -> VectorField:
    """L phi = grad phi - (x/|x|) (x/|x|).grad phi, one component per axis."""
    grid = phi.grid
    _require_origin_free(grid)
    g = gradient(phi).data
    return VectorField(grid, _tangential_part(grid, g, _radial_part(grid, g)))


def pointwise_split(g: VectorField, dr: StateField,
                    tol: float = 1e-10) -> EqualityReport:
    """|grad phi|^2 = |d_r phi|^2 + |L phi|^2, pointwise and integrated, from
    g = grad phi (overwritten once read) and dr, its radial part."""
    grid = g.grid
    sq = np.empty(grid.shape)
    real = not np.iscomplexobj(dr.data)
    lhs_point = np.zeros(grid.shape)
    for comp in g.data:
        lhs_point += np.square(comp if real else np.abs(comp, out=sq), out=sq)
    tangential = _tangential_part(grid, g.data, dr.data, sq if real else None)
    rhs_point = np.square(dr.data if real else np.abs(dr.data), out=sq)
    for comp in tangential:
        rhs_point += np.square(comp, out=comp) if real else np.abs(comp) ** 2
    lhs = float(np.sum(lhs_point)) * grid.weight
    rhs = float(np.sum(rhs_point)) * grid.weight
    lhs_point -= rhs_point
    max_point = float(np.max(np.abs(lhs_point, out=lhs_point)))
    return compare("grad.pointwise_split", lhs, rhs, tol,
                   context={"grid": grid.to_dict(),
                            "max_pointwise_residual": max_point})


def pointwise_gradient_decomposition(phi: StateField,
                                     tol: float = 1e-10) -> EqualityReport:
    """``pointwise_split`` of one gradient of phi."""
    g = gradient(phi)
    return pointwise_split(g, radial_part(g), tol)
