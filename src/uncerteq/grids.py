"""Discretized L2(R^n): uniform tensor grids, quadrature and operators.

The box is [-L, L)^n with N points per axis at x_j = -L + (j + offset) h,
h = 2L/N.  A nonzero offset keeps every sample away from the origin, which
the singular operators (1/|x|, x/|x|) require.  Each derivative scheme is
its Fourier symbol, multiplied into the periodic transform: ik (spectral),
or the symbol of a periodic central difference, which is exactly that
difference.  Test states are smooth and rapidly decaying, so the periodic
wrap carries no mass.  Real input is stored as float64, anything else as
complex128, and the operators keep the dtype of their input.  The transform
follows the dtype: a real field (every Hardy state) takes the real-input
transform on the half spectrum, a complex one the full transform.
Derivatives are written into the caller's buffer, and x.grad is summed axis
by axis.  On a large array, a leading axis is transformed in cache-sized
blocks moved to the contiguous last axis.  ``hardy_terms`` sums the Hardy
norms in one pass over cache-sized slabs of axis-0 planes.

A :class:`StateField` holds one state or a stack of them on a leading axis;
operators act on the last axes, and ``inner`` and the norms give one value per
row.  The same class holds the radial profiles of :mod:`uncerteq.radial`,
whose space is a radial rule instead of a GridSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .complexspace import STACK_ENTRIES
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

    def integrate(self, values: np.ndarray):
        """One integral per row of flattened samples: the row's sum times h^n."""
        return values.sum(axis=-1) * self.weight

    def axis_coords(self) -> np.ndarray:
        return -self.L + (np.arange(self.N) + self.offset) * self.h

    def coord(self, axis: int) -> np.ndarray:
        """Coordinate x_axis broadcastable over the full grid shape."""
        shape = [1] * self.n
        shape[axis] = self.N
        return self.axis_coords().reshape(shape)

    @property
    def excludes_origin(self) -> bool:
        return float(np.min(self.axis_coords() ** 2)) > 0.0   # min |x|^2 / n

    def to_dict(self) -> dict:
        return {"n": self.n, "N": self.N, "L": self.L,
                "offset": self.offset, "scheme": self.scheme}


def _sum_sq(coords) -> np.ndarray:
    """sum_j x_j^2 over broadcastable axis coordinates, in axis order, as a
    fresh array: the small partial sums come first, so only the last add has
    the full shape."""
    coords = iter(coords)
    r2 = next(coords) ** 2
    for coord in coords:
        r2 = r2 + coord ** 2
    return r2


@lru_cache(maxsize=2)
def _radius_sq(grid: GridSpec) -> np.ndarray:
    r2 = _sum_sq(map(grid.coord, range(grid.n)))
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
def _symbols(grid: GridSpec, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """The scheme's multipliers along one axis, i s(k) for the first
    derivative and s(k)^2 for -Laplacian: s = k (spectral), sin kh / h
    (central_diff_2) or (8 sin kh - sin 2kh) / (6h) (central_diff_4).  A
    central difference on a periodic grid is exactly this multiplier.  The
    Nyquist mode of an even N (entry N/2 of the full and of the half
    spectrum) has no well-defined sign for an odd derivative, so i s is 0
    there."""
    k, h = _wavenumbers(grid, half), grid.h
    if grid.scheme == "central_diff_2":
        k = np.sin(k * h) / h
    elif grid.scheme == "central_diff_4":
        k = (8.0 * np.sin(k * h) - np.sin(2.0 * k * h)) / (6.0 * h)
    d = 1j * k
    if grid.N % 2 == 0:
        d[grid.N // 2] = 0.0
    table = d, np.square(k)
    for a in table:
        a.setflags(write=False)
    return table


def _derivative_symbol(grid: GridSpec, half: bool) -> np.ndarray:
    return _symbols(grid, half)[0]


def _laplacian_symbol(grid: GridSpec, half: bool) -> np.ndarray:
    return _symbols(grid, half)[1]


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


def _require_finite(data: np.ndarray, what: str = "field values"):
    if not np.isfinite(data).all():
        raise ValueError(f"{what} must be finite")


class StateField:
    """A state, or a stack of them on a leading axis, on a space: a GridSpec
    or a radial rule.  It holds the samples ``data`` and, for a radial
    profile, an optional analytic derivative ``deriv``, which +, -, * and /
    carry along when every operand has one.  Real data stay float64,
    anything else is complex128; both are checked once per stack.  ``inner``
    and the norms give one value per row, each summed by the space's
    ``integrate`` in real arithmetic: the bits of a complex product or of a
    BLAS dot would depend on numpy's SIMD path or on the BLAS thread count.
    """

    __slots__ = ("space", "data", "deriv")
    __array_ufunc__ = None      # ndarray * field defers to __rmul__
    vector = False              # True: one component per axis ahead of the grid axes

    def __init__(self, space, data, deriv=None):
        self.space = space
        self.data = self._checked(data, "field values")
        self.deriv = None if deriv is None else self._checked(
            deriv, "derivative", self.data.shape)

    def _checked(self, data, what: str, shape=None) -> np.ndarray:
        data = np.asarray(data, dtype=np.complex128 if np.iscomplexobj(data)
                          else np.float64)
        row = (self.space.n,) * self.vector + self.space.shape
        if (data.shape[-len(row):] != row or data.ndim > len(row) + 1
                or data.shape != (shape or data.shape)):
            raise ValueError(f"{what} of shape {data.shape} do not match "
                             f"{shape or row}" + ("" if shape else " or a stack of it"))
        _require_finite(data, what)
        return data

    @property
    def values(self) -> np.ndarray:
        return self.data

    @property
    def _rank(self) -> int:    # the axes of one state
        return len(self.space.shape) + self.vector

    def _flat(self) -> np.ndarray:     # (states, entries) for a stack, else flat
        return self.data.reshape(self.data.shape[:-self._rank] + (-1,))

    def _same_space(self, other) -> "StateField":
        if type(other) is not type(self) or other.space != self.space:
            raise ValueError("space or kind mismatch")
        return other

    def single(self, name: str):
        """Refuse a stack in ``name``, which reports on one state."""
        if self.data.ndim > self._rank:
            raise ValueError(f"{name} takes one state, not a stack of {len(self.data)}")

    @classmethod
    def from_callable(cls, grid: GridSpec, fn) -> "StateField":
        coords = np.meshgrid(*[grid.axis_coords()] * grid.n, indexing="ij")
        return cls(grid, fn(*coords))

    def inner(self, other) -> complex | np.ndarray:
        """<self, other>, linear in self: Re and Im of self * conj(other)."""
        x, y = self._flat(), self._same_space(other)._flat()
        integrate = self.space.integrate
        re = x.real * y.real
        re += x.imag * y.imag
        re = integrate(re)      # frees the products before im's are formed
        im = x.imag * y.real
        im -= x.real * y.imag
        return _per_row(re + 1j * integrate(im), complex)

    def norm(self) -> float | np.ndarray:
        return _per_row(np.sqrt(self.norm_sq()))

    def norm_sq(self) -> float | np.ndarray:
        return _per_row(self.space.integrate(_abs_sq(self._flat())))

    def _combine(self, other, op):
        other = self._same_space(other)
        deriv = (None if self.deriv is None or other.deriv is None
                 else op(self.deriv, other.deriv))
        return type(self)(self.space, op(self.data, other.data), deriv)

    def _scaled(self, scalar, op):
        # A scalar, or one per row of a stack, shaped to broadcast over rows.
        scalar = np.reshape(scalar, np.shape(scalar) + (1,) * self._rank)
        deriv = None if self.deriv is None else op(self.deriv, scalar)
        return type(self)(self.space, op(self.data, scalar), deriv)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        return self._scaled(scalar, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._scaled(scalar, np.divide)


_GridQuantity = StateField     # the name perfbench/spans.py traces


def _per_row(value, kind=float):
    return kind(value) if np.ndim(value) == 0 else value


def _abs_sq(a: np.ndarray) -> np.ndarray:
    out = np.square(a.real)
    if np.iscomplexobj(a):
        out += np.square(a.imag)    # in place: two arrays of a's size at once, not three
    return out


class VectorField(StateField):
    """R^n- or C^n-valued function on a GridSpec; one component per axis."""

    vector = True


def _spectral_axis(grid: GridSpec, values: np.ndarray, axis: int,
                   symbol, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply the transform of ``values`` along ``axis`` by ``symbol(grid, half)``.

    Real data take the real-input transform and the half spectrum
    k = 0..N/2; complex data take the full one.  Either way the symbol is
    multiplied into the spectrum in place and the result goes to ``out`` if
    given, so the spectrum is the only temporary of the size of the data.

    An axis that is not the last is transformed in blocks of rows of another
    grid axis (grid axis 1 for axis 0, else grid axis 0), each of at most
    STACK_ENTRIES values or one row, when there is more than one block: each
    block is copied with ``axis`` last and contiguous and transformed there.
    One whole-array transform along a strided axis gathers each line from
    across the array, out of cache.  The result is the same to the bit.
    """
    axis -= grid.n      # counted from the end: a stack's rows come first
    other = axis + 1 if axis == -grid.n else -grid.n
    blocks = values.shape[other]
    step = max(1, STACK_ENTRIES * blocks // values.size)
    if axis != -1 and step < blocks:
        if out is None:
            out = np.empty_like(values)
        src, dst = (np.moveaxis(a, (other, axis), (0, -1)) for a in (values, out))
        for lo in range(0, blocks, step):
            block = src[lo:lo + step].copy()
            dst[lo:lo + step] = _spectral_axis(grid, block, grid.n - 1, symbol, block)
        return out
    shape = [1] * grid.n
    shape[axis] = -1
    if np.iscomplexobj(values):
        fk = np.fft.fft(values, axis=axis)
        fk *= symbol(grid, False).reshape(shape)
        return np.fft.ifft(fk, axis=axis, out=out)
    fk = np.fft.rfft(values, axis=axis)
    fk *= symbol(grid, True).reshape(shape)
    return np.fft.irfft(fk, n=grid.N, axis=axis, out=out)


def gradient(phi: StateField) -> VectorField:
    grid, data = phi.space, phi.data
    comps = np.empty((*data.shape[:-grid.n], grid.n, *grid.shape), data.dtype)
    for axis, comp in enumerate(np.moveaxis(comps, -grid.n - 1, 0)):
        _spectral_axis(grid, data, axis, _derivative_symbol, comp)
    return VectorField(grid, comps)


def position(phi: StateField) -> VectorField:
    grid = phi.space
    return VectorField(grid, np.stack([grid.coord(axis) * phi.data
                                       for axis in range(grid.n)], -grid.n - 1))


def momentum(phi: StateField) -> VectorField:
    return -1j * gradient(phi)


def x_dot_grad(phi: StateField) -> StateField:
    grid = phi.space
    out = np.zeros(phi.data.shape, dtype=phi.data.dtype)
    d = np.empty_like(out)
    for axis in range(grid.n):
        _spectral_axis(grid, phi.data, axis, _derivative_symbol, d)
        out += np.multiply(grid.coord(axis), d, out=d)
    return StateField(grid, out)


def dilation_generator(phi: StateField) -> StateField:
    """-i x.grad phi - i (n/2) phi, the symmetrized scaling generator."""
    grid = phi.space
    return StateField(grid, -1j * (x_dot_grad(phi).data + 0.5 * grid.n * phi.data))


def neg_laplacian(phi: StateField) -> StateField:
    grid = phi.space
    out = None
    for axis in range(grid.n):
        term = _spectral_axis(grid, phi.data, axis, _laplacian_symbol)
        out = term if out is None else np.add(out, term, out=out)
    return StateField(grid, out)


def _radial_part(coords, r: np.ndarray, comps) -> np.ndarray:
    """(x/|x|).g from the components of g, accumulated in axis order; coords
    and r = |x| are those of the whole grid or of a slab of it."""
    out = np.zeros(comps[0].shape, dtype=comps[0].dtype)
    buf = np.empty_like(out)
    for coord, comp in zip(coords, comps):
        out += np.multiply(np.divide(coord, r, out=buf), comp, out=buf)
    return out


def _tangential_part(coords, r: np.ndarray, comps, dr: np.ndarray):
    """g - (x/|x|) dr into the components of g, dr their radial part."""
    for coord, comp in zip(coords, comps):
        comp -= np.divide(coord, r) * dr


def radial_part(g: VectorField) -> StateField:
    """(x/|x|).g; of g = grad phi it is the radial derivative of phi."""
    grid = g.space
    _require_origin_free(grid)
    return StateField(grid, _radial_part(map(grid.coord, range(grid.n)), _radius(grid),
                                         np.moveaxis(g.data, -grid.n - 1, 0)))


def coulomb(phi: StateField) -> StateField:
    grid = phi.space
    _require_origin_free(grid)
    return StateField(grid, phi.data / _radius(grid))


def spherical_derivative(phi: StateField) -> VectorField:
    """L phi = grad phi - (x/|x|) (x/|x|).grad phi, one component per axis."""
    grid = phi.space
    _require_origin_free(grid)
    g = gradient(phi).data
    coords = [grid.coord(axis) for axis in range(grid.n)]
    r, comps = _radius(grid), np.moveaxis(g, -grid.n - 1, 0)
    _tangential_part(coords, r, comps, _radial_part(coords, r, comps))
    return VectorField(grid, g)


def hardy_terms(phi: StateField, tol: float = 1e-10, name: str = "hardy_terms"):
    """[||grad phi||^2, ||d_r phi||^2, ||phi/|x|||^2, ||d_r phi + (n-2)/(2|x|) phi||^2]
    of one state and the report of its split |grad phi|^2 = |d_r phi|^2 + |L phi|^2
    (pointwise and integrated), in one pass over slabs of at most STACK_ENTRIES
    values (or one plane).  Only the axis-0 derivative is held for the whole
    grid (taken block by block, see ``_spectral_axis``); each slab takes the
    other axes and |x| in cache, and numpy (not BLAS) sums each slab.  A
    non-finite point reaches its sum, so the five sums are checked, not the
    fields."""
    phi.single(name)
    grid, c = phi.space, 0.5 * (phi.space.n - 2)
    _require_origin_free(grid)
    coords = [grid.coord(axis) for axis in range(grid.n)]
    d0 = _spectral_axis(grid, phi.data, 0, _derivative_symbol)
    step = max(1, STACK_ENTRIES // grid.N ** (grid.n - 1))
    sums, max_point = np.zeros(5), 0.0
    for lo in range(0, grid.N, step):
        rows = slice(lo, lo + step)
        block, slab = phi.data[rows], [coords[0][rows], *coords[1:]]
        comps = [d0[rows], *(_spectral_axis(grid, block, axis, _derivative_symbol)
                             for axis in range(1, grid.n))]
        r = np.sqrt(_sum_sq(slab))
        dr = _radial_part(slab, r, comps)
        q = block / r
        shifted = c * q
        shifted += dr
        grad_point = _abs_sq(comps[0])
        for comp in comps[1:]:
            grad_point += _abs_sq(comp)
        _tangential_part(slab, r, comps, dr)
        split_point = _abs_sq(dr)
        dr_sq = np.sum(split_point)
        for comp in comps:
            split_point += _abs_sq(comp)
        sums += [np.sum(grad_point), dr_sq, np.sum(_abs_sq(q)),
                 np.sum(_abs_sq(shifted)), np.sum(split_point)]
        grad_point -= split_point
        max_point = max(max_point, float(np.max(np.abs(grad_point, out=grad_point))))
    _require_finite(sums, f"{name}: the sums of |grad psi|^2, |d_r psi|^2 and |psi/|x||^2")
    *terms, split = (sums * grid.weight).tolist()
    return terms, compare("grad.pointwise_split", terms[0], split, tol,
                          context={"grid": grid.to_dict(),
                                   "max_pointwise_residual": max_point})


def pointwise_gradient_decomposition(phi: StateField,
                                     tol: float = 1e-10) -> EqualityReport:
    """The split report of ``hardy_terms``."""
    return hardy_terms(phi, tol, "pointwise_gradient_decomposition")[1]
