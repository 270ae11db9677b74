"""One-dimensional radial quadrature for radially symmetric states.

Radial profiles carry their derivative psi' analytically, so norm
identities involving d/dr are limited only by quadrature error.  Their
gradient is psi' x/|x| and L psi = 0, so no function here computes either.
Three rules carry the radial measure r^{n-1} dr:

* :class:`LaguerreQuadrature`, generalized Gauss-Laguerre in t = r^2, for
  the Gaussian-times-polynomial profiles p(r^2) exp(-r^2/2).  Every integral
  the verifiers take of such profiles is t^(n/2-2) (polynomial in t) e^(-t),
  which the rule integrates exactly.
* :class:`LogRadialQuadrature`, composite Gauss-Legendre in s = ln r on
  the panels of the annulus 1 <= r <= r_max of :func:`annulus_state`: its
  two ramps of unit width in s and its plateau.  In s the measure is r^n ds
  and the annulus is r^(-n/2) w(s), so every integrand of the scaling ratio
  is a polynomial of degree <= 10 in s on each panel, which 8 nodes per
  panel integrate exactly.
* :class:`RadialQuadrature`, the midpoint rule on (0, r_max], for any other
  profile.

A profile, or a (states, nodes) stack of them, is a ``grids.StateField``
whose space is the rule (``RadialState`` names the same class).  Every norm
and inner product sums each row through the rule's ``integrate``,
``np.sum(values * weights, axis=-1)``, the bits of the sum over that row
alone.  The radial suites verify their states in stacks of at most
``complexspace.STACK_ENTRIES`` node values, so memory stays bounded whatever
the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .grids import StateField

MAX_DIMENSION = 343     # math.gamma(n/2) overflows a float from n = 344 on
_LOG_MAX = math.log(np.finfo(np.float64).max)


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} is too large for the radial rules; "
                         f"the largest supported dimension is {MAX_DIMENSION}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _check_rule(n: int, r_max: float) -> None:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"radius must be finite and positive, got {r_max}")


class _Rule:
    """Nodes ``r`` and ``weights`` that ``_build`` makes once per rule."""

    @property
    def r(self) -> np.ndarray:
        return _rule(self)[0]

    @property
    def weights(self) -> np.ndarray:
        return _rule(self)[1]

    @property
    def shape(self) -> tuple[int]:
        return (self.points,)

    def integrate(self, values: np.ndarray):
        return (values * self.weights).sum(axis=-1)   # one sum per row

    def to_dict(self) -> dict:
        return {**vars(self), "points": self.points}


@lru_cache(maxsize=64)
def _rule(quad: _Rule) -> tuple[np.ndarray, np.ndarray]:
    r, weights = quad._build()
    r.setflags(write=False)
    weights.setflags(write=False)
    return r, weights


@dataclass(frozen=True)
class RadialQuadrature(_Rule):
    """Midpoint rule on (0, r_max] with the radial measure of R^n."""

    n: int
    r_max: float
    points: int
    integrate = _Rule.integrate     # wrapped by name by perfbench/spans.py

    def __post_init__(self):
        _check_rule(self.n, self.r_max)
        if self.points < 2:
            raise ValueError("need at least two points")

    @property
    def dr(self) -> float:
        return self.r_max / self.points

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        r = (np.arange(self.points) + 0.5) * self.dr
        return r, sphere_area(self.n) * r ** (self.n - 1) * self.dr


@dataclass(frozen=True)
class LaguerreQuadrature(_Rule):
    """Generalized Gauss-Laguerre rule in t = r^2 with the radial measure of R^n.

    With alpha = n/2 - 2 the measure is r^{n-1} dr = t^(alpha+1) dt / 2, so
    a Laguerre node t_i with weight w_i for t^alpha e^(-t) becomes the radial
    node sqrt(t_i) with weight |S^{n-1}| w_i e^(t_i) t_i / 2.  The rule is
    exact when f(sqrt(t)) e^t t is a polynomial in t of degree below
    2 * points.  Dimensions below 3 give alpha <= -1, which is not a
    Laguerre weight.
    """

    n: int
    # The suite profiles are p(t) e^(-t/2) with deg p <= 3, so for every
    # integrand f the verifiers form, f(sqrt(t)) e^t t is a polynomial of
    # degree at most 2*3 + 2 = 8 (|psi'|^2 carries the extra t).  m nodes are
    # exact to degree 2m - 1; 32 nodes (degree 63) also cover profiles up to
    # degree 30 in t.
    points: ClassVar[int] = 32

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("the Gauss-Laguerre radial rule needs dimension "
                             ">= 3; alpha = n/2 - 2 must exceed -1")

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        area = sphere_area(self.n)     # refuses n > MAX_DIMENSION first
        t, w = _gauss_laguerre(self.points, 0.5 * self.n - 2.0)
        return np.sqrt(t), 0.5 * area * w * np.exp(t) * t


def _golub_welsch(diag: np.ndarray, off: np.ndarray,
                  mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights from the Jacobi matrix of a weight of total
    ``mass``: diagonal ``diag``, off-diagonal ``off[1:]`` (off[0] = 0 starts
    the recurrence).

    The nodes are the matrix's eigenvalues.  Each weight is the Christoffel
    number 1 / sum_k p_k(t_i)^2 over the orthonormal polynomials, run by the
    three-term recurrence.  The usual squared first eigenvector components
    carry an absolute error near 1e-32, which the outer Laguerre weights
    (down to 1e-48 at 32 nodes) do not survive, and the high moments rest on
    them: the integral of t^30 came out 4e-8 off that way, against 1e-14 here.
    """
    m = diag.size
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[1:], 1)
                           + np.diag(off[1:], -1))
    p_prev = np.zeros(m)
    p = np.full(m, 1.0 / math.sqrt(mass))
    total = p * p
    for j in range(m - 1):
        p_prev, p = p, ((t - diag[j]) * p - off[j] * p_prev) / off[j + 1]
        total += p * p
    return t, 1.0 / total


def _gauss_laguerre(m: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of m-point Gauss quadrature for t^alpha e^(-t) on
    (0, inf): generalized Laguerre, diagonal 2k + alpha + 1, off-diagonal
    sqrt(k (k + alpha))."""
    k = np.arange(m)
    return _golub_welsch(2.0 * k + alpha + 1.0, np.sqrt(k * (k + alpha)),
                         math.gamma(alpha + 1.0))


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of m-point Gauss quadrature on [-1, 1]: Legendre,
    diagonal 0, off-diagonal k / sqrt(4 k^2 - 1)."""
    k = np.arange(m)
    return _golub_welsch(np.zeros(m), np.sqrt(k * k / (4.0 * k * k - 1.0)),
                         2.0)


@dataclass(frozen=True)
class LogRadialQuadrature(_Rule):
    """Composite Gauss-Legendre rule in s = ln(r/r_inner) on [r_inner, r_max],
    the annulus of ``annulus_state(quad)``, with r_inner = 1.

    The panels are [0, width], [width, l - width] and [l - width, l] with
    l = ln(r_max/r_inner) and width = 1: the two ramps and the plateau of
    the annulus, so r_max must exceed e^2.  With r^{n-1} dr = r^n ds a
    Legendre node s_i of weight w_i becomes the radial node r_inner e^(s_i)
    with weight |S^{n-1}| w_i r_i^n.  On the annulus r^(-n/2) w(s) the
    integrands |phi|^2 r^n = w^2 and |r phi'|^2 r^n = (w' - (n/2) w)^2 are
    polynomials in s of degree <= 10 on each panel (w is a quintic ramp or
    1), which 6 nodes per panel integrate exactly; 8 leave room.
    """

    n: int
    r_max: float
    r_inner: ClassVar[float] = 1.0
    width: ClassVar[float] = 1.0
    panel_points: ClassVar[int] = 8
    points: ClassVar[int] = 3 * panel_points

    def __post_init__(self):
        _check_rule(self.n, self.r_max)
        if not math.log(self.r_max / self.r_inner) > 2 * self.width:
            raise ValueError("outer radius too small for the cutoff ramps")

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        area = sphere_area(self.n)     # refuses n > MAX_DIMENSION first
        if self.n * math.log(self.r_max) > _LOG_MAX:    # r^n <= r_max^n
            raise ValueError(f"the weights r^n overflow at r_max = {self.r_max:g}: "
                             f"the largest n is {int(_LOG_MAX / math.log(self.r_max))}")
        x, w = _gauss_legendre(self.panel_points)
        ell = math.log(self.r_max / self.r_inner)
        edges = np.array([0.0, self.width, ell - self.width, ell])
        half = np.diff(edges)[:, None] / 2
        s = ((edges[:-1] + edges[1:])[:, None] / 2 + half * x).ravel()
        r = self.r_inner * np.exp(s)
        return r, area * (half * w).ravel() * r ** self.n


Quadrature = RadialQuadrature | LaguerreQuadrature | LogRadialQuadrature


RadialState = StateField     # a profile's space is its rule


def _deriv(state: RadialState) -> np.ndarray:
    """The profile's analytic derivative psi'(r), which it must carry."""
    if state.deriv is None:
        raise ValueError("state carries no analytic derivative")
    return state.deriv


def radial_derivative(state: RadialState) -> RadialState:
    """psi'(r), the derivative along x/|x|."""
    return RadialState(state.space, _deriv(state))


def x_dot_grad(state: RadialState) -> RadialState:
    """r * psi'(r), the scaling derivative of a radial profile."""
    return RadialState(state.space, state.space.r * _deriv(state))


def coulomb(state: RadialState) -> RadialState:
    """psi/r; the derivative (psi'/r - psi/r^2) is propagated when known."""
    r = state.space.r
    deriv = None if state.deriv is None else state.deriv / r - state.data / r ** 2
    return RadialState(state.space, state.data / r, deriv)


def radial_derivative_sym(state: RadialState) -> RadialState:
    """-i psi' - i (n-1)/(2r) psi for a radial profile in R^n."""
    half = 0.5 * (state.space.n - 1) / state.space.r
    return RadialState(state.space, -1j * (_deriv(state) + half * state.data))


def radial_gaussian(quad: Quadrature) -> RadialState:
    """exp(-r^2 / 2), complex128, with analytic derivative."""
    r = quad.r
    gauss = np.exp(-0.5 * r ** 2)
    return RadialState(quad, gauss + 0j, -r * gauss + 0j)


def gaussian_polynomial(quad: Quadrature, coeffs) -> RadialState:
    """p(r^2) exp(-r^2/2) for polynomial coefficients in r^2, lowest first;
    a (states, degree + 1) array of them gives a stack.

    A LaguerreQuadrature integrates the verifiers' products of such states
    exactly.  The midpoint rule does not: with the measure r^{n-1} the
    integrand is odd in r for even n, and the rule's error at r = 0 is
    algebraic in the spacing, not spectral.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    dc = c[..., 1:] * np.arange(1, c.shape[-1])
    r, t = quad.r, quad.r ** 2

    def polyval(coef):      # np.polyval's Horner order, per row of coef
        y = np.zeros_like(t)
        for k in range(coef.shape[-1] - 1, -1, -1):
            y = y * t + coef[..., k, None]
        return y

    p, gauss = polyval(c), np.exp(-0.5 * t)
    dp = polyval(dc) if dc.shape[-1] else 0.0
    return RadialState(quad, p * gauss, (2.0 * r * dp - r * p) * gauss)


def random_radial_state(quad: Quadrature, rng: np.random.Generator,
                        states: int | None = None) -> RadialState:
    """Random normalized profile p(r^2) exp(-r^2/2), p of degree 3 with
    complex coefficients, the range a LaguerreQuadrature integrates exactly;
    with ``states``, a stack of as many, drawn as successive calls draw them."""
    shape = (2, 4) if states is None else (states, 2, 4)
    z = rng.standard_normal(shape)
    coeffs = z[..., 0, :] + 1j * z[..., 1, :]
    coeffs *= 0.5 ** np.arange(4)
    state = gaussian_polynomial(quad, coeffs)
    nrm = state.norm()
    if np.any(nrm == 0.0):
        raise ValueError("degenerate random profile")
    return state * (1.0 / nrm)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp: 0 below 0, 1 above 1."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def _smoothstep_deriv(t: np.ndarray) -> np.ndarray:
    """Its derivative, which the clipping sets to 0 below 0 and above 1."""
    tc = np.clip(t, 0.0, 1.0)
    return 30.0 * tc ** 2 * (1.0 - tc) ** 2


def annulus_state(quad: LogRadialQuadrature) -> RadialState:
    """Smoothed cutoff of the scale-critical profile r^(-n/2) on the annulus
    [quad.r_inner, quad.r_max] of its rule, which integrates its norms
    exactly.

    The bare r^(-n/2) profile is not square integrable (its mass diverges
    logarithmically at both ends), so it is cut off at a positive inner
    radius and a finite outer one.  The profile is scale-invariant, so the
    C^2 ramps span the rule's ``width`` in log r; ramps of fixed length in r
    itself would contribute a derivative cost growing linearly with the outer
    radius and swamp the logarithmic main term.
    """
    half_n, r = 0.5 * quad.n, quad.r
    # Every node lies inside the annulus; on the plateau both ramps clip to
    # exactly 1, with derivative 0.
    up_arg = np.log(r / quad.r_inner) / quad.width
    dn_arg = np.log(quad.r_max / r) / quad.width
    up, dn = _smoothstep(up_arg), _smoothstep(dn_arg)
    window = up * dn
    dwindow = (_smoothstep_deriv(up_arg) * dn
               - up * _smoothstep_deriv(dn_arg)) / (quad.width * r)

    core = r ** (-half_n)
    return RadialState(quad, window * core,
                       dwindow * core - half_n * window * core / r)
