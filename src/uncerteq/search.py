"""Variational minimization of the uncertainty functionals on grid states.

Preconditioned Riemannian nonlinear conjugate gradients over unit-norm grid
states, each step the exact minimizer on the plane of the state and the
search direction.  P = D^(-1/2) F^-1 (s(k)^2 + sigma)^-1 F D^(-1/2), with
D = |x|^2 + sigma, sigma = 4 and s^2 the grid scheme's own -Laplacian symbol,
is symmetric positive definite in Re<., .> and approximately inverts
-Lap + |x|^2 + sigma, so it damps the high grid modes.  The sum functional
is the harmonic Rayleigh quotient whose minimum n is attained at the
isotropic Gaussian; the product functional shares the minimum value but has
a one-parameter family of anisotropic Gaussian minimizers.  The descent loop
runs on raw arrays and Python scalars; each iteration raises a ValueError at
a non-finite form, value, gradient norm or plane-step coefficient, or at a
zero form of the product.  A separate probe documents that the
scaling-derivative ratio approaches but never attains its lower bound.  It
integrates each annulus on a log-r Gauss-Legendre rule whose panels are the
annulus's ramps and plateau, where the integrands are polynomials in log r,
so its ratios are exact up to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import grids
from .gaussians import GaussianSpec, realize
from .grids import GridSpec, StateField, _radius_sq
from .identities import random_smooth_state
from .radial import (LogRadialQuadrature, RadialQuadrature, annulus_state,
                     x_dot_grad as radial_x_dot_grad)

_SHIFT = np.diag(np.ones(3, complex), -1)   # np.roots's companion, row 0 unset
_SIGMA = 4.0   # the shift of H + sigma that the preconditioner inverts


@dataclass(frozen=True)
class SearchOptions:
    max_iters: int = 5000
    gtol: float = 1e-6


@dataclass
class SearchResult:
    state: StateField
    value: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)   # (iteration, value, step)
    fidelity: float = float("nan")
    lambda_est: float = float("nan")


def fidelity(a: StateField, b: StateField) -> float:
    """Phase-free overlap |<a, b>| / (||a|| ||b||)."""
    return abs(a.inner(b)) / (a.norm() * b.norm())


def _re_inner(w: float, a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b> of grid data of cell weight w, as a Python float, summed in
    real arithmetic by numpy as ``StateField.inner`` sums it: a BLAS dot's
    bits would depend on the BLAS thread count."""
    re = a.real * b.real
    re += a.imag * b.imag
    return float(np.sum(re)) * w


def _value_and_gradient(w: float, r2: np.ndarray, phi: np.ndarray,
                        lap: np.ndarray, product: bool):
    """Value, Riemannian gradient, its squared norm and the forms (X, G) at the
    unit-norm ``phi``, for cell weight w, r2 = |x|^2 and lap = -Lap phi.  A
    non-finite form, value or norm, or a zero form of the product, is a
    ValueError.

    Both functionals are homogeneous of degree one in X = <x^2 phi, phi> and
    G = <lap, phi>, so the value is wx X + wg G with (wx, wg) = (dF/dX,
    dF/dG): (1, 1) for the sum X + G and (sqrt(G/X), sqrt(X/G)) for the
    product 2 sqrt(X G).  The gradient is 2 (wx x^2 phi + wg lap - value phi).
    """
    grad = r2 * phi   # x^2 phi, turned into the gradient in place
    x_sq, g_sq = _re_inner(w, grad, phi), _re_inner(w, lap, phi)
    if not math.isfinite(x_sq + g_sq):    # before the product's square roots
        raise ValueError("field values must be finite")
    if product and not (x_sq and g_sq):
        form = "G = <-Lap phi, phi>" if x_sq else "X = <x^2 phi, phi>"
        raise ValueError(f"the product needs nonzero forms, got {form} = 0")
    wx, wg = (math.sqrt(g_sq / x_sq), math.sqrt(x_sq / g_sq)) if product else (1.0, 1.0)
    value = wx * x_sq + wg * g_sq
    if product:   # the sum skips its unit weights: x 1.0 moves no bit
        grad *= wx
    grad += wg * lap if product else lap
    grad -= value * phi
    grad *= 2.0
    grad_sq = _re_inner(w, grad, grad)
    if not (math.isfinite(value) and math.isfinite(grad_sq)):
        raise ValueError("field values must be finite")
    return value, grad, grad_sq, (x_sq, g_sq)


@lru_cache(maxsize=2)
def _preconditioner(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(|x|^2 + sigma)^(-1/2), and 1 / (s^2 + sigma) with s^2 the scheme's
    -Laplacian symbol summed over the axes of the full n-D spectrum."""
    s = sum(np.ix_(*[grids._symbols(grid, False)[1]] * grid.n))
    factors = 1.0 / np.sqrt(_radius_sq(grid) + _SIGMA), 1.0 / (s + _SIGMA)
    for a in factors:
        a.setflags(write=False)
    return factors


def _precondition(grid: GridSpec, phi: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """P grad projected onto the tangent space at the unit-norm ``phi``."""
    space, spectral = _preconditioner(grid)
    z = space * grad
    for transform, factor in ((np.fft.fft, spectral), (np.fft.ifft, space)):
        for axis in reversed(range(grid.n)):   # fftn's order, less overhead
            z = transform(z, axis=axis)
        z *= factor
    z -= _re_inner(grid.weight, z, phi) * phi
    return z


def _plane_step(w: float, r2: np.ndarray, phi, d, lap_d, forms, product: bool) -> float:
    """Exact minimizing angle t of the functional on cos t phi + sin t d.

    ``phi`` and ``d`` are orthonormal in Re<., .>, ``lap_d`` is -Laplacian d
    and ``forms`` are (X, G) at phi.  The sum is the Laurent polynomial
    Q = X + G of degree one in z = e^{2it}, least at an angle in closed form;
    the product is monotone in Q = X G, of degree two.  Returns 0.0 when no
    angle lowers Q; a non-finite coefficient is a ValueError.  Coefficients,
    angle and drops are Python scalars with numpy's bits; the product keeps
    np.convolve, whose dot sets its coefficients' bits, and eigvals.
    """
    coeffs = []
    for a, a_d in zip(forms, (r2 * d, lap_d)):
        # (a + b)/2 + (a - b)/2 cos 2t + c sin 2t as coefficients of
        # z^-1, 1, z, from a = <A phi, phi>, b = <A d, d>, c = Re<A d, phi>.
        b, c = _re_inner(w, a_d, d), _re_inner(w, a_d, phi)
        c1 = 0.25 * (a - b) - 0.5j * c
        coeffs.append((c1.conjugate(), 0.5 * (a + b), c1))
    q = np.convolve(*coeffs).tolist() if product else [x + g for x, g in zip(*coeffs)]
    if not all(map(cmath.isfinite, q)):
        raise ValueError("field values must be finite")
    m = len(q) // 2
    if m == 2 and q[-1] != 0.0:
        # The critical angles are the roots of z^2 dQ/dz: the eigenvalues of
        # its companion matrix, built as np.roots builds it.
        p = (np.arange(-2, 3) * np.array(q))[::-1]
        companion = _SHIFT.copy()
        companion[0] = -p[1:] / p[0]
        angles = (0.5 * np.angle(np.linalg.eigvals(companion))).tolist()
    else:
        # The sum, or a product without its z^2 term, is q_0 + 2 Re(q_1 z),
        # least at q_1 z = -|q_1|; at q_1 = 0 the drop below is 0.
        angles = [0.5 * math.atan2(q[m + 1].imag, -q[m + 1].real)]
    # Q(t) - Q(0) is the sum over k >= 1 of 2 Re(q_k (e^{2ikt} - 1)); writing
    # e^{2ikt} - 1 = 2i sin(kt) e^{ikt} keeps small decreases exact.
    drops = [sum((4j * q[m + k] * math.sin(k * t) * cmath.exp(1j * k * t)).real
                 for k in range(1, m + 1)) for t in angles]
    best = min(range(len(drops)), key=drops.__getitem__)
    return 0.0 if drops[best] >= 0.0 else angles[best]


def _descend(grid: GridSpec, seed: int, opts: SearchOptions,
             product: bool) -> SearchResult:
    """Preconditioned Riemannian nonlinear conjugate gradients on the unit sphere.

    Starts from a random smooth state.  Directions follow Polak-Ribiere+
    with tangent-projection transport (Absil, Mahony and Sepulchre 2008,
    ch. 8) on z, the gradient g preconditioned by P and projected onto the
    tangent space: the direction is -z plus beta = max(0, <g+, z+ - z> / <g, z>)
    times the old one.  Each iteration applies -Laplacian once, to the unit
    direction d, and P once (one FFT pair), and takes the exact step
    on the circle cos t phi + sin t d (Knyazev 2001) unless it raises the
    value.  The loop stops at the L2 gradient norm ``opts.gtol``, or at the
    rounding floor, where even -z gives no step; both count as converged.

    The loop reads the weight and |x|^2 once and runs on raw arrays, updated in
    place once spent.  Only the start state and the input and result of each
    -Laplacian are checked fields; every other array feeds the plane step or the
    value and gradient norm, which raise when not finite.
    """
    # The start state refuses a grid that cuts off its basis before |x|^2
    # can overflow on one.
    start = random_smooth_state(grid, np.random.default_rng(seed))
    w, r2 = grid.weight, _radius_sq(grid)
    phi, lap = start.data, grids.neg_laplacian(start).data
    value, grad, grad_sq, forms = _value_and_gradient(w, r2, phi, lap, product)
    z = _precondition(grid, phi, grad)
    grad_z = _re_inner(w, grad, z)
    direction, beta = -z, 0.0
    trace, it, stalled = [(0, value, 0.0)], 0, False
    while math.sqrt(grad_sq) > opts.gtol and it < opts.max_iters:
        d = direction - _re_inner(w, phi, direction) * phi
        d /= math.sqrt(_re_inner(w, d, d))
        lap_d = grids.neg_laplacian(StateField(grid, d)).data
        theta = _plane_step(w, r2, phi, d, lap_d, forms, product)
        c, s = math.cos(theta), math.sin(theta)
        new_phi, new_lap = c * phi, c * lap
        new_phi += np.multiply(d, s, out=d)
        new_lap += np.multiply(lap_d, s, out=lap_d)
        new_value, new_grad, new_grad_sq, new_forms = _value_and_gradient(
            w, r2, new_phi, new_lap, product)
        if theta == 0.0 or new_value > value:
            # No step even along -z is the rounding floor; a failed
            # conjugate direction restarts at -z.
            stalled = beta == 0.0
            if stalled:
                break
            direction, beta = -z, 0.0
            continue
        it += 1
        new_z = _precondition(grid, new_phi, new_grad)
        new_grad_z = _re_inner(w, new_grad, new_z)
        # new_grad is tangent at new_phi, so it meets the transported old z
        # as it meets the old z itself.
        beta = max(0.0, (new_grad_z - _re_inner(w, new_grad, z)) / grad_z)
        direction -= _re_inner(w, new_phi, direction) * new_phi
        direction *= beta
        direction -= new_z
        phi, lap, value, grad_sq, forms, z, grad_z = (
            new_phi, new_lap, new_value, new_grad_sq, new_forms, new_z, new_grad_z)
        trace.append((it, value, theta))
    return SearchResult(state=StateField(grid, phi), value=value, iterations=it,
                        converged=stalled or math.sqrt(grad_sq) <= opts.gtol,
                        trace=trace)


def minimize_sum_functional(grid: GridSpec, seed: int,
                            opts: SearchOptions = SearchOptions()) -> SearchResult:
    """Minimize (||x phi||^2 + ||grad phi||^2) / ||phi||^2.

    The minimum is the grid dimension n, attained at the isotropic Gaussian;
    the result carries the overlap with that state.
    """
    result = _descend(grid, seed, opts, product=False)
    coherent = realize(GaussianSpec("coherent", n=grid.n), grid)
    result.fidelity = fidelity(result.state, coherent)
    return result


def minimize_product_functional(grid: GridSpec, seed: int,
                                opts: SearchOptions = SearchOptions()) -> SearchResult:
    """Minimize 2 ||x phi|| ||grad phi|| / ||phi||^2.

    Any anisotropy ratio is admissible at the minimum, so the result reports
    the minimizer's ratio lambda = ||grad phi|| / ||x phi|| and the overlap
    with the matching anisotropic Gaussian.
    """
    result = _descend(grid, seed, opts, product=True)
    result.lambda_est = (grids.gradient(result.state).norm()
                         / grids.position(result.state).norm())
    # fidelity normalizes; realize's boundary guard protects closed-form
    # moments and would refuse the small lambda some starts converge to.
    matched = StateField(grid, np.exp(-0.5 * result.lambda_est * _radius_sq(grid)))
    result.fidelity = fidelity(result.state, matched)
    return result


def probe_nonattainment(quad: RadialQuadrature | LogRadialQuadrature,
                        r_values) -> list[dict]:
    """Ratio ||x.grad phi||^2 / ((n/2)^2 ||phi||^2) for widening annuli.

    The ratio stays strictly above 1 for every finite outer radius and
    decreases toward 1 as the annulus widens, witnessing that the bound is
    approached but never attained.  ``quad`` gives the dimension and the
    largest outer radius.  Each annulus, from r = 1 to R with ramps of unit
    width in ln r, is ``annulus_state`` of its own ``LogRadialQuadrature``,
    whose panels are its ramps and plateau, so the ratio is exact up to
    rounding: rho(R) = 1 + 80 / (7 n^2 (ln R - 281/231)).
    """
    if quad.n < 3:
        raise ValueError("the probe runs in dimension >= 3")
    rows = []
    for r_outer in map(float, r_values):
        if r_outer > quad.r_max:
            raise ValueError("outer radius exceeds the quadrature range")
        phi = annulus_state(LogRadialQuadrature(quad.n, r_outer))
        rows.append({"R": r_outer, "rho": radial_x_dot_grad(phi).norm_sq()
                     / ((0.5 * quad.n) ** 2 * phi.norm_sq())})
    return rows
