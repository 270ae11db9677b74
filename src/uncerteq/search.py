"""Variational minimization of the uncertainty functionals on grid states.

Riemannian nonlinear conjugate gradients over unit-norm grid states, with
an Armijo backtracking line search and monotone acceptance.  The sum
functional is the harmonic Rayleigh quotient whose minimum n is attained at
the isotropic Gaussian; the product functional shares the minimum value but
has a one-parameter family of anisotropic Gaussian minimizers.  A separate
probe documents that the scaling-derivative ratio approaches but never
attains its lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grids
from .gaussians import GaussianSpec, realize
from .grids import GridSpec, StateField, _radius_sq
from .radial import RadialQuadrature, annulus_state, x_dot_grad as radial_x_dot_grad

_ARMIJO = 1e-4      # sufficient-decrease constant of the line search
_STEP = 0.1         # first trial step, and the step after a restart
_BACKTRACK = 0.5    # largest fraction of a failed step tried next
_GROW = 1.5         # factor from an accepted step to the next first trial


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


def _normalize(phi: StateField) -> StateField:
    nrm = phi.norm()
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero state")
    return phi * (1.0 / nrm)


def _tangent(phi: StateField, v: StateField) -> StateField:
    """Projection of ``v`` onto the tangent space of the sphere at ``phi``."""
    return v - phi.inner(v).real * phi


def _line_search(phi, value, direction, slope, step, value_and_gradient):
    """Armijo backtracking with quadratic interpolation from ``step``.

    Returns (step, candidate, value, gradient) at the first strictly lower
    value with sufficient decrease, or None once the step underflows.
    """
    while step > 1e-18:
        candidate = _normalize(phi + step * direction)
        new_value, new_grad = value_and_gradient(candidate)
        if new_value < value and new_value <= value + _ARMIJO * step * slope:
            return step, candidate, new_value, new_grad
        # Minimizer of the parabola through value, slope and new_value,
        # kept within [0.1, _BACKTRACK] times the failed step.
        curv = new_value - value - slope * step
        trial = -0.5 * slope * step * step / curv if curv > 0 else 0.0
        step = min(max(trial, 0.1 * step), _BACKTRACK * step)
    return None


def _descend(grid: GridSpec, seed: int, opts: SearchOptions,
             value_and_gradient) -> SearchResult:
    """Riemannian nonlinear conjugate gradients on the unit sphere.

    Starts from a random smooth state.  ``value_and_gradient(phi)`` must
    return the functional value at the unit-norm state and its Riemannian
    gradient: the gradient in the real inner product Re<., .>, tangent to
    the sphere at ``phi``.  Directions follow Polak-Ribiere+ with the
    previous direction carried over by tangent projection; the retraction
    is renormalization.  Every accepted value is strictly lower, and the
    loop stops once the Riemannian gradient norm is at or below
    ``opts.gtol``, or when no lower value can be found even along the
    negative gradient; both count as converged (Absil, Mahony and
    Sepulchre 2008, ch. 8).
    """
    from .identities import random_smooth_state

    rng = np.random.default_rng(seed)
    phi = random_smooth_state(grid, rng)
    value, grad = value_and_gradient(phi)
    grad_sq = grad.norm_sq()
    direction, beta = -1.0 * grad, 0.0
    step = _STEP
    trace = [(0, value, step)]
    it = 0
    stalled = False
    while math.sqrt(grad_sq) > opts.gtol and it < opts.max_iters:
        slope = direction.inner(grad).real
        if slope >= 0.0:
            direction, slope, beta = -1.0 * grad, -grad_sq, 0.0
        found = _line_search(phi, value, direction, slope, step,
                             value_and_gradient)
        if found is None:
            # No lower value even along the negative gradient: the value has
            # reached its rounding floor.  A conjugate direction instead
            # restarts at the negative gradient from the initial step.
            stalled = beta == 0.0
            if stalled:
                break
            direction, beta, step = -1.0 * grad, 0.0, _STEP
            continue
        step, candidate, new_value, new_grad = found
        it += 1
        new_grad_sq = new_grad.norm_sq()
        # new_grad is tangent at candidate, so it meets the transported old
        # gradient as it meets the old gradient itself.
        beta = max(0.0, (new_grad_sq - new_grad.inner(grad).real) / grad_sq)
        direction = beta * _tangent(candidate, direction) - new_grad
        phi, value, grad, grad_sq = candidate, new_value, new_grad, new_grad_sq
        trace.append((it, value, step))
        step *= _GROW
    return SearchResult(state=phi, value=value, iterations=it,
                        converged=stalled or math.sqrt(grad_sq) <= opts.gtol,
                        trace=trace)


def _sum_value_and_gradient(phi: StateField):
    """(||x phi||^2 + ||grad phi||^2, 2 (H phi - value phi)) at unit norm."""
    hphi = StateField(phi.grid, _radius_sq(phi.grid) * phi.data) \
        + grids.neg_laplacian(phi)
    value = hphi.inner(phi).real
    return value, 2.0 * (hphi - value * phi)


def _product_value_and_gradient(phi: StateField):
    """(2 ||x phi|| ||grad phi||, its gradient) at unit norm."""
    x2phi = StateField(phi.grid, _radius_sq(phi.grid) * phi.data)
    lap = grids.neg_laplacian(phi)
    x_sq = x2phi.inner(phi).real
    g_sq = lap.inner(phi).real
    value = 2.0 * math.sqrt(max(x_sq * g_sq, 0.0))
    ratio = math.sqrt(g_sq / x_sq)
    hphi = ratio * x2phi + (1.0 / ratio) * lap
    return value, 2.0 * (hphi - value * phi)


def minimize_sum_functional(grid: GridSpec, seed: int,
                            opts: SearchOptions = SearchOptions()) -> SearchResult:
    """Minimize (||x phi||^2 + ||grad phi||^2) / ||phi||^2.

    The minimum is the grid dimension n, attained at the isotropic Gaussian;
    the result carries the overlap with that state.
    """
    result = _descend(grid, seed, opts, _sum_value_and_gradient)
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
    result = _descend(grid, seed, opts, _product_value_and_gradient)
    xnorm = grids.position(result.state).norm()
    gnorm = grids.gradient(result.state).norm()
    result.lambda_est = gnorm / xnorm
    # fidelity normalizes; realize's boundary guard protects closed-form
    # moments and would refuse the small lambda some starts converge to.
    r2 = _radius_sq(grid)
    matched = StateField(grid, np.exp(-0.5 * result.lambda_est * r2))
    result.fidelity = fidelity(result.state, matched)
    return result


def probe_nonattainment(quad: RadialQuadrature, r_values,
                        r_inner: float = 1.0, width: float = 1.0) -> list[dict]:
    """Ratio ||x.grad phi||^2 / ((n/2)^2 ||phi||^2) for widening annuli.

    The ratio stays strictly above 1 for every finite outer radius and
    decreases toward 1 as the annulus widens, witnessing that the bound is
    approached but never attained.
    """
    if quad.n < 3:
        raise ValueError("the probe runs in dimension >= 3")
    rows = []
    for r_outer in r_values:
        if math.log(r_outer / r_inner) <= 2 * width:
            raise ValueError(f"outer radius {r_outer} leaves no annulus")
        phi = annulus_state(quad, r_inner, float(r_outer), width)
        num = radial_x_dot_grad(phi).norm_sq()
        den = (0.5 * quad.n) ** 2 * phi.norm_sq()
        rows.append({"R": float(r_outer), "rho": num / den})
    return rows
