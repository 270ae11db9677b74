"""Variational minimization of the uncertainty functionals on grid states.

Projected gradient descent over unit-norm grid states, with backtracking
line search and monotone acceptance.  The sum functional is the harmonic
Rayleigh quotient whose minimum n is attained at the isotropic Gaussian; the
product functional shares the minimum value but has a one-parameter family
of anisotropic Gaussian minimizers.  A separate probe documents that the
scaling-derivative ratio approaches but never attains its lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grids
from .gaussians import GaussianSpec, realize
from .grids import GridSpec, StateField, _radius_sq
from .radial import RadialQuadrature, annulus_state, x_dot_grad as radial_x_dot_grad


@dataclass(frozen=True)
class SearchOptions:
    step: float = 0.1
    backtrack: float = 0.5
    grow: float = 1.5
    max_iters: int = 5000
    ftol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.backtrack < 1 and self.step > 0 and self.grow >= 1):
            raise ValueError("invalid search options")


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


def _descend(grid: GridSpec, seed: int, opts: SearchOptions,
             value_and_gradient) -> SearchResult:
    """Monotone projected gradient descent from a random smooth start.

    ``value_and_gradient(phi)`` must return the functional value at the
    unit-norm state and its (unprojected) gradient field; the tangent
    projection and renormalization happen here.
    """
    from .identities import random_smooth_state

    rng = np.random.default_rng(seed)
    phi = random_smooth_state(grid, rng)
    value, grad = value_and_gradient(phi)
    step = opts.step
    trace = [(0, value, step)]
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        moved = False
        while step > 1e-18:
            candidate = _normalize(phi - step * grad)
            new_value, new_grad = value_and_gradient(candidate)
            if new_value < value:
                moved = True
                break
            step *= opts.backtrack
        if not moved:
            converged = True
            break
        if abs(value - new_value) <= opts.ftol * max(1.0, abs(value)):
            phi, value, grad = candidate, new_value, new_grad
            trace.append((it, value, step))
            converged = True
            break
        phi, value, grad = candidate, new_value, new_grad
        trace.append((it, value, step))
        step *= opts.grow
    return SearchResult(state=phi, value=value, iterations=it,
                        converged=converged, trace=trace)


def minimize_sum_functional(grid: GridSpec, seed: int,
                            opts: SearchOptions = SearchOptions()) -> SearchResult:
    """Minimize (||x phi||^2 + ||grad phi||^2) / ||phi||^2.

    The minimum is the grid dimension n, attained at the isotropic Gaussian;
    the result carries the overlap with that state.
    """
    r2 = _radius_sq(grid)

    def value_and_gradient(phi: StateField):
        hphi = StateField(grid, r2 * phi.data) + grids.neg_laplacian(phi)
        value = hphi.inner(phi).real
        grad = 2.0 * (hphi - value * phi)
        return value, grad

    result = _descend(grid, seed, opts, value_and_gradient)
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
    r2 = _radius_sq(grid)

    def value_and_gradient(phi: StateField):
        x2phi = StateField(grid, r2 * phi.data)
        lap = grids.neg_laplacian(phi)
        x_sq = x2phi.inner(phi).real
        g_sq = lap.inner(phi).real
        value = 2.0 * math.sqrt(max(x_sq * g_sq, 0.0))
        ratio = math.sqrt(g_sq / x_sq)
        hphi = ratio * x2phi + (1.0 / ratio) * lap
        grad = hphi - value * phi
        return value, grad

    result = _descend(grid, seed, opts, value_and_gradient)
    xnorm = grids.position(result.state).norm()
    gnorm = grids.gradient(result.state).norm()
    result.lambda_est = gnorm / xnorm
    # fidelity normalizes; realize's boundary guard protects closed-form
    # moments and would refuse the small lambda some starts converge to.
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
