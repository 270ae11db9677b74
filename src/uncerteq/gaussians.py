"""Closed-form Gaussian extremizer families and their exact moments.

Three kinds are supported:

* ``coherent``   -- the isotropic Gaussian exp(-|x|^2/2), which saturates
  both the sum and the product uncertainty forms;
* ``squeezed``   -- exp(-lambda |x|^2/2) with anisotropy ratio
  lambda = ||grad phi|| / ||x phi||, saturating the product form;
* ``squeezed_gen`` -- a complex-phase generalization whose quadratic
  exponent carries a unit-modulus factor with negative real part, saturating
  the modulus form |(x phi | grad phi)| = ||x phi|| ||grad phi||.

Moments are computed analytically so they can serve as independent oracles
for the grid discretization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, StateField, _sum_sq

KINDS = ("coherent", "squeezed", "squeezed_gen")


@dataclass(frozen=True)
class GaussianSpec:
    kind: str
    n: int = 1
    norm: float = 1.0
    lam: float = 1.0
    theta: float = 0.0
    sgn_factor: complex = -1.0 + 0.0j

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.norm <= 0:
            raise ValueError("target norm must be positive")
        if self.lam <= 0:
            raise ValueError("anisotropy ratio must be positive")
        if self.kind == "coherent" and self.lam != 1.0:
            raise ValueError("the coherent family has ratio 1")
        s = complex(self.sgn_factor)
        if self.kind == "squeezed_gen":
            if abs(abs(s) - 1.0) > 1e-12:
                raise ValueError("sgn_factor must have unit modulus")
            if s.real >= 0.0:
                raise ValueError(
                    "sgn_factor needs a negative real part for a "
                    "normalizable state")
        elif s != -1.0 + 0.0j:
            raise ValueError("only squeezed_gen admits a free sign factor")

    @property
    def factor(self) -> complex:
        """Unit factor multiplying lambda |x|^2/2 in the exponent."""
        return complex(self.sgn_factor)


@dataclass(frozen=True)
class GaussianMoments:
    norm_sq: float
    x_norm_sq: float
    grad_norm_sq: float
    inner_x_grad: complex


def exact_moments(spec: GaussianSpec) -> GaussianMoments:
    """Closed-form Gaussian integrals for the family.

    With decay rate a = -Re(factor) > 0 the second moment is
    ||x phi||^2 = n ||phi||^2 / (2 lambda a); the gradient satisfies
    grad phi = factor * lambda * x phi, giving ||grad phi|| = lambda ||x phi||
    and (x phi | grad phi) = conj(factor) lambda ||x phi||^2, whose real part
    is always -n ||phi||^2 / 2.
    """
    s = spec.factor
    a = -s.real
    norm_sq = spec.norm ** 2
    x_norm_sq = spec.n * norm_sq / (2.0 * spec.lam * a)
    grad_norm_sq = spec.lam ** 2 * x_norm_sq
    inner_x_grad = s.conjugate() * spec.lam * x_norm_sq
    return GaussianMoments(norm_sq=norm_sq, x_norm_sq=x_norm_sq,
                           grad_norm_sq=grad_norm_sq,
                           inner_x_grad=inner_x_grad)


def _check_grid_adequacy(spec: GaussianSpec, grid: GridSpec) -> None:
    a = -spec.factor.real
    decay = a * spec.lam  # |phi|^2 ~ exp(-decay * r^2)
    boundary_exponent = decay * grid.L ** 2
    if boundary_exponent < 38.0:
        raise ValueError(
            "grid too small: boundary mass fraction about "
            f"exp(-{boundary_exponent:.1f}); enlarge L")
    kmax = math.pi / grid.h
    resolution_exponent = kmax ** 2 / max(spec.lam, 1.0)
    if resolution_exponent < 38.0:
        raise ValueError(
            "grid too coarse: unresolved-spectrum fraction about "
            f"exp(-{resolution_exponent:.1f}); increase N")


def realize(spec: GaussianSpec, grid: GridSpec) -> StateField:
    """Sample the closed form on a grid; the grid must hold its mass."""
    if grid.n != spec.n:
        raise ValueError("grid dimension does not match the requested family")
    _check_grid_adequacy(spec, grid)
    s = spec.factor
    a = -s.real
    amp = (a * spec.lam / math.pi) ** (spec.n / 4.0) * spec.norm
    # A real spec (theta = 0, real factor) gives a real, float64 field.
    phase = cmath.exp(1j * spec.theta) if spec.theta else 1.0
    rate = 0.5 * (s if s.imag else s.real) * spec.lam
    # Built in place on one fresh |x|^2: reading the cached _radius_sq would
    # keep a second grid-sized array alive after the sample is made.  A
    # complex factor allocates once, where it first multiplies the real array.
    values = _scaled(_sum_sq(map(grid.coord, range(grid.n))), rate)
    np.exp(values, out=values)
    return StateField(grid, _scaled(values, phase * amp))


def _scaled(values: np.ndarray, scalar) -> np.ndarray:
    """values * scalar, in place unless a complex scalar meets real values."""
    if isinstance(scalar, complex) and not np.iscomplexobj(values):
        return values * scalar
    values *= scalar
    return values
