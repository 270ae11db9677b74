"""Tests for the Gaussian extremizer families and their exact moments."""

import cmath
import math

import numpy as np
import pytest

from uncerteq import grids
from uncerteq.gaussians import GaussianSpec, exact_moments, realize
from uncerteq.grids import GridSpec
from uncerteq.identities import saturation_flags

GRID = GridSpec(n=1, N=256, L=12.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec("thermal")
    with pytest.raises(ValueError):
        GaussianSpec("coherent", n=0)
    with pytest.raises(ValueError):
        GaussianSpec("coherent", norm=0.0)
    with pytest.raises(ValueError):
        GaussianSpec("squeezed", lam=-1.0)
    with pytest.raises(ValueError):
        GaussianSpec("coherent", lam=2.0)
    with pytest.raises(ValueError):
        GaussianSpec("squeezed", sgn_factor=1j)
    with pytest.raises(ValueError):
        GaussianSpec("squeezed_gen", sgn_factor=-2.0)
    with pytest.raises(ValueError):
        GaussianSpec("squeezed_gen", sgn_factor=1j)  # nonnegative real part


def test_coherent_moments_closed_form():
    mom = exact_moments(GaussianSpec("coherent", n=1))
    assert mom.norm_sq == pytest.approx(1.0)
    assert mom.x_norm_sq == pytest.approx(0.5)
    assert mom.grad_norm_sq == pytest.approx(0.5)
    assert mom.inner_x_grad == pytest.approx(-0.5 + 0.0j)
    # Product form attains one half of the squared norm.
    prod = math.sqrt(mom.x_norm_sq * mom.grad_norm_sq)
    assert prod == pytest.approx(0.5 * mom.norm_sq)


def test_squeezed_moment_ratio():
    mom = exact_moments(GaussianSpec("squeezed", lam=4.0))
    assert mom.grad_norm_sq / mom.x_norm_sq == pytest.approx(16.0)
    assert mom.inner_x_grad.real == pytest.approx(-0.5)


def _grid_moments(phi):
    x = grids.position(phi)
    g = grids.gradient(phi)
    return phi.norm_sq(), x.norm_sq(), g.norm_sq(), x.inner(g)


@pytest.mark.parametrize("spec", [
    GaussianSpec("coherent"),
    GaussianSpec("squeezed", lam=4.0),
    GaussianSpec("squeezed", lam=0.3),
    GaussianSpec("squeezed_gen", lam=2.0,
                 sgn_factor=complex(-1.0, 1.0) / math.sqrt(2.0)),
])
def test_grid_realization_matches_exact_moments(spec):
    phi = realize(spec, GRID)
    mom = exact_moments(spec)
    n2, x2, g2, p = _grid_moments(phi)
    assert n2 == pytest.approx(mom.norm_sq, rel=1e-10)
    assert x2 == pytest.approx(mom.x_norm_sq, rel=1e-10)
    assert g2 == pytest.approx(mom.grad_norm_sq, rel=1e-10)
    assert abs(p - mom.inner_x_grad) <= 1e-10 * abs(p)


def test_global_phase_only_rotates_values():
    base = realize(GaussianSpec("coherent"), GRID)
    rotated = realize(GaussianSpec("coherent", theta=0.9), GRID)
    np.testing.assert_allclose(rotated.data,
                               cmath.exp(0.9j) * base.data, rtol=1e-14)
    assert rotated.norm() == pytest.approx(base.norm(), rel=1e-14)


def test_coherent_state_saturation_membership():
    phi = realize(GaussianSpec("coherent"), GRID)
    flags = saturation_flags(phi)
    assert flags.imag_parallel and flags.imag_saturated and flags.cs_saturated
    assert not flags.real_parallel and not flags.real_saturated


def test_squeezed_state_saturation_membership():
    phi = realize(GaussianSpec("squeezed", lam=3.0), GRID)
    flags = saturation_flags(phi)
    assert flags.imag_saturated and flags.cs_saturated


def test_general_squeezed_state_saturates_modulus_only():
    spec = GaussianSpec("squeezed_gen", lam=2.0,
                        sgn_factor=complex(-1.0, 1.0) / math.sqrt(2.0))
    phi = realize(spec, GRID)
    flags = saturation_flags(phi)
    assert flags.cs_saturated
    assert not flags.imag_saturated and not flags.real_saturated


def test_grid_adequacy_guards():
    spec = GaussianSpec("squeezed", lam=0.05)
    with pytest.raises(ValueError, match="boundary"):
        realize(spec, GridSpec(n=1, N=256, L=12.0))
    sharp = GaussianSpec("squeezed", lam=400.0)
    with pytest.raises(ValueError, match="coarse"):
        realize(sharp, GridSpec(n=1, N=64, L=12.0))
    with pytest.raises(ValueError):
        realize(GaussianSpec("coherent", n=2), GRID)  # dimension mismatch
