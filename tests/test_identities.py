"""Tests for the norm-identity verifiers on grid and radial states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uncerteq import grids, identities, radial
from uncerteq.complexspace import ComplexVector
from uncerteq.gaussians import GaussianSpec, realize
from uncerteq.grids import GridSpec, StateField
from uncerteq.identities import (_hermite_functions, random_smooth_state,
                                 verify_dilation_hamiltonian,
                                 verify_dilation_pythagoras, verify_hardy,
                                 verify_position_momentum,
                                 verify_radial_coulomb)
from uncerteq.cli import SuiteConfig, run_suite
from uncerteq.radial import (LaguerreQuadrature, RadialQuadrature, RadialState,
                             radial_gaussian, random_radial_state)
from uncerteq.suites import _aggregate

GRID = GridSpec(n=1, N=256, L=12.0)
QUAD3 = RadialQuadrature(3, 40.0, 20000)
QUAD5 = RadialQuadrature(5, 40.0, 20000)

# ||d/dr e^{-r^2/2}||^2 over R^3, from the Gaussian moment integral
# 4 pi Int r^4 e^{-r^2} dr = (3/2) pi^{3/2}.
HARDY_LHS_ORACLE = 1.5 * math.pi ** 1.5
# The same quantity split into shifted part pi^{3/2} plus (1/4) ||psi/r||^2
# with ||psi/r||^2 = 4 pi Int r^2 e^{-r^2} / r^2 dr = 2 pi^{3/2}.
HARDY_SHIFT_ORACLE = math.pi ** 1.5
HARDY_POTENTIAL_ORACLE = 2.0 * math.pi ** 1.5


def test_hermite_functions_are_orthonormal():
    grid = GridSpec(n=1, N=512, L=14.0)
    x = grid.axis_coords()
    basis = _hermite_functions(x, 10)
    gram = basis @ basis.T * grid.h
    np.testing.assert_allclose(gram, np.eye(11), atol=1e-10)


def test_random_smooth_state_is_normalized_and_localized():
    rng = np.random.default_rng(2)
    phi = random_smooth_state(GRID, rng)
    assert phi.norm() == pytest.approx(1.0, rel=1e-12)
    edge = np.abs(phi.data[:4]).max() + np.abs(phi.data[-4:]).max()
    assert edge <= 1e-12


def test_position_momentum_identities_on_random_states():
    rng = np.random.default_rng(0)
    for _ in range(10):
        phi = random_smooth_state(GRID, rng)
        for rep in verify_position_momentum(phi, tol=1e-8):
            assert rep.passed, (rep.identity_id, rep.rel_residual)


def test_position_momentum_rejects_flat_state():
    grid = GridSpec(n=1, N=16, L=2.0)
    with pytest.raises(ValueError):
        verify_position_momentum(StateField(grid, np.zeros(16)))


def test_trace_identity_both_sides_match_dimension():
    phi = realize(GaussianSpec("coherent", n=1), GRID)
    rep = {r.identity_id: r for r in verify_position_momentum(phi)}["pm.trace"]
    assert rep.lhs.real == pytest.approx(1.0, rel=1e-10)
    assert rep.rhs.real == pytest.approx(1.0, rel=1e-10)


def test_dilation_split_on_grid_and_radial_states():
    rng = np.random.default_rng(8)
    for state in (random_smooth_state(GRID, rng),
                  random_radial_state(QUAD3, rng),
                  random_radial_state(QUAD5, rng)):
        reps = verify_dilation_pythagoras(state, tol=1e-8)
        assert all(r.passed for r in reps)
        assert reps[0].context["gap"] > 0.0


def test_hardy_identities_frozen_oracle():
    psi = radial_gaussian(QUAD3)
    reps = {r.identity_id: r for r in verify_hardy(psi, tol=1e-8)}
    rep = reps["hardy.pythagoras"]
    assert rep.passed
    assert rep.lhs.real == pytest.approx(HARDY_LHS_ORACLE, rel=1e-10)
    assert rep.rhs.real == pytest.approx(
        HARDY_SHIFT_ORACLE + 0.25 * HARDY_POTENTIAL_ORACLE, rel=1e-10)
    assert reps["hardy.chain.potential"].passed
    assert reps["hardy.chain.gradient"].passed


def test_hardy_transfer_forms_on_random_states():
    rng = np.random.default_rng(4)
    for quad in (QUAD3, QUAD5):
        for _ in range(10):
            psi = random_radial_state(quad, rng)
            for rep in verify_hardy(psi, tol=1e-8):
                assert rep.passed, (quad.n, rep.identity_id, rep.rel_residual)


def test_hardy_requires_three_dimensions():
    quad = RadialQuadrature(2, 40.0, 1000)
    with pytest.raises(ValueError):
        verify_hardy(radial_gaussian(quad))


def test_dilation_hamiltonian_identities():
    rng = np.random.default_rng(6)
    for _ in range(10):
        phi = random_smooth_state(GRID, rng)
        for rep in verify_dilation_hamiltonian(phi, tol=1e-7):
            assert rep.passed, (rep.identity_id, rep.rel_residual)


def test_dilation_hamiltonian_energy_is_gradient_norm():
    phi = realize(GaussianSpec("coherent", n=1), GRID)
    reps = {r.identity_id: r for r in verify_dilation_hamiltonian(phi)}
    assert reps["dilham.energy"].lhs.real == pytest.approx(1.0, rel=1e-10)


def test_radial_coulomb_identities():
    rng = np.random.default_rng(12)
    for quad in (QUAD3, QUAD5):
        for _ in range(10):
            phi = random_radial_state(quad, rng)
            for rep in verify_radial_coulomb(phi, tol=1e-8):
                assert rep.passed, (quad.n, rep.identity_id, rep.rel_residual)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10 ** 9))
def test_radial_identities_hold_on_the_laguerre_rule(n, seed):
    # Even n included: the midpoint rule missed 1e-8 there (n = 4: 3.3e-7).
    quad = LaguerreQuadrature(n)
    rng = np.random.default_rng(seed)
    for psi in (radial_gaussian(quad), random_radial_state(quad, rng)):
        reports = verify_hardy(psi, 1e-8) + verify_radial_coulomb(psi, 1e-8)
        assert {r.identity_id.split(".")[0] for r in reports} == {
            "hardy", "radcoul"}
        assert [r.identity_id for r in reports if not r.passed] == []


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("verify", [verify_hardy, verify_radial_coulomb])
def test_a_stack_reports_the_worst_of_its_rows_verified_alone(verify, n):
    # Row 0 is the Gaussian, as in the suites.  Each id's report is the first
    # worst row's own report, to the bit, whether the rows are verified as
    # stacks of one or as 1-D profiles.
    quad = LaguerreQuadrature(n)
    head = radial_gaussian(quad)
    rows = random_radial_state(quad, np.random.default_rng(n), states=40)
    stack = RadialState(quad, np.vstack([head.data, rows.data]),
                        np.vstack([head.deriv, rows.deriv]))
    as_stacks = [rep for i in range(41) for rep in verify(
        RadialState(quad, stack.data[i:i + 1], stack.deriv[i:i + 1]))]
    as_profiles = [rep for i in range(41) for rep in verify(
        RadialState(quad, stack.data[i], stack.deriv[i]))]
    reports = verify(stack)
    assert len(reports) == len({rep.identity_id for rep in reports})
    assert _aggregate(reports) == _aggregate(as_stacks) == _aggregate(as_profiles)


def test_radial_coulomb_coefficient_is_trivial_only_in_three_dimensions():
    rng = np.random.default_rng(14)
    phi3 = random_radial_state(QUAD3, rng)
    reps3 = {r.identity_id: r for r in verify_radial_coulomb(phi3)}
    # (n-1)(n-3)/4 vanishes: the symmetrized norm equals the radial one.
    assert reps3["radcoul.sym_norm"].lhs.real == pytest.approx(
        radial.radial_derivative(phi3).norm_sq(), rel=1e-10)
    phi5 = random_radial_state(QUAD5, rng)
    reps5 = {r.identity_id: r for r in verify_radial_coulomb(phi5)}
    dr_sq = radial.radial_derivative(phi5).norm_sq()
    from uncerteq.radial import coulomb
    b_sq = coulomb(phi5).norm_sq()
    assert reps5["radcoul.sym_norm"].lhs.real == pytest.approx(
        dr_sq - 2.0 * b_sq, rel=1e-8)
    assert abs(reps5["radcoul.sym_norm"].lhs.real - dr_sq) > 1e-6


def test_quadrupled_identity_reduces_to_hardy():
    rng = np.random.default_rng(18)
    psi = random_radial_state(QUAD5, rng)
    hardy = {r.identity_id: r for r in verify_hardy(psi)}["hardy.pythagoras"]
    quad = {r.identity_id: r
            for r in verify_radial_coulomb(psi)}["radcoul.hardy_quadrupled"]
    assert quad.lhs.real == pytest.approx(4.0 * hardy.lhs.real, rel=1e-10)
    assert quad.rhs.real == pytest.approx(4.0 * hardy.rhs.real, rel=1e-10)


def test_singular_weight_quadrature_error_is_first_order():
    # Norms weighted by 1/|x|^2 on the tensor grid carry an O(h) midpoint
    # error, so halving h halves the defect and a two-grid extrapolation
    # removes it almost entirely.
    from uncerteq.grids import coulomb
    exact = 2.0  # ||psi/|x|||^2 for the unit-norm isotropic Gaussian in R^3
    err = {}
    for N in (48, 96):
        grid = GridSpec(n=3, N=N, L=12.0, offset=0.5)
        psi = realize(GaussianSpec("coherent", n=3), grid)
        err[N] = coulomb(psi).norm_sq() - exact
    assert 1.8 <= err[48] / err[96] <= 2.2
    extrapolated = err[96] * 2 - err[48]
    assert abs(extrapolated) <= 1e-6 * exact


def test_degenerate_states_rejected():
    with pytest.raises(ValueError):
        verify_dilation_hamiltonian(
            StateField(GRID, np.zeros(GRID.shape)))
    zeros = np.zeros(QUAD3.points)
    from uncerteq.radial import RadialState
    with pytest.raises(ValueError):
        verify_radial_coulomb(RadialState(QUAD3, zeros, zeros))


def test_radial_coulomb_on_a_non_radial_grid_state():
    # The tensor grid's sums of 1/|x| carry the lattice error, so a grid
    # state is refused, naming the radial rule.  Its gradient split is
    # grad.pointwise_split's: (x + iy) e^{-|x|^2/2} has an angular part, so
    # the spherical sum in the split is nonzero on the tensor grid.
    grid = GridSpec(3, 32, 8.0, offset=0.5)
    phi = StateField.from_callable(
        grid, lambda x, y, z: (x + 1j * y) * np.exp(-0.5 * (x ** 2 + y ** 2
                                                            + z ** 2)))
    with pytest.raises(ValueError, match="radial rule"):
        verify_radial_coulomb(phi, tol=1e-10)
    rep = grids.pointwise_gradient_decomposition(phi, tol=1e-10)
    assert rep.passed, rep.rel_residual
    assert grids.spherical_derivative(phi).norm_sq() >= 1.0


def test_verifiers_reject_unsupported_state_types():
    # Every verifier takes a scalar StateField, and the grid-only ones refuse
    # a radial profile, naming the tensor grid.
    field = grids.position(random_smooth_state(GRID, np.random.default_rng(0)))
    for verify in (verify_position_momentum, identities.saturation_flags,
                   verify_dilation_pythagoras, verify_hardy,
                   verify_dilation_hamiltonian, verify_radial_coulomb):
        for state in (ComplexVector([1.0, 2.0, 3.0]), field):
            with pytest.raises(TypeError, match="unsupported state type"):
                verify(state)
    for verify in (verify_position_momentum, identities.saturation_flags,
                   verify_dilation_hamiltonian):
        with pytest.raises(ValueError, match=f"{verify.__name__} takes a state "
                                             "on a tensor grid"):
            verify(radial_gaussian(LaguerreQuadrature(3)))


@pytest.mark.parametrize("grid, message", [
    (GridSpec(n=2, N=32, L=8.0), "grid too coarse"),
    (GridSpec(n=1, N=256, L=6.0), "grid too small"),
    # One step coarser than the edge grids below: a Nyquist density of 2e-9
    # there lets dilham.* reach 6.0e-8.
    (GridSpec(n=1, N=34, L=8.0), "increase N"),
    (GridSpec(n=1, N=38, L=9.0), "increase N"),
])
def test_random_smooth_state_refuses_grids_that_cut_off_the_basis(grid, message):
    # The basis is cached per grid; a refused grid is refused on every call.
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            random_smooth_state(grid, np.random.default_rng(0))


@pytest.mark.parametrize("N, L", [(40, 9.0), (32, 7.0)])
def test_grids_at_the_guard_edge_hold_a_fifth_of_grid_tol(N, L):
    # The coarsest accepted N at L = 9 and at L = 7.  dilham.* tracks the
    # top mode's Nyquist density: 1.5e-9 at worst here over seeds 0-9.
    for seed in range(5):
        for suite in ("momentum-position", "dilation"):
            _, payload = run_suite(SuiteConfig(suite=suite, N=N, L=L, seed=seed))
            assert payload["failing"] == []
            for rep in payload["reports"]:
                assert rep["tol"] == identities.GRID_TOL
                assert rep["rel_residual"] <= identities.GRID_TOL / 5, rep


@pytest.mark.parametrize("grid", [
    GridSpec(n=1, N=256, L=12.0),
    GridSpec(n=2, N=48, L=9.0, offset=0.5),
    GridSpec(n=1, N=96, L=8.0, scheme="central_diff_2"),
    GridSpec(n=2, N=48, L=8.0),
    GridSpec(n=2, N=36, L=8.0),
    GridSpec(n=1, N=256, L=7.0),
])
def test_random_smooth_state_accepts_resolved_grids(grid):
    phi = random_smooth_state(grid, np.random.default_rng(0))
    assert phi.norm() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("grid", [GridSpec(n=1, N=256, L=12.0),
                                  GridSpec(n=2, N=48, L=9.0, offset=0.5)])
@pytest.mark.parametrize("normalize", [True, False])
def test_a_stack_of_random_smooth_states_is_successive_single_draws(grid, normalize):
    # The same draws in the same order, and each row's bits those of its
    # single call; states=1 is one call's state on a leading axis.
    rng, alone = np.random.default_rng(5), np.random.default_rng(5)
    stack = random_smooth_state(grid, rng, normalize=normalize, states=7)
    assert stack.data.shape == (7, *grid.shape)
    for row in stack.data:
        assert np.array_equal(
            row, random_smooth_state(grid, alone, normalize=normalize).data)
    assert rng.standard_normal() == alone.standard_normal()
    one = random_smooth_state(grid, np.random.default_rng(9), states=1)
    assert np.array_equal(one.data[0],
                          random_smooth_state(grid, np.random.default_rng(9)).data)


def test_radial_verifiers_default_to_their_rules_tolerance():
    # With no tol, the exact Laguerre rule checks at ALGEBRAIC_TOL; the
    # midpoint rule and the tensor grid at GRID_TOL.  verify_radial_coulomb
    # refuses the tensor grid.
    quad = LaguerreQuadrature(4)
    stack = random_radial_state(quad, np.random.default_rng(3), states=20)
    for verify in (verify_hardy, verify_radial_coulomb,
                   verify_dilation_pythagoras):
        reports = verify(stack)
        assert {rep.tol for rep in reports} == {identities.ALGEBRAIC_TOL}
        assert all(rep.passed for rep in reports)
        assert {rep.tol for rep in verify(radial_gaussian(QUAD3))} == {
            identities.GRID_TOL}
    psi = realize(GaussianSpec("coherent", n=3), GridSpec(3, 32, 8.0, offset=0.5))
    for verify in (verify_hardy, verify_dilation_pythagoras):
        assert {rep.tol for rep in verify(psi)} == {identities.GRID_TOL}
    with pytest.raises(ValueError, match="radial rule"):
        verify_radial_coulomb(psi)
