"""Tests for the radial quadrature fast path."""

import math

import numpy as np
import pytest

from uncerteq import grids
from uncerteq.radial import (MAX_DIMENSION, LaguerreQuadrature,
                             LogRadialQuadrature, RadialQuadrature, RadialState,
                             _gauss_laguerre,
                             _gauss_legendre, annulus_state,
                             coulomb, gaussian_polynomial, radial_derivative,
                             radial_derivative_sym,
                             radial_gaussian, random_radial_state, sphere_area,
                             x_dot_grad)


def test_sphere_area_low_dimensions():
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)


@pytest.mark.parametrize("n", [MAX_DIMENSION + 1, 10 ** 6])
def test_sphere_area_names_the_largest_dimension(n):
    assert math.isfinite(sphere_area(MAX_DIMENSION))
    with pytest.raises(ValueError, match=f"dimension is {MAX_DIMENSION}"):
        sphere_area(n)
    for quad in (LaguerreQuadrature(n), RadialQuadrature(n, 10.0, 100),
                 LogRadialQuadrature(n, 100.0)):
        with pytest.raises(ValueError, match="largest supported dimension"):
            quad.weights


def test_quadrature_validation():
    with pytest.raises(ValueError):
        RadialQuadrature(0, 10.0, 100)
    with pytest.raises(ValueError):
        RadialQuadrature(3, -1.0, 100)
    with pytest.raises(ValueError):
        RadialQuadrature(3, 10.0, 1)


@pytest.mark.parametrize("m", [1, 8, 32])
@pytest.mark.parametrize("n", range(3, 9))
def test_gauss_laguerre_is_exact_to_degree_2m_minus_1(m, n):
    # Int_0^inf t^k t^alpha e^{-t} dt = Gamma(k + alpha + 1), alpha = n/2 - 2.
    alpha = 0.5 * n - 2.0
    t, w = _gauss_laguerre(m, alpha)
    for k in range(2 * m):
        exact = math.exp(math.lgamma(k + alpha + 1.0))
        assert np.sum(w * t ** k) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("n", range(3, 9))
def test_laguerre_gaussian_norms_against_closed_form(n):
    # ||e^{-r^2/2}||^2 = pi^{n/2} and ||d/dr e^{-r^2/2}||^2 = (n/2) pi^{n/2}.
    psi = radial_gaussian(LaguerreQuadrature(n))
    assert psi.norm_sq() == pytest.approx(math.pi ** (0.5 * n), rel=1e-13)
    assert radial_derivative(psi).norm_sq() == pytest.approx(
        0.5 * n * math.pi ** (0.5 * n), rel=1e-13)


@pytest.mark.parametrize("n", range(3, 9))
def test_laguerre_rule_converges_off_its_weight(n):
    # e^{-r^2} squares to e^{-2t}, not e^{-t} times a polynomial, so the rule
    # is not exact here; its norm (pi/2)^{n/2} still converges at 32 nodes.
    psi = radial_gaussian(LaguerreQuadrature(n), alpha=2.0)
    assert psi.norm_sq() == pytest.approx((0.5 * math.pi) ** (0.5 * n),
                                          rel=1e-13)


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_laguerre_rule_refuses_dimensions_below_three(n):
    with pytest.raises(ValueError, match="dimension >= 3"):
        LaguerreQuadrature(n)


def test_node_layout():
    quad = RadialQuadrature(3, 10.0, 100)
    assert quad.dr == pytest.approx(0.1)
    assert quad.r[0] == pytest.approx(0.05)
    assert quad.r[-1] == pytest.approx(9.95)


def test_gaussian_norm_against_closed_form():
    # ||e^{-r^2/2}||^2 over R^3 is pi^{3/2}.
    quad = RadialQuadrature(3, 40.0, 20000)
    psi = radial_gaussian(quad)
    assert psi.norm_sq() == pytest.approx(math.pi ** 1.5, rel=1e-12)


def test_gaussian_derivative_norm_against_closed_form():
    # ||d/dr e^{-r^2/2}||^2 over R^3 is (3/2) pi^{3/2}.
    quad = RadialQuadrature(3, 40.0, 20000)
    dpsi = radial_derivative(radial_gaussian(quad))
    assert dpsi.norm_sq() == pytest.approx(1.5 * math.pi ** 1.5, rel=1e-12)


def test_polynomial_profile_derivative_is_consistent():
    quad = RadialQuadrature(3, 30.0, 50000)
    state = gaussian_polynomial(quad, [1.0, -0.5, 0.25j], alpha=1.3)
    num = np.gradient(state.values, quad.r)
    # Interior nodes only; the one-sided ends of np.gradient are cruder.
    interior = slice(5, -5)
    err = np.max(np.abs(num[interior] - state.deriv[interior]))
    assert err <= 5e-7


def test_state_arithmetic_propagates_derivatives():
    quad = RadialQuadrature(3, 20.0, 5000)
    a = radial_gaussian(quad, alpha=1.0)
    b = radial_gaussian(quad, alpha=2.0)
    s = a + 2.0 * b
    np.testing.assert_allclose(s.deriv, a.deriv + 2.0 * b.deriv)
    d = a - b
    np.testing.assert_allclose(d.deriv, a.deriv - b.deriv)


def test_derivative_lost_when_one_operand_lacks_it():
    quad = RadialQuadrature(3, 20.0, 5000)
    a = radial_gaussian(quad)
    bare = RadialState(quad, a.values)
    assert (a + bare).deriv is None
    for op in (radial_derivative, x_dot_grad, radial_derivative_sym):
        with pytest.raises(ValueError, match="no analytic derivative"):
            op(bare)


def test_scaling_derivative_action():
    quad = RadialQuadrature(3, 20.0, 5000)
    psi = radial_gaussian(quad)
    scaled = x_dot_grad(psi)
    np.testing.assert_allclose(scaled.values, quad.r * psi.deriv)


def test_coulomb_derivative_follows_product_rule():
    quad = RadialQuadrature(3, 20.0, 5000)
    psi = radial_gaussian(quad)
    q = coulomb(psi)
    np.testing.assert_allclose(q.values, psi.values / quad.r)
    np.testing.assert_allclose(
        q.deriv, psi.deriv / quad.r - psi.values / quad.r ** 2)


def test_symmetrized_radial_derivative_is_symmetric():
    quad = RadialQuadrature(5, 30.0, 40000)
    rng = np.random.default_rng(3)
    a = random_radial_state(quad, rng)
    b = random_radial_state(quad, rng)
    lhs = radial_derivative_sym(a).inner(b)
    rhs = a.inner(radial_derivative_sym(b))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_random_profile_is_normalized():
    quad = RadialQuadrature(3, 30.0, 10000)
    rng = np.random.default_rng(11)
    state = random_radial_state(quad, rng)
    assert state.norm() == pytest.approx(1.0, rel=1e-12)
    assert state.deriv is not None


def test_quadrature_mismatch_rejected():
    qa = RadialQuadrature(3, 20.0, 5000)
    qb = RadialQuadrature(3, 20.0, 6000)
    with pytest.raises(ValueError):
        radial_gaussian(qa).inner(radial_gaussian(qb))


def test_annulus_validation():
    quad = RadialQuadrature(3, 100.0, 20000)
    with pytest.raises(ValueError):
        annulus_state(quad, 0.0, 50.0)
    with pytest.raises(ValueError):
        annulus_state(quad, 1.0, 5.0)     # log(5) barely under 2 ramps
    with pytest.raises(ValueError):
        annulus_state(quad, 1.0, 200.0)   # beyond the quadrature range


def test_annulus_mass_grows_logarithmically():
    quad = RadialQuadrature(3, 1200.0, 300000)
    m = {R: annulus_state(quad, 1.0, R).norm_sq() for R in (30.0, 900.0)}
    # The r^{-3} density integrates to ~4 pi log R plus an O(1) ramp term.
    growth = (m[900.0] - m[30.0]) / (4.0 * math.pi)
    assert growth == pytest.approx(math.log(900.0 / 30.0), rel=0.15)


def test_annulus_vanishes_outside_support():
    quad = RadialQuadrature(3, 100.0, 50000)
    phi = annulus_state(quad, 2.0, 60.0)
    r = quad.r
    assert np.all(phi.values[r < 2.0] == 0.0)
    assert np.all(phi.values[r > 60.0] == 0.0)
    assert np.all(np.abs(phi.values[(r > 2.0 * math.e) & (r < 60.0 / math.e)]
                         - r[(r > 2.0 * math.e) & (r < 60.0 / math.e)] ** -1.5)
                  <= 1e-12)


def _annulus_on_every_node(quad, r_inner, r_outer, width=1.0):
    """The annulus formula evaluated on all nodes, clipped ramps and all."""
    def step(t):
        t = np.clip(t, 0.0, 1.0)
        return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)

    def step_deriv(t):
        tc = np.clip(t, 0.0, 1.0)
        return np.where((t > 0.0) & (t < 1.0),
                        30.0 * tc ** 2 * (1.0 - tc) ** 2, 0.0)

    half_n, r = 0.5 * quad.n, quad.r
    up_arg = np.log(np.maximum(r, 1e-300) / r_inner) / width
    dn_arg = np.log(r_outer / np.maximum(r, 1e-300)) / width
    up, dn = step(up_arg), step(dn_arg)
    window = up * dn
    dwindow = (step_deriv(up_arg) * dn - up * step_deriv(dn_arg)) / (width * r)
    core = r ** (-half_n)
    return window * core, dwindow * core - half_n * window * core / r


@pytest.mark.parametrize("r_outer", [10.0, 100.0, 1000.0])
def test_annulus_is_its_full_node_formula_and_zero_off_support(r_outer):
    quad = RadialQuadrature(3, 1100.0, 220000)
    phi = annulus_state(quad, 1.0, r_outer)
    values, deriv = _annulus_on_every_node(quad, 1.0, r_outer)
    assert phi.values.dtype == phi.deriv.dtype == np.float64
    assert phi.values.tobytes() == values.tobytes()
    assert phi.deriv.tobytes() == deriv.tobytes()
    off = (quad.r < 1.0) | (quad.r > r_outer)
    assert off.any()
    for data in (phi.values, phi.deriv):
        assert np.all(data[off] == 0.0) and not np.signbit(data[off]).any()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("quad", [RadialQuadrature(3, 1100.0, 20000),
                                  LogRadialQuadrature(3, 100.0)],
                         ids=["midpoint", "log"])
def test_annulus_refuses_a_width_or_inner_radius_that_is_not_positive(bad,
                                                                      quad):
    # A zero or negative width gave a window of 1 everywhere on the support
    # and a ratio of exactly 1: the bound attained, which it never is.
    with pytest.raises(ValueError, match="width must be finite and positive"):
        annulus_state(quad, 1.0, 100.0, width=bad)
    with pytest.raises(ValueError, match="r_inner must be finite and positive"):
        annulus_state(quad, bad, 100.0)


def test_log_rule_validation():
    with pytest.raises(ValueError, match="dimension"):
        LogRadialQuadrature(0, 100.0)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be finite"):
            LogRadialQuadrature(3, bad)
    with pytest.raises(ValueError, match="width must be finite"):
        LogRadialQuadrature(3, 100.0, width=0.0)
    with pytest.raises(ValueError, match="r_inner must be finite"):
        LogRadialQuadrature(3, 100.0, r_inner=-1.0)
    with pytest.raises(ValueError, match="too small for the cutoff ramps"):
        LogRadialQuadrature(3, 5.0)      # log(5) is under two ramp widths
    # r^n <= r_max^n bounds the weights; 1000^103 overflows a float.
    assert np.isfinite(LogRadialQuadrature(102, 1000.0).weights).all()
    with pytest.raises(ValueError, match="at r_max = 1000: the largest n is 102"):
        LogRadialQuadrature(103, 1000.0).weights


@pytest.mark.parametrize("m", [6, 8, 12])
def test_gauss_legendre_is_exact_to_degree_2m_minus_1(m):
    x, w = _gauss_legendre(m)
    assert np.all(np.diff(x) > 0.0)
    for k in range(2 * m):
        assert np.sum(w * x ** k) == pytest.approx(
            (1.0 + (-1.0) ** k) / (k + 1), abs=1e-14)


def test_log_rule_nodes_fill_the_annulus_panels():
    quad = LogRadialQuadrature(4, 300.0, r_inner=2.0, width=0.7)
    s = np.log(quad.r / 2.0)
    edges = (0.0, 0.7, math.log(150.0) - 0.7, math.log(150.0))
    per = quad.panel_points
    assert quad.r.shape == quad.weights.shape == (quad.points,) == (3 * per,)
    for j in range(3):
        panel = s[j * per:(j + 1) * per]
        assert edges[j] < panel.min() and panel.max() < edges[j + 1]
    # The weights carry |S^3| r^4 ds, so r^-4 integrates to |S^3| ln(R/r_inner).
    assert np.sum(quad.weights / quad.r ** 4) == pytest.approx(
        sphere_area(4) * math.log(150.0), rel=1e-14)


@pytest.mark.parametrize("n, r_inner, r_outer, width", [
    (3, 1.0, 10.0, 1.0), (3, 1.0, 1000.0, 1.0), (4, 1.0, 300.0, 0.7),
    (4, 2.0, 100.0, 1.0), (5, 1.0, 500.0, 0.7)])
def test_annulus_norm_on_the_log_rule_is_its_closed_form(n, r_inner, r_outer,
                                                         width):
    # |phi|^2 r^n = w(s)^2, whose ramps integrate to 181/462 of their width.
    quad = LogRadialQuadrature(n, r_outer, r_inner, width)
    phi = annulus_state(quad, r_inner, r_outer, width)
    exact = sphere_area(n) * (math.log(r_outer / r_inner)
                              - 281.0 / 231.0 * width)
    assert phi.norm_sq() == pytest.approx(exact, rel=1e-13)
    assert np.all(phi.values > 0.0)     # every node is inside the support


def test_state_keeps_real_data_real():
    quad = RadialQuadrature(3, 10.0, 100)
    rng = np.random.default_rng(3)
    real = RadialState(quad, rng.standard_normal(quad.points),
                       np.arange(quad.points))
    assert real.values.dtype == real.deriv.dtype == np.float64
    mixed = RadialState(quad, np.ones(quad.points) + 0j,
                        np.ones(quad.points, dtype=np.complex64))
    assert mixed.values.dtype == mixed.deriv.dtype == np.complex128
    assert real.norm_sq() == (real * 1.0).norm_sq()   # complex copy
    assert x_dot_grad(real).values.dtype == np.float64
    assert radial_derivative_sym(real).values.dtype == np.complex128


def test_spherical_derivative_of_a_radial_profile_vanishes():
    # The radial verifiers take L psi = 0 and |grad psi| = |psi'| for a
    # profile; the whole-grid operators agree on the Gaussian sampled on a
    # grid, and the norm of psi' on the Laguerre rule is that of grad psi
    # (measured 2.6e-15, 2.2e-16 and 2.2e-16 relative).
    grid = grids.GridSpec(n=3, N=48, L=8.0, offset=0.5)
    psi = grids.StateField.from_callable(
        grid, lambda x, y, z: np.exp(-0.5 * (x * x + y * y + z * z)))
    g = grids.gradient(psi)
    assert grids.spherical_derivative(psi).norm() <= 1e-13 * g.norm()
    assert grids.radial_part(g).norm_sq() == pytest.approx(g.norm_sq(), rel=1e-13)
    profile = radial_derivative(radial_gaussian(LaguerreQuadrature(3)))
    assert profile.norm_sq() == pytest.approx(g.norm_sq(), rel=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan),
                                 complex(0.0, -np.inf)])
def test_state_rejects_non_finite_values_and_derivatives(bad):
    quad = RadialQuadrature(3, 10.0, 100)
    broken = np.ones(quad.points, dtype=np.complex128)
    broken[17] = bad
    with pytest.raises(ValueError, match="values must be finite"):
        RadialState(quad, broken, np.ones(quad.points))
    with pytest.raises(ValueError, match="derivative must be finite"):
        RadialState(quad, np.ones(quad.points), broken)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="finite"):
        radial_gaussian(quad) * bad


def test_a_stacked_draw_is_the_successive_single_draws():
    quad = LaguerreQuadrature(4)
    rng_stack, rng_single = np.random.default_rng(5), np.random.default_rng(5)
    stack = random_radial_state(quad, rng_stack, states=6)
    rows = [random_radial_state(quad, rng_single) for _ in range(6)]
    assert stack.values.shape == (6, quad.points)
    assert stack.values.tobytes() == np.array([r.values for r in rows]).tobytes()
    assert stack.deriv.tobytes() == np.array([r.deriv for r in rows]).tobytes()
    np.testing.assert_array_equal(stack.norm(), [r.norm() for r in rows])
    assert rng_stack.standard_normal() == rng_single.standard_normal()


def test_per_row_factors_scale_each_row():
    quad = LaguerreQuadrature(3)
    stack = random_radial_state(quad, np.random.default_rng(9), states=3)
    scaled = np.array([2.0, -1j, 0.5]) * stack
    for i, factor in enumerate((2.0, -1j, 0.5)):
        row = RadialState(quad, stack.values[i], stack.deriv[i]) * factor
        assert scaled.values[i].tobytes() == row.values.tobytes()
        assert scaled.deriv[i].tobytes() == row.deriv.tobytes()
    np.testing.assert_allclose(scaled.norm(), [2.0, 1.0, 0.5], rtol=1e-14)
