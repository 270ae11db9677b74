"""Tests for the variational minimizers and the non-attainment probe."""

import math

import numpy as np
import pytest

from uncerteq import grids
from uncerteq.cli import SuiteConfig, run_suite
from uncerteq.gaussians import GaussianSpec, realize
from uncerteq.grids import (GridSpec, StateField, _radius_sq, gradient,
                            neg_laplacian, position)
from uncerteq.identities import random_smooth_state
from uncerteq.search import (SearchOptions, _descend, _plane_step, _tangent,
                             _value_and_gradient, fidelity,
                             minimize_product_functional,
                             minimize_sum_functional, probe_nonattainment)
from uncerteq.radial import LogRadialQuadrature, RadialQuadrature

GRID = GridSpec(n=1, N=256, L=12.0)
FAST = SearchOptions(max_iters=20000)


def test_fidelity_is_phase_free():
    phi = realize(GaussianSpec("coherent"), GRID)
    assert fidelity(phi, (0.3 - 0.7j) * phi) == pytest.approx(1.0, abs=1e-12)


def test_sum_minimization_recovers_ground_state():
    res = minimize_sum_functional(GRID, seed=3, opts=FAST)
    assert res.converged
    assert res.value <= GRID.n + 1e-4
    assert res.fidelity >= 0.999
    assert res.state.norm() == pytest.approx(1.0, rel=1e-12)


def test_descent_is_monotone():
    res = minimize_sum_functional(GRID, seed=5, opts=FAST)
    values = [v for _, v, _ in res.trace]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_sum_minimum_matches_dense_eigensolver():
    # Independent oracle: the discrete quadratic-potential Hamiltonian's
    # ground energy from a dense symmetric eigensolve on the same grid.
    grid = GridSpec(n=1, N=96, L=8.0, scheme="central_diff_2")
    x = grid.axis_coords()
    N = grid.N
    D = (np.eye(N, k=1) - np.eye(N, k=-1)) / (2 * grid.h)
    D[0, -1] = -1.0 / (2 * grid.h)
    D[-1, 0] = 1.0 / (2 * grid.h)
    H = np.diag(x ** 2) - D @ D
    ground = float(np.linalg.eigvalsh(H)[0])
    res = minimize_sum_functional(grid, seed=1, opts=FAST)
    assert res.value == pytest.approx(ground, abs=1e-10)


def _value_and_gradient_of(phi, product):
    """Value, gradient array and its squared norm at the field ``phi``."""
    return _value_and_gradient(GRID, phi.data, neg_laplacian(phi).data,
                               product)


def _fresh_value(phi, product):
    return _value_and_gradient_of(phi / phi.norm(), product)[0]


def _tangent_field(phi, v):
    return StateField(GRID, _tangent(GRID, phi.data, v.data))


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
def test_gradient_matches_finite_difference(product):
    # Central difference of the value along a tangent direction through the
    # retraction, against the real inner product with the gradient.
    rng = np.random.default_rng(4)
    phi = random_smooth_state(GRID, rng)
    d = _tangent_field(phi, random_smooth_state(GRID, rng))
    grad = StateField(GRID, _value_and_gradient_of(phi, product)[1])
    h = 1e-5
    plus = _fresh_value(phi + h * d, product)
    minus = _fresh_value(phi - h * d, product)
    assert grad.inner(d).real == pytest.approx((plus - minus) / (2 * h),
                                               rel=1e-6)


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
@pytest.mark.parametrize("near_converged", [False, True],
                         ids=["random_d", "minus_g_near_minimum"])
def test_plane_step_is_exact(product, near_converged):
    # The returned angle beats every angle of a dense sample of the circle
    # cos t phi + sin t d, and of a fine sample around itself, each value
    # evaluated afresh from its own -Laplacian.
    rng = np.random.default_rng(9)
    if near_converged:
        opts = SearchOptions(gtol=1e-3)
        minimize = (minimize_product_functional if product
                    else minimize_sum_functional)
        phi = minimize(GRID, 0, opts).state
        d = StateField(GRID, -1.0 * _value_and_gradient_of(phi, product)[1])
    else:
        phi = random_smooth_state(GRID, rng)
        d = _tangent_field(phi, random_smooth_state(GRID, rng))
    d = d / d.norm()
    theta = _plane_step(GRID, phi.data, neg_laplacian(phi).data, d.data,
                        neg_laplacian(d).data, product)
    assert theta != 0.0
    best = _fresh_value(math.cos(theta) * phi + math.sin(theta) * d, product)
    assert best < _fresh_value(phi, product)
    sample = np.concatenate([np.linspace(-0.5 * np.pi, 0.5 * np.pi, 721),
                             theta * np.linspace(0.0, 2.0, 201)])
    values = [_fresh_value(math.cos(t) * phi + math.sin(t) * d, product)
              for t in sample]
    assert best <= min(values) + 1e-13


def _spike_plane(lap_scale, lap_d_scale):
    """phi and d as unit spikes at x = +-3h, where |x|^2 agrees bit for bit,
    with -Laplacian stand-ins lap_scale phi and lap_d_scale d: X is flat on
    the plane and G = lap_scale cos^2 t + lap_d_scale sin^2 t."""
    phi, d = np.zeros(GRID.N, complex), np.zeros(GRID.N, complex)
    phi[GRID.N // 2 + 3] = d[GRID.N // 2 - 3] = 1.0 / math.sqrt(GRID.weight)
    assert _radius_sq(GRID)[GRID.N // 2 + 3] == _radius_sq(GRID)[GRID.N // 2 - 3]
    return phi, lap_scale * phi, d, lap_d_scale * d


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
def test_plane_step_on_a_flat_plane_is_zero(product):
    # c_1 = 0 for the sum, and for the product every coefficient but the
    # constant one vanishes, its leading one first.
    theta = _plane_step(GRID, *_spike_plane(2.0, 2.0), product)
    assert theta == 0.0


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
def test_plane_step_with_a_zero_leading_coefficient_minimizes_the_rest(product):
    # X flat makes the product's degree-two coefficient X_1 G_1 zero; the
    # step still minimizes G, here by turning phi into d.
    theta = _plane_step(GRID, *_spike_plane(3.0, 1.0), product)
    assert theta == pytest.approx(0.5 * math.pi, abs=1e-15)
    # G would rise, so no step.
    assert _plane_step(GRID, *_spike_plane(1.0, 3.0), product) == 0.0


# Iteration counts at n = 1, N = 256, max_iters 40000, seeds 0-4, as the
# search gave before its plane step left np.roots.
PINNED_ITERATIONS = {"sum": (95, 102, 93, 114, 93),
                     "product": (131, 148, 112, 178, 148)}


@pytest.mark.parametrize("target", ["sum", "product"])
def test_iteration_counts_are_pinned(target):
    minimize = (minimize_sum_functional if target == "sum"
                else minimize_product_functional)
    opts = SearchOptions(max_iters=40000)
    assert tuple(minimize(GRID, seed, opts).iterations
                 for seed in range(5)) == PINNED_ITERATIONS[target]


def test_search_applies_the_laplacian_once_per_iteration(monkeypatch):
    # One -Laplacian for the start and one per direction tried: the exact
    # plane step needs no trial states.
    calls = []
    apply = grids.neg_laplacian

    def counted(phi):
        calls.append(1)
        return apply(phi)

    monkeypatch.setattr(grids, "neg_laplacian", counted)
    minimize_sum_functional(GRID, 0)
    minimize_product_functional(GRID, 0)
    assert len(calls) <= 550


@pytest.mark.parametrize("minimize", [minimize_sum_functional,
                                      minimize_product_functional])
def test_search_builds_two_fields_per_iteration(minimize, monkeypatch):
    # The loop runs on raw arrays: per direction it builds only the checked
    # input of -Laplacian and its result.  The constant covers the start
    # state, its -Laplacian, the result state and the overlap's Gaussian.
    built = []
    init = grids._GridQuantity.__init__

    def counted(self, grid, data):
        if isinstance(self, StateField):
            built.append(1)
        init(self, grid, data)

    monkeypatch.setattr(grids._GridQuantity, "__init__", counted)
    for seed in (0, 7):
        built.clear()
        res = minimize(GRID, seed)
        assert res.iterations > 50
        assert len(built) <= 2 * res.iterations + 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad_call", [1, 5], ids=["start", "in_loop"])
@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
def test_a_non_finite_laplacian_stops_the_descent(bad, bad_call, product,
                                                  monkeypatch):
    # -Laplacian results are checked fields; one that is not finite anyway
    # (its data overwritten after the check) must end the loop at once, as
    # the non-finite value or plane-step coefficients it feeds.
    calls = []
    apply = grids.neg_laplacian

    def broken(phi):
        calls.append(1)
        out = apply(phi)
        if len(calls) == bad_call:
            out.data[7] = bad
        return out

    monkeypatch.setattr(grids, "neg_laplacian", broken)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(ValueError, match="field values must be finite"):
        _descend(GRID, 0, SearchOptions(), product)
    assert len(calls) == bad_call


@pytest.mark.parametrize("minimize", [minimize_sum_functional,
                                      minimize_product_functional])
def test_minimizers_reach_the_bound_to_1e10(minimize):
    for seed in range(5):
        res = minimize(GRID, seed)
        assert res.converged
        assert abs(res.value - GRID.n) <= 1e-10
        assert res.iterations <= 600


@pytest.mark.parametrize("seed", [16000059, 18000074])
def test_search_suite_product_value_at_former_stall_seeds(seed):
    # Steepest descent stopped 1.3e-4 and 7.1e-4 above n from these starts.
    _, payload = run_suite(SuiteConfig(suite="search", seed=seed))
    value = next(rep for rep in payload["reports"]
                 if rep["identity_id"] == "search.product.value")
    assert value["passed"]


def test_minimizer_satisfies_the_alignment_condition():
    res = minimize_sum_functional(GRID, seed=7, opts=FAST)
    combo = position(res.state) + gradient(res.state)
    assert combo.norm() / res.state.norm() <= 1e-3


def test_product_minimization_reaches_the_bound():
    res = minimize_product_functional(GRID, seed=2, opts=FAST)
    assert res.value <= GRID.n + 1e-4
    assert res.fidelity >= 0.999
    assert math.isfinite(res.lambda_est) and res.lambda_est > 0


def test_difference_scheme_product_search_reports_the_slide():
    # A difference quotient loses derivative norm as a Gaussian narrows, so
    # the discrete product slides to a one-point spike where it is ~0, far
    # below the continuum bound n.
    grid = GridSpec(n=1, N=48, L=8.0, scheme="central_diff_4")
    res = minimize_product_functional(grid, 0, SearchOptions(max_iters=40000))
    assert res.value < 1e-6


def test_rounding_floor_stop_counts_as_converged():
    # With gtol 0 only the rounding floor, where even -g gives no step that
    # keeps the value from rising, can stop the descent before max_iters.
    opts = SearchOptions(max_iters=40000, gtol=0.0)
    res = minimize_sum_functional(GRID, seed=1000017, opts=opts)
    grad = StateField(GRID, _value_and_gradient_of(res.state, False)[1])
    assert grad.norm() > opts.gtol
    assert res.iterations < opts.max_iters
    assert res.converged
    assert abs(res.value - GRID.n) <= 1e-11


def test_product_value_is_scale_invariant_on_the_minimizing_family():
    # Every anisotropy ratio gives the same product value at the minimum.
    for lam in (0.5, 1.0, 2.0):
        phi = realize(GaussianSpec("squeezed", lam=lam), GRID)
        value = 2.0 * position(phi).norm() * gradient(phi).norm() / phi.norm_sq()
        assert value == pytest.approx(1.0, rel=1e-10)


def test_product_lambda_matches_converged_state():
    res = minimize_product_functional(GRID, seed=11, opts=FAST)
    ratio = gradient(res.state).norm() / position(res.state).norm()
    assert res.lambda_est == pytest.approx(ratio, rel=1e-12)


def test_nonattainment_ratio_decreases_toward_one():
    quad = RadialQuadrature(3, 1100.0, 220000)
    rows = probe_nonattainment(quad, (10.0, 100.0, 1000.0))
    rhos = [row["rho"] for row in rows]
    assert all(r > 1.0 for r in rhos)
    assert rhos[0] > rhos[1] > rhos[2]
    gaps = [r - 1.0 for r in rhos]
    assert gaps[0] > gaps[1] > gaps[2]


def test_nonattainment_validation():
    with pytest.raises(ValueError):
        probe_nonattainment(RadialQuadrature(2, 100.0, 1000), (10.0,))
    quad = RadialQuadrature(3, 100.0, 1000)
    with pytest.raises(ValueError):
        probe_nonattainment(quad, (5.0,))  # no room for the cutoff ramps


def _rho_closed_form(n, r_outer, r_inner=1.0, width=1.0):
    """1 + int w'^2 / ((n/2)^2 int w^2) for the annulus window w(s)."""
    ell = math.log(r_outer / r_inner)
    return 1.0 + 80.0 / (7.0 * n * n * width * (ell - 281.0 / 231.0 * width))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("width", [1.0, 0.7])
@pytest.mark.parametrize("rule", [lambda n: RadialQuadrature(n, 1100.0, 2),
                                  lambda n: LogRadialQuadrature(n, 1000.0)],
                         ids=["midpoint", "log"])
def test_nonattainment_ratio_is_its_closed_form(n, width, rule):
    radii = (10.0, 100.0, 300.0, 1000.0)
    for row in probe_nonattainment(rule(n), radii, width=width):
        assert row["rho"] == pytest.approx(
            _rho_closed_form(n, row["R"], width=width), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_nonattainment_refuses_a_width_that_is_not_positive(bad):
    # Width 0 or -1 returned rho = 1.0 at every radius, the bound attained.
    with pytest.raises(ValueError, match="width must be finite and positive"):
        probe_nonattainment(RadialQuadrature(3, 1100.0, 20000),
                            (10, 100, 1000), width=bad)
    with pytest.raises(ValueError, match="r_inner must be finite and positive"):
        probe_nonattainment(RadialQuadrature(3, 1100.0, 20000),
                            (10, 100, 1000), r_inner=bad)


def test_nonattainment_keeps_to_the_range_of_the_rule_it_is_given():
    with pytest.raises(ValueError, match="exceeds the quadrature range"):
        probe_nonattainment(RadialQuadrature(3, 500.0, 1000), (10.0, 1000.0))
    with pytest.raises(ValueError, match="exceeds the quadrature range"):
        probe_nonattainment(LogRadialQuadrature(3, 500.0), (1000.0,))
