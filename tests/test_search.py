"""Tests for the variational minimizers and the non-attainment probe."""

import math
import warnings

import numpy as np
import pytest

from uncerteq import grids
from uncerteq.cli import SuiteConfig, run_suite
from uncerteq.gaussians import GaussianSpec, realize
from uncerteq.grids import (GridSpec, StateField, _radius_sq, gradient,
                            neg_laplacian, position)
from uncerteq.identities import random_smooth_state
from uncerteq.search import (_SIGMA, SearchOptions, _descend, _plane_step,
                             _precondition, _re_inner, _value_and_gradient,
                             fidelity,
                             minimize_product_functional,
                             minimize_sum_functional, probe_nonattainment)
from uncerteq.radial import LogRadialQuadrature, RadialQuadrature

GRID = GridSpec(n=1, N=256, L=12.0)
W, R2 = GRID.weight, _radius_sq(GRID)
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
    """Value, gradient array, its squared norm and (X, G) at the field ``phi``."""
    return _value_and_gradient(W, R2, phi.data, neg_laplacian(phi).data, product)


def _plane_step_of(phi, lap, d, lap_d, product):
    """The plane step on GRID from phi, -Lap phi, d and -Lap d."""
    forms = (_re_inner(W, R2 * phi, phi), _re_inner(W, lap, phi))
    return _plane_step(W, R2, phi, d, lap_d, forms, product)


def _fresh_value(phi, product):
    return _value_and_gradient_of(phi / phi.norm(), product)[0]


def _tangent_field(phi, v):
    return v - phi.inner(v).real * phi


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
    theta = _plane_step_of(phi.data, neg_laplacian(phi).data, d.data,
                           neg_laplacian(d).data, product)
    assert theta != 0.0
    best = _fresh_value(math.cos(theta) * phi + math.sin(theta) * d, product)
    assert best < _fresh_value(phi, product)
    sample = np.concatenate([np.linspace(-0.5 * np.pi, 0.5 * np.pi, 721),
                             theta * np.linspace(0.0, 2.0, 201)])
    values = [_fresh_value(math.cos(t) * phi + math.sin(t) * d, product)
              for t in sample]
    assert best <= min(values) + 1e-13


def _spike_plane(lap_scale, lap_d_scale, k=3, phases=(1.0, 1.0)):
    """phi and d as unit spikes (times unit ``phases``) at x = +-k h, where
    |x|^2 agrees bit for bit, with -Laplacian stand-ins lap_scale phi and
    lap_d_scale d: X is flat on the plane and
    G = lap_scale cos^2 t + lap_d_scale sin^2 t."""
    phi, d = np.zeros(GRID.N, complex), np.zeros(GRID.N, complex)
    phi[GRID.N // 2 + k], d[GRID.N // 2 - k] = np.array(phases) / math.sqrt(GRID.weight)
    assert _radius_sq(GRID)[GRID.N // 2 + k] == _radius_sq(GRID)[GRID.N // 2 - k]
    return phi, lap_scale * phi, d, lap_d_scale * d


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
def test_plane_step_on_a_flat_plane_is_zero(product):
    # c_1 = 0 for the sum, and for the product every coefficient but the
    # constant one vanishes, its leading one first.
    theta = _plane_step_of(*_spike_plane(2.0, 2.0), product)
    assert theta == 0.0


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
def test_plane_step_with_a_zero_leading_coefficient_minimizes_the_rest(product):
    # X flat makes the product's degree-two coefficient X_1 G_1 zero; the
    # step still minimizes G, here by turning phi into d.
    theta = _plane_step_of(*_spike_plane(3.0, 1.0), product)
    assert theta == pytest.approx(0.5 * math.pi, abs=1e-15)
    # G would rise, so no step.
    assert _plane_step_of(*_spike_plane(1.0, 3.0), product) == 0.0


PRECONDITIONED_GRIDS = [GRID, GridSpec(n=2, N=48, L=9.0)]


def _tangent_noise(grid, phi, rng):
    """Complex white noise projected onto the tangent space at ``phi``."""
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return v - _re_inner(grid.weight, v, phi) * phi


def _states_and_tangents(grid, seed, count=5):
    """``count`` unit-norm random smooth states, each with two tangent fields."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        phi = random_smooth_state(grid, rng).data
        yield phi, _tangent_noise(grid, phi, rng), _tangent_noise(grid, phi, rng)


@pytest.mark.parametrize("grid", PRECONDITIONED_GRIDS, ids=["n1", "n2"])
def test_preconditioner_is_symmetric_on_the_tangent_space(grid):
    w = grid.weight
    for phi, u, v in _states_and_tangents(grid, 30):
        pu, pv = _precondition(grid, phi, u), _precondition(grid, phi, v)
        scale = math.sqrt(_re_inner(w, pu, pu) * _re_inner(w, v, v))
        assert abs(_re_inner(w, pu, v) - _re_inner(w, u, pv)) <= 1e-14 * scale


@pytest.mark.parametrize("grid", PRECONDITIONED_GRIDS, ids=["n1", "n2"])
def test_preconditioner_is_positive_definite(grid):
    # P = A B A with A = (|x|^2 + sigma)^(-1/2) and B = F^-1 (s(k) + sigma)^-1 F,
    # so Re<u, P u> / ||u||^2 lies between 1 / ((max |x|^2 + sigma)(max s + sigma))
    # and 1 / sigma^2.
    w = grid.weight
    s_max = grid.n * float(np.max(grids._laplacian_symbol(grid, False)))
    low = 1.0 / ((float(np.max(_radius_sq(grid))) + _SIGMA) * (s_max + _SIGMA))
    for phi, u, _ in _states_and_tangents(grid, 31):
        u_sq = _re_inner(w, u, u)
        u_pu = _re_inner(w, u, _precondition(grid, phi, u))
        assert low * u_sq < u_pu <= u_sq / _SIGMA ** 2


@pytest.mark.parametrize("grid", PRECONDITIONED_GRIDS, ids=["n1", "n2"])
def test_preconditioned_field_is_tangent(grid):
    w = grid.weight
    for phi, u, _ in _states_and_tangents(grid, 32):
        for field in (u, u + (2.0 - 1.0j) * phi):   # tangent or not
            z = _precondition(grid, phi, field)
            assert abs(_re_inner(w, z, phi)) <= 1e-14 * math.sqrt(_re_inner(w, z, z))


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
@pytest.mark.parametrize("grid", PRECONDITIONED_GRIDS, ids=["n1", "n2"])
def test_preconditioned_gradient_is_a_descent_direction(grid, product):
    # Re<g, z> > 0 at the gradient g, so -z lowers the value.
    w, rng = grid.weight, np.random.default_rng(33)
    for _ in range(5):
        phi = random_smooth_state(grid, rng)
        grad = _value_and_gradient(w, _radius_sq(grid), phi.data,
                                   neg_laplacian(phi).data, product)[1]
        assert _re_inner(w, grad, _precondition(grid, phi.data, grad)) > 0.0


def test_preconditioner_takes_the_difference_schemes_own_symbol():
    # On a central_diff_2 grid, P inverts -D D + sigma, D the periodic central
    # difference matrix, between its (|x|^2 + sigma)^(-1/2) factors: a dense
    # solve is the oracle.  The spectral symbol k^2 is far off at high modes.
    grid = GridSpec(n=1, N=48, L=8.0, scheme="central_diff_2")
    N, x = grid.N, grid.axis_coords()
    D = (np.eye(N, k=1) - np.eye(N, k=-1)) / (2 * grid.h)
    D[0, -1] = -1.0 / (2 * grid.h)
    D[-1, 0] = 1.0 / (2 * grid.h)
    a = 1.0 / np.sqrt(x ** 2 + _SIGMA)
    for phi, u, _ in _states_and_tangents(grid, 34):
        expected = a * np.linalg.solve(_SIGMA * np.eye(N) - D @ D, a * u)
        expected -= _re_inner(grid.weight, expected, phi) * phi
        size = np.max(np.abs(expected))
        assert np.max(np.abs(_precondition(grid, phi, u) - expected)) <= 1e-13 * size
        spectral = _precondition(GridSpec(n=1, N=48, L=8.0), phi, u)
        assert np.max(np.abs(spectral - expected)) > 1e-2 * size


# Iteration counts at n = 1, N = 256, max_iters 40000, seeds 0-4.
PINNED_ITERATIONS = {"sum": (14, 15, 14, 15, 14),
                     "product": (16, 16, 17, 16, 17)}


@pytest.mark.parametrize("target", ["sum", "product"])
def test_iteration_counts_are_pinned(target):
    minimize = (minimize_sum_functional if target == "sum"
                else minimize_product_functional)
    opts = SearchOptions(max_iters=40000)
    assert tuple(minimize(GRID, seed, opts).iterations
                 for seed in range(5)) == PINNED_ITERATIONS[target]


# float.hex of value and fidelity, and of lambda_est for the product, at
# max_iters 40000: seeds 0-4 on GRID, then seed 0 on (n = 2, N = 48, L = 9),
# as the preconditioned search gives (numpy 2.4.6 on x86-64 with AVX-512; a
# numpy build with other BLAS, FFT or SIMD loops may round differently and
# needs these captured again).
PINNED_BITS = {
    "sum": (("0x1.0000000000002p+0", "0x1.0000000000001p+0"),
            ("0x1.0000000000001p+0", "0x1.fffffffffffffp-1"),
            ("0x1.0000000000002p+0", "0x1.fffffffffffffp-1"),
            ("0x1.0000000000006p+0", "0x1.0000000000000p+0"),
            ("0x1.0000000000002p+0", "0x1.0000000000001p+0"),
            ("0x1.0000000000000p+1", "0x1.fffffffffffffp-1")),
    "product": (("0x1.0000000000001p+0", "0x1.0000000000001p+0", "0x1.b664d8b0815f4p-1"),
                ("0x1.0000000000004p+0", "0x1.0000000000001p+0", "0x1.d4e5ce5acebfcp-1"),
                ("0x1.0000000000002p+0", "0x1.0000000000001p+0", "0x1.6d60649247fb9p+0"),
                ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f626a6e6adfb7p-1"),
                ("0x1.0000000000005p+0", "0x1.0000000000000p+0", "0x1.74c11d078ebcap-1"),
                ("0x1.0000000000003p+1", "0x1.0000000000000p+0", "0x1.4712de00acb89p+0")),
}


@pytest.mark.parametrize("target", ["sum", "product"])
def test_descent_bits_are_pinned(target):
    minimize = (minimize_sum_functional if target == "sum"
                else minimize_product_functional)
    opts = SearchOptions(max_iters=40000)
    runs = [(GRID, seed) for seed in range(5)] + [(GridSpec(n=2, N=48, L=9.0), 0)]
    got = []
    for grid, seed in runs:
        res = minimize(grid, seed, opts)
        pinned = (res.value, res.fidelity) + ((res.lambda_est,) if target == "product" else ())
        got.append(tuple(x.hex() for x in pinned))
    assert tuple(got) == PINNED_BITS[target]


def _numpy_plane_step(grid, phi, lap, d, lap_d, product):
    """The plane step on numpy arrays, as the search took it before its
    coefficients, angle and drops became Python scalars: the oracle of the
    scalar step's bits."""
    def re_inner(a, b):
        return _re_inner(grid.weight, a, b)

    r2 = _radius_sq(grid)
    forms = []
    for a_phi, a_d in ((r2 * phi, r2 * d), (lap, lap_d)):
        a, b, c = re_inner(a_phi, phi), re_inner(a_d, d), re_inner(a_d, phi)
        c1 = 0.25 * (a - b) - 0.5j * c
        forms.append(np.array([np.conj(c1), 0.5 * (a + b), c1]))
    cx, cg = forms
    q = np.convolve(cx, cg) if product else cx + cg
    if not np.isfinite(q).all():
        raise ValueError("field values must be finite")
    m = len(q) // 2
    if m == 2 and q[-1] != 0.0:
        p = (np.arange(-2, 3) * q)[::-1]
        companion = np.diag(np.ones(3, p.dtype), -1)
        companion[0, :] = -p[1:] / p[0]
        angles = 0.5 * np.angle(np.linalg.eigvals(companion))
    else:
        angles = np.array([0.5 * math.atan2(q[m + 1].imag, -q[m + 1].real)])
    kp, qp, t = np.arange(1, m + 1), q[m + 1:], angles[:, None]
    drops = (4j * qp * np.sin(kp * t) * np.exp(1j * kp * t)).real.sum(axis=1)
    if drops.min() >= 0.0:
        return 0.0
    return float(angles[np.argmin(drops)])


def _random_plane(rng, kind):
    """phi, -Lap phi, d, -Lap d for an orthonormal plane on GRID: flat spike
    planes (kind 0), spike planes with X flat, so the product's leading
    coefficient is zero (kind 1), smooth states (2-5) and white noise (6-9)."""
    if kind < 2:
        # Phases 1, i, -1, -i keep a flat plane flat to the last bit.
        scale = rng.uniform(0.1, 10.0)
        scales = (scale, scale) if kind == 0 else (scale, rng.uniform(0.1, 10.0))
        phases = (np.array([1, 1j, -1, -1j])[rng.integers(4, size=2)] if kind == 0
                  else np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2)))
        return _spike_plane(*scales, k=int(rng.integers(1, GRID.N // 2)), phases=phases)
    if kind < 6:
        phi = random_smooth_state(GRID, rng)
        d = _tangent_field(phi, random_smooth_state(GRID, rng))
    else:
        phi, v = (StateField(GRID, rng.standard_normal(GRID.N)
                             + 1j * rng.standard_normal(GRID.N)) for _ in range(2))
        phi = phi / phi.norm()
        d = _tangent_field(phi, v)
    d = d / d.norm()
    return phi.data, neg_laplacian(phi).data, d.data, neg_laplacian(d).data


@pytest.mark.parametrize("product", [False, True], ids=["sum", "product"])
def test_scalar_plane_step_gives_the_numpy_steps_angle(product):
    # 2,000 planes: the scalar step returns the very angle of the numpy one,
    # from the forms the descent hands it.
    rng = np.random.default_rng(20 + product)
    zero = 0
    for i in range(2000):
        phi, lap, d, lap_d = _random_plane(rng, i % 10)
        forms = _value_and_gradient(W, R2, phi, lap, product)[3]
        theta = _plane_step(W, R2, phi, d, lap_d, forms, product)
        assert theta.hex() == _numpy_plane_step(GRID, phi, lap, d, lap_d, product).hex()
        zero += theta == 0.0
        if i % 10 == 0:
            assert theta == 0.0
    assert 200 <= zero < 600


@pytest.mark.parametrize("zero", ["X", "G"])
def test_product_at_a_zero_form_is_a_value_error_naming_it(zero):
    # X = 0 at the unit spike on the x = 0 sample, G = 0 at lap = 0: the
    # product's weights divide by the form, which warned and then failed the
    # finiteness check.  The sum is defined there.
    if zero == "X":
        phi = np.zeros(GRID.N, complex)
        phi[GRID.N // 2] = 1.0 / math.sqrt(GRID.weight)
        assert R2[GRID.N // 2] == 0.0
        lap = neg_laplacian(StateField(GRID, phi)).data
    else:
        phi = random_smooth_state(GRID, np.random.default_rng(0)).data
        lap = np.zeros_like(phi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"got {zero} = <.*> = 0"):
            _value_and_gradient(W, R2, phi, lap, True)
        value = _value_and_gradient(W, R2, phi, lap, False)[0]
    assert math.isfinite(value) and value > 0.0


def test_search_applies_the_laplacian_once_per_iteration(monkeypatch):
    # One -Laplacian for the start and one per direction tried: the exact
    # plane step needs no trial states, and the preconditioner applies no
    # -Laplacian.  Each descent may try one direction that fails.
    calls = []
    apply = grids.neg_laplacian

    def counted(phi):
        calls.append(1)
        return apply(phi)

    monkeypatch.setattr(grids, "neg_laplacian", counted)
    results = [minimize_sum_functional(GRID, 0), minimize_product_functional(GRID, 0)]
    assert len(calls) <= sum(res.iterations + 2 for res in results)


@pytest.mark.parametrize("minimize", [minimize_sum_functional,
                                      minimize_product_functional])
def test_search_builds_two_fields_per_iteration(minimize, monkeypatch):
    # The loop runs on raw arrays: per direction it builds only the checked
    # input of -Laplacian and its result; the preconditioner builds none.
    # The constant covers the start state, its -Laplacian, the result state
    # and the overlap's Gaussian.  With more iterations than the constant, a
    # third field per iteration breaks the bound.
    built = []
    init = StateField.__init__

    def counted(self, space, data, deriv=None):
        if type(self) is StateField:
            built.append(1)
        init(self, space, data, deriv)

    monkeypatch.setattr(StateField, "__init__", counted)
    for seed in (0, 7):
        built.clear()
        res = minimize(GRID, seed)
        assert res.iterations > 10
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
    for seed in range(40):
        res = minimize(GRID, seed)
        assert res.converged
        assert abs(res.value - GRID.n) <= 1e-13
        assert res.iterations <= 40


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


# n = 102 is the largest n whose weights r^n stay finite up to r = 1000.
@pytest.mark.parametrize("n", [3, 4, 5, 102])
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
