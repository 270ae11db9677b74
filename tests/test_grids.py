"""Tests for the tensor-grid discretization and its operators."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from uncerteq import grids, identities
from uncerteq.cli import SuiteConfig, run_suite
from uncerteq.gaussians import GaussianSpec, realize
from uncerteq.grids import (GridSpec, StateField, VectorField, _radius,
                            _radius_sq, _symbols, coulomb,
                            dilation_generator, gradient, lattice_zeta,
                            momentum, neg_laplacian, position,
                            spherical_derivative, x_dot_grad)
from uncerteq.identities import verify_hardy
from uncerteq.radial import (LaguerreQuadrature, LogRadialQuadrature,
                             radial_gaussian)
from uncerteq.suites import _aggregate


def _gaussian_1d(grid, lam=1.0):
    return StateField.from_callable(
        grid, lambda x: np.exp(-0.5 * lam * x ** 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n=0, N=16, L=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, N=1, L=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, N=16, L=-1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, N=16, L=1.0, offset=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, N=16, L=1.0, scheme="upwind")
    with pytest.raises(ValueError):
        GridSpec(n=1, N=15, L=1.0, scheme="spectral_periodic")
    # Odd point counts are fine for finite differences.
    GridSpec(n=1, N=15, L=1.0, scheme="central_diff_2")
    with pytest.raises(ValueError):
        GridSpec(n=3, N=512, L=1.0)


def test_spec_roundtrip_and_geometry():
    grid = GridSpec(n=2, N=32, L=5.0, offset=0.5, scheme="central_diff_4")
    assert grid.to_dict() == {"n": 2, "N": 32, "L": 5.0, "offset": 0.5,
                              "scheme": "central_diff_4"}
    assert grid.h == pytest.approx(10.0 / 32)
    assert grid.weight == pytest.approx(grid.h ** 2)
    assert grid.shape == (32, 32)
    x = grid.axis_coords()
    assert x[0] == pytest.approx(-5.0 + 0.5 * grid.h)
    assert grid.excludes_origin


def test_origin_membership_depends_on_offset():
    assert not GridSpec(n=1, N=16, L=4.0).excludes_origin
    assert GridSpec(n=1, N=16, L=4.0, offset=0.5).excludes_origin


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("N, offset", [(16, 0.0), (16, 0.5), (17, 0.0), (15, 0.3)])
def test_origin_membership_builds_no_radius(n, N, offset):
    # The smallest |x|^2 is n min x_j^2, so the 1-D coordinates decide it;
    # no grid-sized |x| is built or looked up for the question.
    grid = GridSpec(n=n, N=N, L=4.0, offset=offset, scheme="central_diff_2")
    calls = _radius.cache_info(), _radius_sq.cache_info()
    answer = grid.excludes_origin
    assert (_radius.cache_info(), _radius_sq.cache_info()) == calls
    assert answer == (float(_radius(grid).min()) > 0.0)


def test_single_cell_mass_equals_cell_volume():
    grid = GridSpec(n=2, N=16, L=2.0)
    values = np.zeros(grid.shape)
    values[3, 7] = 1.0
    phi = StateField(grid, values)
    assert phi.norm_sq() == pytest.approx(grid.weight, rel=1e-14)


def test_gaussian_norm_against_closed_form():
    grid = GridSpec(n=1, N=256, L=12.0)
    phi = _gaussian_1d(grid)
    assert phi.norm_sq() == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_field_validation():
    grid = GridSpec(n=1, N=16, L=2.0)
    with pytest.raises(ValueError):
        StateField(grid, np.zeros(8))
    # Real data is stored as float64 and checked like complex data.
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones(16)
        values[5] = bad
        with pytest.raises(ValueError, match="finite"):
            StateField(grid, values)
    with pytest.raises(ValueError):
        VectorField(grid, np.zeros(16))


@pytest.mark.parametrize("bad", [complex(0.0, np.inf), complex(0.0, np.nan),
                                 complex(np.inf, 0.0), complex(np.nan, 0.0)])
def test_fields_reject_a_non_finite_real_or_imaginary_part(bad):
    grid = GridSpec(n=2, N=4, L=2.0)
    values = np.zeros(grid.shape, dtype=np.complex128)
    values[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        StateField(grid, values)
    with pytest.raises(ValueError, match="finite"):
        VectorField(grid, np.stack([np.zeros(grid.shape), values]))
    phi = StateField(grid, np.ones(grid.shape))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="finite"):
        phi * bad


def test_mixed_kind_arithmetic_rejected():
    grid = GridSpec(n=1, N=16, L=2.0)
    phi = StateField(grid, np.ones(16))
    vec = VectorField(grid, np.ones((1, 16)))
    with pytest.raises(ValueError):
        _ = phi + vec
    with pytest.raises(ValueError):
        phi.inner(vec)


# One state type on both kinds of space: a tensor grid, or a radial rule of
# the same number of points as the 1-D grid (Laguerre: 32 nodes).
_SPACES = {"grid_1d": GridSpec(1, 32, 4.0), "grid_3d": GridSpec(3, 6, 4.0, offset=0.5),
           "laguerre": LaguerreQuadrature(3), "log_radial": LogRadialQuadrature(3, 20.0)}


@pytest.mark.parametrize("space", _SPACES.values(), ids=_SPACES)
def test_one_state_type_on_grids_and_radial_rules(space):
    rng = np.random.default_rng(4)

    def draw():
        z = rng.standard_normal((2, 3) + space.shape)
        return z[0] + 1j * z[1]

    a, b = (StateField(space, draw(), draw()) for _ in range(2))
    ra, rb = ([StateField(space, v, d) for v, d in zip(s.data, s.deriv)] for s in (a, b))
    factors = np.array([2.0, -1j, 0.5 + 0.25j])
    per_row = factors.reshape((-1,) + (1,) * len(space.shape))
    # deriv rides along when both operands carry one, and is dropped if not.
    for stacked, alone, deriv in (
            (a + b, [x + y for x, y in zip(ra, rb)], a.deriv + b.deriv),
            (a - b, [x - y for x, y in zip(ra, rb)], a.deriv - b.deriv),
            (factors * a, [f * x for f, x in zip(factors, ra)], a.deriv * per_row),
            (a / factors, [x / f for f, x in zip(factors, ra)], a.deriv / per_row)):
        assert stacked.deriv.tobytes() == deriv.tobytes()
        # Each row of a stack is the row alone, to the bit.
        for i, row in enumerate(alone):
            assert stacked.data[i].tobytes() == row.data.tobytes()
            assert stacked.deriv[i].tobytes() == row.deriv.tobytes()
    bare = StateField(space, b.data)
    assert (a + bare).deriv is None and (bare - a).deriv is None
    assert a.inner(b).tolist() == [x.inner(y) for x, y in zip(ra, rb)]
    assert a.norm_sq().tolist() == [x.norm_sq() for x in ra]
    assert a.norm().tolist() == [x.norm() for x in ra]
    # A grid field and a radial state never mix, even of one shape.
    other = _SPACES["laguerre" if isinstance(space, GridSpec) else "grid_1d"]
    stranger = StateField(other, np.ones(other.shape))
    for op in (StateField.__add__, StateField.__sub__, StateField.inner):
        with pytest.raises(ValueError, match="space or kind mismatch"):
            op(StateField(space, np.ones(space.shape)), stranger)
    # Non-finite values or derivatives are refused, in any row of a stack.
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        broken = (a.data if isinstance(bad, complex) else a.data.real).copy()
        broken[(1,) + (2,) * len(space.shape)] = bad
        with pytest.raises(ValueError, match="field values must be finite"):
            StateField(space, broken, a.deriv)
        with pytest.raises(ValueError, match="derivative must be finite"):
            StateField(space, a.data, broken)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            a * bad
    # The derivative has the values' shape; a state has at most one stack axis.
    with pytest.raises(ValueError, match="do not match"):
        StateField(space, a.data, a.deriv[0])
    with pytest.raises(ValueError, match="do not match"):
        StateField(space, a.data[None])


def test_spectral_derivative_exact_on_grid_modes():
    grid = GridSpec(n=1, N=64, L=4.0)
    k = 2.0 * math.pi * 3 / (2 * grid.L)
    phi = StateField.from_callable(grid, lambda x: np.exp(1j * k * x))
    dphi = gradient(phi).data[0]
    assert np.max(np.abs(dphi - 1j * k * phi.data)) <= 1e-12


def test_momentum_is_minus_i_gradient():
    grid = GridSpec(n=1, N=128, L=10.0)
    phi = _gaussian_1d(grid)
    diff = momentum(phi) - (-1j) * gradient(phi)
    assert diff.norm() <= 1e-14


def test_operator_symmetry_under_quadrature():
    rng = np.random.default_rng(5)
    grid = GridSpec(n=2, N=48, L=9.0, offset=0.5)
    from uncerteq.identities import random_smooth_state
    phi = random_smooth_state(grid, rng)
    psi = random_smooth_state(grid, rng)
    for op, tol in ((neg_laplacian, 1e-10), (dilation_generator, 1e-10)):
        lhs = op(phi).inner(psi)
        rhs = phi.inner(op(psi))
        assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs)), op.__name__


def test_summation_by_parts_exact_for_central_scheme():
    rng = np.random.default_rng(9)
    grid = GridSpec(n=1, N=129, L=10.0, scheme="central_diff_2")
    values = rng.standard_normal(129) + 1j * rng.standard_normal(129)
    phi = StateField(grid, values)
    lhs = neg_laplacian(phi).inner(phi).real
    rhs = gradient(phi).norm_sq()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_central_scheme_error_shrinks_at_second_order():
    def residual(N):
        grid = GridSpec(n=1, N=N, L=10.0, scheme="central_diff_2")
        phi = _gaussian_1d(grid)
        lhs = grid.n * phi.norm_sq()
        rhs = -2.0 * position(phi).inner(gradient(phi)).real
        return abs(lhs - rhs)

    ratio = residual(128) / residual(256)
    assert 3.0 <= ratio <= 5.0


def test_fourth_order_scheme_beats_second_order():
    def residual(scheme):
        grid = GridSpec(n=1, N=128, L=10.0, scheme=scheme)
        phi = _gaussian_1d(grid)
        lhs = grid.n * phi.norm_sq()
        rhs = -2.0 * position(phi).inner(gradient(phi)).real
        return abs(lhs - rhs)

    assert residual("central_diff_4") < 0.1 * residual("central_diff_2")


def test_scaling_derivative_matches_componentwise_sum():
    grid = GridSpec(n=2, N=48, L=8.0)
    phi = StateField.from_callable(
        grid, lambda x, y: np.exp(-0.5 * (x ** 2 + 1.3 * y ** 2)))
    direct = x_dot_grad(phi)
    g = gradient(phi)
    parts = sum(grid.coord(axis) * g.data[axis]
                for axis in range(grid.n))
    assert np.max(np.abs(direct.data - parts)) <= 1e-12


def test_singular_operators_need_origin_free_grids():
    grid = GridSpec(n=1, N=16, L=4.0)
    phi = StateField(grid, np.ones(16))
    for op in (coulomb, lambda phi: grids.radial_part(gradient(phi)),
               spherical_derivative):
        with pytest.raises(ValueError, match="origin"):
            op(phi)


def test_pointwise_gradient_split():
    grid = GridSpec(n=2, N=64, L=9.0, offset=0.5)
    phi = StateField.from_callable(
        grid, lambda x, y: (x + 1j * y) * np.exp(-0.5 * (x ** 2 + y ** 2)))
    rep = grids.hardy_terms(phi, 1e-10)[1]
    assert rep.passed, rep.rel_residual
    assert rep.context["max_pointwise_residual"] <= 1e-10


def _angular_gaussian_3d(N=24):
    grid = GridSpec(n=3, N=N, L=7.0, offset=0.5)
    return StateField.from_callable(
        grid, lambda x, y, z: (x + 1j * y) * np.exp(-0.5 * (x ** 2 + y ** 2
                                                            + z ** 2)))


def test_spherical_derivative_is_the_tangential_gradient():
    phi = _angular_gaussian_3d()
    grid = phi.space
    r = np.sqrt(sum(grid.coord(axis) ** 2 for axis in range(grid.n)))
    lphi = spherical_derivative(phi)
    assert isinstance(lphi, VectorField)
    g = gradient(phi)
    dr = grids.radial_part(g).data
    for axis in range(grid.n):
        rebuilt = lphi.data[axis] + (grid.coord(axis) / r) * dr
        assert np.max(np.abs(rebuilt - g.data[axis])) <= 1e-12
    along_radius = sum((grid.coord(axis) / r) * lphi.data[axis]
                       for axis in range(grid.n))
    assert np.max(np.abs(along_radius)) <= 1e-12


def _count_ffts(monkeypatch):
    # Points each entry point transforms: the real-space size of each call
    # (a forward transform's input, an inverse one's output), so the count
    # does not depend on how many slabs a pass cuts the grid into.
    points = {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 0}
    for name in points:
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            points[_name] += (args[0] if _name == "rfft" else out).size
            return out

        monkeypatch.setattr(np.fft, name, counting)
    return points


def test_pointwise_split_transform_count(monkeypatch):
    # One gradient's worth of transforms feeds |grad phi|^2, the radial part
    # and L phi; the angular Gaussian is complex, so it takes the full one.
    phi = _angular_gaussian_3d(N=16)
    points = _count_ffts(monkeypatch)
    grids.hardy_terms(phi, 1e-6)
    assert points == {"fft": 3 * 16 ** 3, "ifft": 3 * 16 ** 3, "rfft": 0, "irfft": 0}


def test_run_hardy_transform_count(monkeypatch):
    # verify_hardy transforms one gradient's worth of points, read by the
    # radial part, |grad psi| and the pointwise split; a grid takes no x.grad
    # of psi/|x|.  The hardy state is float64, so every transform is a
    # real-input one: axis 0 in 8 blocks of 8 axis-1 rows at N = 64, axes 1
    # and 2 in 8 slabs of 8 planes, 24 calls each way.
    points = _count_ffts(monkeypatch)
    run_suite(SuiteConfig(suite="hardy", N=64, L=8.0))
    assert points == {"fft": 0, "ifft": 0, "rfft": 3 * 64 ** 3, "irfft": 3 * 64 ** 3}


@pytest.mark.parametrize("n, L, Ns", [(3, 8.0, (32, 64)), (4, 7.0, (28, 32))])
@pytest.mark.parametrize("c", [0.5, 0.25])
def test_lattice_zeta_is_the_grid_error_of_the_inverse_square(n, L, Ns, c):
    # The grid sum of |psi|^2/|x|^2 misses its integral 2/(n-2) by exactly
    # h^(n-2) |psi(0)|^2 Z_{n,c}(2), |psi(0)|^2 = pi^(-n/2).  Measured
    # worst 3.4e-13 (n = 4, N = 32, c = 1/4), rounding in the grid sum.
    zeta = lattice_zeta(n, c)
    for N in Ns:
        grid = GridSpec(n, N, L, c)
        psi = realize(GaussianSpec("coherent", n=n), grid)
        fit = ((coulomb(psi).norm_sq() - 2.0 / (n - 2))
               / (grid.h ** (n - 2) * math.pi ** (-0.5 * n)))
        assert fit == pytest.approx(zeta, rel=1e-12, abs=0.0)
    for shifted in (c - 1.0, c + 1.0, -c):
        assert lattice_zeta(n, shifted) == pytest.approx(zeta, rel=1e-14, abs=0.0)


def test_lattice_zeta_closed_forms_in_four_dimensions():
    assert lattice_zeta(4, 0.5) == pytest.approx(-4.0 * math.log(2.0), rel=1e-14)
    assert lattice_zeta(4, 0.25) == pytest.approx(-math.log(2.0), rel=1e-14)


def _off_centre_state(n, N, phase=False, scheme="spectral_periodic"):
    # Not radial, so the spherical part L psi is not zero.
    grid = GridSpec(n=n, N=N, L=6.0, offset=0.5, scheme=scheme)

    def fn(*x):
        r2 = sum((xj - 0.4 * (j + 1)) ** 2 for j, xj in enumerate(x))
        psi = (1.0 + 0.5 * x[0]) * np.exp(-0.5 * r2)
        return psi * np.exp(0.3j * x[-1]) if phase else psi

    return StateField.from_callable(grid, fn)


@pytest.mark.parametrize("n, N", [(3, 16), (4, 12)])
@pytest.mark.parametrize("phase", [False, True])
def test_verify_hardy_split_is_the_pointwise_decomposition(n, N, phase):
    # verify_hardy takes its split from the slab pass of hardy_terms; the
    # two reports agree to the bit.
    psi = _off_centre_state(n, N, phase)
    split = {r.identity_id: r for r in verify_hardy(psi, 1e-9)}[
        "grad.pointwise_split"]
    alone = grids.hardy_terms(psi, 1e-9)[1]
    assert split.lhs == alone.lhs and split.rhs == alone.rhs
    assert (split.context["max_pointwise_residual"]
            == alone.context["max_pointwise_residual"])
    assert split.to_dict() == alone.to_dict()
    assert split.passed


@pytest.mark.parametrize("scheme", ["spectral_periodic", "central_diff_4"])
@pytest.mark.parametrize("phase", [False, True])
@pytest.mark.parametrize("n, N", [(3, 36), (4, 18)])
def test_hardy_terms_are_the_operator_composition(n, N, phase, scheme):
    # The slab pass against the whole-grid operators.  N is not a multiple of
    # the slab (25 planes of 36^2, 5 of 18^3), so the last slab is short.
    # Measured: the four norms and the split's right side within 1.3e-14
    # (complex n = 4, where the slab sum is exact to the last bit and the
    # vecdot of the norms is not); the largest pointwise residual 3.3e-16
    # against 4.4e-16 from whole-grid fields.
    assert N % (grids.STACK_ENTRIES // N ** (n - 1))
    psi = _off_centre_state(n, N, phase, scheme)
    terms, split = grids.hardy_terms(psi, 1e-9)
    g = gradient(psi)
    dr = grids.radial_part(g)
    q = coulomb(psi)
    tangential = spherical_derivative(psi)
    assert terms == pytest.approx(
        [g.norm_sq(), dr.norm_sq(), q.norm_sq(), (dr + 0.5 * (n - 2) * q).norm_sq()],
        rel=5e-14, abs=0.0)
    assert split.lhs == terms[0]
    assert split.rhs.real == pytest.approx(dr.norm_sq() + tangential.norm_sq(),
                                           rel=5e-14, abs=0.0)
    point = (np.sum(np.abs(g.data) ** 2, axis=0) - np.abs(dr.data) ** 2
             - np.sum(np.abs(tangential.data) ** 2, axis=0))
    assert max(split.context["max_pointwise_residual"],
               float(np.max(np.abs(point)))) <= 1e-15
    assert split.passed


def test_verify_hardy_takes_no_transfer_forms_on_a_grid(monkeypatch):
    # psi/|x| has a cusp at the origin that a periodic spectral derivative
    # does not resolve, so the transfer forms are radial only; a grid never
    # takes x.grad(psi/|x|).
    psi = _off_centre_state(3, 16)
    monkeypatch.setattr("uncerteq.grids.x_dot_grad",
                        lambda *args: pytest.fail("x.grad taken on a grid"))
    assert [r.identity_id for r in verify_hardy(psi, 1e-9)] == [
        "hardy.pythagoras", "hardy.chain.potential", "hardy.chain.gradient",
        "grad.pointwise_split"]


def test_verify_hardy_reports_no_split_on_a_radial_profile():
    psi = radial_gaussian(LaguerreQuadrature(3))
    ids = [r.identity_id for r in verify_hardy(psi)]
    assert "grad.pointwise_split" not in ids
    assert len(ids) == len(set(ids)) == 5


def _traced_peak(fn):
    fn()       # first calls allocate numpy's FFT caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each grid holds fields of at least 2 MB, so numpy's fixed 8192-element
# ufunc buffers are small beside one field.
_MEMORY_GRIDS = [(2, 512), (3, 64), (4, 24)]


@pytest.mark.parametrize("n, N", _MEMORY_GRIDS)
def test_gradient_holds_its_components_and_one_spectrum(n, N):
    # Each axis is transformed back into its component, so the peak is the
    # n components plus one half spectrum, (N/2 + 1)/(N/2) of a field:
    # measured n + 1.07 (n = 2), n + 1.10 and n + 1.13 (n = 4), against n + 2
    # when each axis made its own result.  Bound: n + 1.5 fields.
    psi = _off_centre_state(n, N)
    assert _traced_peak(lambda: gradient(psi)) <= (n + 1.5) * psi.data.nbytes


@pytest.mark.parametrize("n, N", _MEMORY_GRIDS)
def test_x_dot_grad_holds_three_fields_in_every_dimension(n, N):
    # The accumulator, one derivative and its spectrum: measured 3.07, 3.10
    # and 3.13 fields, against n + 2 with the whole gradient.  Bound: 3.5.
    psi = _off_centre_state(n, N)
    assert _traced_peak(lambda: x_dot_grad(psi)) <= 3.5 * psi.data.nbytes


def test_run_hardy_peak_memory_is_bounded():
    # The whole suite at N = 64, one grid: measured 3.41 fields (psi, its
    # axis-0 derivative and a dozen slabs of 8 planes; also 3.41 when the
    # axis-0 derivative was taken on the whole grid at once), against 7.03
    # when the split, |d_r psi| and psi/|x| each held whole-grid fields and
    # 9.0 when run_hardy took a fifth gradient for the split.  Bound: 3.75.
    field = 8 * 64 ** 3
    peak = _traced_peak(lambda: run_suite(SuiteConfig(suite="hardy", N=64, L=8.0)))
    assert peak <= 3.75 * field


def test_verify_hardy_peak_memory_is_bounded():
    # numpy reports its data buffers to tracemalloc.  Beside psi the pass
    # holds its axis-0 derivative and, slab by slab, a dozen slab-sized
    # arrays: slabs of 14 of the 48 planes here, so the measured peak is 4.29
    # float64 fields (1.35 at N = 96, slabs of 3 planes), against 4.51 (2.02)
    # when the axis-0 derivative was one whole-grid transform beside its half
    # spectrum, and 6.08 with whole-grid fields and a cached |x| (16 with
    # complex128 fields).  Bound: 5 fields.
    grid = GridSpec(n=3, N=48, L=8.0, offset=0.5)
    psi = realize(GaussianSpec("coherent", n=3), grid)
    assert _traced_peak(lambda: verify_hardy(psi)) <= 5 * 8 * grid.N ** 3


def test_realize_samples_in_place_and_caches_no_radius():
    # One fresh |x|^2 becomes the sample: measured 1.13 fields (the field
    # and the finiteness check's mask), against 2.00 when realize read the
    # cached |x|^2, which then outlived it.  Bound: 1.25 fields.
    grid = GridSpec(n=3, N=64, L=8.0, offset=0.5)
    spec = GaussianSpec("coherent", n=3)
    calls = _radius_sq.cache_info()
    assert _traced_peak(lambda: realize(spec, grid)) <= 1.25 * 8 * grid.N ** 3
    assert _radius_sq.cache_info() == calls


@pytest.mark.parametrize("fn", [verify_hardy, grids.hardy_terms])
def test_hardy_refuses_a_finite_state_whose_squared_derivatives_overflow(fn):
    # Every sample of 1e200 psi and of its derivatives is finite, but
    # |grad psi|^2 overflows; the sums are checked, so the pass refuses the
    # state instead of reporting an infinite residual.
    grid = GridSpec(n=3, N=16, L=6.0, offset=0.5)
    psi = StateField.from_callable(
        grid, lambda x, y, z: 1e200 * np.exp(-0.5 * (x * x + y * y + z * z)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="must be finite"):
        fn(psi)


def _real_state(n):
    grid = GridSpec(n=n, N=48, L=8.0, offset=0.25)

    def fn(*x):
        r2 = sum((xj - 0.3 * j) ** 2 for j, xj in enumerate(x))
        return (1.0 + x[0] - 0.2 * x[-1] ** 2) * np.exp(-0.5 * r2)

    return StateField.from_callable(grid, fn)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("op", [gradient, neg_laplacian])
def test_real_input_path_matches_the_complex_path(n, op):
    # i*phi has a nonzero imaginary part, so op(i*phi) takes the full
    # transform; multiplying by -i is exact and brings it back to op(phi).
    phi = _real_state(n)
    real_path = op(phi).data
    complex_path = -1j * op(1j * phi).data
    assert real_path.dtype == np.float64
    assert np.max(np.abs(real_path - complex_path)) <= 1e-13


def _unblocked_axis(grid, data, axis, order):
    # One np.fft call along the grid axis itself, over the whole array.
    axis -= grid.n
    shape = [1] * grid.n
    shape[axis] = -1
    symbol = _symbols(grid, not np.iscomplexobj(data))[order - 1].reshape(shape)
    if np.iscomplexobj(data):
        fk = np.fft.fft(data, axis=axis) * symbol
        return np.fft.ifft(fk, axis=axis)
    fk = np.fft.rfft(data, axis=axis) * symbol
    return np.fft.irfft(fk, n=grid.N, axis=axis)


@pytest.mark.parametrize("n, N", [(2, 512), (3, 36), (4, 18)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("states", [1, 2])
def test_blocked_transforms_match_whole_array_transforms_to_the_bit(n, N, dtype, states):
    # Each grid holds more than STACK_ENTRIES values, so every axis but the
    # last is transformed in blocks; at N = 36 and N = 18 one state's last
    # block is short (25 + 11 rows of 36, 5 + 5 + 5 + 3 of 18).
    grid = GridSpec(n, N, 6.0, offset=0.5)
    assert N ** n > grids.STACK_ENTRIES
    rng = np.random.default_rng(n)
    data = rng.standard_normal((states, 2) + grid.shape)
    data = data[:, 0] if dtype is np.float64 else data[:, 0] + 1j * data[:, 1]
    phi = StateField(grid, data[0] if states == 1 else data)
    d = [_unblocked_axis(grid, phi.data, axis, 1) for axis in range(n)]
    lap = _unblocked_axis(grid, phi.data, 0, 2)
    for axis in range(1, n):
        lap += _unblocked_axis(grid, phi.data, axis, 2)
    xd = np.zeros_like(phi.data)
    for axis in range(n):
        xd += grid.coord(axis) * d[axis]
    assert np.array_equal(gradient(phi).data, np.stack(d, -n - 1))
    assert np.array_equal(neg_laplacian(phi).data, lap)
    assert np.array_equal(x_dot_grad(phi).data, xd)


def test_nyquist_cosine_has_zero_derivative_on_both_paths():
    grid = GridSpec(n=1, N=32, L=4.0)
    k_nyquist = math.pi / grid.h
    phi = StateField.from_callable(grid, lambda x: np.cos(k_nyquist * x))
    assert np.max(np.abs(phi.data)) == pytest.approx(1.0)
    for state in (phi, 1j * phi):
        assert np.max(np.abs(gradient(state).data)) <= 1e-14


def test_cached_symbols_are_read_only_and_unchanged_by_derivatives():
    # The spectral symbols are i k, 0 at the Nyquist mode, and k^2 on the
    # angular wavenumbers k of the full and the half spectrum.
    grid = GridSpec(n=1, N=32, L=4.0)
    phi = StateField.from_callable(grid, lambda x: np.sin(x))
    for half in (False, True):
        table = _symbols(grid, half)
        assert not any(a.flags.writeable for a in table)
        assert _symbols(grid, half) is table
    for state in (phi, 1j * phi):
        first = gradient(state).data
        assert np.array_equal(gradient(state).data, first)
    freqs = (np.fft.fftfreq(grid.N, d=grid.h), np.fft.rfftfreq(grid.N, d=grid.h))
    for half, freq in zip((False, True), freqs):
        k = 2.0 * math.pi * freq
        d, s = _symbols(grid, half)
        assert np.array_equal(s, k * k)
        k[grid.N // 2] = 0.0
        assert np.array_equal(d, 1j * k)


@pytest.mark.parametrize("scheme", ["spectral_periodic", "central_diff_2",
                                    "central_diff_4"])
def test_laplacian_symbol_is_the_schemes_own(scheme):
    # -Laplacian maps each Fourier mode e^{i k x} to s(k) e^{i k x}; the
    # cached symbol is read-only, and its half spectrum is the full one's
    # first N/2 + 1 entries.
    grid = GridSpec(n=1, N=48, L=8.0, offset=0.3, scheme=scheme)
    s = _symbols(grid, False)[1]
    assert not s.flags.writeable and _symbols(grid, False)[1] is s
    assert np.array_equal(_symbols(grid, True)[1], s[:grid.N // 2 + 1])
    x = grid.axis_coords()
    for k, s_k in zip(2.0 * math.pi * np.fft.fftfreq(grid.N, d=grid.h), s):
        mode = StateField(grid, np.exp(1j * k * x))
        assert np.max(np.abs(neg_laplacian(mode).data - s_k * mode.data)) <= 1e-11


def _stencil(grid, values, axis):
    # The periodic central difference along a grid axis, by np.roll.
    axis -= grid.n
    if grid.scheme == "central_diff_2":
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2 * grid.h)
    return (-np.roll(values, -2, axis) + 8 * np.roll(values, -1, axis)
            - 8 * np.roll(values, 1, axis) + np.roll(values, 2, axis)) / (12 * grid.h)


@pytest.mark.parametrize("scheme", ["central_diff_2", "central_diff_4"])
@pytest.mark.parametrize("n, N, states", [(1, 64, 1), (1, 129, 2), (2, 15, 2),
                                          (3, 40, 2), (3, 41, 1)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_central_schemes_are_their_difference_stencils(scheme, n, N, states, dtype):
    # The multiplier i s(k) is the periodic stencil and s(k)^2 the stencil
    # applied twice, to rounding: even and odd N, real and complex data, one
    # state or a stack, and 3-D grids over STACK_ENTRIES values, whose axis 0
    # is transformed in blocks.  The Nyquist mode of an even N has no sign for
    # the first derivative, so its multiplier is 0.
    grid = GridSpec(n, N, 6.0, offset=0.5, scheme=scheme)
    assert n < 3 or N ** n > grids.STACK_ENTRIES
    x = np.meshgrid(*[grid.axis_coords()] * n, indexing="ij")
    rows = [(1.0 + 0.3 * x[0]) * np.exp(-0.5 * sum(c * c for c in x)),
            np.exp(-0.8 * sum((c - 0.4) ** 2 for c in x))][:states]
    data = np.stack(rows) if states > 1 else rows[0]
    if dtype is np.complex128:
        data = data * np.exp(0.7j * x[-1])
    phi = StateField(grid, data)
    want = [_stencil(grid, data, axis) for axis in range(n)]
    lap = -sum(_stencil(grid, d, axis) for axis, d in enumerate(want))
    got, got_lap = gradient(phi).data, neg_laplacian(phi).data
    assert got.dtype == got_lap.dtype == dtype
    want = np.stack(want, -n - 1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(got_lap - lap)) <= 1e-13 * np.max(np.abs(lap))
    for half in (False, True):
        d = _symbols(grid, half)[0]
        assert (d[N // 2] == 0.0) == (N % 2 == 0)


def test_radius_caches_hold_at_most_two_grids():
    # At the 2^24-point cap each cached array is 128 MB.
    for N in (16, 32, 64):
        assert _radius(GridSpec(n=1, N=N, L=4.0, offset=0.5)).min() > 0.0
    assert _radius.cache_info().currsize <= 2
    assert _radius_sq.cache_info().currsize <= 2


@pytest.mark.parametrize("spec, dtype", [
    (GaussianSpec("coherent", n=2), np.float64),
    (GaussianSpec("squeezed", n=2, lam=1.5), np.float64),
    (GaussianSpec("coherent", n=2, theta=0.3), np.complex128),
    (GaussianSpec("squeezed_gen", n=2, sgn_factor=complex(-0.8, 0.6)),
     np.complex128),
])
def test_realize_is_float64_exactly_when_the_spec_is_real(spec, dtype):
    assert realize(spec, GridSpec(n=2, N=64, L=9.0)).data.dtype == dtype


@pytest.mark.parametrize("op", [
    gradient, position, x_dot_grad, neg_laplacian, coulomb,
    lambda phi: 2.0 * phi, lambda phi: phi / 2, lambda phi: phi + phi])
@pytest.mark.parametrize("scheme", ["spectral_periodic", "central_diff_4"])
def test_real_fields_stay_float64(op, scheme):
    phi = StateField.from_callable(
        GridSpec(n=3, N=24, L=7.0, offset=0.5, scheme=scheme),
        lambda x, y, z: x * np.exp(-0.5 * (x ** 2 + y ** 2 + z ** 2)))
    assert phi.data.dtype == np.float64
    assert op(phi).data.dtype == np.float64


@pytest.mark.parametrize("op", [
    lambda phi: 1j * phi, lambda phi: phi / 1j, momentum, dilation_generator])
def test_imaginary_factors_make_complex_fields(op):
    phi = _real_state(3)
    assert op(phi).data.dtype == np.complex128


@pytest.mark.parametrize("n", [1, 3])
def test_real_inner_products_match_the_complex_ones(n):
    phi = _real_state(n)
    psi = x_dot_grad(phi) + phi
    as_complex = [StateField(f.space, f.data.astype(np.complex128))
                  for f in (phi, psi)]
    assert phi.inner(psi) == pytest.approx(as_complex[0].inner(as_complex[1]),
                                           rel=1e-15)
    assert psi.inner(phi) == pytest.approx(as_complex[1].inner(phi), rel=1e-15)
    for real, cplx in zip((phi, psi), as_complex):
        assert real.norm_sq() == pytest.approx(cplx.norm_sq(), rel=1e-15)
    g = gradient(phi)
    assert g.norm_sq() == pytest.approx(
        VectorField(g.space, g.data.astype(np.complex128)).norm_sq(), rel=1e-15)


def test_real_arithmetic_that_overflows_is_refused():
    phi = StateField(GridSpec(n=1, N=16, L=2.0), np.full(16, 1e308))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        phi * 10.0


# Every public function of grids and identities that takes a grid state, as
# called on one, and the methods of the field classes.  The functions that
# report on one state refuse a stack, naming themselves; verify_radial_coulomb
# refuses any grid state, naming the radial rule.
_FUNCTIONS = {
    **{name: getattr(grids, name) for name in (
        "gradient", "position", "momentum", "x_dot_grad", "dilation_generator",
        "neg_laplacian", "coulomb", "spherical_derivative", "hardy_terms")},
    "radial_part": lambda phi: grids.radial_part(gradient(phi)),
    **{name: getattr(identities, name) for name in (
        "verify_position_momentum", "saturation_flags",
        "verify_dilation_pythagoras", "verify_hardy",
        "verify_dilation_hamiltonian", "verify_radial_coulomb")},
}
_METHODS = {
    "StateField.norm": StateField.norm,
    "StateField.norm_sq": StateField.norm_sq,
    "VectorField.norm": lambda phi: gradient(phi).norm(),
    "StateField.inner": lambda phi: phi.inner(coulomb(phi)),
    "VectorField.inner": lambda phi: position(phi).inner(gradient(phi)),
    "arithmetic": lambda phi: ((phi * phi.norm() + phi.norm_sq() * phi)
                               - phi / phi.norm() + (1j * phi) / 3.0),
}
_REFUSE_A_STACK = {"hardy_terms", "saturation_flags", "verify_hardy"}
_REFUSE_A_GRID = {"verify_radial_coulomb"}
_NO_STATE = {"lattice_zeta", "random_smooth_state", "refinement_study"}


def _public_functions(module):
    return {name for name, value in vars(module).items()
            if inspect.isfunction(inspect.unwrap(value))
            and value.__module__ == module.__name__
            and not name.startswith("_")}


def test_the_stack_table_names_every_public_grid_function():
    assert (_public_functions(grids) | _public_functions(identities)
            == set(_FUNCTIONS) | _NO_STATE)


@pytest.mark.parametrize("scheme", ["spectral_periodic", "central_diff_4"])
@pytest.mark.parametrize("phase", [1.0, 1.0 + 0.5j])
@pytest.mark.parametrize("name", sorted({**_FUNCTIONS, **_METHODS}))
def test_every_grid_function_on_a_two_state_stack(name, phase, scheme):
    # Each row of the stack's result is the row's own result, to the bit; a
    # report is its rows' first worst.  A function that reports on one state
    # refuses the stack, naming itself, and never ravels it into one state.
    grid = GridSpec(3, 16, 6.0, offset=0.5, scheme=scheme)
    rows = [StateField.from_callable(grid, lambda x, y, z: phase * (
                1.0 + 0.3 * x) * np.exp(-0.5 * (x * x + y * y + z * z))),
            StateField.from_callable(grid, lambda x, y, z: phase * (
                1.0 + y - 0.2 * z) * np.exp(-0.7 * (x * x + y * y + z * z)))]
    stack = StateField(grid, np.stack([row.data for row in rows]))
    call = {**_FUNCTIONS, **_METHODS}[name]
    if name in _REFUSE_A_GRID:
        for state in (stack, *rows):
            with pytest.raises(ValueError, match=f"{name} takes a profile on a radial"):
                call(state)
        return
    if name in _REFUSE_A_STACK:
        with pytest.raises(ValueError, match=f"{name} takes one state"):
            call(stack)
        return
    out, alone = call(stack), [call(row) for row in rows]
    if isinstance(out, list):
        assert _aggregate(out) == _aggregate([rep for reps in alone for rep in reps])
    elif isinstance(out, np.ndarray):
        assert out.tolist() == alone
    else:
        assert type(out) is type(alone[0]) and out.data.shape[0] == 2
        for row, single in zip(out.data, alone):
            assert np.array_equal(row, single.data)


def test_a_single_state_keeps_python_numbers():
    phi = realize(GaussianSpec("coherent", n=1), GridSpec(1, 64, 8.0))
    assert type(phi.norm()) is float and type(phi.norm_sq()) is float
    assert type(phi.inner(phi)) is complex
    assert type(gradient(phi).norm()) is float
