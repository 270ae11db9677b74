"""Tests for the exact algebraic equality layer on complex vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uncerteq import complexspace
from uncerteq.complexspace import (ComplexVector, InternalConsistencyError,
                                   cs_equality_residuals, default_angles,
                                   extremizer_class, extremizer_rows,
                                   phase_family, random_vector)
from uncerteq.forms import pair_reports

TOL = 1e-12


def test_vector_validation():
    with pytest.raises(ValueError):
        ComplexVector([])
    with pytest.raises(ValueError):
        ComplexVector([1.0, float("nan")])
    with pytest.raises(ValueError):
        ComplexVector([1.0, float("inf")])
    with pytest.raises(ValueError):
        ComplexVector([[1.0, 2.0]])
    for bad in (complex(0.0, float("inf")), complex(0.0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            ComplexVector([1.0, bad])


def test_vector_is_immutable():
    u = ComplexVector([1.0, 2.0])
    with pytest.raises(ValueError):
        u.entries[0] = 5.0


def test_dimension_mismatch_raises():
    u = ComplexVector([1.0, 2.0])
    v = ComplexVector([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        u.inner(v)
    with pytest.raises(ValueError):
        cs_equality_residuals(u, v)


def test_product_sesquilinearity():
    rng = np.random.default_rng(7)
    u = random_vector(rng, 6)
    v = random_vector(rng, 6)
    c = 1.3 - 0.4j
    assert abs((c * u).inner(v) - c * u.inner(v)) <= 1e-12
    assert abs(u.inner(c * v) - c.conjugate() * u.inner(v)) <= 1e-12
    assert abs(u.inner(v) - v.inner(u).conjugate()) <= 1e-12


def test_random_vector_normalization():
    rng = np.random.default_rng(3)
    u = random_vector(rng, 17, normalize=True)
    assert abs(u.norm() - 1.0) <= 1e-12


def test_default_angles_contains_fixed_prefix():
    rng = np.random.default_rng(0)
    angles = default_angles(rng, extra=8)
    assert angles[:5] == [0.0, math.pi / 4, math.pi / 2, 2.0, math.pi]
    assert len(angles) == 13
    assert default_angles(None) == list(angles[:5])


def test_zero_vector_rejected_by_equality_family():
    u = ComplexVector([1.0, 0.0])
    z = ComplexVector([0.0, 0.0])
    with pytest.raises(ValueError):
        cs_equality_residuals(u, z)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 16))
def test_equality_family_holds_for_random_pairs(seed, dim):
    rng = np.random.default_rng(seed)
    u = random_vector(rng, dim)
    v = random_vector(rng, dim)
    angles = default_angles(rng, extra=4)
    for rep in cs_equality_residuals(u, v, angles=angles, tol=TOL):
        assert rep.passed, (rep.identity_id, rep.rel_residual)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 16))
def test_product_bounded_by_norms(seed, dim):
    rng = np.random.default_rng(seed)
    u = random_vector(rng, dim)
    v = random_vector(rng, dim)
    p = u.inner(v)
    assert abs(p) <= u.norm() * v.norm() * (1.0 + 1e-14)


def test_extreme_scale_pairs_still_pass():
    rng = np.random.default_rng(11)
    u = 1e150 * random_vector(rng, 5)
    v = 1e-150 * random_vector(rng, 5)
    for rep in cs_equality_residuals(u, v, tol=TOL):
        assert rep.passed, (rep.identity_id, rep.rel_residual)


def _flags_for_multiple(lam, seed=5):
    rng = np.random.default_rng(seed)
    u = random_vector(rng, 8)
    return extremizer_class(u, lam * u, tol=TOL)


def test_positive_real_multiple_classification():
    flags = _flags_for_multiple(2.0)
    assert flags.real_parallel and flags.real_saturated and flags.cs_saturated
    assert not flags.imag_parallel and not flags.imag_saturated


def test_negative_real_multiple_classification():
    flags = _flags_for_multiple(-3.0)
    assert flags.real_parallel and flags.real_saturated and flags.cs_saturated
    assert not flags.imag_parallel


def test_imaginary_multiple_classification():
    for lam in (1j, -1j):
        flags = _flags_for_multiple(lam)
        assert flags.imag_parallel and flags.imag_saturated
        assert flags.cs_saturated
        assert not flags.real_parallel and not flags.real_saturated


def test_generic_phase_multiple_saturates_modulus_only():
    flags = _flags_for_multiple(complex(math.cos(0.7), math.sin(0.7)))
    assert flags.cs_saturated
    assert not flags.real_parallel and not flags.imag_parallel
    assert not flags.real_saturated and not flags.imag_saturated


def test_generic_pair_saturates_nothing():
    rng = np.random.default_rng(23)
    u = random_vector(rng, 12)
    v = random_vector(rng, 12)
    flags = extremizer_class(u, v, tol=TOL)
    assert flags.as_tuple() == (False, False, False, False, False)


def test_modulus_saturation_reconstructs_the_multiple():
    # When the modulus saturates, b^2 u - (u|v) v must vanish.
    rng = np.random.default_rng(31)
    u = random_vector(rng, 9)
    lam = complex(math.cos(1.1), math.sin(1.1)) * 0.8
    v = lam * u
    p = u.inner(v)
    resid = np.linalg.norm(v.norm() ** 2 * u.entries - p * v.entries)
    assert resid <= 1e-10 * max(u.norm(), v.norm())


def test_zero_vector_pair_is_trivially_extremal():
    rng = np.random.default_rng(4)
    u, w = random_vector(rng, 5), random_vector(rng, 5)
    # ||1e-163 u||^2 underflows to 0, so that u counts as zero, though its
    # product with 1e153 w, about 1e-10, saturates no clause.
    for pair in ((0.0 * u, u), (u, 0.0 * u), (np.zeros(3), np.zeros(3)),
                 (1e-163 * u, 1e153 * w)):
        assert extremizer_class(*pair, tol=TOL).as_tuple() == (True,) * 5


def test_inconsistent_combination_norms_raise(monkeypatch):
    # p = ab fires real_parallel on a generic pair, whose combination norm
    # ||b u - a v|| then contradicts it.
    rng = np.random.default_rng(9)
    u, v = random_vector(rng, 6), random_vector(rng, 6)
    norms_and_product = complexspace._norms_and_product

    def saturated(u, v):
        a, b, _ = norms_and_product(u, v)
        return a, b, a * b + 0j

    monkeypatch.setattr(complexspace, "_norms_and_product", saturated)
    with pytest.raises(InternalConsistencyError, match="real_parallel"):
        extremizer_rows(u, v, TOL)


def _row_sum_shapes(monkeypatch):
    """The shapes that complexspace._row_sum is called with, as it runs."""
    row_sum, shapes = complexspace._row_sum, []
    monkeypatch.setattr(complexspace, "_row_sum",
                        lambda x: shapes.append(x.shape) or row_sum(x))
    return shapes


@pytest.mark.parametrize("kind, expected, calls", [
    ("random", (False, False, False, False, False), 0),
    # real_parallel, real_saturated and cs_saturated cross-check 1 + 2 + 3
    # combinations; the two imaginary parts compute none.
    ("real_multiple", (True, False, True, False, True), 6),
])
def test_parts_that_do_not_fire_compute_no_combination(kind, expected, calls,
                                                        monkeypatch):
    # Each combination norm is one row sum, beside the four of the norms and
    # the product.
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    v = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    if kind == "real_multiple":
        v[1] = 2.0 * u[1]
    sums = _row_sum_shapes(monkeypatch)
    flags = extremizer_rows(u, v, TOL)
    assert flags.tolist() == [[False] * 5, list(expected), [False] * 5]
    assert len(sums) == 4 + calls


def _stack(rows, width):
    """Zero-padded (len(rows), width) stack of the given vectors' entries."""
    out = np.zeros((len(rows), width), np.complex128)
    for i, vec in enumerate(rows):
        out[i, :vec.entries.size] = vec.entries
    return out


def test_only_the_saturated_row_of_a_batch_is_cross_checked(monkeypatch):
    rng = np.random.default_rng(8)
    us = [random_vector(rng, d) for d in (5, 7, 3)]
    vs = [random_vector(rng, 5), 2.0 * us[1], random_vector(rng, 3)]
    u, v = _stack(us, 8), _stack(vs, 8)
    sums = _row_sum_shapes(monkeypatch)
    flags = extremizer_rows(u, v, TOL)
    # Only the pair (u, 2u) reaches the cross-checks: 1 + 2 + 3 combination
    # norms of its row alone, after the four row sums of the whole stack.
    assert sums == [(8, 3)] * 4 + [(8, 1)] * 6
    assert flags.tolist() == [[False] * 5, [True, False, True, False, True],
                              [False] * 5]


@pytest.mark.parametrize("row", [np.zeros(4), [1.0, math.nan, 0.0, 0.0],
                                 [1.0, 0.0, complex(0.0, math.inf), 0.0]])
def test_zero_or_non_finite_row_of_a_batch_is_refused(row):
    rng = np.random.default_rng(2)
    u = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    v = u[::-1].copy()
    v[1] = row
    with pytest.raises(ValueError):
        cs_equality_residuals(u, v)
    with pytest.raises(ValueError):
        pair_reports(v, u)
    if np.isfinite(row).all():      # a zero vector is a valid extremal pair
        assert extremizer_rows(u, v).tolist()[1] == [True] * 5
    else:
        with pytest.raises(ValueError):
            extremizer_rows(u, v)


def _row_bits(family, i) -> bytes:
    a, b, p, rhs = family
    return np.array([a[i], b[i], p[i].real, p[i].imag,
                     *(x[i] for x in rhs.values())]).tobytes()


def test_batch_rows_give_the_bits_of_single_pairs():
    # Widths above numpy's 8-entry pairwise block, where a row summed
    # pairwise moves bits; heights on both sides of REDUCE_ROWS, so both row
    # sums run.  A row alone, in a stack and padded must agree bit for bit.
    # Three v in five are a real, imaginary or unit-phase multiple of their
    # u, so that the flags go through the classifier's combination norms.
    rng = np.random.default_rng(12)
    angles = default_angles(rng)
    lams = [2.0, None, -0.5j, None, complex(math.cos(0.7), math.sin(0.7))]
    rows = complexspace.REDUCE_ROWS
    for height in (1, 2, 3, rows - 1, rows, 40):
        for width in (9, 31, 33, 40, 64):
            dims = [width, *rng.integers(2, width + 1, height - 1)]
            us = [random_vector(rng, d) for d in dims]
            vs = [random_vector(rng, d) if lams[i % 5] is None else lams[i % 5] * u
                  for i, (d, u) in enumerate(zip(dims, us))]
            family, padded = (phase_family(_stack(us, w), _stack(vs, w), angles)
                              for w in (width, width + 23))
            flags, padded_flags = (extremizer_rows(_stack(us, w), _stack(vs, w), TOL)
                                   for w in (width, width + 23))
            assert np.array_equal(flags, padded_flags) and flags.any()
            for i, (u, v) in enumerate(zip(us, vs)):
                alone = phase_family(u, v, angles)
                assert _row_bits(alone, 0) == _row_bits(family, i) == _row_bits(padded, i)
                assert alone[2][0] == u.inner(v)
                assert extremizer_rows(u, v, TOL).tolist() == [flags[i].tolist()]


def test_batch_flags_match_the_scalar_classifier_row_by_row():
    # Real, imaginary and generic-phase multiples fire different parts; each
    # row of the batch gets the flags its pair gets alone, and those of its
    # kind.
    rng = np.random.default_rng(21)
    us = [random_vector(rng, 6) for _ in range(6)]
    lams = [None, 2.0, -0.5j, complex(math.cos(0.7), math.sin(0.7)), -3.0, 0.0]
    vs = [random_vector(rng, 6) if lam is None else lam * u
          for u, lam in zip(us, lams)]
    flags = extremizer_rows(_stack(us, 6), _stack(vs, 6), TOL)
    for row, u, v in zip(flags.tolist(), us, vs):
        assert row == list(extremizer_class(u, v, TOL).as_tuple())
    assert flags.tolist() == [[False] * 5, [True, False, True, False, True],
                              [False, True, False, True, True],
                              [False, False, False, False, True],
                              [True, False, True, False, True], [True] * 5]
    assert [sum(row) for row in flags.tolist()] == [0, 3, 3, 1, 3, 5]


@pytest.mark.parametrize("height", [1, 3, 7])
def test_mixed_stack_gives_its_flags_without_floating_point_errors(height):
    # Zero, real, imaginary, unit-phase and random pairs in turn, on both
    # sides of REDUCE_ROWS; no division, invalid value or overflow on the way.
    rng = np.random.default_rng(height)
    u = rng.standard_normal((height, 9)) + 1j * rng.standard_normal((height, 9))
    v = rng.standard_normal((height, 9)) + 1j * rng.standard_normal((height, 9))
    lams = [0.0, -2.0, 0.5j, complex(math.cos(2.0), math.sin(2.0)), None]
    expected = [[True] * 5, [True, False, True, False, True],
                [False, True, False, True, True],
                [False, False, False, False, True], [False] * 5]
    for i in range(height):
        if lams[i % 5] is not None:
            v[i] = lams[i % 5] * u[i]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        flags = extremizer_rows(u, v, TOL)
    assert flags.tolist() == [expected[i % 5] for i in range(height)]
