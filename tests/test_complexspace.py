"""Tests for the exact algebraic equality layer on complex vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uncerteq import complexspace
from uncerteq.complexspace import (ComplexVector, InternalConsistencyError,
                                   classify_saturation, cs_equality_residuals,
                                   default_angles, extremizer_class,
                                   extremizer_rows, phase_family,
                                   random_vector, sgn)
from uncerteq.forms import pair_reports

TOL = 1e-12


def test_sgn_at_zero_is_exactly_one():
    assert sgn(0) == 1.0 + 0.0j
    assert sgn(0.0 + 0.0j) == 1.0 + 0.0j


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
def test_sgn_has_unit_modulus(z):
    s = sgn(z)
    assert abs(abs(s) - 1.0) <= 1e-15
    assert abs(s * s.conjugate() - 1.0) <= 1e-15


def test_sgn_of_positive_real_is_one():
    assert sgn(3.5) == 1.0 + 0.0j
    assert sgn(-2.0) == -1.0 + 0.0j
    assert abs(sgn(2j) - 1j) <= 1e-15


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
        _ = u + v


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
    resid = (v.norm() ** 2 * u - p * v).norm()
    assert resid <= 1e-10 * max(u.norm(), v.norm())


def test_zero_vector_pair_is_trivially_extremal():
    flags = classify_saturation(0.0, 1.0, 0.0, lambda a, b: 0.0, TOL)
    assert flags.as_tuple() == (True, True, True, True, True)


def test_inconsistent_combination_norms_raise():
    # The modulus clause fires, but the fake norm oracle contradicts it.
    with pytest.raises(InternalConsistencyError):
        classify_saturation(1.0, 1.0, 1.0 + 0.0j, lambda a, b: 1.0, TOL)


@pytest.mark.parametrize("kind, expected, calls", [
    ("random", (False, False, False, False, False), 0),
    # real_parallel, real_saturated and cs_saturated cross-check 1 + 2 + 3
    # combinations; the two imaginary parts compute none.
    ("real_multiple", (True, False, True, False, True), 6),
])
def test_parts_that_do_not_fire_compute_no_combination(kind, expected, calls):
    rng = np.random.default_rng(5)
    u = random_vector(rng, 6)
    v = random_vector(rng, 6) if kind == "random" else 2.0 * u
    norms = []

    def combo_norm(alpha, beta):
        norms.append((alpha, beta))
        return float(np.linalg.norm(alpha * u.entries + beta * v.entries))

    flags = classify_saturation(u.norm(), v.norm(), u.inner(v), combo_norm, TOL)
    assert flags.as_tuple() == expected
    assert len(norms) == calls


def _stack(rows, width):
    """Zero-padded (len(rows), width) stack of the given vectors' entries."""
    out = np.zeros((len(rows), width), np.complex128)
    for i, vec in enumerate(rows):
        out[i, :vec.entries.size] = vec.entries
    return out


def test_saturated_row_of_a_batch_goes_through_the_scalar_classifier(monkeypatch):
    rng = np.random.default_rng(8)
    us = [random_vector(rng, d) for d in (5, 7, 3)]
    vs = [random_vector(rng, 5), 2.0 * us[1], random_vector(rng, 3)]
    u, v = _stack(us, 8), _stack(vs, 8)
    seen = []

    def spy(a, b, p, combo_norm, tol):
        seen.append(combo_norm(1.0, 0.0))
        return classify_saturation(a, b, p, combo_norm, tol)

    monkeypatch.setattr(complexspace, "classify_saturation", spy)
    flags = extremizer_rows(u, v, TOL)
    # Only the pair (u, 2u) reaches the scalar classifier, with its own rows.
    assert seen == [pytest.approx(us[1].norm(), rel=1e-15)]
    assert flags.tolist() == [[False] * 5, list(extremizer_class(us[1], vs[1]).as_tuple()),
                              [False] * 5]
    # A combination norm that contradicts the fired part is caught there.
    monkeypatch.setattr(complexspace, "classify_saturation",
                        lambda a, b, p, combo_norm, tol:
                        classify_saturation(a, b, p, lambda x, y: 1.0, tol))
    with pytest.raises(InternalConsistencyError):
        extremizer_rows(u, v, TOL)


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


def test_batch_rows_give_the_bits_of_single_pairs():
    rng = np.random.default_rng(12)
    dims = [2, 9, 31, 4]
    us = [random_vector(rng, d) for d in dims]
    vs = [random_vector(rng, d) for d in dims]
    angles = default_angles(rng)
    a, b, p, rhs = phase_family(_stack(us, 40), _stack(vs, 40), angles)
    for i, (u, v) in enumerate(zip(us, vs)):
        a1, b1, p1, rhs1 = phase_family(u, v, angles)
        assert (a1[0], b1[0], p1[0]) == (a[i], b[i], p[i])
        assert {k: x[0] for k, x in rhs1.items()} == {k: x[i] for k, x in rhs.items()}
        assert p1[0] == u.inner(v)


def test_batch_flags_match_the_scalar_classifier_row_by_row():
    # Real, imaginary and generic-phase multiples fire different parts; the
    # screen must pass each such row on, and leave the random ones out.
    rng = np.random.default_rng(21)
    us = [random_vector(rng, 6) for _ in range(6)]
    lams = [None, 2.0, -0.5j, complex(math.cos(0.7), math.sin(0.7)), -3.0, 0.0]
    vs = [random_vector(rng, 6) if lam is None else lam * u
          for u, lam in zip(us, lams)]
    flags = extremizer_rows(_stack(us, 6), _stack(vs, 6), TOL)
    for row, u, v in zip(flags.tolist(), us, vs):
        ref = classify_saturation(
            u.norm(), v.norm(), u.inner(v),
            lambda a, b: float(np.linalg.norm(a * u.entries + b * v.entries)), TOL)
        assert row == list(ref.as_tuple())
    assert [sum(row) for row in flags.tolist()] == [0, 3, 3, 1, 3, 5]
