"""Tests for the commutator/anticommutator forms and pair identities, on
single pairs: stacks of one for pair_reports and extremizer_class."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uncerteq.complexspace import (cs_equality_residuals, default_angles,
                                   extremizer_class, random_vector)
from uncerteq.forms import pair_reports

TOL = 1e-12


def _pair(seed, dim=8):
    rng = np.random.default_rng(seed)
    return random_vector(rng, dim), random_vector(rng, dim)


def _reports(u, v, thetas=(), tol=TOL):
    return {rep.identity_id: rep for rep in pair_reports(u, v, thetas, tol)}


def _forms(u, v):
    """The commutator and anticommutator forms, from the two form.* splits
    (Aphi|Bphi) = (anti - comm) / 2 and its conjugate (anti + comm) / 2."""
    reps = _reports(u, v)
    split = reps["form.product_split"].rhs
    conj = reps["form.product_split_conj"].rhs
    return conj - split, conj + split


def test_commutator_diagonal_is_purely_imaginary():
    u, v = _pair(1)
    comm, _ = _forms(u, v)
    assert comm.real == 0.0
    assert abs(comm - (-2j * u.inner(v).imag)) <= 1e-14


def test_anticommutator_diagonal_is_real():
    u, v = _pair(2)
    _, anti = _forms(u, v)
    assert anti.imag == 0.0
    assert abs(anti - 2.0 * u.inner(v).real) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 16))
def test_forms_recover_both_products(seed, dim):
    u, v = _pair(seed, dim)
    reps = _reports(u, v, tol=1e-14)
    p = u.inner(v)
    assert reps["form.product_split"].passed
    assert reps["form.product_split_conj"].passed
    assert abs(reps["form.product_split"].lhs - p) <= 1e-14 * max(1.0, abs(p))
    assert abs(reps["form.product_split_conj"].lhs - p.conjugate()) <= (
        1e-14 * max(1.0, abs(p)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 16))
def test_pair_equalities_hold_for_random_samples(seed, dim):
    rng = np.random.default_rng(seed)
    u, v = _pair(seed, dim)
    thetas = [float(t) for t in rng.uniform(0.0, 2 * math.pi, 6)]
    reps = pair_reports(u, v, thetas=thetas, tol=TOL)
    assert any(rep.identity_id.startswith("sr.abs_rot") for rep in reps)
    for rep in reps:
        assert rep.passed, (rep.identity_id, rep.rel_residual)


def test_rotated_family_is_angle_independent():
    u, v = _pair(9)
    thetas = np.linspace(0.0, 2 * math.pi, 17)
    values = [rep.rhs.real
              for rep in pair_reports(u, v, thetas=thetas, tol=TOL)
              if rep.identity_id.startswith("sr.abs_rot")]
    assert len(values) == 2 * len(thetas)
    assert max(values) - min(values) <= 1e-12 * max(1.0, abs(values[0]))


def test_zero_image_rejected():
    rng = np.random.default_rng(4)
    u, v = 0.0 * random_vector(rng, 4), random_vector(rng, 4)
    with pytest.raises(ValueError):
        pair_reports(u, v)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_inequality_chain_is_ordered(seed):
    reps = _reports(*_pair(seed))
    schrodinger, robertson = (reps[f"sr.chain.{name}"]
                              for name in ("schrodinger", "robertson"))
    product, quadrature = (schrodinger.context[k] for k in ("larger", "smaller"))
    assert robertson.context["larger"] == quadrature
    assert product >= quadrature - 1e-12
    assert quadrature >= robertson.context["smaller"] - 1e-12
    assert schrodinger.passed and robertson.passed


def test_quadrature_identity_ties_chain_to_product():
    u, v = _pair(13)
    chain = _reports(u, v)["sr.chain.schrodinger"].context
    assert abs(chain["smaller"] - abs(u.inner(v))) <= 1e-12 * max(
        1.0, chain["larger"])
    assert abs(chain["larger"] - u.norm() * v.norm()) <= 1e-14 * chain["larger"]


def test_imaginary_aligned_pair_classification():
    rng = np.random.default_rng(17)
    u = random_vector(rng, 10)
    flags = extremizer_class(u, -1j * u, tol=TOL)
    assert flags.imag_parallel and flags.imag_saturated and flags.cs_saturated
    assert not flags.real_parallel and not flags.real_saturated


def test_real_aligned_pair_classification():
    rng = np.random.default_rng(19)
    u = random_vector(rng, 10)
    flags = extremizer_class(u, 2.5 * u, tol=TOL)
    assert flags.real_parallel and flags.real_saturated and flags.cs_saturated
    assert not flags.imag_parallel


def test_generic_pair_has_no_saturation():
    flags = extremizer_class(*_pair(21), tol=TOL)
    assert flags.as_tuple() == (False, False, False, False, False)


def test_sr_family_is_the_cauchy_schwarz_family_of_the_images():
    # sr.comm/anti are twice cs.im/re; the rotated and aligned forms coincide.
    rng = np.random.default_rng(41)
    u = random_vector(rng, 9)
    v = random_vector(rng, 9)
    angles = default_angles(rng)
    cs = {r.identity_id: r for r in cs_equality_residuals(u, v, angles)}
    sr = {r.identity_id: r for r in pair_reports(u, v, angles)}
    pairs = [("sr.comm+", "cs.im+", 2.0), ("sr.comm-", "cs.im-", 2.0),
             ("sr.anti+", "cs.re+", 2.0), ("sr.anti-", "cs.re-", 2.0),
             ("sr.abs_aligned", "cs.abs", 1.0)]
    pairs += [(f"sr.abs_rot{sig}@{t:.6f}", f"cs.rot{sig}@{t:.6f}", 1.0)
              for t in angles for sig in "+-"]
    for sr_id, cs_id, factor in pairs:
        for side in ("lhs", "rhs"):
            x = getattr(sr[sr_id], side)
            y = factor * getattr(cs[cs_id], side)
            assert abs(x - y) <= 1e-13 * max(abs(x), abs(y)), (sr_id, side)
