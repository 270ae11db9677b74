"""Tests for the commutator/anticommutator forms and pair-sample identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uncerteq.complexspace import (cs_equality_residuals, default_angles,
                                   random_vector)
from uncerteq.forms import (PairSample, anticommutator_form, commutator_form,
                            decomposition_check, extremizer_parts,
                            sr_equalities, sr_inequality_chain)

TOL = 1e-12


def _sample(seed, dim=8):
    rng = np.random.default_rng(seed)
    return PairSample.from_vectors(random_vector(rng, dim),
                                   random_vector(rng, dim))


def test_pair_sample_computes_product():
    s = _sample(0)
    assert abs(s.inner_ab - s.a_phi.inner(s.b_phi)) <= 1e-14


def test_commutator_diagonal_is_purely_imaginary():
    s = _sample(1)
    assert commutator_form(s).real == 0.0


def test_anticommutator_diagonal_is_real():
    s = _sample(2)
    assert isinstance(anticommutator_form(s), float)
    assert abs(anticommutator_form(s) - 2.0 * s.inner_ab.real) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 16))
def test_forms_recover_both_products(seed, dim):
    s = _sample(seed, dim)
    r1, r2 = decomposition_check(s, tol=1e-14)
    assert r1.passed and r2.passed


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 16))
def test_pair_equalities_hold_for_random_samples(seed, dim):
    rng = np.random.default_rng(seed)
    s = _sample(seed, dim)
    thetas = [float(t) for t in rng.uniform(0.0, 2 * math.pi, 6)]
    for rep in sr_equalities(s, thetas=thetas, tol=TOL):
        assert rep.passed, (rep.identity_id, rep.rel_residual)


def test_rotated_family_is_angle_independent():
    s = _sample(9)
    thetas = np.linspace(0.0, 2 * math.pi, 17)
    values = [rep.rhs.real
              for rep in sr_equalities(s, thetas=thetas, tol=TOL)
              if rep.identity_id.startswith("sr.abs_rot")]
    assert len(values) == 2 * len(thetas)
    assert max(values) - min(values) <= 1e-12 * max(1.0, abs(values[0]))


def test_zero_image_rejected():
    rng = np.random.default_rng(4)
    s = PairSample.from_vectors(0.0 * random_vector(rng, 4),
                                random_vector(rng, 4))
    with pytest.raises(ValueError):
        sr_equalities(s)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_inequality_chain_is_ordered(seed):
    chain = sr_inequality_chain(_sample(seed))
    assert chain.product >= chain.schrodinger_bound - 1e-12
    assert chain.schrodinger_bound >= chain.robertson_bound - 1e-12


def test_quadrature_identity_ties_chain_to_product():
    s = _sample(13)
    chain = sr_inequality_chain(s)
    assert abs(chain.schrodinger_bound - abs(s.inner_ab)) <= 1e-12 * max(
        1.0, chain.product)


def test_imaginary_aligned_pair_classification():
    rng = np.random.default_rng(17)
    u = random_vector(rng, 10)
    s = PairSample.from_vectors(u, -1j * u)
    flags = extremizer_parts(s, tol=TOL)
    assert flags.imag_parallel and flags.imag_saturated and flags.cs_saturated
    assert not flags.real_parallel and not flags.real_saturated


def test_real_aligned_pair_classification():
    rng = np.random.default_rng(19)
    u = random_vector(rng, 10)
    s = PairSample.from_vectors(u, 2.5 * u)
    flags = extremizer_parts(s, tol=TOL)
    assert flags.real_parallel and flags.real_saturated and flags.cs_saturated
    assert not flags.imag_parallel


def test_generic_pair_has_no_saturation():
    flags = extremizer_parts(_sample(21), tol=TOL)
    assert flags.as_tuple() == (False, False, False, False, False)


def test_sr_family_is_the_cauchy_schwarz_family_of_the_images():
    # sr.comm/anti are twice cs.im/re; the rotated and aligned forms coincide.
    rng = np.random.default_rng(41)
    u = random_vector(rng, 9)
    v = random_vector(rng, 9)
    angles = default_angles(rng, extra=4)
    cs = {r.identity_id: r for r in cs_equality_residuals(u, v, angles)}
    sr = {r.identity_id: r for r in
          sr_equalities(PairSample.from_vectors(u, v), angles)}
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
