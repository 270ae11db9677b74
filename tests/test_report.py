"""Tests for the residual reports."""

import math

import pytest

from uncerteq.report import bound


@pytest.mark.parametrize("smaller, larger", [
    (0.999, math.nan), (math.nan, 1.0), (math.inf, math.inf),
    (-math.inf, 1.0), (0.0, math.inf),
])
def test_bound_fails_on_a_non_finite_side(smaller, larger):
    rep = bound("b", smaller, larger, 1e-3)
    assert not rep.passed
    assert rep.rel_residual == math.inf


def test_bound_on_finite_sides():
    assert bound("b", 1.0, 2.0, 0.0).to_dict() == {
        "identity_id": "b", "lhs": [0.0, 0.0], "rhs": [0.0, 0.0],
        "abs_residual": 0.0, "rel_residual": 0.0, "tol": 0.0, "passed": True,
        "context": {"smaller": 1.0, "larger": 2.0}}
    rep = bound("b", 3.0, 2.0, 0.1, scale=4.0)
    assert (rep.abs_residual, rep.rel_residual, rep.passed) == (1.0, 0.25, False)
