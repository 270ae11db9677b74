"""Tests for the residual reports."""

import math

import numpy as np
import pytest

from uncerteq.cli import _aggregate
from uncerteq.report import bound, compare, worst


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


def test_compare_fails_on_a_non_finite_side():
    for lhs, rhs in ((math.nan, 1.0), (1.0, math.inf), (complex(0, math.nan), 0)):
        rep = compare("x", lhs, rhs, 1e-12)
        assert not rep.passed
        assert rep.rel_residual == rep.abs_residual == math.inf


@pytest.mark.parametrize("nan_first", [False, True])
def test_aggregate_keeps_a_nan_trial_in_either_order(nan_first):
    # nan > 0 is false, so a NaN residual after a finite one used to vanish.
    reports = [compare("x", 1.0, 1.0, 1e-12), compare("x", math.nan, 1.0, 1e-12)]
    if nan_first:
        reports.reverse()
    (rep,) = _aggregate(reports)
    assert not rep.passed and rep.rel_residual == math.inf


@pytest.mark.parametrize("inequality", [False, True])
def test_worst_row_of_a_batch_puts_a_nan_row_first(inequality):
    lhs = np.array([[1.0, 5.0, math.nan, 2.0], [1.0, 5.0, 1.0, 2.0]])
    rhs = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    check = bound if inequality else compare
    nan_row, finite = worst(["x", "y"], lhs, rhs, 1e-12, inequality=inequality)
    assert repr(nan_row) == repr(check("x", math.nan, 1.0, 1e-12))  # nan != nan
    assert not nan_row.passed and nan_row.rel_residual == math.inf
    # Without a non-finite side the first row of largest residual wins.
    assert finite == check("y", 5.0, 1.0, 1e-12)


def test_worst_row_report_is_the_rows_own_report():
    rng = np.random.default_rng(3)
    lhs, rhs = rng.standard_normal((2, 3, 50))
    scale = rng.uniform(0.0, 3.0, 50)
    reports = worst(["a", "b", "c"], lhs, rhs, 0.5, scale=scale)
    for k, rep in enumerate(reports):
        rows = [compare(rep.identity_id, lhs[k, i], rhs[k, i], 0.5,
                        scale=scale[i]) for i in range(50)]
        assert rep == _aggregate(rows)[0]
