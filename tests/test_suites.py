"""Tests for the suite table: dispatch, stack sizes and the radial stacks."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from uncerteq import cli, identities, suites
from uncerteq.cli import SuiteConfig, run_suite
from uncerteq.complexspace import STACK_ENTRIES
from uncerteq.radial import LaguerreQuadrature, radial_gaussian, random_radial_state
from uncerteq.report import compare


def test_run_suite_dispatches_through_cli_runners(monkeypatch):
    # perfbench/spans.py times each suite by rewrapping the values of
    # cli.RUNNERS in place, so run_suite must call what that dict holds.
    assert cli.RUNNERS is suites.RUNNERS
    stubs = {name: compare(f"stub.{name}", 1.0, 1.0, 0.0) for name in cli.RUNNERS}
    for name in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, name, lambda cfg, name=name: [stubs[name]])
    _, payload = run_suite(SuiteConfig(suite="hardy"))
    assert payload["reports"] == [stubs["hardy"].to_dict()]
    _, payload = run_suite(SuiteConfig(suite="all"))
    assert payload["reports"] == [stubs[name].to_dict() for name in sorted(stubs)]


def test_run_suite_keeps_the_worst_report_per_identity(monkeypatch):
    # Runners return every report; run_suite aggregates each suite once.
    reports = [compare("x", 1.0, 1.0, 0.5), compare("x", 1.0, 1.2, 0.5),
               compare("x", 1.0, 1.1, 0.5)]
    monkeypatch.setitem(cli.RUNNERS, "coulomb", lambda cfg: reports)
    _, payload = run_suite(SuiteConfig(suite="coulomb"))
    assert payload["reports"] == [reports[1].to_dict()]


@pytest.mark.parametrize("width", [1, 2 ** 15, 2 ** 15 + 1])
@pytest.mark.parametrize("total", ["1", "rows", "rows + 1"])
def test_stacks_cover_the_total_within_the_cap(width, total):
    rows = max(1, STACK_ENTRIES // width)
    total = {"1": 1, "rows": rows, "rows + 1": rows + 1}[total]
    sizes = list(suites.stacks(total, width))
    assert sum(sizes) == total
    assert all(1 <= size <= rows for size in sizes)
    assert sizes[:-1] == [rows] * (len(sizes) - 1)


def _radial_oracle(cfg, verify, rows):
    """The worst report per id of each stack of ``rows`` states, from its
    states verified one at a time: per dimension the radial Gaussian, then
    each state drawn on its own."""
    rng = np.random.default_rng(cfg.seed)
    alone = []
    for n in (3, 5) if cfg.n is None else (cfg.n,):
        quad = LaguerreQuadrature(n)
        alone.append(verify(radial_gaussian(quad), cfg.tol))
        alone += [verify(random_radial_state(quad, rng), cfg.tol)
                  for _ in range(cfg.trials)]
    starts = np.cumsum([0, *rows])
    return [suites._aggregate([rep for reps in alone[a:b] for rep in reps])
            for a, b in zip(starts, starts[1:])]


@pytest.mark.parametrize("suite, radial, n, trials, verify, rows", [
    ("coulomb", None, 4, 2100, "verify_radial_coulomb", [1024, 1024, 53]),
    ("hardy", True, 3, 2100, "verify_hardy", [1024, 1024, 53]),
    # Both default dimensions draw from one generator, in turn.
    ("coulomb", None, None, 1100, "verify_radial_coulomb", [1024, 77] * 2),
])
def test_radial_suites_over_several_stacks_match_the_per_state_loop(
        suite, radial, n, trials, verify, rows, monkeypatch):
    # 2,101 states of 32 nodes take stacks of 1,024, 1,024 and 53 rows; the
    # radial Gaussian is row 0 of the first.  At seed 7 it is the worst row
    # of the suite for every coulomb id, so each stack is compared on its
    # own: the later ones hold drawn states only.
    cfg = SuiteConfig(suite=suite, radial=radial, n=n, trials=trials, seed=7)
    cfg = replace(cfg, **suites._resolve(suites._row(suite, radial), asdict(cfg)))
    verify = getattr(identities, verify)
    stacked = []

    def recording(psi, tol):
        stacked.append((len(psi.data), verify(psi, tol)))
        return stacked[-1][1]

    monkeypatch.setattr(identities, verify.__name__, recording)
    reports = cli.RUNNERS[suite](cfg)
    assert [size for size, _ in stacked] == rows
    assert reports == [rep for _, reps in stacked for rep in reps]
    assert ([suites._aggregate(reps) for _, reps in stacked]
            == _radial_oracle(cfg, verify, rows))
