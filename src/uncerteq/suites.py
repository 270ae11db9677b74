"""The verification suites, one ``TABLE`` row each, and the stacks they run on."""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import complexspace, grids, identities
from .complexspace import ALGEBRAIC_TOL, STACK_ENTRIES, default_angles
from .forms import pair_reports
from .gaussians import GaussianSpec, exact_moments, realize
from .radial import (LaguerreQuadrature, LogRadialQuadrature, RadialState,
                     radial_gaussian, random_radial_state)
from .report import EqualityReport, bound, compare, worst
from .search import (SearchOptions, minimize_product_functional,
                     minimize_sum_functional, probe_nonattainment)

# Each rule has one tolerance, which --tol overrides.  ALGEBRAIC_TOL (1e-12)
# holds the exact rules, the Gauss-Laguerre radial rules included: the worst
# over 3,000 coulomb and hardy --radial suite seeds was 6.3e-15.  The spectral
# grids and the search hold GRID_TOL (1e-8): on every 1-D grid the guard
# accepts (identities._EDGE_DENSITY), pm.* <= 9.8e-11, dil.* <= 1.5e-11 and
# dilham.* <= 1.5e-9; the worst search excess was 3.5e-13 (1,646
# minimizations); hardy.grid.value_rhs 1.6e-9 at h = 0.5 (n = 3, L 8-14, even
# N <= 128, offsets 0.5 and 0.25), 1.8e-14 at h <= 0.4.  Only refine reads
# --scheme: a difference quotient breaks [x_j, d_j] = 1 at O(h^p).
_GRID = {"tol": identities.GRID_TOL, "n": 1, "N": 256, "L": 12.0, "offset": 0.0}
_MINIMIZE = {**_GRID, "seed": None, "config": None, "max_iters": 40000}
_RADIAL = {"tol": ALGEBRAIC_TOL, "trials": 20}


def stacks(total: int, width: int):
    """Sizes of the stacks that ``total`` rows of ``width`` entries take:
    each of at most STACK_ENTRIES entries, or of one row."""
    rows = max(1, STACK_ENTRIES // width)
    return (min(rows, total - start) for start in range(0, total, rows))


def _resolve(command: str, given: dict) -> dict:
    """The fields ``command`` reads: each one set in ``given``, else its default.

    Only None means unset: a 0 is a value, never a request for the default.
    """
    return {k: default if given.get(k) is None else given[k]
            for k, default in TABLE[command].reads.items()}


def _row(suite: str, radial: bool | None) -> str:
    return "hardy --radial" if suite == "hardy" and radial else suite


def _refuse_unread(command: str, given: dict) -> None:
    """Refuse a field in ``given`` that was set and that ``command`` does not read."""
    on, reads, _ = TABLE[command]
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ValueError(f"--{name} does not apply to {command}, which runs on "
                             f"{on} and reads only --{', --'.join(reads)}"
                             .replace("_", "-"))


def _aggregate(reports: list[EqualityReport]) -> list[EqualityReport]:
    """Keep the worst report per identity so suites stay compact."""
    worst: dict[str, EqualityReport] = {}
    for rep in reports:
        cur = worst.get(rep.identity_id)
        if cur is None or rep.rel_residual > cur.rel_residual:
            worst[rep.identity_id] = rep
    return [worst[key] for key in sorted(worst)]


def _vector_pairs(cfg, rng):
    """Stacks (u, v) of random pairs, as drawn by random_vector, each of one
    dimension in [2, dim], zero-padded to dim."""
    for count in stacks(cfg.trials, cfg.dim):
        u, v = uv = np.zeros((2, count, cfg.dim), np.complex128)
        # axes: u or v, pair, entry, real or imaginary part
        parts = uv.view(np.float64).reshape(2, count, cfg.dim, 2)
        for i in range(count):
            dim = int(rng.integers(2, cfg.dim + 1))
            # random_vector's draws in its order: re u, im u, re v, im v
            parts[:, i, :dim] = rng.standard_normal((2, 2, dim)).transpose(0, 2, 1)
        yield u, v


def _radial_stacks(cfg, dims):
    """For each dimension, the radial Gaussian (row 0), then ``trials`` states
    drawn as random_radial_state would, all from one generator, in stacks."""
    rng = np.random.default_rng(cfg.seed)
    for quad in map(LaguerreQuadrature, dims):
        for i, count in enumerate(stacks(cfg.trials + 1, quad.points)):
            psi = random_radial_state(quad, rng, states=count - (i == 0))
            if i == 0:
                g = radial_gaussian(quad)
                psi = RadialState(quad, np.vstack([g.data, psi.data]),
                                  np.vstack([g.deriv, psi.deriv]))
            yield psi


def _grid_stacks(cfg, grid: grids.GridSpec):
    """``trials`` random smooth states in stacks."""
    rng = np.random.default_rng(cfg.seed)
    return (identities.random_smooth_state(grid, rng, states=count)
            for count in stacks(cfg.trials, grid.N ** grid.n))


def _pair_suite(cfg, check) -> list[EqualityReport]:
    """``check(u, v, angles, tol)`` on every stack of random pairs."""
    rng = np.random.default_rng(cfg.seed)
    angles = default_angles(rng)
    return [rep for u, v in _vector_pairs(cfg, rng)
            for rep in check(u, v, angles, cfg.tol)]


def run_appendix(cfg) -> list[EqualityReport]:
    def check(u, v, angles, tol):
        complexspace.extremizer_rows(u, v, tol)
        return complexspace.cs_equality_residuals(u, v, angles, tol)
    return _pair_suite(cfg, check)


def run_section2(cfg) -> list[EqualityReport]:
    return _pair_suite(cfg, pair_reports)


def run_momentum_position(cfg) -> list[EqualityReport]:
    grid = grids.GridSpec(cfg.n, cfg.N, cfg.L, cfg.offset)
    reports = [rep for phi in _grid_stacks(cfg, grid)
               for rep in identities.verify_position_momentum(phi, cfg.tol)]
    coherent = realize(GaussianSpec("coherent", n=grid.n), grid)
    mom = exact_moments(GaussianSpec("coherent", n=grid.n))
    x, g = grids.position(coherent), grids.gradient(coherent)
    return [*reports,
            compare("pm.kennard_saturation", x.norm() * g.norm(),
                    math.sqrt(mom.x_norm_sq * mom.grad_norm_sq), cfg.tol),
            compare("pm.coherent_alignment", (x + g).norm() / coherent.norm(),
                    0.0, cfg.tol)]


def run_dilation(cfg) -> list[EqualityReport]:
    grid = grids.GridSpec(cfg.n, cfg.N, cfg.L, cfg.offset)
    return [rep for phi in _grid_stacks(cfg, grid)
            for rep in [*identities.verify_dilation_pythagoras(phi, cfg.tol),
                        *identities.verify_dilation_hamiltonian(phi, cfg.tol)]]


def run_hardy(cfg) -> list[EqualityReport]:
    n, tol = cfg.n, cfg.tol
    if cfg.radial:
        return [rep for psi in _radial_stacks(cfg, (n,))
                for rep in identities.verify_hardy(psi, tol)]
    # The right side holds ((n-2)/2)^2 ||psi/|x|||^2 twice, so twice its lattice
    # error (grids.lattice_zeta, |psi(0)|^2 = pi^(-n/2)); both sides are n/2.
    N, L = (96, 12.0) if n == 3 else (32, 7.0)
    try:
        grid = grids.GridSpec(n, N if cfg.N is None else cfg.N,
                              L if cfg.L is None else cfg.L, cfg.offset)
        psi = realize(GaussianSpec("coherent", n=n), grid)
        pyth, *reports = identities.verify_hardy(psi, tol)  # the chain, the split
    except ValueError as exc:   # a grid limit; the radial rule has no grid
        raise ValueError(f"{exc}; or run verify hardy --radial --n {n}") from exc
    zeta = grids.lattice_zeta(n, grid.offset)
    term = 0.5 * (n - 2) ** 2 * grid.h ** (n - 2) * math.pi ** (-0.5 * n) * zeta
    return [*reports, *worst(["hardy.grid.value_lhs", "hardy.grid.value_rhs"],
                             [pyth.lhs.real, pyth.rhs.real - term], 0.5 * n, tol,
                             context={"grid": grid.to_dict(), "lattice_term": zeta})]


def run_coulomb(cfg) -> list[EqualityReport]:
    return [rep for psi in _radial_stacks(cfg, (3, 5) if cfg.n is None else (cfg.n,))
            for rep in identities.verify_radial_coulomb(psi, cfg.tol)]


def _minimize(target: str, cfg, max_iters: int = _MINIMIZE["max_iters"]
              ) -> tuple[dict, list[EqualityReport]]:
    """One search minimizer on the configured grid: its summary and reports."""
    grid = grids.GridSpec(cfg.n, cfg.N, cfg.L, cfg.offset)
    runner = minimize_sum_functional if target == "sum" else minimize_product_functional
    res = runner(grid, cfg.seed, SearchOptions(max_iters=max_iters))
    extra = ({"converged": res.converged} if target == "sum"
             else {"lambda_est": res.lambda_est})
    summary = {"value": res.value, "target": float(grid.n),
               "iterations": res.iterations, "converged": res.converged,
               "fidelity": res.fidelity, **extra}
    return summary, [
        compare(f"search.{target}.value", res.value, float(grid.n), cfg.tol,
                context={"iterations": res.iterations, **extra}),
        bound(f"search.{target}.fidelity", 0.999, res.fidelity, 0.0)]


def _probe(n: int, R: float) -> tuple[dict, list[EqualityReport]]:
    """The non-attainment probe at radii 10 < 100 < min(1000, R): rows, reports."""
    radii = (10.0, 100.0, min(1000.0, R))
    if radii[2] <= radii[1]:
        raise ValueError(f"--R must exceed {radii[1]:g} so the probed radii "
                         f"increase, got {R:g}")
    rows = probe_nonattainment(LogRadialQuadrature(n=n, r_max=R), radii)
    rhos = [row["rho"] for row in rows]
    return {"rows": rows}, [
        bound("search.nonattainment.above_one", 1.0, min(rhos), 0.0,
              context={"rows": rows}),
        bound("search.nonattainment.decreasing", 0.0,
              min(rhos[i] - rhos[i + 1] for i in range(len(rhos) - 1)), 0.0,
              context={"rows": rows})]


def run_search(cfg) -> list[EqualityReport]:
    return [*_minimize("sum", cfg)[1], *_minimize("product", cfg)[1],
            *_probe(**_resolve("search nonattainment", {}))[1]]


# One row per command: what it runs on, the config fields (flags) it reads
# with their defaults, and a verify suite's runner, which takes a config with
# those fields resolved and returns every report of its checks; the CLI calls
# it through RUNNERS and keeps the worst report per identity (_aggregate).  A
# default of None leaves it to the runner: hardy's N and L are 96 and 12 at
# n = 3, else 32 and 7; coulomb runs n = 3 and 5.  Every verify suite also
# reads seed, out, csv and --config; --radial picks the hardy row.
Suite = namedtuple("Suite", "on reads run", defaults=(None,))
TABLE = {
    "appendix": Suite("random vectors",
                      {"tol": ALGEBRAIC_TOL, "trials": 1000, "dim": 32}, run_appendix),
    "section2": Suite("random vectors",
                      {"tol": ALGEBRAIC_TOL, "trials": 200, "dim": 32}, run_section2),
    "momentum-position": Suite("a grid", {**_GRID, "trials": 50}, run_momentum_position),
    "dilation": Suite("a grid", {**_GRID, "trials": 20}, run_dilation),
    "hardy": Suite("a grid", {**_GRID, "n": 3, "N": None, "L": None, "offset": 0.5,
                              "radial": None}, run_hardy),
    "hardy --radial": Suite("the radial quadrature", {**_RADIAL, "n": 3, "radial": None}),
    "coulomb": Suite("the radial quadrature", {**_RADIAL, "n": None}, run_coulomb),
    "search": Suite("a grid", _GRID, run_search),
    "search sum": Suite("a grid", _MINIMIZE),
    "search product": Suite("a grid", _MINIMIZE),
    "search nonattainment": Suite("a log-r Gauss-Legendre rule", {"n": 3, "R": 1000.0}),
    "all": Suite("each suite's own states",
                 dict.fromkeys((*_GRID, "trials", "dim", "radial"))),
}
RUNNERS = {name: row.run for name, row in TABLE.items() if row.run}
SUITES = (*RUNNERS, "all")
