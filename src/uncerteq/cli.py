"""Command-line front door: suite execution, reports, refinement studies.

Configuration comes from an optional JSON file plus flag overrides; every
run writes a versioned JSON report (timestamp isolated in the header so the
body is byte-stable for a fixed config and seed) and optionally a CSV
residual table.  Exit code 0 means every selected check passed, 1 lists the
failing identities, 2 is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, complexspace, grids, identities
from .complexspace import ALGEBRAIC_TOL, cs_equality_residuals, default_angles
from .forms import pair_reports
from .gaussians import GaussianSpec, exact_moments, realize
from .grids import GridSpec
from .identities import GRID_TOL, refinement_study  # also public as cli.refinement_study
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

# What each command runs on, and the config fields (flags) it reads with
# their defaults; None leaves the default to the runner (hardy's N and L are
# 96 and 12 at n = 3, else 32 and 7; coulomb runs n = 3 and 5).  Every
# verify suite also reads seed, out, csv and --config; --radial picks the
# hardy row.  A field that was set, by flag or by config file, and that the
# command does not read is a usage error (_refuse_unread).
_GRID = {"tol": GRID_TOL, "n": 1, "N": 256, "L": 12.0, "offset": 0.0}
_MINIMIZE = {**_GRID, "seed": None, "config": None, "max_iters": 40000}
_RADIAL = {"tol": ALGEBRAIC_TOL, "trials": 20}
READS = {
    "appendix": ("random vectors", {"tol": ALGEBRAIC_TOL, "trials": 1000, "dim": 32}),
    "section2": ("random vectors", {"tol": ALGEBRAIC_TOL, "trials": 200, "dim": 32}),
    "momentum-position": ("a grid", {**_GRID, "trials": 50}),
    "dilation": ("a grid", {**_GRID, "trials": 20}),
    "hardy": ("a grid", {**_GRID, "n": 3, "N": None, "L": None, "offset": 0.5,
                         "radial": None}),
    "hardy --radial": ("the radial quadrature", {**_RADIAL, "n": 3, "radial": None}),
    "coulomb": ("the radial quadrature", {**_RADIAL, "n": None}),
    "search": ("a grid", _GRID),
    "search sum": ("a grid", _MINIMIZE),
    "search product": ("a grid", _MINIMIZE),
    "search nonattainment": ("a log-r Gauss-Legendre rule", {"n": 3, "R": 1000.0}),
    "all": ("each suite's own states",
            dict.fromkeys((*_GRID, "trials", "dim", "radial"))),
}


def _check_type(key: str, hint, value) -> None:
    """Refuse a config-file value that is not of its field's resolved type,
    as typing.get_type_hints gives it: a float field also takes an int, and
    a bool is no int and no float here, though Python counts it as an int."""
    members = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
    kinds = tuple(get_origin(m) or m for m in members)
    if float in kinds:
        kinds += (int,)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        names = " or ".join("null" if m is NoneType else getattr(m, "__name__", str(m))
                            for m in members)
        raise ValueError(f"config key {key!r} must be {names}, got {value!r}")


@dataclass
class SuiteConfig:
    suite: str = "all"
    n: int | None = None
    N: int | None = None
    L: float | None = None
    offset: float | None = None
    tol: float | None = None
    trials: int | None = None
    dim: int | None = None
    seed: int = 0
    radial: bool | None = None
    out: str | None = None
    csv: str | None = None

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> "SuiteConfig":
        data = {}
        if config_path:
            with open(config_path) as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{config_path} is not valid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise ValueError(f"config file {config_path} must hold a JSON "
                                 f"object of flag values, got {json.dumps(data)[:40]}")
            unknown = set(data) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            for key, hint in get_type_hints(cls).items():
                if key in data:
                    _check_type(key, hint, data[key])
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def __post_init__(self):
        # Unread fields are refused before the range checks, so an error
        # names a flag the suite reads.  Every suite reads seed, out and csv.
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        _refuse_unread(_row(self.suite, self.radial),
                       {k: v for k, v in asdict(self).items()
                        if k not in ("suite", "seed", "out", "csv")})
        if self.seed < 0:
            raise ValueError(f"--seed must be at least 0, got {self.seed}")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be at least 1; zero trials would "
                             "pass vacuously")
        if self.dim is not None and self.dim < 2:
            raise ValueError(f"--dim must be at least 2, got {self.dim}")
        if self.dim is not None and self.dim > grids.MAX_POINTS:
            raise ValueError(f"--dim must be at most 2^24 = {grids.MAX_POINTS}, "
                             f"the grid's point cap, got {self.dim}")
        if self.tol is not None and not 0.0 <= self.tol < math.inf:
            raise ValueError(f"--tol must be finite and at least 0, got {self.tol}")


def _row(suite: str, radial: bool | None) -> str:
    return "hardy --radial" if suite == "hardy" and radial else suite


def _resolve(command: str, given: dict) -> dict:
    """The fields ``command`` reads: each one set in ``given``, else its default.

    Only None means unset: a 0 is a value, never a request for the default.
    """
    return {k: default if given.get(k) is None else given[k]
            for k, default in READS[command][1].items()}


def _aggregate(reports: list[EqualityReport]) -> list[EqualityReport]:
    """Keep the worst report per identity so suites stay compact."""
    worst: dict[str, EqualityReport] = {}
    for rep in reports:
        cur = worst.get(rep.identity_id)
        if cur is None or rep.rel_residual > cur.rel_residual:
            worst[rep.identity_id] = rep
    return [worst[key] for key in sorted(worst)]


def _vector_pairs(cfg: SuiteConfig, rng):
    """Stacks (u, v) of at most max(1, 2**15 // dim) random pairs, as drawn
    by random_vector, each of one dimension in [2, dim], zero-padded to dim."""
    width, trials = cfg.dim, cfg.trials
    rows = max(1, complexspace.STACK_ENTRIES // width)
    for start in range(0, trials, rows):
        u, v = np.zeros((2, min(rows, trials - start), width), np.complex128)
        ur, ui, vr, vi = u.real, u.imag, v.real, v.imag
        for i in range(len(u)):
            dim = int(rng.integers(2, width + 1))
            # random_vector's draws in its order: re u, im u, re v, im v
            (ur[i, :dim], ui[i, :dim], vr[i, :dim],
             vi[i, :dim]) = rng.standard_normal((4, dim))
        yield u, v


def _radial_reports(verify, quad, cfg: SuiteConfig, rng) -> list[EqualityReport]:
    """``verify`` on stacks of at most STACK_ENTRIES node values: the radial
    Gaussian (row 0), then ``trials`` states drawn as random_radial_state would."""
    rows = max(1, complexspace.STACK_ENTRIES // quad.points)
    total, reports = cfg.trials + 1, []
    for start in range(0, total, rows):
        count = min(rows, total - start) - (start == 0)   # row 0: the Gaussian
        psi = random_radial_state(quad, rng, states=count)
        if start == 0:
            g = radial_gaussian(quad)
            psi = RadialState(quad, np.vstack([g.values, psi.values]),
                              np.vstack([g.deriv, psi.deriv]))
        reports += verify(psi, cfg.tol)
    return reports


def _pair_suite(cfg: SuiteConfig, check) -> list[EqualityReport]:
    """``check(u, v, angles, tol)`` on every stack of random pairs."""
    rng = np.random.default_rng(cfg.seed)
    angles = default_angles(rng)
    return _aggregate([rep for u, v in _vector_pairs(cfg, rng)
                       for rep in check(u, v, angles, cfg.tol)])


def run_appendix(cfg: SuiteConfig) -> list[EqualityReport]:
    def check(u, v, angles, tol):
        complexspace.extremizer_rows(u, v, tol)
        return cs_equality_residuals(u, v, angles, tol)
    return _pair_suite(cfg, check)


def run_section2(cfg: SuiteConfig) -> list[EqualityReport]:
    return _pair_suite(cfg, pair_reports)


def run_momentum_position(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    grid = GridSpec(cfg.n, cfg.N, cfg.L, cfg.offset)
    reports = []
    for _ in range(cfg.trials):
        phi = identities.random_smooth_state(grid, rng)
        reports.extend(identities.verify_position_momentum(phi, cfg.tol))
    coherent = realize(GaussianSpec("coherent", n=grid.n), grid)
    mom = exact_moments(GaussianSpec("coherent", n=grid.n))
    x, g = grids.position(coherent), grids.gradient(coherent)
    reports.append(compare("pm.kennard_saturation", x.norm() * g.norm(),
                           math.sqrt(mom.x_norm_sq * mom.grad_norm_sq), cfg.tol))
    reports.append(compare("pm.coherent_alignment",
                           (x + g).norm() / coherent.norm(), 0.0, cfg.tol))
    return _aggregate(reports)


def run_dilation(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    grid = GridSpec(cfg.n, cfg.N, cfg.L, cfg.offset)
    reports = []
    for _ in range(cfg.trials):
        phi = identities.random_smooth_state(grid, rng)
        reports.extend(identities.verify_dilation_pythagoras(phi, cfg.tol))
        reports.extend(identities.verify_dilation_hamiltonian(phi, cfg.tol))
    return _aggregate(reports)


def run_hardy(cfg: SuiteConfig) -> list[EqualityReport]:
    n, tol = cfg.n, cfg.tol
    if cfg.radial:
        return _aggregate(_radial_reports(identities.verify_hardy,
                                          LaguerreQuadrature(n), cfg,
                                          np.random.default_rng(cfg.seed)))
    # The right side holds ((n-2)/2)^2 ||psi/|x|||^2 twice, so twice its lattice
    # error (grids.lattice_zeta, |psi(0)|^2 = pi^(-n/2)); both sides are n/2.
    N, L = (96, 12.0) if n == 3 else (32, 7.0)
    try:
        grid = GridSpec(n, N if cfg.N is None else cfg.N,
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


def run_coulomb(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    return _aggregate([rep for n in ((3, 5) if cfg.n is None else (cfg.n,))
                       for rep in _radial_reports(identities.verify_radial_coulomb,
                                                  LaguerreQuadrature(n), cfg, rng)])


def _minimize(target: str, cfg: SuiteConfig, max_iters: int = _MINIMIZE["max_iters"]
              ) -> tuple[dict, list[EqualityReport]]:
    """One search minimizer on the configured grid: its summary and reports."""
    grid = GridSpec(cfg.n, cfg.N, cfg.L, cfg.offset)
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


def run_search_suite(cfg: SuiteConfig) -> list[EqualityReport]:
    return [*_minimize("sum", cfg)[1], *_minimize("product", cfg)[1],
            *_probe(**_resolve("search nonattainment", {}))[1]]


RUNNERS = {
    "appendix": run_appendix,
    "section2": run_section2,
    "momentum-position": run_momentum_position,
    "dilation": run_dilation,
    "hardy": run_hardy,
    "coulomb": run_coulomb,
    "search": run_search_suite,
}
SUITES = (*RUNNERS, "all")


def _refuse_unread(command: str, given: dict) -> None:
    """Refuse a field in ``given`` that was set and that ``command`` does not read."""
    on, reads = READS[command]
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ValueError(f"--{name} does not apply to {command}, which runs on "
                             f"{on} and reads only --{', --'.join(reads)}"
                             .replace("_", "-"))


def run_suite(cfg: SuiteConfig) -> tuple[int, dict]:
    """Execute the selected suites and assemble the versioned report."""
    names = list(RUNNERS) if cfg.suite == "all" else [cfg.suite]
    # Checked before any suite runs, so that verify all fails at once.
    if "hardy" in names and cfg.n is not None and cfg.n < 3:
        raise ValueError("the Hardy identities require dimension >= 3, "
                         f"got --n {cfg.n}")
    reports: list[EqualityReport] = []
    for name in names:
        row = _resolve(_row(name, cfg.radial), asdict(cfg))
        reports.extend(RUNNERS[name](replace(cfg, **row)))
    reports.sort(key=lambda rep: rep.identity_id)
    failing = sorted({rep.identity_id for rep in reports if not rep.passed})
    payload = {
        "schema": 1,
        "header": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": asdict(cfg),
            "versions": {"uncerteq": __version__, "numpy": np.__version__},
        },
        "reports": [rep.to_dict() for rep in reports],
        "failing": failing,
    }
    return (0 if not failing else 1), payload


def write_outputs(payload: dict, cfg: SuiteConfig) -> None:
    text = json.dumps(payload, indent=2)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if cfg.csv:
        _write_csv(cfg.csv, ["identity_id", "lhs_re", "lhs_im", "rhs_re",
                             "rhs_im", "abs_residual", "rel_residual", "tol",
                             "passed"],
                   [[rep["identity_id"], *rep["lhs"], *rep["rhs"],
                     rep["abs_residual"], rep["rel_residual"], rep["tol"],
                     rep["passed"]] for rep in payload["reports"]])


def write_refinement_csv(study: dict, path: str) -> None:
    _write_csv(path, ["N", "h", "abs_residual", "rel_residual"],
               [*([row["N"], row["h"], row["abs_residual"], row["rel_residual"]]
                  for row in study["rows"]),
                ["fitted_order", study["fitted_order"], "", ""]])


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--n", type=int, help="space dimension")
    parser.add_argument("--N", type=int, help="grid points per axis")
    parser.add_argument("--L", type=float, help="box half-width (default 12)")
    parser.add_argument("--offset", type=float, help="grid offset in spacings")
    parser.add_argument("--tol", type=float, help="override the suite tolerance")
    parser.add_argument("--trials", type=int, help="number of random trials")
    parser.add_argument("--dim", type=int, help="max vector dimension (default 32)")
    parser.add_argument("--seed", type=int, help="RNG seed (default 0)")
    parser.add_argument("--radial", action="store_true", default=None,
                        help="use the 1-D radial quadrature fast path")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--csv", help="also write a CSV residual table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncerteq",
        description="Verify equality-form uncertainty relations numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common_flags(p_verify)

    p_search = sub.add_parser("search", help="run a variational search")
    p_search.add_argument("target", choices=("sum", "product", "nonattainment"))
    _add_common_flags(p_search)
    p_search.add_argument("--max-iters", type=int,
                          help="sum, product: iteration cap (default 40000)")
    p_search.add_argument("--R", type=float,
                          help="nonattainment: radial range (default 1000)")

    p_refine = sub.add_parser("refine", help="grid-refinement study")
    p_refine.add_argument("identity", help="identity id, e.g. pm.trace")
    p_refine.add_argument("--N", type=int, action="append", required=True,
                          help="repeat for each resolution (at least three)")
    p_refine.add_argument("--n", type=int, default=1)
    p_refine.add_argument("--L", type=float, default=12.0)
    p_refine.add_argument("--offset", type=float, default=0.0)
    p_refine.add_argument("--scheme", choices=grids.SCHEMES,
                          default="central_diff_2")
    p_refine.add_argument("--csv", help="write the residual table here")
    return parser


def _config(args, suite: str) -> SuiteConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(SuiteConfig)
                 if f.name != "suite"}
    return SuiteConfig.from_sources(args.config, {**overrides, "suite": suite})


def _cmd_verify(args) -> int:
    cfg = _config(args, args.suite)
    code, payload = run_suite(cfg)
    write_outputs(payload, cfg)
    if payload["failing"]:
        print("FAILING: " + ", ".join(payload["failing"]), file=sys.stderr)
    return code


def _cmd_search(args) -> int:
    command = f"search {args.target}"
    _refuse_unread(command, {k: v for k, v in vars(args).items()
                             if k not in ("command", "target")})
    given = _resolve(command, vars(args))
    if args.target == "nonattainment":
        out, reports = _probe(**given)
    else:
        cfg = _config(args, "search")   # fields from --config, checked too
        _refuse_unread(command, {**asdict(cfg), "suite": None})
        cfg = replace(cfg, **_resolve("search", asdict(cfg)))
        if given["max_iters"] < 1:
            raise ValueError("--max-iters must be at least 1; a search of no "
                             "iterations fails vacuously")
        out, reports = _minimize(args.target, cfg, given["max_iters"])
    print(json.dumps(out, indent=2))
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_refine(args) -> int:
    specs = [GridSpec(n=args.n, N=N, L=args.L, offset=args.offset,
                      scheme=args.scheme) for N in args.N]
    study = refinement_study(args.identity, specs)
    print(json.dumps(study, indent=2))
    if args.csv:
        write_refinement_csv(study, args.csv)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "search":
            return _cmd_search(args)
        return _cmd_refine(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
