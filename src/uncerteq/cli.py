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
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy

from . import __version__, complexspace, grids, identities
from .complexspace import cs_equality_residuals, default_angles, random_vector
from .forms import PairSample, decomposition_check, sr_equalities, sr_inequality_chain
from .gaussians import GaussianSpec, exact_moments, realize
from .grids import GridSpec
from .identities import GRID_TOL, refinement_study  # also public as cli.refinement_study
from .radial import (LaguerreQuadrature, RadialQuadrature, radial_gaussian,
                     random_radial_state)
from .report import EqualityReport, bound, compare
from .search import (SearchOptions, minimize_product_functional,
                     minimize_sum_functional, probe_nonattainment)

ALGEBRAIC_TOL = 1e-12
# Tolerance of the search minima against n, per derivative scheme.  On the
# spectral scheme the minimizers' excess peaked at 1.5e-10 over 1,646
# minimizations (suite seeds on the default grid, and 1-3-D grids down to the
# smallest box and point count that random_smooth_state accepts); 1e-8 keeps
# a factor of 69.  A difference quotient puts the discrete minimum O(h^p)
# below n (9.6e-6 for central_diff_4 on the default grid), so those schemes
# keep 1e-4.
SEARCH_TOL = {"spectral_periodic": 1e-8, "central_diff_2": 1e-4,
              "central_diff_4": 1e-4}
# Tolerance of verify hardy on the tensor grid, per derivative scheme.  On
# the spectral scheme the worst residual (hardy.grid.value_rhs, the
# extrapolated 1/|x|^2 norm) was 1.6e-9 over n = 3, L in {8, 8.8, 10, 12, 14},
# every even N <= 128 that the grid guards accept and offsets 0.5 and 0.25,
# and 4.4e-10 at n = 4, N = 52, L = 6.5; 1e-8 keeps a factor of 6.  The
# difference schemes keep 1e-3 (ROADMAP item 5: they fail at their defaults).
HARDY_GRID_TOL = {"spectral_periodic": 1e-8, "central_diff_2": 1e-3,
                  "central_diff_4": 1e-3}

# What each command runs on and the config fields (flags) it reads.  Every
# verify suite also reads seed, out, csv and --config; --radial picks the
# hardy row.  A field that was set, by flag or by config file, and that the
# command does not read is a usage error (_refuse_unread).
_GRID = ("tol", "n", "N", "L", "offset", "scheme")
READS = {
    "appendix": ("random vectors", ("tol", "trials", "dim")),
    "section2": ("random vectors", ("tol", "trials", "dim")),
    "momentum-position": ("a grid", (*_GRID, "trials")),
    "dilation": ("a grid", (*_GRID, "trials")),
    "hardy": ("a grid", (*_GRID, "radial")),
    "hardy --radial": ("the radial quadrature", ("tol", "trials", "n", "radial")),
    "coulomb": ("the radial quadrature", ("tol", "trials", "n")),
    "search": ("a grid", _GRID),
    "search sum": ("a grid", (*_GRID, "seed", "config", "max_iters")),
    "search product": ("a grid", (*_GRID, "seed", "config", "max_iters")),
    "search nonattainment": ("a radial midpoint rule", ("n", "R", "points")),
    "all": ("each suite's own states", (*_GRID, "trials", "dim", "radial")),
}


@dataclass
class SuiteConfig:
    suite: str = "all"
    n: int | None = None
    N: int | None = None
    L: float | None = None
    offset: float | None = None
    scheme: str | None = None
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
                data = json.load(fh)
            unknown = set(data) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be at least 1; zero trials would "
                             "pass vacuously")
        if self.dim is not None and self.dim < 2:
            raise ValueError(f"--dim must be at least 2, got {self.dim}")


def _flag(value, default):
    """The configured value, or ``default`` when it was left unset.

    Only None means unset: a 0 is a value, never a request for the default.
    """
    return default if value is None else value


def _aggregate(reports: list[EqualityReport]) -> list[EqualityReport]:
    """Keep the worst report per identity so suites stay compact."""
    worst: dict[str, EqualityReport] = {}
    for rep in reports:
        cur = worst.get(rep.identity_id)
        if cur is None or rep.rel_residual > cur.rel_residual:
            worst[rep.identity_id] = rep
    return [worst[key] for key in sorted(worst)]


def _grid(cfg: SuiteConfig, n: int, default_N: int, default_offset: float = 0.0) -> GridSpec:
    return GridSpec(n=n, N=_flag(cfg.N, default_N), L=_flag(cfg.L, 12.0),
                    offset=_flag(cfg.offset, default_offset),
                    scheme=_flag(cfg.scheme, "spectral_periodic"))


def _vector_pairs(cfg: SuiteConfig, rng, default_trials: int):
    """Random pairs (u, v), each of one dimension drawn from [2, dim]."""
    for _ in range(_flag(cfg.trials, default_trials)):
        dim = int(rng.integers(2, _flag(cfg.dim, 32) + 1))
        yield random_vector(rng, dim), random_vector(rng, dim)


def _radial_reports(verify, quad, cfg: SuiteConfig, rng) -> list[EqualityReport]:
    """``verify`` on the radial Gaussian and on ``trials`` random states."""
    states = [radial_gaussian(quad)]
    states += [random_radial_state(quad, rng) for _ in range(_flag(cfg.trials, 20))]
    return [rep for psi in states for rep in verify(psi, _flag(cfg.tol, GRID_TOL))]


def run_appendix(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    tol = _flag(cfg.tol, ALGEBRAIC_TOL)
    angles = default_angles(rng)
    reports = []
    for u, v in _vector_pairs(cfg, rng, 1000):
        reports.extend(cs_equality_residuals(u, v, angles=angles, tol=tol))
        complexspace.extremizer_class(u, v, tol)
    return _aggregate(reports)


def run_section2(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    tol = _flag(cfg.tol, ALGEBRAIC_TOL)
    angles = default_angles(rng)
    reports = []
    for u, v in _vector_pairs(cfg, rng, 200):
        s = PairSample.from_vectors(u, v)
        reports.extend(sr_equalities(s, thetas=angles, tol=tol))
        reports.extend(decomposition_check(s, tol))
        chain = sr_inequality_chain(s)
        reports.append(bound("sr.chain.schrodinger", chain.schrodinger_bound,
                             chain.product, tol, scale=chain.product))
        reports.append(bound("sr.chain.robertson", chain.robertson_bound,
                             chain.schrodinger_bound, tol, scale=chain.product))
    return _aggregate(reports)


def run_momentum_position(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    tol = _flag(cfg.tol, GRID_TOL)
    grid = _grid(cfg, _flag(cfg.n, 1), 256)
    reports = []
    for _ in range(_flag(cfg.trials, 50)):
        phi = identities.random_smooth_state(grid, rng)
        reports.extend(identities.verify_position_momentum(phi, tol))
    coherent = realize(GaussianSpec("coherent", n=grid.n), grid)
    mom = exact_moments(GaussianSpec("coherent", n=grid.n))
    xnorm = grids.position(coherent).norm()
    gnorm = grids.gradient(coherent).norm()
    reports.append(compare("pm.kennard_saturation", xnorm * gnorm,
                           math.sqrt(mom.x_norm_sq * mom.grad_norm_sq),
                           max(tol, 1e-6)))
    sum_field = grids.position(coherent) + grids.gradient(coherent)
    reports.append(compare("pm.coherent_alignment",
                           sum_field.norm() / coherent.norm(), 0.0, 1e-6))
    return _aggregate(reports)


def run_dilation(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    tol = _flag(cfg.tol, GRID_TOL)
    grid = _grid(cfg, _flag(cfg.n, 1), 256)
    reports = []
    for _ in range(_flag(cfg.trials, 20)):
        phi = identities.random_smooth_state(grid, rng)
        reports.extend(identities.verify_dilation_pythagoras(phi, tol))
        reports.extend(identities.verify_dilation_hamiltonian(phi, max(tol, 1e-7)))
    return _aggregate(reports)


def run_hardy(cfg: SuiteConfig) -> list[EqualityReport]:
    n = _flag(cfg.n, 3)
    if cfg.radial:
        return _aggregate(_radial_reports(identities.verify_hardy,
                                          LaguerreQuadrature(n), cfg,
                                          np.random.default_rng(cfg.seed)))
    fine = _grid(cfg, n, 96 if n == 3 else 32, default_offset=0.5)
    tol = _flag(cfg.tol, HARDY_GRID_TOL[fine.scheme])
    # The 1/|x|^2-weighted norm on the tensor grid has an O(h^(n-2))
    # midpoint quadrature error, so the right side of the Pythagorean
    # identity is checked after removing that term by Richardson
    # extrapolation with a half-resolution control grid.  For the
    # unit-norm isotropic Gaussian both sides equal n/2 exactly.
    coarse = GridSpec(n=fine.n, N=fine.N // 2, L=fine.L,
                      offset=fine.offset, scheme=fine.scheme)
    reports, sides = [], {}
    for grid in (coarse, fine):
        psi = realize(GaussianSpec("coherent", n=n), grid)
        for rep in identities.verify_hardy(psi, tol):
            if rep.identity_id == "hardy.pythagoras":
                sides[grid.N] = (rep.lhs.real, rep.rhs.real)
            elif rep.identity_id.startswith("hardy.chain."):
                reports.append(rep)
    target = 0.5 * n
    ctx = {"grid": fine.to_dict(), "control_N": coarse.N}
    reports.append(compare("hardy.grid.value_lhs", sides[fine.N][0],
                           target, tol, context=ctx))
    q = 2.0 ** (n - 2)
    rhs_corrected = (q * sides[fine.N][1] - sides[coarse.N][1]) / (q - 1.0)
    reports.append(compare("hardy.grid.value_rhs", rhs_corrected,
                           target, tol, context=ctx))
    # psi is still the fine-grid state from the last loop pass.
    reports.append(grids.pointwise_gradient_decomposition(psi, tol))
    return _aggregate(reports)


def run_coulomb(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    # On the Gauss-Laguerre rule the worst radcoul.* residual over 250 suite
    # seeds (s * 1000003 + k, s = 1..10, k < 25) at each n = 3..8 was
    # 6.3e-15; GRID_TOL keeps a factor of 1.6e6, as on hardy --radial.
    reports = []
    for n in ((3, 5) if cfg.n is None else (cfg.n,)):
        reports += _radial_reports(identities.verify_radial_coulomb,
                                   LaguerreQuadrature(n), cfg, rng)
    return _aggregate(reports)


def _minimize(target: str, cfg: SuiteConfig,
              max_iters: int | None = None) -> tuple[dict, list[EqualityReport]]:
    """One search minimizer on the configured grid: its summary and reports."""
    grid = _grid(cfg, _flag(cfg.n, 1), 256)
    tol = _flag(cfg.tol, SEARCH_TOL[grid.scheme])
    runner = (minimize_sum_functional if target == "sum"
              else minimize_product_functional)
    res = runner(grid, cfg.seed, SearchOptions(max_iters=_flag(max_iters, 40000)))
    extra = ({"converged": res.converged} if target == "sum"
             else {"lambda_est": res.lambda_est})
    summary = {"value": res.value, "target": float(grid.n),
               "iterations": res.iterations, "converged": res.converged,
               "fidelity": res.fidelity, **extra}
    return summary, [
        compare(f"search.{target}.value", res.value, float(grid.n), tol,
                context={"iterations": res.iterations, **extra}),
        bound(f"search.{target}.fidelity", 0.999, res.fidelity, 0.0)]


def _probe(n: int | None = None, R: float | None = None,
           points: int | None = None) -> tuple[dict, list[EqualityReport]]:
    """The non-attainment probe at radii 10 < 100 < min(1000, R): rows, reports."""
    r_max = _flag(R, 1000.0)
    radii = (10.0, 100.0, min(1000.0, r_max))
    if radii[2] <= radii[1]:
        raise ValueError(f"--R must exceed {radii[1]:g} so the probed radii "
                         f"increase, got {r_max:g}")
    quad = RadialQuadrature(n=_flag(n, 3), r_max=r_max,
                            points=_flag(points, 200000))
    rows = probe_nonattainment(quad, radii)
    rhos = [row["rho"] for row in rows]
    return {"rows": rows}, [
        bound("search.nonattainment.above_one", 1.0, min(rhos), 0.0,
              context={"rows": rows}),
        bound("search.nonattainment.decreasing", 0.0,
              min(rhos[i] - rhos[i + 1] for i in range(len(rhos) - 1)), 0.0,
              context={"rows": rows})]


def run_search_suite(cfg: SuiteConfig) -> list[EqualityReport]:
    return [*_minimize("sum", cfg)[1], *_minimize("product", cfg)[1],
            *_probe()[1]]


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
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    row = "hardy --radial" if cfg.suite == "hardy" and cfg.radial else cfg.suite
    # Every suite reads seed, out and csv.
    _refuse_unread(row, {k: v for k, v in asdict(cfg).items()
                         if k not in ("suite", "seed", "out", "csv")})
    names = list(RUNNERS) if cfg.suite == "all" else [cfg.suite]
    reports: list[EqualityReport] = []
    for name in names:
        reports.extend(RUNNERS[name](cfg))
    reports.sort(key=lambda rep: rep.identity_id)
    failing = sorted({rep.identity_id for rep in reports if not rep.passed})
    payload = {
        "schema": 1,
        "header": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": asdict(cfg),
            "versions": {
                "uncerteq": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
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
    parser.add_argument("--scheme", choices=grids.SCHEMES,
                        help="derivative scheme (default spectral_periodic)")
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
    p_search.add_argument("--points", type=int,
                          help="nonattainment: midpoint nodes (default 200000)")

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
    given = {k: v for k, v in vars(args).items() if k not in ("command", "target")}
    if args.target == "nonattainment":
        _refuse_unread(command, given)
        out, reports = _probe(args.n, args.R, args.points)
    else:
        cfg = _config(args, "search")
        _refuse_unread(command, {**given, **asdict(cfg), "suite": None})
        out, reports = _minimize(args.target, cfg, args.max_iters)
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
