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
from .search import (SearchOptions, SearchResult, minimize_product_functional,
                     minimize_sum_functional, probe_nonattainment)

SUITES = ("appendix", "section2", "momentum-position", "dilation", "hardy",
          "coulomb", "search", "all")

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


@dataclass
class SuiteConfig:
    suite: str = "all"
    n: int | None = None
    N: int | None = None
    L: float = 12.0
    offset: float | None = None
    scheme: str = "spectral_periodic"
    tol: float | None = None
    trials: int | None = None
    dim: int = 32
    seed: int = 0
    radial: bool = False
    out: str | None = None
    csv: str | None = None

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> "SuiteConfig":
        data = {}
        if config_path:
            with open(config_path) as fh:
                loaded = json.load(fh)
            known = {f.name for f in fields(cls)}
            unknown = set(loaded) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            data.update(loaded)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be at least 1; zero trials would "
                             "pass vacuously")
        if self.dim < 2:
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
    return GridSpec(n=n, N=_flag(cfg.N, default_N), L=cfg.L,
                    offset=_flag(cfg.offset, default_offset),
                    scheme=cfg.scheme)


def run_appendix(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    tol = _flag(cfg.tol, ALGEBRAIC_TOL)
    trials = _flag(cfg.trials, 1000)
    angles = default_angles(rng)
    reports = []
    for _ in range(trials):
        dim = int(rng.integers(2, cfg.dim + 1))
        u = random_vector(rng, dim)
        v = random_vector(rng, dim)
        reports.extend(cs_equality_residuals(u, v, angles=angles, tol=tol))
        complexspace.extremizer_class(u, v, tol)
    return _aggregate(reports)


def run_section2(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    tol = _flag(cfg.tol, ALGEBRAIC_TOL)
    trials = _flag(cfg.trials, 200)
    angles = default_angles(rng)
    reports = []
    for _ in range(trials):
        dim = int(rng.integers(2, cfg.dim + 1))
        u = random_vector(rng, dim)
        v = random_vector(rng, dim)
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
    trials = _flag(cfg.trials, 50)
    grid = _grid(cfg, _flag(cfg.n, 1), 256)
    reports = []
    for _ in range(trials):
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
    trials = _flag(cfg.trials, 20)
    grid = _grid(cfg, _flag(cfg.n, 1), 256)
    reports = []
    for _ in range(trials):
        phi = identities.random_smooth_state(grid, rng)
        reports.extend(identities.verify_dilation_pythagoras(phi, tol))
        reports.extend(identities.verify_dilation_hamiltonian(phi, max(tol, 1e-7)))
    return _aggregate(reports)


def run_hardy(cfg: SuiteConfig) -> list[EqualityReport]:
    rng = np.random.default_rng(cfg.seed)
    n = _flag(cfg.n, 3)
    reports = []
    if cfg.radial:
        tol = _flag(cfg.tol, GRID_TOL)
        quad = LaguerreQuadrature(n)
        states = [radial_gaussian(quad)]
        for _ in range(_flag(cfg.trials, 20)):
            states.append(random_radial_state(quad, rng))
        for psi in states:
            reports.extend(identities.verify_hardy(psi, tol))
    else:
        fine = _grid(cfg, n, 96 if n == 3 else 32, default_offset=0.5)
        tol = _flag(cfg.tol, HARDY_GRID_TOL[fine.scheme])
        # The 1/|x|^2-weighted norm on the tensor grid has an O(h^(n-2))
        # midpoint quadrature error, so the right side of the Pythagorean
        # identity is checked after removing that term by Richardson
        # extrapolation with a half-resolution control grid.  For the
        # unit-norm isotropic Gaussian both sides equal n/2 exactly.
        coarse = GridSpec(n=fine.n, N=fine.N // 2, L=fine.L,
                          offset=fine.offset, scheme=fine.scheme)
        sides = {}
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
    tol = _flag(cfg.tol, GRID_TOL)
    reports = []
    for n in ((3, 5) if cfg.n is None else (cfg.n,)):
        quad = LaguerreQuadrature(n)
        states = [radial_gaussian(quad)]
        for _ in range(_flag(cfg.trials, 20)):
            states.append(random_radial_state(quad, rng))
        for phi in states:
            reports.extend(identities.verify_radial_coulomb(phi, tol))
    return _aggregate(reports)


def _minimizer_reports(target: str, res: SearchResult, grid: GridSpec,
                       tol: float) -> list[EqualityReport]:
    extra = ({"converged": res.converged} if target == "sum"
             else {"lambda_est": res.lambda_est})
    return [compare(f"search.{target}.value", res.value, float(grid.n), tol,
                    context={"iterations": res.iterations, **extra}),
            bound(f"search.{target}.fidelity", 0.999, res.fidelity, 0.0)]


def _nonattainment_reports(rows: list[dict]) -> list[EqualityReport]:
    rhos = [row["rho"] for row in rows]
    return [bound("search.nonattainment.above_one", 1.0, min(rhos), 0.0,
                  context={"rows": rows}),
            bound("search.nonattainment.decreasing", 0.0,
                  min(rhos[i] - rhos[i + 1] for i in range(len(rhos) - 1)),
                  0.0, context={"rows": rows})]


def run_search_suite(cfg: SuiteConfig) -> list[EqualityReport]:
    grid = _grid(cfg, _flag(cfg.n, 1), 256)
    tol = _flag(cfg.tol, SEARCH_TOL[grid.scheme])
    opts = SearchOptions(max_iters=40000)
    res = minimize_sum_functional(grid, cfg.seed, opts)
    reports = _minimizer_reports("sum", res, grid, tol)
    res = minimize_product_functional(grid, cfg.seed, opts)
    reports += _minimizer_reports("product", res, grid, tol)
    quad = RadialQuadrature(n=3, r_max=1000.0, points=200000)
    rows = probe_nonattainment(quad, (10.0, 100.0, 1000.0))
    return reports + _nonattainment_reports(rows)


RUNNERS = {
    "appendix": run_appendix,
    "section2": run_section2,
    "momentum-position": run_momentum_position,
    "dilation": run_dilation,
    "hardy": run_hardy,
    "coulomb": run_coulomb,
    "search": run_search_suite,
}


def _refuse_grid_flags(cfg: SuiteConfig) -> None:
    """coulomb and hardy --radial build no grid, so a grid flag is an error.

    ``verify all`` still hands the grid flags to the grid suites.
    """
    if cfg.suite == "coulomb":
        name = "coulomb"
    elif cfg.suite == "hardy" and cfg.radial:
        name = "hardy --radial"
    else:
        return
    for flag, unset in (("--N", cfg.N is None),
                        ("--offset", cfg.offset is None),
                        ("--scheme", cfg.scheme == "spectral_periodic")):
        if not unset:
            raise ValueError(f"{flag} does not apply to {name}, which runs "
                             "on the radial quadrature, not a grid")


def run_suite(cfg: SuiteConfig) -> tuple[int, dict]:
    """Execute the selected suites and assemble the versioned report."""
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    _refuse_grid_flags(cfg)
    names = [s for s in SUITES if s not in ("all",)] if cfg.suite == "all" \
        else [cfg.suite]
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
        with open(cfg.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["identity_id", "lhs_re", "lhs_im", "rhs_re",
                             "rhs_im", "abs_residual", "rel_residual", "tol",
                             "passed"])
            for rep in payload["reports"]:
                writer.writerow([rep["identity_id"], *rep["lhs"], *rep["rhs"],
                                 rep["abs_residual"], rep["rel_residual"],
                                 rep["tol"], rep["passed"]])


def write_refinement_csv(study: dict, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "h", "abs_residual", "rel_residual"])
        for row in study["rows"]:
            writer.writerow([row["N"], row["h"], row["abs_residual"],
                             row["rel_residual"]])
        writer.writerow(["fitted_order", study["fitted_order"], "", ""])


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--n", type=int, help="space dimension")
    parser.add_argument("--N", type=int, help="grid points per axis")
    parser.add_argument("--L", type=float, help="box half-width (default 12)")
    parser.add_argument("--offset", type=float,
                        help="grid offset as a fraction of the spacing")
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
    p_search.add_argument("--max-iters", type=int, default=40000)
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
    overrides = {k: getattr(args, k) for k in
                 ("n", "N", "L", "offset", "scheme", "tol", "trials", "dim",
                  "seed", "radial", "out", "csv")}
    overrides["suite"] = suite
    return SuiteConfig.from_sources(args.config, overrides)


def _cmd_verify(args) -> int:
    cfg = _config(args, args.suite)
    code, payload = run_suite(cfg)
    write_outputs(payload, cfg)
    if payload["failing"]:
        print("FAILING: " + ", ".join(payload["failing"]), file=sys.stderr)
    return code


def _cmd_search(args) -> int:
    opts = SearchOptions(max_iters=args.max_iters)
    if args.target == "nonattainment":
        quad = RadialQuadrature(n=_flag(args.n, 3), r_max=_flag(args.R, 1000.0),
                                points=_flag(args.points, 200000))
        r_values = (10.0, 100.0, min(1000.0, quad.r_max))
        rows = probe_nonattainment(quad, r_values)
        print(json.dumps({"rows": rows}, indent=2))
        reports = _nonattainment_reports(rows)
    else:
        if args.R is not None or args.points is not None:
            raise ValueError("--R and --points apply only to search "
                             "nonattainment")
        cfg = _config(args, "search")
        grid = _grid(cfg, _flag(cfg.n, 1), 256)
        runner = (minimize_sum_functional if args.target == "sum"
                  else minimize_product_functional)
        res = runner(grid, cfg.seed, opts)
        out = {"value": res.value, "target": float(grid.n),
               "iterations": res.iterations, "converged": res.converged,
               "fidelity": res.fidelity}
        if args.target == "product":
            out["lambda_est"] = res.lambda_est
        print(json.dumps(out, indent=2))
        reports = _minimizer_reports(args.target, res, grid,
                                     _flag(cfg.tol, SEARCH_TOL[grid.scheme]))
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
