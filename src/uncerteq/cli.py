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

from . import __version__, grids, suites
from .identities import refinement_study  # also public as cli.refinement_study
from .report import EqualityReport, compare  # compare: perfbench reads it
from .suites import RUNNERS, SUITES


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
        suites._refuse_unread(suites._row(self.suite, self.radial),
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


def run_suite(cfg: SuiteConfig) -> tuple[int, dict]:
    """Execute the selected suites and assemble the versioned report."""
    names = list(RUNNERS) if cfg.suite == "all" else [cfg.suite]
    # Checked before any suite runs, so that verify all fails at once.
    if "hardy" in names and cfg.n is not None and cfg.n < 3:
        raise ValueError("the Hardy identities require dimension >= 3, "
                         f"got --n {cfg.n}")
    reports: list[EqualityReport] = []
    for name in names:
        row = suites._resolve(suites._row(name, cfg.radial), asdict(cfg))
        reports += suites._aggregate(RUNNERS[name](replace(cfg, **row)))
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
    suites._refuse_unread(command, {k: v for k, v in vars(args).items()
                                    if k not in ("command", "target")})
    given = suites._resolve(command, vars(args))
    if args.target == "nonattainment":
        out, reports = suites._probe(**given)
    else:
        cfg = _config(args, "search")   # fields from --config, checked too
        suites._refuse_unread(command, {**asdict(cfg), "suite": None})
        cfg = replace(cfg, **suites._resolve("search", asdict(cfg)))
        if given["max_iters"] < 1:
            raise ValueError("--max-iters must be at least 1; a search of no "
                             "iterations fails vacuously")
        out, reports = suites._minimize(args.target, cfg, given["max_iters"])
    print(json.dumps(out, indent=2))
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_refine(args) -> int:
    specs = [grids.GridSpec(n=args.n, N=N, L=args.L, offset=args.offset,
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
