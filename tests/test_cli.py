"""Tests for the command-line interface and report plumbing."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from typing import Optional

import numpy as np
import pytest

from uncerteq import cli, complexspace, grids, identities, suites
from uncerteq.cli import (SuiteConfig, _check_type, main, refinement_study,
                          run_suite, write_refinement_csv)
from uncerteq.complexspace import (cs_equality_residuals, default_angles,
                                   extremizer_class, random_vector)
from uncerteq.forms import PairSample, pair_reports
from uncerteq.gaussians import GaussianSpec, realize
from uncerteq.grids import MAX_POINTS, GridSpec
from uncerteq.radial import MAX_DIMENSION
from uncerteq.report import bound, compare
from uncerteq.search import SearchResult


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_config_defaults_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 7, "dim": 9}))
    cfg = SuiteConfig.from_sources(str(cfg_path), {"dim": 4, "seed": None})
    assert cfg.trials == 7      # from the file
    assert cfg.dim == 4         # flag override wins
    assert cfg.seed == 0        # untouched default


def test_unknown_config_keys_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trals": 7}))
    with pytest.raises(ValueError):
        SuiteConfig.from_sources(str(cfg_path), {})
    # The radial suites take no range or point count.
    cfg_path.write_text(json.dumps({"R": 40.0, "points": 20000}))
    with pytest.raises(ValueError, match="unknown config keys"):
        SuiteConfig.from_sources(str(cfg_path), {})


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="everything"))


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # Every CLI call pays for what importing the CLI loads.  The radial rule
    # is computed with numpy, so a radial suite does not load scipy.special.
    code = ("import os, sys, uncerteq.cli; "
            "print(uncerteq.cli.__file__); print('scipy.ndimage' in sys.modules); "
            "code = uncerteq.cli.main(['verify', 'coulomb', '--trials', '1', "
            "'--out', os.devnull]); "
            "print(code, 'scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == [cli.__file__, "False", "0 False"]


def test_suites_run_without_scipy():
    # The program needs numpy alone: with scipy unimportable, a grid suite and
    # a radial suite still run and pass.
    code = ("import os, sys; sys.modules['scipy'] = None; import uncerteq.cli; "
            "print(*(uncerteq.cli.main([*args, '--out', os.devnull]) for args in "
            "(['verify', 'hardy', '--N', '64', '--L', '8'], "
            "['verify', 'coulomb', '--trials', '2'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0", "0"]


def test_verify_appendix_exits_clean(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "appendix", "--trials", "40", "--dim", "8",
                 "--out", str(out)])
    assert code == 0
    payload = _load(out)
    assert payload["schema"] == 1
    assert payload["failing"] == []
    assert payload["header"]["config"]["trials"] == 40
    ids = [rep["identity_id"] for rep in payload["reports"]]
    assert ids == sorted(ids)
    assert any(i.startswith("cs.") for i in ids)
    assert all(rep["passed"] for rep in payload["reports"])


def test_report_body_is_deterministic_for_fixed_seed(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["verify", "section2", "--trials", "20", "--dim", "6", "--seed", "4"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    a = _load(out_a)
    b = _load(out_b)
    for payload in (a, b):
        del payload["header"]["timestamp"]
        del payload["header"]["config"]["out"]
    assert a == b


def _bodies_on_one_and_two_blas_threads(tmp_path, *args):
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"{args[0]}_{threads}.json"
        subprocess.run([sys.executable, "-m", "uncerteq.cli", "verify", *args,
                        "--out", str(out)], check=True, capture_output=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        payload = _load(out)
        del payload["header"]
        bodies.append(payload)
    return bodies


def test_hardy_grid_body_does_not_depend_on_blas_threads(tmp_path):
    # The grid Hardy sums are numpy's own reductions.  The np.vecdot norms
    # they replaced went to BLAS, whose threaded dot changed the body: at the
    # defaults value_lhs read 3.55e-15 on one thread and 1.48e-15 on two.
    one, two = _bodies_on_one_and_two_blas_threads(tmp_path, "hardy", "--N", "48",
                                                   "--L", "8")
    assert one == two


@pytest.mark.parametrize("suite", ["momentum-position", "dilation"])
def test_grid_suite_bodies_do_not_depend_on_blas_threads(suite, tmp_path):
    # inner and norm_sq sum in real arithmetic through numpy's reductions.
    # Through np.vecdot, BLAS threaded the dot on these 32^3 rows, and
    # pm.kennard_saturation read 1.48e-16 on one thread and 1.04e-15 on two.
    one, two = _bodies_on_one_and_two_blas_threads(
        tmp_path, suite, "--n", "3", "--N", "32", "--L", "7", "--trials", "3")
    assert one == two


def test_verify_momentum_position_with_csv(tmp_path):
    out = tmp_path / "report.json"
    table = tmp_path / "residuals.csv"
    code = main(["verify", "momentum-position", "--trials", "5",
                 "--out", str(out), "--csv", str(table)])
    assert code == 0
    with open(table) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "identity_id"
    assert len(rows) > 1


def test_verify_hardy_radial_fast_path(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "hardy", "--n", "3", "--radial", "--trials", "5",
                 "--out", str(out)])
    assert code == 0
    payload = _load(out)
    ids = {rep["identity_id"] for rep in payload["reports"]}
    assert "hardy.pythagoras" in ids
    assert all(rep["rel_residual"] <= 1e-8 for rep in payload["reports"])


@pytest.mark.parametrize("suite", [["hardy", "--radial"], ["coulomb"]])
@pytest.mark.parametrize("n", ["3", "4", "5", "6", "100", str(MAX_DIMENSION)])
def test_radial_suites_pass_in_every_dimension(suite, n, tmp_path):
    # The midpoint rule failed hardy --radial at n = 4 (3.3e-7 against 1e-8).
    # At n = 343 the worst over seeds 0-5 is radcoul.sym_norm 2.0e-13 and
    # hardy.scaling_shift 1.9e-15.
    out = tmp_path / "report.json"
    assert main(["verify", *suite, "--n", n, "--out", str(out)]) == 0
    payload = _load(out)
    assert {rep["context"]["radial"]["n"]
            for rep in payload["reports"]} == {int(n)}
    # The Gauss-Laguerre rule is exact: 6.3e-15 at worst over 3,000 seeds.
    assert {rep["tol"] for rep in payload["reports"]} == {complexspace.ALGEBRAIC_TOL}


def test_run_hardy_verifies_each_grid_once(monkeypatch):
    calls = []
    verify_hardy = identities.verify_hardy

    def counting(psi, tol):
        calls.append(psi.space.N)
        return verify_hardy(psi, tol)

    monkeypatch.setattr(identities, "verify_hardy", counting)
    _, payload = run_suite(SuiteConfig(suite="hardy", N=64, L=8.0))
    # One grid: the lattice term corrects its 1/|x|^2 sum to rounding level
    # (1.3e-9 with a Richardson step on a control grid at the defaults).
    assert calls == [64]
    assert [r["identity_id"] for r in payload["reports"]] == [
        "grad.pointwise_split", "hardy.chain.gradient",
        "hardy.chain.potential", "hardy.grid.value_lhs",
        "hardy.grid.value_rhs"]
    rhs = payload["reports"][-1]
    assert rhs["rel_residual"] <= 1e-13
    assert rhs["context"]["lattice_term"] == grids.lattice_zeta(3, 0.5)


def test_verify_hardy_runs_at_its_defaults_in_four_dimensions(tmp_path):
    # The default L = 12 with N = 32 failed the guard at n = 4 (exit 2).
    out = tmp_path / "report.json"
    assert main(["verify", "hardy", "--n", "4", "--out", str(out)]) == 0
    reports = _load(out)["reports"]
    assert {(rep["context"]["grid"]["N"], rep["context"]["grid"]["L"])
            for rep in reports} == {(32, 7.0)}
    assert all(rep["passed"] for rep in reports)


def test_run_coulomb_memory_is_bounded_by_the_stack_cap():
    # Stacks of at most complexspace.STACK_ENTRIES node values (1,024 states
    # of 32 nodes): the traced peak at 20,000 trials per dimension measured
    # 6.1 MB, against 114 MB with one stack per dimension, whose values alone
    # take 20,001 * 32 * 16 B = 10.2 MB.  Bound: 10 MB.
    cfg = SuiteConfig(suite="coulomb", trials=20000, tol=1e-8)
    suites.run_coulomb(SuiteConfig(suite="coulomb", trials=1, tol=1e-8))  # rules
    tracemalloc.start()
    try:
        reports = suites.run_coulomb(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reports)
    assert peak < 10e6


def _pm_alone(phi, tol):
    """verify_position_momentum on one state in Python scalars, as it was
    written before it took stacks."""
    xphi, gphi = grids.position(phi), grids.gradient(phi)
    a, b = xphi.norm(), gphi.norm()
    ctx = {"grid": phi.space.to_dict()}
    lhs, p, ab = phi.space.n * phi.norm_sq(), xphi.inner(gphi), a * b
    sum_hat = (1.0 / a) * xphi + (1.0 / b) * gphi
    aligned = (1.0 / a) * xphi - (p / abs(p) / b) * gphi
    return [compare("pm.trace", lhs, -2.0 * p.real, tol, context=ctx),
            compare("pm.sum_norm", lhs, ab * (2.0 - sum_hat.norm_sq()), tol,
                    context=ctx),
            compare("pm.expansion", lhs, a * a + b * b - (xphi + gphi).norm_sq(),
                    tol, context=ctx),
            compare("pm.schrodinger", abs(p), ab * (1.0 - 0.5 * aligned.norm_sq()),
                    tol, scale=ab, context=ctx)]


def _dilation_alone(phi, tol):
    """verify_dilation_pythagoras and verify_dilation_hamiltonian on one
    state in Python scalars, as they were written before they took stacks."""
    n, ctx = phi.space.n, {"grid": phi.space.to_dict()}
    d = grids.x_dot_grad(phi)
    gap = (d + (0.5 * n) * phi).norm_sq()
    a_phi, b_phi = grids.dilation_generator(phi), grids.neg_laplacian(phi)
    a, b = a_phi.norm(), b_phi.norm()
    grad_sq = grids.gradient(phi).norm_sq()
    lhs, p = 2.0 * grad_sq, a_phi.inner(b_phi)
    combo = (1.0 / a) * a_phi + (1j / b) * b_phi
    return [compare("dil.pythagoras", d.norm_sq(),
                    gap + (0.5 * n) ** 2 * phi.norm_sq(), tol,
                    context={**ctx, "gap": gap}),
            compare("dilham.energy", lhs, 2.0 * b_phi.inner(phi), tol, context=ctx),
            compare("dilham.commutator", lhs, -2.0 * p.imag, tol, context=ctx),
            compare("dilham.sum_norm", lhs, a * b * (2.0 - combo.norm_sq()), tol,
                    scale=a * b, context=ctx),
            bound("dilham.grad_bound", grad_sq, a * b, tol, context=ctx)]


def _grid_oracle(cfg):
    """The grid suite's reports from its states verified one at a time, in
    the Python scalars of the per-state verifiers, each state drawn as a
    stack of one; momentum-position's two Gaussian rows are its own."""
    grid = GridSpec(cfg.n, cfg.N, cfg.L, cfg.offset)
    rng = np.random.default_rng(cfg.seed)
    verify = _pm_alone if cfg.suite == "momentum-position" else _dilation_alone
    reports = []
    for _ in range(cfg.trials):
        stack = identities.random_smooth_state(grid, rng, states=1)
        reports += verify(grids.StateField(grid, stack.data[0]), cfg.tol)
    return suites._aggregate(reports)


@pytest.mark.parametrize("suite", ["momentum-position", "dilation"])
@pytest.mark.parametrize("flags", [
    *({"seed": seed} for seed in range(5)),
    {"n": 2, "N": 48, "L": 9.0},
    {"n": 3, "N": 32, "L": 7.0},     # a stack would hold one state: one per draw
    {"trials": 300, "seed": 3},     # stacks of 128, 128 and 44 states
])
def test_stacked_grid_suites_match_the_per_state_loop(suite, flags):
    cfg = SuiteConfig(suite=suite, **flags)
    cfg = replace(cfg, **suites._resolve(suite, asdict(cfg)))
    reports = suites._aggregate(cli.RUNNERS[suite](cfg))
    assert [rep for rep in reports if rep.identity_id not in (
        "pm.kennard_saturation", "pm.coherent_alignment")] == _grid_oracle(cfg)


@pytest.mark.parametrize("suite", ["momentum-position", "dilation"])
def test_grid_suite_memory_is_bounded_by_the_stack_cap(suite):
    # Stacks of at most complexspace.STACK_ENTRIES grid values (128 states at
    # N = 256).  The traced peak measured 3.7 MB (momentum-position) and
    # 3.2 MB (dilation), about seven stack-sized arrays, at 128, 1,000 and
    # 3,000 trials; one state at a time it grew with the trials, 0.3 MB at
    # 128 to 2.0-2.7 MB at 1,000 and 6.0-7.9 MB at 3,000.
    stack_bytes = complexspace.STACK_ENTRIES * 16
    run = cli.RUNNERS[suite]
    peaks = []
    for trials in (1, 128, 1000):
        cfg = SuiteConfig(suite=suite, trials=trials)
        cfg = replace(cfg, **suites._resolve(suite, asdict(cfg)))
        tracemalloc.start()
        try:
            reports = run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(rep.passed for rep in reports)
    assert peaks[2] < 10 * stack_bytes
    assert peaks[2] - peaks[1] < stack_bytes / 4


def test_verify_search_at_small_lambda_start():
    # The product minimizer converges to lambda ~ 0.245 from this seed, too
    # wide for realize's boundary guard on the default box.
    code, payload = run_suite(SuiteConfig(suite="search", seed=8000028))
    assert code == 0
    assert len(payload["reports"]) == 6


def test_search_command_uses_the_suite_checks(monkeypatch, capsys):
    # A value below the target passed the old one-sided rule.
    fake = SearchResult(state=None, value=0.99, iterations=1, converged=True,
                        fidelity=1.0)
    monkeypatch.setattr(suites, "minimize_sum_functional",
                        lambda grid, seed, opts: fake)
    assert main(["search", "sum"]) == 1
    assert json.loads(capsys.readouterr().out)["value"] == 0.99


def test_search_command_reads_the_config_file(tmp_path, capsys):
    # N=7 is odd, which the spectral scheme refuses: a usage error.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 7}))
    assert main(["search", "sum", "--config", str(cfg_path)]) == 2
    assert "even point count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "hardy", "--radial", "--n", "0", "--trials", "1"],
    ["verify", "appendix", "--trials", "0"],
    ["search", "nonattainment", "--n", "2"],
    ["search", "nonattainment", "--R", "0"],
    ["search", "nonattainment", "--n", "0"],
    ["verify", "dilation", "--n", "2", "--N", "32", "--L", "8"],
    ["verify", "appendix", "--dim", "1"],
    ["search", "sum", "--R", "40"],
    ["verify", "coulomb", "--trials", "1", "--N", "7"],
    ["verify", "hardy", "--radial", "--trials", "1", "--offset", "0.5"],
    ["search", "nonattainment", "--R", "100"],
    ["search", "nonattainment", "--R", "60"],
    # A tolerance of inf passed everything, NaN or below 0 failed everything.
    ["verify", "appendix", "--tol", "inf"],
    ["verify", "appendix", "--tol", "nan"],
    ["verify", "appendix", "--tol", "-1"],
    ["verify", "momentum-position", "--L", "nan"],
    ["verify", "momentum-position", "--L", "inf"],
    ["search", "nonattainment", "--R", "inf"],
    ["search", "nonattainment", "--R", "nan"],
    ["verify", "hardy", "--n", "1"],
    # A cap below 1 ran no iteration and failed search.*.value.
    ["search", "sum", "--max-iters", "0"],
    ["search", "product", "--max-iters", "-5"],
])
def test_zero_and_out_of_range_flags_are_usage_errors(argv, capsys):
    # A 0 is a value, not a request for the suite default.
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, says", [
    (["verify", "section2", "--tol", "inf"], "--tol must be finite"),
    (["search", "sum", "--tol", "-1"], "--tol must be finite"),
    (["verify", "dilation", "--L", "nan"], "half-width must be finite"),
    (["search", "nonattainment", "--R", "inf"], "radius must be finite"),
    # No N makes a grid fit the Hardy identities below n = 3.
    (["verify", "hardy", "--n", "2"], "require dimension >= 3, got --n 2"),
    # numpy's "expected non-negative integer" named no flag.
    (["verify", "appendix", "--seed", "-1"], "--seed must be at least 0, got -1"),
])
def test_an_out_of_range_value_names_what_it_breaks(argv, says, capsys):
    assert main(argv) == 2
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("n, r_max, largest", [("103", 1000, 102),
                                               ("110", 1000, 102),
                                               ("200", 100, 154)])
def test_nonattainment_names_the_largest_n_its_weights_allow(n, r_max, largest,
                                                            capsys):
    # The log rule's weights carry r^n: at n = 110 and 200 they overflowed,
    # rho printed NaN and the command exited 0.
    assert main(["search", "nonattainment", "--n", n]) == 2
    assert (f"at r_max = {r_max}: the largest n is {largest}"
            in capsys.readouterr().err)


def test_nonattainment_at_the_largest_n_passes(capsys):
    assert main(["search", "nonattainment", "--n", "102"]) == 0
    rhos = [row["rho"] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert rhos[0] > rhos[1] > rhos[2] > 1.0


@pytest.mark.parametrize("n, says", [("5", "grid exceeds the 2^24 point cap")])
def test_tensor_grid_hardy_usage_errors_name_the_radial_rule(n, says, capsys):
    # The default N = 32 is over the 2^24-point cap at n = 5; the radial
    # rule needs no grid.
    assert main(["verify", "hardy", "--n", n]) == 2
    err = capsys.readouterr().err
    assert says in err and f"verify hardy --radial --n {n}" in err


@pytest.mark.parametrize("n", ["344", str(10 ** 6)])
@pytest.mark.parametrize("command", [["verify", "coulomb"],
                                     ["verify", "hardy", "--radial"],
                                     ["search", "nonattainment"]])
def test_radial_rules_name_their_largest_dimension(command, n, capsys):
    # Gamma(n/2) in the sphere's area overflows from n = 344 on, which was
    # an OverflowError traceback (exit 1).
    assert main([*command, "--n", n]) == 2
    assert "largest supported dimension is 343" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "2"])
def test_verify_all_refuses_a_hardy_dimension_before_any_suite_runs(
        n, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "RUNNERS", {
        name: lambda cfg, name=name: ran.append(name) or []
        for name in cli.RUNNERS})
    assert main(["verify", "all", "--n", n]) == 2
    assert ran == []
    assert f"require dimension >= 3, got --n {n}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [["coulomb"], ["hardy", "--radial"]])
@pytest.mark.parametrize("flag", [["--N", "64"], ["--offset", "0.25"],
                                  ["--L", "3"]])
def test_radial_suites_name_the_grid_flag_they_refuse(suite, flag, capsys):
    # These suites build no grid; recording the flag would describe a
    # configuration that never ran.
    assert main(["verify", *suite, "--trials", "1", *flag]) == 2
    err = capsys.readouterr().err
    assert flag[0] in err and "radial quadrature" in err


@pytest.mark.parametrize("R", ["100", "60"])
def test_nonattainment_radius_that_stops_the_radii_increasing_names_it(R, capsys):
    # The probe's radii are 10, 100 and min(1000, R); R = 100 probed 100
    # twice and passed "decreasing" on a zero gap.
    assert main(["search", "nonattainment", "--R", R]) == 2
    assert "--R must exceed 100" in capsys.readouterr().err


# The fields (flags) each command reads, as in the README's CLI table.
# Every other flag the command's parser takes, and every other config key,
# is a usage error that names the flag.
_VERIFY = ("seed", "out", "csv", "config")
_GRID = ("tol", "n", "N", "L", "offset")
READ_FLAGS = {
    ("verify", "appendix"): ("tol", "trials", "dim", *_VERIFY),
    ("verify", "section2"): ("tol", "trials", "dim", *_VERIFY),
    ("verify", "momentum-position"): (*_GRID, "trials", *_VERIFY),
    ("verify", "dilation"): (*_GRID, "trials", *_VERIFY),
    # --radial selects between the two hardy rows.
    ("verify", "hardy"): (*_GRID, "radial", *_VERIFY),
    ("verify", "hardy", "--radial"): ("tol", "trials", "n", "radial", *_VERIFY),
    ("verify", "coulomb"): ("tol", "trials", "n", *_VERIFY),
    ("verify", "search"): (*_GRID, *_VERIFY),
    ("verify", "all"): (*_GRID, "trials", "dim", "radial", *_VERIFY),
    ("search", "sum"): (*_GRID, "max_iters", "seed", "config"),
    ("search", "product"): (*_GRID, "max_iters", "seed", "config"),
    ("search", "nonattainment"): ("n", "R"),
}
# No command but refine reads scheme: verify and search have no --scheme
# flag and no scheme config key.  No command reads points: the probe's
# annuli are integrated on exact rules, so it has no node count to set.
_NO_PARSER = ("scheme", "points")
_VALUES = {"n": 3, "N": 64, "L": 8.0, "offset": 0.25,
           "scheme": "central_diff_4", "tol": 1e-9, "trials": 2, "dim": 4,
           "seed": 1, "radial": True, "out": "r.json", "csv": "r.csv",
           "config": "cfg.json", "max_iters": 10, "R": 500.0, "points": 1000}
_SEARCH_ONLY = ("max_iters", "R", "points")


def _pairs(read):
    """(command, field, route) cases: each field by flag and by config file."""
    for command, reads in READ_FLAGS.items():
        for field in _VALUES:
            if command[0] == "verify" and field in _SEARCH_ONLY:
                continue    # not a flag of verify's parser
            if (field in reads) != read:
                continue
            routes = ["flag"]
            if "config" in reads and field not in (*_SEARCH_ONLY, "config"):
                routes.append("config")
            for route in routes:
                yield pytest.param(command, field, route,
                                   id=" ".join((*command, field, route)))


def _argv(command, field, route, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = {field: _VALUES[field]} if route == "config" else {}
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    if route == "config":
        return [*command, "--config", "cfg.json"]
    value = _VALUES[field]
    return [*command, "--" + field.replace("_", "-"),
            *([] if value is True else [str(value)])]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:   # argparse refuses a flag the parser lacks
        return exc.code


@pytest.mark.parametrize("command, field, route", _pairs(read=False))
def test_a_flag_the_command_does_not_read_is_a_usage_error(
        command, field, route, tmp_path, monkeypatch, capsys):
    assert _exit_code(_argv(command, field, route, tmp_path, monkeypatch)) == 2
    err = capsys.readouterr().err
    if field in _NO_PARSER:
        assert (f"unrecognized arguments: --{field}" in err
                or f"unknown config keys: ['{field}']" in err)
    else:
        flag = "--" + field.replace("_", "-")
        assert f"error: {flag} does not apply to" in err


@pytest.mark.parametrize("command, field, route", _pairs(read=True))
def test_a_flag_the_command_reads_is_accepted(command, field, route, tmp_path,
                                              monkeypatch, capsys):
    # The check runs before any suite; stubs stand in for the suites.
    for suite in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, suite, lambda cfg: [])
    monkeypatch.setattr(suites, "_minimize", lambda target, cfg, max_iters: ({}, []))
    monkeypatch.setattr(suites, "_probe", lambda n, R: ({}, []))
    assert main(_argv(command, field, route, tmp_path, monkeypatch)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, route", [
    pytest.param(command, route, id=" ".join((*command, route)))
    for command in [("verify", "momentum-position"), ("verify", "dilation"),
                    ("verify", "hardy"), ("verify", "search"),
                    ("verify", "all"), ("search", "sum"), ("search", "product")]
    for route in ("flag", "config")])
def test_only_refine_takes_a_scheme(command, route, tmp_path, monkeypatch,
                                    capsys):
    # The grid suites and the search always run the spectral scheme; a
    # difference scheme there failed their identities at the defaults.
    argv = _argv(command, "scheme", route, tmp_path, monkeypatch)
    assert _exit_code(argv) == 2
    assert "scheme" in capsys.readouterr().err


def test_verify_all_reads_every_suite_field():
    assert set(suites.TABLE["all"].reads) == set().union(*(
        suites.TABLE[row].reads for row in (*cli.RUNNERS, "hardy --radial")))


def test_vector_dimension_below_two_names_the_flag():
    # The appendix and section2 draw dimensions from [2, dim]; a config file
    # reaches the same check as the flag.
    with pytest.raises(ValueError, match="--dim"):
        SuiteConfig(suite="appendix", dim=1)


def test_vector_dimension_above_the_point_cap_names_the_flag():
    # A pair of 10^9 entries asked for about 30 GB and ended in numpy's
    # memory error with exit 1; the cap refuses it before any allocation.
    assert SuiteConfig(suite="appendix", dim=MAX_POINTS).dim == 2 ** 24
    with pytest.raises(ValueError, match=r"--dim must be at most 2\^24"):
        SuiteConfig(suite="section2", dim=MAX_POINTS + 1)


@pytest.mark.parametrize("suite", ["appendix", "section2"])
def test_vector_dimension_above_the_point_cap_is_a_usage_error(suite, capsys):
    assert main(["verify", suite, "--dim", "1000000000", "--trials", "1"]) == 2
    assert ("--dim must be at most 2^24 = 16777216, the grid's point cap"
            in capsys.readouterr().err)


_WRONG_TYPES = [({"dim": 3.5}, "int or null"), ({"trials": 2.5}, "int or null"),
                ({"dim": "8"}, "int or null"), ({"seed": 1.5}, "int"),
                ({"tol": "1e-3"}, "float or null"), ({"dim": True}, "int or null"),
                ({"tol": False}, "float or null"), ({"radial": 1}, "bool or null"),
                ({"out": 5}, "str or null"), ({"seed": None}, "int")]


@pytest.mark.parametrize("data, kind", _WRONG_TYPES)
def test_config_value_of_the_wrong_type_names_the_key(data, kind, tmp_path):
    # Each was a TypeError traceback with exit 1, or (seed null) a run on an
    # unseeded generator; {"dim": true} was refused only because True < 2.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    (key,) = data
    with pytest.raises(ValueError, match=f"config key '{key}' must be {kind}, got"):
        SuiteConfig.from_sources(str(cfg_path), {"suite": "appendix"})


def test_config_values_of_their_field_type_are_taken(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tol": 1, "L": 8, "N": 64, "radial": False,
                                    "seed": 3, "dim": None, "out": "r.json"}))
    cfg = SuiteConfig.from_sources(str(cfg_path), {"suite": "hardy"})
    assert (cfg.tol, cfg.L, cfg.N, cfg.radial, cfg.seed, cfg.dim, cfg.out) == (
        1, 8, 64, False, 3, None, "r.json")


def test_config_type_check_reads_resolved_type_hints():
    # Any annotation form resolves to the same check: Optional, a union
    # written with |, and a parametrized generic by its origin.
    for hint, value in ((Optional[int], None), (int | None, 3), (float, 2),
                        (list[str], ["a"])):
        _check_type("k", hint, value)
    for hint, value in ((Optional[int], 1.0), (int, True), (list[str], "a")):
        with pytest.raises(ValueError, match="config key 'k' must be"):
            _check_type("k", hint, value)


@pytest.mark.parametrize("data, kind", _WRONG_TYPES[:5])
def test_config_value_of_the_wrong_type_is_a_usage_error(data, kind, tmp_path,
                                                         capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["verify", "appendix", "--config", str(cfg_path)]) == 2
    (key,) = data
    assert f"error: config key '{key}' must be {kind}" in capsys.readouterr().err


def test_zero_tolerance_is_kept(tmp_path):
    out = tmp_path / "report.json"
    main(["verify", "section2", "--trials", "3", "--dim", "4", "--tol", "0",
          "--out", str(out)])
    payload = _load(out)
    assert payload["header"]["config"]["tol"] == 0.0
    assert {rep["tol"] for rep in payload["reports"]} == {0.0}


def test_verify_coulomb_covers_both_dimensions(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "coulomb", "--trials", "3", "--out", str(out)])
    assert code == 0
    payload = _load(out)
    assert payload["failing"] == []
    dims = {rep["context"]["radial"]["n"] for rep in payload["reports"]
            if "radial" in rep["context"]}
    assert dims == {3, 5}


@pytest.mark.parametrize("text", ["5", "null", '"abc"', "[1, 2]"])
def test_config_file_that_is_not_an_object_is_a_usage_error(text, tmp_path,
                                                            capsys):
    # 5 and null were TypeError tracebacks (exit 1); "abc" reported the
    # unknown config keys ['a', 'b', 'c'].
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["verify", "appendix", "--config", str(cfg_path)]) == 2
    assert (f"error: config file {cfg_path} must hold a JSON object of flag "
            f"values, got {json.dumps(json.loads(text))}"
            in capsys.readouterr().err)


def test_config_file_that_is_not_json_names_the_file(tmp_path, capsys):
    # The decoder's message alone named no file.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{")
    assert main(["verify", "appendix", "--config", str(cfg_path)]) == 2
    assert (f"error: {cfg_path} is not valid JSON: Expecting "
            "property name" in capsys.readouterr().err)


def test_bad_config_path_is_usage_error(capsys):
    code = main(["verify", "appendix", "--config", "/nonexistent/cfg.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_drives_verify(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    cfg_path.write_text(json.dumps({"trials": 10, "dim": 5,
                                    "out": str(out)}))
    code = main(["verify", "appendix", "--config", str(cfg_path)])
    assert code == 0
    assert _load(out)["header"]["config"]["dim"] == 5


def test_search_nonattainment_command(capsys):
    code = main(["search", "nonattainment", "--R", "1100"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    rhos = [row["rho"] for row in payload["rows"]]
    assert rhos[0] > rhos[1] > rhos[2] > 1.0


def test_search_sum_command(capsys):
    code = main(["search", "sum", "--N", "256", "--seed", "3",
                 "--max-iters", "20000"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] <= 1.0 + 1e-4
    assert payload["fidelity"] >= 0.999


def test_refinement_study_requires_three_grids():
    specs = [GridSpec(n=1, N=N, L=12.0, scheme="central_diff_2")
             for N in (64, 128)]
    with pytest.raises(ValueError):
        refinement_study("pm.trace", specs)
    mixed = [GridSpec(n=1, N=64, L=12.0, scheme="central_diff_2"),
             GridSpec(n=1, N=128, L=12.0, scheme="central_diff_4"),
             GridSpec(n=1, N=256, L=12.0, scheme="central_diff_2")]
    with pytest.raises(ValueError):
        refinement_study("pm.trace", mixed)
    ok = [GridSpec(n=1, N=N, L=12.0, scheme="central_diff_2")
          for N in (64, 128, 256)]
    with pytest.raises(ValueError):
        refinement_study("dil.pythagoras", ok)


@pytest.mark.parametrize("identity", ["pm.bogus", "pm.kennard_saturation"])
def test_refine_refuses_an_unknown_id_before_building_a_grid(
        identity, monkeypatch, capsys):
    # Each grid was built and verified before a KeyError traceback (exit 1).
    grid = GridSpec(n=1, N=64, L=12.0)
    ids = [r.identity_id for r in identities.verify_position_momentum(
        realize(GaussianSpec("coherent"), grid))]

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(identities, "realize", no_grid)
    assert main(["refine", identity, "--N", "64", "--N", "128",
                 "--N", "256"]) == 2
    assert (f"error: unsupported identity {identity!r} for refinement; it "
            f"takes {', '.join(ids)}" in capsys.readouterr().err)


def test_refine_refuses_repeated_spacings(capsys):
    # Three copies of one grid fit an order to noise, not to a refinement.
    assert main(["refine", "pm.trace", "--N", "128", "--N", "128",
                 "--N", "128"]) == 2
    assert "distinct spacings" in capsys.readouterr().err


def test_refinement_study_finds_second_order(tmp_path):
    specs = [GridSpec(n=1, N=N, L=12.0, scheme="central_diff_2")
             for N in (128, 256, 512)]
    study = refinement_study("pm.trace", specs)
    assert 1.7 <= study["fitted_order"] <= 2.3
    path = tmp_path / "refine.csv"
    write_refinement_csv(study, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "h", "abs_residual", "rel_residual"]
    assert rows[-1][0] == "fitted_order"


def test_refine_reads_the_scheme(capsys):
    assert main(["refine", "pm.trace", "--scheme", "central_diff_4", "--N", "64",
                 "--N", "128", "--N", "256"]) == 0
    assert 3.7 <= json.loads(capsys.readouterr().out)["fitted_order"] <= 4.3


def test_refine_command(tmp_path, capsys):
    table = tmp_path / "refine.csv"
    code = main(["refine", "pm.trace", "--N", "128", "--N", "256",
                 "--N", "512", "--csv", str(table)])
    assert code == 0
    study = json.loads(capsys.readouterr().out)
    assert 1.7 <= study["fitted_order"] <= 2.3
    assert table.exists()


def _oracle(suite, seed, trials, dim):
    """The suite's reports from stacks of one pair, one pair at a time, with
    the sr.chain.* bounds formed here from the pair's norms and product.

    The draws are those of the suite: default_angles, then per pair its
    dimension and two random_vector calls.
    """
    rng = np.random.default_rng(seed)
    angles = default_angles(rng)
    tol = complexspace.ALGEBRAIC_TOL
    reports = []
    for _ in range(trials):
        d = int(rng.integers(2, dim + 1))
        u, v = random_vector(rng, d), random_vector(rng, d)
        if suite == "appendix":
            reports += cs_equality_residuals(u, v, angles=angles, tol=tol)
            extremizer_class(u, v, tol)
            continue
        reports += [rep for rep in pair_reports(u, v, angles, tol)
                    if not rep.identity_id.startswith("sr.chain.")]
        s = PairSample.from_vectors(u, v)
        product, p = s.norm_a * s.norm_b, s.inner_ab
        comm, anti = 2.0 * abs(p.imag), 2.0 * abs(p.real)
        schrodinger, robertson = 0.5 * np.hypot(comm, anti), 0.5 * comm
        reports += [bound("sr.chain.schrodinger", schrodinger, product, tol,
                          scale=product),
                    bound("sr.chain.robertson", robertson, schrodinger, tol,
                          scale=product)]
    return suites._aggregate(reports)


def _close(x, y):
    return abs(x - y) <= 1e-15 * max(abs(x), abs(y))


@pytest.mark.parametrize("suite, seed, trials, dim", [
    ("appendix", 0, None, None), ("appendix", 1, None, None),
    ("section2", 0, None, None), ("section2", 1, None, None),
    # Multi-stack runs: at most 2**15 // 4096 = 8 pairs per stack.
    ("appendix", 0, 40, 4096), ("section2", 1, 40, 4096),
])
def test_batched_suites_match_a_pair_by_pair_oracle(suite, seed, trials, dim):
    cfg = SuiteConfig(suite=suite, seed=seed, trials=trials, dim=dim)
    trials = trials or {"appendix": 1000, "section2": 200}[suite]
    code, payload = run_suite(cfg)
    oracle = _oracle(suite, seed, trials, dim or 32)
    assert [r["identity_id"] for r in payload["reports"]] == [
        r.identity_id for r in oracle]
    assert [r["passed"] for r in payload["reports"]] == [r.passed for r in oracle]
    assert payload["failing"] == [r.identity_id for r in oracle if not r.passed]
    assert code == 0
    for got, want in zip(payload["reports"], oracle):
        want = want.to_dict()
        for side in ("lhs", "rhs"):
            assert all(_close(x, y) for x, y in zip(got[side], want[side])), got
        assert abs(got["rel_residual"] - want["rel_residual"]) <= 1e-15
        assert got["context"].keys() == want["context"].keys()
        assert all(_close(got["context"][k], want["context"][k])
                   for k in got["context"])


def test_vector_pairs_come_in_bounded_stacks_of_the_suite_draws():
    cfg = SuiteConfig(suite="appendix", trials=40, dim=4096)
    stacks = list(suites._vector_pairs(cfg, np.random.default_rng(5)))
    assert [len(u) for u, v in stacks] == [8] * 5
    rng = np.random.default_rng(5)
    u, v = (np.concatenate(x) for x in zip(*stacks))
    for i in range(40):
        d = int(rng.integers(2, 4097))
        assert (u[i, :d] == random_vector(rng, d).entries).all()
        assert (v[i, :d] == random_vector(rng, d).entries).all()
        assert not u[i, d:].any() and not v[i, d:].any()


@pytest.mark.parametrize("argv, flag", [
    (["verify", "coulomb", "--dim", "1"], "--dim"),
    (["verify", "hardy", "--trials", "0"], "--trials"),
    (["search", "sum", "--trials", "0"], "--trials"),
])
def test_an_unread_flag_is_refused_before_its_range_check(argv, flag, capsys):
    # The suite never reads the flag, so its range does not matter.
    assert main(argv) == 2
    assert f"error: {flag} does not apply to" in capsys.readouterr().err


@pytest.mark.parametrize("suite, ids, former", [
    ("momentum-position", ("pm.kennard_saturation", "pm.coherent_alignment"), 1e-6),
    ("dilation", ("dilham.commutator", "dilham.energy", "dilham.grad_bound",
                  "dilham.sum_norm"), 1e-7),
])
@pytest.mark.parametrize("tol", [None, 1e-12, 1e-3])
def test_an_explicit_tol_reaches_every_id(suite, ids, former, tol):
    # ``ids`` once reported the looser tolerance ``former`` while --tol was
    # unset; now every id reports the suite's tolerance, or --tol.
    _, payload = run_suite(SuiteConfig(suite=suite, trials=1, tol=tol))
    tols = {r["identity_id"]: r["tol"] for r in payload["reports"]}
    assert set(ids) <= set(tols)
    assert set(tols.values()) == {identities.GRID_TOL if tol is None else tol}
    assert former not in tols.values()


@pytest.mark.parametrize("row", ["appendix", "section2", "momentum-position",
                                 "dilation", "hardy", "hardy --radial",
                                 "coulomb", "search"])
def test_the_table_is_what_runs(row):
    # Every non-None default of the row, given explicitly, runs the same
    # suite as none given.
    suite, _, radial = row.partition(" --")
    explicit = {k: v for k, v in suites.TABLE[row].reads.items() if v is not None}

    def body(**fields):
        cfg = SuiteConfig(suite=suite, radial=bool(radial) or None, **fields)
        code, payload = run_suite(cfg)
        return code, json.dumps([payload["reports"], payload["failing"]])

    assert body(**explicit) == body()
