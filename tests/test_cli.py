"""Tests for the command-line interface and report plumbing."""

import csv
import json
import subprocess
import sys

import pytest

from uncerteq import cli, identities
from uncerteq.cli import (SuiteConfig, main, refinement_study, run_suite,
                          write_refinement_csv)
from uncerteq.grids import GridSpec
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
@pytest.mark.parametrize("n", ["3", "4", "5", "6"])
def test_radial_suites_pass_in_every_dimension(suite, n, tmp_path):
    # The midpoint rule failed hardy --radial at n = 4 (3.3e-7 against 1e-8).
    out = tmp_path / "report.json"
    assert main(["verify", *suite, "--n", n, "--out", str(out)]) == 0
    payload = _load(out)
    assert {rep["context"]["radial"]["n"]
            for rep in payload["reports"]} == {int(n)}
    assert {rep["tol"] for rep in payload["reports"]} == {1e-8}


def test_run_hardy_verifies_each_grid_once(monkeypatch):
    calls = []
    verify_hardy = identities.verify_hardy

    def counting(psi, tol):
        calls.append(psi.grid.N)
        return verify_hardy(psi, tol)

    monkeypatch.setattr(cli.identities, "verify_hardy", counting)
    reports = cli.run_hardy(SuiteConfig(suite="hardy", N=64, L=8.0))
    assert calls == [32, 64]
    assert [r.identity_id for r in reports] == [
        "grad.pointwise_split", "hardy.chain.gradient",
        "hardy.chain.potential", "hardy.grid.value_lhs",
        "hardy.grid.value_rhs"]


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
    monkeypatch.setattr(cli, "minimize_sum_functional",
                        lambda grid, seed, opts: fake)
    assert main(["search", "sum"]) == 1
    assert json.loads(capsys.readouterr().out)["value"] == 0.99


def test_search_tolerance_follows_the_scheme(capsys):
    # central_diff_4 puts the discrete sum minimum 9.6e-6 below n: inside the
    # difference schemes' 1e-4, outside the spectral scheme's 1e-8.
    assert main(["search", "sum", "--scheme", "central_diff_4"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert 1e-8 < 1.0 - value <= 1e-4


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
    ["search", "nonattainment", "--points", "0"],
    ["verify", "dilation", "--n", "2", "--N", "32", "--L", "8"],
    ["verify", "appendix", "--dim", "1"],
    ["search", "sum", "--R", "40"],
    ["verify", "coulomb", "--trials", "1", "--N", "7", "--scheme",
     "central_diff_2"],
    ["verify", "hardy", "--radial", "--trials", "1", "--offset", "0.5"],
    ["search", "nonattainment", "--R", "100"],
    ["search", "nonattainment", "--R", "60"],
])
def test_zero_and_out_of_range_flags_are_usage_errors(argv, capsys):
    # A 0 is a value, not a request for the suite default.
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [["coulomb"], ["hardy", "--radial"]])
@pytest.mark.parametrize("flag", [["--N", "64"], ["--offset", "0.25"],
                                  ["--scheme", "central_diff_4"]])
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
_GRID = ("tol", "n", "N", "L", "offset", "scheme")
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
    ("search", "nonattainment"): ("n", "R", "points"),
}
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


@pytest.mark.parametrize("command, field, route", _pairs(read=False))
def test_a_flag_the_command_does_not_read_is_a_usage_error(
        command, field, route, tmp_path, monkeypatch, capsys):
    assert main(_argv(command, field, route, tmp_path, monkeypatch)) == 2
    flag = "--" + field.replace("_", "-")
    assert f"error: {flag} does not apply to" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, route", _pairs(read=True))
def test_a_flag_the_command_reads_is_accepted(command, field, route, tmp_path,
                                              monkeypatch, capsys):
    # The check runs before any suite; stubs stand in for the suites.
    for suite in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, suite, lambda cfg: [])
    monkeypatch.setattr(cli, "_minimize", lambda target, cfg, max_iters: ({}, []))
    monkeypatch.setattr(cli, "_probe", lambda n, R, points: ({}, []))
    assert main(_argv(command, field, route, tmp_path, monkeypatch)) == 0
    assert capsys.readouterr().err == ""


def test_verify_all_reads_every_suite_field():
    assert set(cli.READS["all"][1]) == set().union(*(
        cli.READS[row][1] for row in (*cli.RUNNERS, "hardy --radial")))


def test_vector_dimension_below_two_names_the_flag():
    # The appendix and section2 draw dimensions from [2, dim]; a config file
    # reaches the same check as the flag.
    with pytest.raises(ValueError, match="--dim"):
        SuiteConfig(suite="appendix", dim=1)


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
    code = main(["search", "nonattainment", "--R", "1100",
                 "--points", "120000"])
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


def test_refine_command(tmp_path, capsys):
    table = tmp_path / "refine.csv"
    code = main(["refine", "pm.trace", "--N", "128", "--N", "256",
                 "--N", "512", "--csv", str(table)])
    assert code == 0
    study = json.loads(capsys.readouterr().out)
    assert 1.7 <= study["fitted_order"] <= 2.3
    assert table.exists()
