"""Tests of the benchmark's own arithmetic and wrapping.

    python3 -m pytest perfbench
"""

import json
import math
import os
import subprocess
import sys

import pytest

import checks
import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def span(name, start, end, parent, extra=None, outermost=True):
    return [name, start, end, parent, outermost, extra]


def nested_spans():
    # spherical_derivative -> radial_derivative -> fft, ifft; then an fft
    # directly under spherical_derivative.
    return [
        span("grids.spherical_derivative", 0.0, 10.0, -1),
        span("grids.radial_derivative", 1.0, 6.0, 0),
        span("numpy.fft.fft", 2.0, 3.0, 1, (8, 120.0, 256)),
        span("numpy.fft.ifft", 3.5, 5.0, 1, (8, 120.0, 256)),
        span("numpy.fft.fft", 7.0, 9.0, 0, (8, 120.0, 256)),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(nested_spans()) == [3.0, 2.5, 1.0, 1.5, 2.0]


def test_layer_metrics_of_nested_operators_and_ffts():
    m = spans.layer_metrics(nested_spans())
    assert m["grids.operator_calls"] == 2
    assert m["grids.operator_self_s"] == pytest.approx(5.5)
    assert m["grids.fft_calls"] == 3
    assert m["grids.fft_s"] == pytest.approx(4.5)
    assert m["grids.fft_points"] == 24
    assert m["grids.fft_flops_computed"] == 360.0
    assert m["grids.fft_bytes_computed"] == 768
    assert m["trace.spans"] == 5


def test_busy_time_counts_outermost_span_of_a_name_once():
    recorded = [
        span("gaussians.realize", 0.0, 4.0, -1),
        span("gaussians.realize", 1.0, 2.0, 0, outermost=False),
        span("gaussians.realize", 5.0, 6.0, -1),
    ]
    m = spans.layer_metrics(recorded)
    assert m["gaussians.realize_calls"] == 3
    assert m["gaussians.realize_s"] == pytest.approx(5.0)


def test_search_operator_applications_need_a_search_ancestor():
    recorded = [
        span("search.minimize_sum_functional", 0.0, 10.0, -1, 7),
        span("grids._GridQuantity.__add__", 1.0, 3.0, 0),
        span("grids.neg_laplacian", 1.5, 2.0, 1),
        span("grids.neg_laplacian", 4.0, 5.0, 0),
        span("grids.neg_laplacian", 11.0, 12.0, -1),
    ]
    m = spans.layer_metrics(recorded)
    assert m["search.operator_applications"] == 2
    assert m["search.iterations"] == 7
    assert m["search.minimize_self_s"] == pytest.approx(7.0)


def test_recorder_links_parents_and_closes_spans_on_error():
    rec = spans.Recorder()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_w = rec.wrap("leaf", leaf, extra=lambda a, k, r: r * 2)
    outer = rec.wrap("outer", lambda x: leaf_w(x) + leaf_w(x))
    assert outer(3) == 6
    with pytest.raises(ValueError):
        outer(-1)
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "leaf", "leaf", "outer", "leaf"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0, -1, 3]
    assert [s[5] for s in rec.spans[:3]] == [None, 6, 6]
    assert all(s[2] >= s[1] for s in rec.spans)
    own = spans.self_times(rec.spans)
    assert own[0] + own[1] + own[2] == pytest.approx(rec.spans[0][2] - rec.spans[0][1])


def test_fft_work_counts():
    np = pytest.importorskip("numpy")
    a = np.zeros((4, 8), dtype=np.complex128)
    out = np.fft.fft(a)
    assert spans.fft_work("fft", (a,), {}, out) == (32, 5.0 * 32 * 3, 1024)
    out = np.fft.fft(a, None, 0)
    assert spans.fft_work("fft", (a, None, 0), {}, out) == (32, 5.0 * 32 * 2, 1024)
    out = np.fft.fftn(a)
    assert spans.fft_work("fftn", (a,), {}, out) == (32, 5.0 * 32 * 5, 1024)
    r = np.zeros(8)
    out = np.fft.rfft(r)
    assert spans.fft_work("rfft", (r,), {}, out) == (8, 2.5 * 8 * 3, 64 + 5 * 16)


@pytest.mark.parametrize("n", range(1, 11))
def test_tail_percentile_needs_eleven_samples(n):
    assert checks.tail_percentile([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n", [11, 12, 19, 20, 21, 37, 100, 101, 250])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    p, value = checks.tail_percentile(samples)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= 10
    # One percentile higher leaves fewer than ten samples beyond.
    index = math.ceil((p + 1) * n / 100) - 1
    assert n - 1 - index < 10


def test_tail_percentile_examples():
    assert checks.tail_percentile([float(i) for i in range(11)]) == (9, 0.0)
    assert checks.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)


EXPECTED = {"ids": {"hardy.pythagoras": 1, "hardy.radial_shift": 1,
                    "hardy.chain.gradient": 1, "cs.rot+@*": 2}}


def rows(flags):
    ids = ["hardy.pythagoras", "hardy.radial_shift", "hardy.chain.gradient",
           "cs.rot+@0.000000", "cs.rot+@4.583562"]
    return [[i, ok, 1e-16 if ok else 1e-3, 1e-8] for i, ok in zip(ids, flags)]


def test_failed_fraction_when_a_suite_raises():
    raised = checks.check_config(EXPECTED, {"error": "ValueError: boom"})
    clean = checks.check_config(EXPECTED, {"error": None,
                                           "reports": rows([True] * 5)})
    assert raised["failing"] == raised["expected"] == 5
    assert "boom" in raised["error"] and raised["problem"] is None
    assert clean["failing"] == 0 and clean["error"] is clean["problem"] is None
    assert checks.failure_counts([raised, clean]) == (5, 10)


def test_wrong_id_set_fails_every_expected_id():
    short = rows([True] * 5)[:-1]
    result = checks.check_config(EXPECTED, {"error": None, "reports": short})
    assert result["failing"] == 5
    assert "cs.rot+@*" in result["problem"]


def test_failing_identity_is_counted_not_a_wrong_output():
    result = checks.check_config(EXPECTED, {"error": None, "reports":
                                            rows([True, False, True, True, True])})
    assert result["problem"] is None and result["error"] is None
    assert result["failing"] == 1
    assert result["failing_ids"] == ["hardy.radial_shift"]


def test_flag_must_agree_with_residual():
    bad = rows([True] * 5)
    bad[0][2] = 1.0
    result = checks.check_config(EXPECTED, {"error": None, "reports": bad})
    assert "disagrees" in result["problem"] and result["failing"] == 5


def test_accuracy_digits():
    assert checks.accuracy_digits([["a", True, 1e-7, 1.0],
                                   ["b", True, 1e-9, 1.0]]) == pytest.approx(7.0)
    assert checks.accuracy_digits([["a", True, 0.0, 1.0]]) == pytest.approx(17.0)


def test_wrappers_reach_every_namespace_and_none_remain_untraced():
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import spans\n"
        "import uncerteq.cli\n"
        "before = spans.find_wrappers()\n"
        "r = spans.Recorder(); spans.install_fft_wrappers(r)\n"
        "spans.install_uncerteq_wrappers(r)\n"
        "import numpy as np, uncerteq.grids as g, uncerteq.cli as c\n"
        "names = [getattr(m.compare, spans.MARK, None) for m in\n"
        "         (c, g, sys.modules['uncerteq.identities'],\n"
        "          sys.modules['uncerteq.complexspace'],\n"
        "          sys.modules['uncerteq.forms'])]\n"
        "print(json.dumps([before, spans.find_wrappers(), names,\n"
        "                  getattr(np.fft.fft, spans.MARK, None),\n"
        "                  getattr(c.RUNNERS['hardy'], spans.MARK, None)]))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script, HERE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    before, after, names, fft_name, runner = json.loads(out.stdout)
    assert before == []
    assert "report.compare" in after and "scipy.fft.rfftn" in after
    assert names == ["report.compare"] * 5
    assert fft_name == "numpy.fft.fft"
    assert runner == "cli.suite.hardy"


def test_times_at_reference_speed():
    # Scaled by the nominal kernel time over the mean of the kernel times
    # measured before and after the suites.
    nominal = reference.KERNEL_S
    assert reference.at_reference_speed(3.0, [nominal, nominal]) == pytest.approx(3.0)
    assert reference.at_reference_speed(3.0, [nominal, 3 * nominal]) == pytest.approx(1.5)
    assert reference.at_reference_speed(1.0, [nominal / 2] * 2) == pytest.approx(2.0)
