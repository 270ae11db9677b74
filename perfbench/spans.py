"""Tracing from outside the program: wrappers, spans and per-layer metrics.

``install_fft_wrappers`` runs before ``import uncerteq`` and wraps the
transform entry points of ``numpy.fft`` and ``scipy.fft``;
``install_uncerteq_wrappers`` runs after it and wraps every public function
of each uncerteq module plus the field, vector and quadrature methods named
in ``METHODS``.  Every namespace that bound an original (``from .report
import compare`` in five modules, ``cli.RUNNERS``) is repointed at its
wrapper.  Each wrapped call records one span ``[name, start, end, parent,
outermost, extra]`` in memory; ``layer_metrics`` reduces the spans of one
pass to the per-layer figures.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

MARK = "__perfbench_span__"

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")

# (module, class, methods) wrapped in addition to the public functions.
METHODS = (
    ("grids", "_GridQuantity", ("__init__", "inner", "norm", "norm_sq",
                                "__add__", "__sub__", "__mul__", "__rmul__",
                                "__truediv__")),
    ("radial", "RadialQuadrature", ("integrate",)),
    ("radial", "RadialState", ("__init__",)),
    ("complexspace", "ComplexVector", ("__init__",)),
    ("forms", "PairSample", ("__init__",)),
)

GRID_OPERATORS = tuple("grids." + name for name in (
    "gradient", "position", "momentum", "x_dot_grad", "dilation_generator",
    "neg_laplacian", "radial_derivative", "radial_derivative_sym", "coulomb",
    "spherical_derivative", "pointwise_gradient_decomposition"))
SEARCH_MINIMIZERS = ("search.minimize_sum_functional",
                     "search.minimize_product_functional")
SUITES = ("appendix", "section2", "momentum-position", "dilation", "hardy",
          "coulomb", "search")


class Recorder:
    """In-memory span list shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, extra=None):
        """Wrap ``fn`` so each call appends a span named ``name``.

        ``extra(args, kwargs, result)`` may attach a number or tuple to the
        span after the call returns (work counts such as FFT points).
        """
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], depth[name] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                stack.pop()
                span[2] = clock()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper


def fft_work(kind: str, args, kwargs, out) -> tuple[int, float, int]:
    """Computed (points, flops, bytes) of one transform call.

    Points are the logical transform size.  Flops are 5 N log2 N per 1-D
    transform of length N times the batch, halved for real transforms;
    summed over the axes of an n-D transform that is 5 size log2(prod N).
    Bytes are the input read once plus the output written once, 16 B per
    complex point.  These are computed from shapes, not measured.
    """
    import numpy as np

    a = np.asarray(args[0])
    logical = a.shape if kind in ("rfft", "rfftn") else out.shape
    if kind.endswith("n"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        axes = range(len(logical)) if axes is None else axes
    else:
        axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    size = math.prod(logical)
    length = math.prod(logical[ax] for ax in axes)
    flops = 5.0 * size * math.log2(length) if length > 1 else 0.0
    if "rfft" in kind:
        flops *= 0.5
    return size, flops, int(a.nbytes + out.nbytes)


def install_fft_wrappers(recorder: Recorder) -> None:
    import importlib

    for mod_name in FFT_MODULES:
        module = importlib.import_module(mod_name)
        for kind in FFT_NAMES:
            fn = getattr(module, kind)
            setattr(module, kind, recorder.wrap(
                f"{mod_name}.{kind}", fn, functools.partial(fft_work, kind)))


def _field_bytes(args, kwargs, result):
    return args[0].data.nbytes


def _points(args, kwargs, result):
    return len(args[1])


def _iterations(args, kwargs, result):
    return result.iterations


EXTRAS = {
    "grids._GridQuantity.__init__": _field_bytes,
    "radial.RadialQuadrature.integrate": _points,
    "search.minimize_sum_functional": _iterations,
    "search.minimize_product_functional": _iterations,
}


def _uncerteq_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "uncerteq" or name.startswith("uncerteq.")]


def install_uncerteq_wrappers(recorder: Recorder) -> None:
    """Wrap the program after ``import uncerteq.cli``."""
    import inspect

    originals = {}
    for module in _uncerteq_modules():
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            name = f"{module.__name__.removeprefix('uncerteq.')}.{attr}"
            originals[id(value)] = recorder.wrap(name, value, EXTRAS.get(name))
    for short, cls_name, methods in METHODS:
        cls = getattr(sys.modules[f"uncerteq.{short}"], cls_name)
        for meth in methods:
            name = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, recorder.wrap(name, vars(cls)[meth],
                                             EXTRAS.get(name)))

    for module in _uncerteq_modules():
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    cli = sys.modules["uncerteq.cli"]
    for suite, fn in list(cli.RUNNERS.items()):
        cli.RUNNERS[suite] = recorder.wrap(f"cli.suite.{suite}", fn)


def find_wrappers() -> list[str]:
    """Names of wrapped callables reachable from the program's namespaces.

    Empty in a timed pass.  Covers the uncerteq modules, ``cli.RUNNERS``,
    the wrapped class methods and the FFT entry points of any FFT module
    already imported.
    """
    found = []
    for module in _uncerteq_modules():
        found += [getattr(v, MARK) for v in vars(module).values()
                  if hasattr(v, MARK)]
    cli = sys.modules.get("uncerteq.cli")
    if cli is not None:
        found += [getattr(v, MARK) for v in cli.RUNNERS.values()
                  if hasattr(v, MARK)]
    for short, cls_name, methods in METHODS:
        cls = getattr(sys.modules.get(f"uncerteq.{short}"), cls_name, None)
        found += [getattr(vars(cls)[m], MARK) for m in methods
                  if cls is not None and hasattr(vars(cls).get(m), MARK)]
    for mod_name in FFT_MODULES:
        module = sys.modules.get(mod_name)
        if module is not None:
            found += [getattr(getattr(module, k), MARK) for k in FFT_NAMES
                      if hasattr(getattr(module, k, None), MARK)]
    return sorted(set(found))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans: list[list], index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    A ``_self_s`` metric sums self times; any other ``_s`` metric sums the
    full duration of the outermost span of each name, so a layer's busy
    time includes the layers it calls.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    extra = defaultdict(list)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_s[name] += own[i]
        if s[4]:
            total[name] += s[2] - s[1]
        if s[5] is not None:
            extra[name].append(s[5])

    def names(prefixes):
        return [n for n in calls if n.startswith(prefixes)]

    def count(ns):
        return float(sum(calls[n] for n in ns))

    def busy(ns):
        return sum(total[n] for n in ns)

    def own_time(ns):
        return sum(self_s[n] for n in ns)

    ffts = [f"{m}.{k}" for m in FFT_MODULES for k in FFT_NAMES]
    fft_work_rows = [w for n in ffts for w in extra[n]]
    verifiers = names(("identities.verify_",))
    inner = [f"grids._GridQuantity.{m}" for m in ("inner", "norm", "norm_sq")]
    arith = [f"grids._GridQuantity.{m}" for m in
             ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__")]
    field_init = ["grids._GridQuantity.__init__"]
    integrate = ["radial.RadialQuadrature.integrate"]
    checks = ["report.compare", "report.bound"]
    search_ops = sum(1 for i, s in enumerate(spans)
                     if s[0] == "grids.neg_laplacian"
                     and _under(spans, i, SEARCH_MINIMIZERS))

    out = {f"cli.suite_s.{suite}": busy([f"cli.suite.{suite}"])
           for suite in SUITES}
    out.update({
        "identities.verify_calls": count(verifiers),
        "identities.verify_self_s": own_time(verifiers),
        "identities.random_state_s": busy(["identities.random_smooth_state"]),
        "grids.fft_calls": count(ffts),
        "grids.fft_points": float(sum(w[0] for w in fft_work_rows)),
        "grids.fft_s": busy(ffts),
        "grids.fft_bytes_computed": float(sum(w[2] for w in fft_work_rows)),
        "grids.fft_flops_computed": float(sum(w[1] for w in fft_work_rows)),
        "grids.operator_calls": count(GRID_OPERATORS),
        "grids.operator_self_s": own_time(GRID_OPERATORS),
        "grids.field_constructions": count(field_init),
        "grids.field_bytes_computed": float(sum(extra[field_init[0]])),
        "grids.field_construct_s": busy(field_init),
        "grids.inner_calls": count(inner),
        "grids.inner_s": busy(inner),
        "grids.arith_calls": count(arith),
        "grids.arith_s": busy(arith),
        "gaussians.realize_calls": count(["gaussians.realize"]),
        "gaussians.realize_s": busy(["gaussians.realize"]),
        "radial.integrate_calls": count(integrate),
        "radial.points_integrated": float(sum(extra[integrate[0]])),
        "radial.integrate_s": busy(integrate),
        "radial.state_constructions": count(["radial.RadialState.__init__"]),
        "search.iterations": float(sum(extra[SEARCH_MINIMIZERS[0]])
                                   + sum(extra[SEARCH_MINIMIZERS[1]])),
        "search.operator_applications": float(search_ops),
        "search.minimize_self_s": own_time(SEARCH_MINIMIZERS),
        "search.probe_s": busy(["search.probe_nonattainment"]),
        "complexspace.vector_constructions":
            count(["complexspace.ComplexVector.__init__"]),
        "complexspace.cs_residuals_s":
            busy(["complexspace.cs_equality_residuals"]),
        "complexspace.extremizer_class_s":
            busy(["complexspace.extremizer_class"]),
        "forms.pair_samples": count(["forms.PairSample.__init__"]),
        "forms.sr_equalities_s": busy(["forms.sr_equalities"]),
        "forms.decomposition_s": busy(["forms.decomposition_check"]),
        "report.checks": count(checks),
        "report.check_s": busy(checks),
        "trace.spans": float(len(spans)),
    })
    return out


def unit_of(metric: str) -> str:
    """Unit of a ``layer_metrics`` entry, read from its name."""
    field = metric.split(".")[1]
    if field.endswith("_s"):
        return "s"
    if field.endswith("bytes_computed"):
        return "B"
    if field.endswith("flops_computed"):
        return "flop"
    return "count"


def top_self_times(spans: list[list], limit: int = 12) -> list[tuple]:
    """(name, calls, self seconds) of the span names with most self time."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        self_s[s[0]] += own[i]
    ranked = sorted(self_s, key=self_s.get, reverse=True)[:limit]
    return [(n, calls[n], self_s[n]) for n in ranked]
