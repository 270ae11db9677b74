"""Residual reports for verified identities."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EqualityReport:
    """Outcome of evaluating both sides of one identity.

    ``rel_residual`` is ``abs_residual / max(|lhs|, |rhs|, scale, 1)`` so that
    identities whose both sides legitimately evaluate to zero do not blow up
    the normalization.  ``passed`` is ``rel_residual <= tol``.
    """

    identity_id: str
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    tol: float
    passed: bool
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self), "lhs": [float(self.lhs.real), float(self.lhs.imag)],
                "rhs": [float(self.rhs.real), float(self.rhs.imag)]}


def compare(identity_id: str, lhs: complex, rhs: complex, tol: float,
            scale: float = 0.0, context: dict | None = None) -> EqualityReport:
    """Report two evaluations of one quantity; a non-finite side fails it."""
    lhs, rhs = complex(lhs), complex(rhs)
    if cmath.isfinite(lhs) and cmath.isfinite(rhs):
        abs_res = abs(lhs - rhs)
        rel_res = abs_res / max(abs(lhs), abs(rhs), scale, 1.0)
    else:
        abs_res = rel_res = math.inf
    return EqualityReport(identity_id, lhs, rhs, abs_res, rel_res, tol,
                          rel_res <= tol, dict(context or {}))


def bound(identity_id: str, smaller: float, larger: float, tol: float,
          scale: float = 0.0, context: dict | None = None) -> EqualityReport:
    """Report for an inequality ``smaller <= larger``.

    The report stores the clamped violation as ``lhs`` against ``rhs = 0`` so
    the usual residual/pass semantics apply: the check passes when the
    inequality holds up to relative slack ``tol``.  A side that is not finite
    proves nothing, so it counts as an infinite violation.
    """
    smaller, larger = float(smaller), float(larger)
    if math.isfinite(smaller) and math.isfinite(larger):
        violation = max(0.0, smaller - larger)
        rel = violation / max(abs(smaller), abs(larger), scale, 1.0)
    else:
        violation = rel = math.inf
    ctx = dict(context or {})
    ctx.setdefault("smaller", smaller)
    ctx.setdefault("larger", larger)
    return EqualityReport(identity_id, complex(violation), 0.0 + 0.0j,
                          violation, rel, tol, rel <= tol, ctx)


def worst(ids: list[str], lhs, rhs, tol: float, scale=0.0,
          inequality: bool = False, context: dict | None = None
          ) -> list[EqualityReport]:
    """Per identity in ``ids``, the report of its first worst row.

    ``lhs``, ``rhs`` and ``scale`` broadcast to (len(ids), N rows); a list or
    tuple holds one entry per id, a scalar or a row array each.  Rows are
    ranked by the residual of :func:`compare` (of :func:`bound`, ``lhs`` the
    smaller side, if ``inequality``), a non-finite side first; that function
    builds the report, with ``context`` (an array entry: the row's entry)."""
    lhs, rhs, scale = (np.array(np.broadcast_arrays(*x))
                       if isinstance(x, (list, tuple)) else x
                       for x in (lhs, rhs, scale))
    lhs, rhs, scale = (x.reshape(len(ids), -1)
                       for x in np.broadcast_arrays(lhs, rhs, scale))
    def _abs(z):    # the bits of Python's abs, which np.abs of a complex lacks
        return np.hypot(z.real, z.imag) if z.dtype.kind == "c" else np.abs(z)
    with np.errstate(all="ignore"):
        gap = np.maximum(lhs - rhs, 0.0) if inequality else _abs(lhs - rhs)
        rel = gap / np.maximum(np.maximum(_abs(lhs), _abs(rhs)),
                               np.maximum(scale, 1.0))
    rel[~(np.isfinite(lhs) & np.isfinite(rhs))] = math.inf
    check = bound if inequality else compare
    return [check(name, lhs[k, i].item(), rhs[k, i].item(), tol,
                  scale=scale[k, i].item(),
                  context={key: val[i].item() if isinstance(val, np.ndarray) else val
                           for key, val in (context or {}).items()})
            for k, (name, i) in enumerate(zip(ids, np.argmax(rel, axis=-1)))]
