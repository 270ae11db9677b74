"""Residual reports for verified identities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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
        return {
            "identity_id": self.identity_id,
            "lhs": [float(self.lhs.real), float(self.lhs.imag)],
            "rhs": [float(self.rhs.real), float(self.rhs.imag)],
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "tol": self.tol,
            "passed": self.passed,
            "context": self.context,
        }


def compare(identity_id: str, lhs: complex, rhs: complex, tol: float,
            scale: float = 0.0, context: dict | None = None) -> EqualityReport:
    """Build a report comparing two evaluations of the same quantity."""
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_res = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs), scale, 1.0)
    rel_res = abs_res / denom
    return EqualityReport(
        identity_id=identity_id,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=rel_res,
        tol=tol,
        passed=rel_res <= tol,
        context=dict(context or {}),
    )


def bound(identity_id: str, smaller: float, larger: float, tol: float,
          scale: float = 0.0, context: dict | None = None) -> EqualityReport:
    """Report for an inequality ``smaller <= larger``.

    The report stores the clamped violation as ``lhs`` against ``rhs = 0`` so
    the usual residual/pass semantics apply: the check passes when the
    inequality holds up to relative slack ``tol``.  A side that is not finite
    proves nothing, so it counts as an infinite violation.
    """
    if math.isfinite(smaller) and math.isfinite(larger):
        violation = max(0.0, float(smaller) - float(larger))
        rel = violation / max(abs(smaller), abs(larger), scale, 1.0)
    else:
        violation = rel = math.inf
    ctx = dict(context or {})
    ctx.setdefault("smaller", float(smaller))
    ctx.setdefault("larger", float(larger))
    return EqualityReport(
        identity_id=identity_id,
        lhs=complex(violation),
        rhs=0.0 + 0.0j,
        abs_residual=violation,
        rel_residual=rel,
        tol=tol,
        passed=rel <= tol,
        context=ctx,
    )
