"""Commutator and anticommutator sesquilinear forms for an operator pair.

The forms are evaluated through the images A@phi and B@phi only, so the
module is agnostic to where the vectors live: plain complex vectors and
gridded states both work, as long as they expose ``inner``, ``norm`` and
linear arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from .complexspace import (DEFAULT_TOL, ExtremizerFlags, FIXED_ANGLES,
                           classify_saturation, phase_family)
from .report import EqualityReport, compare


@dataclass(frozen=True)
class PairSample:
    """A state seen through a symmetric operator pair: (A phi, B phi).

    ``inner_ab`` is the scalar product (A phi | B phi); it is recomputed at
    construction from the vectors when not supplied.
    """

    a_phi: Any
    b_phi: Any
    inner_ab: complex

    @classmethod
    def from_vectors(cls, a_phi, b_phi) -> "PairSample":
        return cls(a_phi=a_phi, b_phi=b_phi,
                   inner_ab=complex(a_phi.inner(b_phi)))

    @property
    def norm_a(self) -> float:
        return self.a_phi.norm()

    @property
    def norm_b(self) -> float:
        return self.b_phi.norm()


def commutator_form(s: PairSample) -> complex:
    """Diagonal of the commutator form: purely imaginary, -2i Im (Aphi|Bphi)."""
    return -2j * s.inner_ab.imag


def anticommutator_form(s: PairSample) -> float:
    """Diagonal of the anticommutator form: real, 2 Re (Aphi|Bphi)."""
    return 2.0 * s.inner_ab.real


def decomposition_check(s: PairSample,
                        tol: float = DEFAULT_TOL) -> tuple[EqualityReport, EqualityReport]:
    """Recover (Aphi|Bphi) and (Bphi|Aphi) from the two forms."""
    comm = commutator_form(s)
    anti = anticommutator_form(s)
    p = complex(s.a_phi.inner(s.b_phi))
    scale = s.norm_a * s.norm_b
    r1 = compare("form.product_split", p, 0.5 * anti - 0.5 * comm, tol,
                 scale=scale)
    r2 = compare("form.product_split_conj", p.conjugate(),
                 0.5 * anti + 0.5 * comm, tol, scale=scale)
    return r1, r2


def _combo_norm(s: PairSample):
    def combo(alpha: complex, beta: complex) -> float:
        w = alpha * s.a_phi + beta * s.b_phi
        return w.norm()
    return combo


def sr_equalities(s: PairSample, thetas: Sequence[float] = FIXED_ANGLES,
                  tol: float = DEFAULT_TOL) -> list[EqualityReport]:
    """Evaluate the uncertainty equalities for the pair sample.

    Covers the signed commutator and anticommutator norm forms, the
    quadrature identity |(Aphi|Bphi)| = (|comm|^2 + |anti|^2)^{1/2} / 2, the
    theta-rotated quadrature family, and the sign-aligned form.  Norms of
    vector combinations are computed from the actual vectors, independently
    of the scalar product value on the left sides.
    """
    a = s.norm_a
    b = s.norm_b
    if a == 0.0 or b == 0.0:
        raise ValueError("A phi and B phi must both be nonzero")
    p = s.inner_ab
    comm = commutator_form(s)
    anti = anticommutator_form(s)
    ab = a * b
    combo = _combo_norm(s)

    def unit_combo_sq(phase: complex) -> float:
        w = combo(1.0 / a, phase / b)
        return w * w

    # The Cauchy-Schwarz family of the pair (A phi, B phi): the signed
    # commutator and anticommutator forms are twice its imaginary and real
    # linear forms; the rotated and aligned forms carry over unchanged.
    rhs = phase_family(a, b, p, unit_combo_sq, thetas)
    reports = [
        compare("sr.comm+", (1j * comm).real, 2.0 * rhs["im+"], tol, scale=ab),
        compare("sr.comm-", (-1j * comm).real, 2.0 * rhs["im-"], tol, scale=ab),
        compare("sr.anti+", anti, 2.0 * rhs["re+"], tol, scale=ab),
        compare("sr.anti-", -anti, 2.0 * rhs["re-"], tol, scale=ab),
        compare("sr.abs_quadrature", abs(p),
                0.5 * math.hypot(abs(comm), abs(anti)), tol, scale=ab),
    ]
    reports += [compare(f"sr.abs_{key}", abs(p), value, tol, scale=ab)
                for key, value in rhs.items() if key.startswith("rot")]
    reports.append(compare("sr.abs_aligned", abs(p), rhs["abs"], tol, scale=ab))
    return reports


@dataclass(frozen=True)
class InequalityChain:
    """Product of norms and its two classical lower bounds."""

    product: float
    schrodinger_bound: float
    robertson_bound: float


def sr_inequality_chain(s: PairSample) -> InequalityChain:
    """||Aphi|| ||Bphi|| >= quadrature bound >= commutator bound."""
    comm = commutator_form(s)
    anti = anticommutator_form(s)
    return InequalityChain(
        product=s.norm_a * s.norm_b,
        schrodinger_bound=0.5 * math.hypot(abs(comm), abs(anti)),
        robertson_bound=0.5 * abs(comm),
    )


def extremizer_parts(s: PairSample, tol: float = DEFAULT_TOL) -> ExtremizerFlags:
    """Five-part saturation classification for the pair (A phi, B phi).

    The part conditions expressed through the commutator and anticommutator
    forms reduce exactly to the vector-pair conditions on (A phi, B phi), so
    the shared classifier applies verbatim.
    """
    return classify_saturation(s.norm_a, s.norm_b, s.inner_ab,
                               _combo_norm(s), tol)
