"""Commutator and anticommutator sesquilinear forms for an operator pair.

The forms are evaluated through the images A@phi and B@phi only.  The checks
of :func:`pair_reports` take complex vectors or stacks of pairs of them, all
pairs at once, and report the worst pair per identity; the chain and the
classification of a :class:`PairSample` also take gridded states, through
``inner``, ``norm`` and linear arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .complexspace import (DEFAULT_TOL, ExtremizerFlags, FIXED_ANGLES,
                           classify_saturation, phase_family)
from .report import EqualityReport, compare, worst  # compare: re-exported


@dataclass(frozen=True)
class PairSample:
    """A state seen through a symmetric operator pair: (A phi, B phi).

    ``inner_ab`` is the scalar product (A phi | B phi), a required field;
    :meth:`from_vectors` computes it from the two vectors.
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
    return tuple(rep for rep in pair_reports(s.a_phi, s.b_phi, (), tol)
                 if rep.identity_id.startswith("form."))


def sr_equalities(s: PairSample, thetas: Sequence[float] = FIXED_ANGLES,
                  tol: float = DEFAULT_TOL) -> list[EqualityReport]:
    """The sr.* equalities of :func:`pair_reports` for one pair: the signed
    commutator and anticommutator forms, |(Aphi|Bphi)| = (|comm|^2 +
    |anti|^2)^{1/2} / 2 and its theta-rotated and sign-aligned forms."""
    return [rep for rep in pair_reports(s.a_phi, s.b_phi, thetas, tol)
            if not rep.identity_id.startswith(("form.", "sr.chain."))]


@dataclass(frozen=True)
class InequalityChain:
    """Product of norms and its two classical lower bounds."""

    product: float
    schrodinger_bound: float
    robertson_bound: float


def _chain(product, p) -> InequalityChain:
    comm, anti = 2.0 * np.abs(np.imag(p)), 2.0 * np.abs(np.real(p))
    return InequalityChain(product, 0.5 * np.hypot(comm, anti), 0.5 * comm)


def sr_inequality_chain(s: PairSample) -> InequalityChain:
    """||Aphi|| ||Bphi|| >= quadrature bound >= commutator bound."""
    return _chain(s.norm_a * s.norm_b, s.inner_ab)


def pair_reports(a_phi, b_phi, thetas: Sequence[float] = FIXED_ANGLES,
                 tol: float = DEFAULT_TOL) -> list[EqualityReport]:
    """sr.*, form.* and sr.chain.* checks of the pairs, worst row per id.

    ``a_phi`` and ``b_phi`` are two vectors or two (N, d) stacks of row
    pairs.  The commutator and anticommutator forms are twice the imaginary
    and real linear forms of :func:`phase_family`, whose rotated and aligned
    forms carry over; form.* recovers (Aphi|Bphi) and its conjugate.
    """
    a, b, p, rhs = phase_family(a_phi, b_phi, thetas)
    ab, absp = a * b, np.hypot(p.real, p.imag)
    comm, anti = -2j * p.imag, 2.0 * p.real
    chain = _chain(ab, p)
    checks = {"sr.comm+": (2.0 * p.imag, 2.0 * rhs["im+"]),
              "sr.comm-": (-2.0 * p.imag, 2.0 * rhs["im-"]),
              "sr.anti+": (anti, 2.0 * rhs["re+"]),
              "sr.anti-": (-anti, 2.0 * rhs["re-"]),
              "sr.abs_quadrature": (absp, chain.schrodinger_bound),
              **{f"sr.abs_{key}": (absp, value) for key, value in rhs.items()
                 if key.startswith("rot")},
              "sr.abs_aligned": (absp, rhs["abs"]),
              "form.product_split": (p, 0.5 * anti - 0.5 * comm),
              "form.product_split_conj": (p.conj(), 0.5 * anti + 0.5 * comm)}
    return [*worst(list(checks), *zip(*checks.values()), tol, scale=ab),
            *worst(["sr.chain.schrodinger", "sr.chain.robertson"],
                   [chain.schrodinger_bound, chain.robertson_bound],
                   [ab, chain.schrodinger_bound], tol, scale=ab,
                   inequality=True)]


def extremizer_parts(s: PairSample, tol: float = DEFAULT_TOL) -> ExtremizerFlags:
    """Five-part saturation classification for the pair (A phi, B phi).

    The part conditions expressed through the commutator and anticommutator
    forms reduce exactly to the vector-pair conditions on (A phi, B phi), so
    the shared classifier applies verbatim.
    """
    return classify_saturation(
        s.norm_a, s.norm_b, s.inner_ab,
        lambda alpha, beta: (alpha * s.a_phi + beta * s.b_phi).norm(), tol)
