"""Commutator and anticommutator sesquilinear forms of operator pairs.

The forms are evaluated through the images A@phi and B@phi only.  The checks
of :func:`pair_reports` take two complex vectors or two stacks of pairs of
them (a single pair is a stack of one), all pairs at once, and report the
worst pair per identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .complexspace import ALGEBRAIC_TOL, FIXED_ANGLES, phase_family
from .report import EqualityReport, compare, worst  # compare: perfbench reads it


@dataclass(frozen=True)
class PairSample:
    """A state seen through a symmetric operator pair: (A phi, B phi) and
    their scalar product ``inner_ab`` = (A phi | B phi)."""

    a_phi: Any
    b_phi: Any
    inner_ab: complex


def pair_reports(a_phi, b_phi, thetas: Sequence[float] = FIXED_ANGLES,
                 tol: float = ALGEBRAIC_TOL) -> list[EqualityReport]:
    """sr.*, form.* and sr.chain.* checks of the pairs, worst row per id.

    ``a_phi`` and ``b_phi`` are two vectors or two (N, d) stacks of row
    pairs.  The diagonal commutator form -2i Im (Aphi|Bphi) and the
    anticommutator form 2 Re (Aphi|Bphi) are twice the imaginary and real
    linear forms of :func:`phase_family`, whose rotated and aligned forms
    carry over; form.* recovers (Aphi|Bphi) and its conjugate from them, and
    sr.chain.* orders ||Aphi|| ||Bphi|| >= |(comm, anti)| / 2 >= |comm| / 2.
    """
    a, b, p, rhs = phase_family(a_phi, b_phi, thetas)
    ab, absp = a * b, np.hypot(p.real, p.imag)
    comm, anti = -2j * p.imag, 2.0 * p.real
    abs_comm = 2.0 * np.abs(p.imag)
    schrodinger = 0.5 * np.hypot(abs_comm, 2.0 * np.abs(p.real))
    robertson = 0.5 * abs_comm
    checks = {"sr.comm+": (2.0 * p.imag, 2.0 * rhs["im+"]),
              "sr.comm-": (-2.0 * p.imag, 2.0 * rhs["im-"]),
              "sr.anti+": (anti, 2.0 * rhs["re+"]),
              "sr.anti-": (-anti, 2.0 * rhs["re-"]),
              "sr.abs_quadrature": (absp, schrodinger),
              **{f"sr.abs_{key}": (absp, value) for key, value in rhs.items()
                 if key.startswith("rot")},
              "sr.abs_aligned": (absp, rhs["abs"]),
              "form.product_split": (p, 0.5 * anti - 0.5 * comm),
              "form.product_split_conj": (p.conj(), 0.5 * anti + 0.5 * comm)}
    return [*worst(list(checks), *zip(*checks.values()), tol, scale=ab),
            *worst(["sr.chain.schrodinger", "sr.chain.robertson"],
                   [schrodinger, robertson], [ab, schrodinger], tol, scale=ab,
                   inequality=True)]
