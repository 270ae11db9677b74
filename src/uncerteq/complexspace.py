"""Complex scalar-product vectors and the exact algebraic equality layer.

Everything here is finite-dimensional and pure: vectors with the standard
sesquilinear product (linear in the first slot, antilinear in the second),
the Cauchy-Schwarz-type equality family and the five-part saturation
classification.  Both take a whole (N, d) stack of zero-padded pairs at
once (the CLI stacks at most max(1, STACK_ENTRIES // d) pairs); the family
reports only the worst pair of each identity, and the classification flags
every pair.  A single pair is a stack of one and gives the same bits.
The stacks are validated once and worked on as real and imaginary (d, N)
planes.  From REDUCE_ROWS pairs the planes are C-contiguous, entry-major,
and a row sum reduces over the outer axis, which numpy does as N-wide adds
in entry order, strictly left to right.  A shorter stack keeps its rows
contiguous and accumulates each in place in the same order, so the bits do
not depend on N or on zero padding.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .report import EqualityReport, compare, worst  # compare: perfbench reads it

ALGEBRAIC_TOL = 1e-12
# Entries per working array: phases at once here, pairs per stack in the CLI.
STACK_ENTRIES = 2 ** 15

# Fixed angles cover the degenerate phase rotations (multiples of pi/2 and a
# generic irrational-like value); random ones are appended by default_angles.
FIXED_ANGLES = (0.0, math.pi / 4, math.pi / 2, 2.0, math.pi)


class InternalConsistencyError(RuntimeError):
    """Clauses of an equivalence part disagree beyond the allowed factor.

    The parts are mathematically equivalent clause sets, so a disagreement
    signals a bug in the evaluation, never a property of the input.
    """


class ComplexVector:
    """Immutable finite complex vector with the standard scalar product."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("entries must be a non-empty 1-D sequence")
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
        arr.setflags(write=False)
        self.entries = arr

    def inner(self, other: "ComplexVector") -> complex:
        return complex(_norms_and_product(*_planes(self, other))[2][0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __mul__(self, scalar) -> "ComplexVector":
        return ComplexVector(self.entries * complex(scalar))

    __rmul__ = __mul__


def random_vector(rng: np.random.Generator, dim: int) -> ComplexVector:
    """Rotation-invariant random vector, not normalized: i.i.d.
    standard-normal re/im parts."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ComplexVector(z)


def default_angles(rng: np.random.Generator) -> list[float]:
    """The fixed special angles, then 8 drawn uniformly from [0, 2 pi)."""
    return [*FIXED_ANGLES, *map(float, rng.uniform(0.0, 2 * math.pi, 8))]


def _stacks(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors, or two (N, d) stacks of row vectors, as 2-D arrays."""
    u, v = (np.atleast_2d(np.asarray(getattr(x, "entries", x), np.complex128))
            for x in (u, v))
    if (u.shape != v.shape or u.ndim != 2 or u.size == 0
            or not (np.isfinite(u).all() and np.isfinite(v).all())):
        raise ValueError(f"entries must be finite, non-empty and of one shape, "
                         f"got shapes {u.shape} and {v.shape}")
    return u, v


# Stack height from which a row sum reduces over the outer axis; a lower
# stack accumulates in place.  The reduce runs one N-wide inner loop per
# entry, so it loses to the accumulate's d-long loops below about 6 rows
# (appendix + section2 kernels at --dim 2048-16384, N = 16 down to 2, on a
# 2-vCPU VM).
REDUCE_ROWS = 6


def _planes(u, v) -> tuple[np.ndarray, np.ndarray]:
    """The stacks of :func:`_stacks`, each copied once into a (2, d, N) array
    of its real and imaginary planes: C-contiguous, so entry-major, for the
    outer-axis reduce of :func:`_row_sum`, and row-major in memory below
    REDUCE_ROWS pairs, so that its accumulate runs along contiguous rows."""
    u, v = _stacks(u, v)
    if len(u) >= REDUCE_ROWS:
        return np.array((u.real.T, u.imag.T)), np.array((v.real.T, v.imag.T))
    return (np.array((u.real, u.imag)).transpose(0, 2, 1),
            np.array((v.real, v.imag)).transpose(0, 2, 1))


def _row_sum(x: np.ndarray) -> np.ndarray:
    # Sums over the entry axis (-2) strictly left to right, so trailing zeros
    # leave the bits unchanged and a padded row sums as the bare vector does.
    # Over the outer of two axes, numpy adds N-wide rows in entry order and
    # writes no partial sums.  A short stack accumulates in place instead,
    # in the same order, along the contiguous rows _planes gives it; with
    # N = 1 the reduce would also drop that axis and sum the d contiguous
    # entries pairwise, which moves bits.
    if x.shape[-1] >= REDUCE_ROWS:
        return np.add.reduce(x, axis=-2)
    return np.add.accumulate(x, axis=-2, out=x)[..., -1, :]


def _norms_and_product(u: np.ndarray, v: np.ndarray):
    """||u||, ||v|| and (u|v) of each row pair of two (2, d, N) stacks, in
    real arithmetic, holding few (d, N) products at a time."""
    (ur, ui), (vr, vi) = u, v

    def dot(x, y, z, w, combine=np.add):    # row sums of x y + z w (or -)
        s = x * y
        return _row_sum(combine(s, z * w, out=s))

    return (np.sqrt(dot(ur, ur, ui, ui)), np.sqrt(dot(vr, vr, vi, vi)),
            dot(ur, vr, ui, vi) + 1j * dot(ui, vr, ur, vi, np.subtract))


def phase_family(u, v, angles: Sequence[float] = FIXED_ANGLES):
    """Norms a, b, product p and Cauchy-Schwarz right sides, row by row.

    ``u`` and ``v`` are two vectors or two (N, d) stacks of row pairs.  Right
    sides use explicit combinations, t(w) = 1 - ||u/a + w v/b||^2 / 2 at unit
    phases w: ``abs`` = ab t(-sgn p) = |p|; ``re+``, ``re-``, ``im+``, ``im-``
    = ab t(-1), ab t(1), ab t(-i), ab t(i) = Re p, -Re p, Im p, -Im p;
    ``pyth*`` and ``rot*@theta``, ab hypot(t, t') at two phases, equal |p|.
    """
    u, v = _planes(u, v)
    a, b, p = _norms_and_product(u, v)
    if not ((a > 0.0) & (b > 0.0)).all():
        raise ValueError("zero vectors are excluded")
    u /= a      # in place: _planes made u and v
    v /= b
    (ur, ui), (vr, vi) = u, v               # (d, N) planes

    def t(w: np.ndarray) -> np.ndarray:     # phases w of shape (P, 1) or (P, N)
        c, s = w.real[:, None], w.imag[:, None]     # working arrays (P, d, N)
        wr, wi = c * vr, c * vi
        wr -= s * vi
        wr += ur
        wi += s * vr
        wi += ui
        wr *= wr
        wr += np.square(wi, out=wi)
        return 1.0 - 0.5 * _row_sum(wr)

    rots = [complex(math.cos(theta), math.sin(theta)) for theta in angles]
    fixed = list(dict.fromkeys(
        [-1.0, 1.0, -1j, 1j, *(r * w for w in rots for r in (1, 1j, -1j))]))
    step = max(1, STACK_ENTRIES // ur.size)     # phases per working array
    tv = dict(zip(fixed, np.concatenate([t(np.array(fixed[k:k + step])[:, None])
                                         for k in range(0, len(fixed), step)])))
    absp = np.hypot(p.real, p.imag)
    safe = np.where(absp == 0.0, 1.0, absp)     # sgn(0) = 1
    aligned = np.where(absp == 0.0, -1.0, -(p.real / safe) - 1j * (p.imag / safe))
    ab = a * b
    rhs = {"abs": ab * t(aligned[None])[0], "re+": ab * tv[-1.0],
           "re-": ab * tv[1.0], "im+": ab * tv[-1j], "im-": ab * tv[1j]}
    for sig, w1, w2 in (("++", 1.0, 1j), ("--", -1.0, -1j),
                        ("+-", 1.0, -1j), ("-+", -1.0, 1j)):
        rhs[f"pyth{sig}"] = ab * np.hypot(tv[w1], tv[w2])
    for theta, w in zip(angles, rots):
        for sig, rot in (("+", 1j * w), ("-", -1j * w)):
            rhs[f"rot{sig}@{theta:.6f}"] = ab * np.hypot(tv[w], tv[rot])
    return a, b, p, rhs


def cs_equality_residuals(u, v, angles: Sequence[float] = FIXED_ANGLES,
                          tol: float = ALGEBRAIC_TOL) -> list[EqualityReport]:
    """Both sides of every equality of :func:`phase_family`, left sides from
    the scalar product: one report per identity, for its worst row pair."""
    a, b, p, rhs = phase_family(u, v, angles)
    lhs = {"re+": p.real, "re-": -p.real, "im+": p.imag, "im-": -p.imag}
    absp = np.hypot(p.real, p.imag)
    return worst([f"cs.{key}" for key in rhs], [lhs.get(key, absp) for key in rhs],
                 list(rhs.values()), tol, scale=a * b)


@dataclass(frozen=True)
class ExtremizerFlags:
    """Which of the five saturation classes a pair (u, v) belongs to."""

    real_parallel: bool       # v is a real multiple of u (signed)
    imag_parallel: bool       # v is an imaginary multiple of u (signed)
    real_saturated: bool      # |Re (u|v)| = ||u|| ||v||
    imag_saturated: bool      # |Im (u|v)| = ||u|| ||v||
    cs_saturated: bool        # |(u|v)| = ||u|| ||v||

    def as_tuple(self) -> tuple[bool, ...]:
        return astuple(self)


CROSS_CHECK_FACTOR = 8.0


def extremizer_rows(u, v, tol: float = ALGEBRAIC_TOL) -> np.ndarray:
    """Five-part flags of each row pair, columns as in :class:`ExtremizerFlags`.

    A part holds on a row where its primary clause holds within ``tol``, and
    every part holds on a row whose u or v is zero.  Only on the other rows
    where a part holds are its other clauses computed, the combination norms
    ||alpha u + beta v|| among them; one beyond ``CROSS_CHECK_FACTOR * tol``
    raises :class:`InternalConsistencyError`.
    """
    u, v = _planes(u, v)
    a, b, p = _norms_and_product(u, v)
    ab, absp = a * b, np.hypot(p.real, p.imag)
    zero = (a == 0.0) | (b == 0.0)

    def scal(lhs, rhs, ab):
        return np.abs(lhs - rhs) / np.maximum(
            np.maximum(np.abs(lhs), np.abs(rhs)), np.maximum(ab, 1.0))

    # Per part: the left side x of its primary clause, which holds where
    # scal(x, s ab) <= tol for the first sign s that fits, and its other
    # clauses from the rows' s, a, b, p, ab and combination norms vec.
    parts = {
        "real_parallel": (p.real, (1.0, -1.0), lambda s, a, b, p, ab, vec: [
            vec(b, -s * a), scal(p, s * ab, ab)]),
        "imag_parallel": (p.imag, (1.0, -1.0), lambda s, a, b, p, ab, vec: [
            vec(b, -1j * s * a), scal(p, 1j * s * ab, ab)]),
        "real_saturated": (np.abs(p.real), (1.0,), lambda s, a, b, p, ab, vec: [
            scal(p.imag, 0.0, ab), scal(np.abs(p), ab, ab),
            vec(b * b, -p.real), vec(-p.real, a * a)]),
        "imag_saturated": (np.abs(p.imag), (1.0,), lambda s, a, b, p, ab, vec: [
            scal(p.real, 0.0, ab), scal(np.abs(p), ab, ab),
            vec(b * b, -1j * p.imag), vec(1j * p.imag, a * a)]),
        "cs_saturated": (absp, (1.0,), lambda s, a, b, p, ab, vec: [
            vec(b, -np.exp(1j * np.angle(p)) * a),     # sgn p, sgn 0 = 1
            vec(b * b, -p), vec(-p.conj(), a * a)]),
    }
    flags = np.empty((len(ab), 5), dtype=bool)
    for col, (name, (x, signs, clauses)) in enumerate(parts.items()):
        fits = [scal(x, s * ab, ab) <= tol for s in signs]
        flags[:, col] = fits[0] | fits[-1] | zero
        k = np.flatnonzero(flags[:, col] & ~zero)
        if k.size == 0:
            continue
        (ur, ui), (vr, vi), ak, bk = u[..., k], v[..., k], a[k], b[k]

        def vec(alpha, beta):   # ||alpha u + beta v|| / max(|alpha| a, |beta| b, 1)
            re = alpha.real * ur - alpha.imag * ui + beta.real * vr - beta.imag * vi
            im = alpha.real * ui + alpha.imag * ur + beta.real * vi + beta.imag * vr
            return np.sqrt(_row_sum(re * re + im * im)) / np.maximum(
                np.maximum(np.abs(alpha) * ak, np.abs(beta) * bk), 1.0)

        s = np.where(fits[0][k], 1.0, -1.0)
        res = np.array(clauses(s, ak, bk, p[k], ab[k], vec))
        bad = res[res > CROSS_CHECK_FACTOR * tol]
        if bad.size:
            raise InternalConsistencyError(
                f"part {name!r}: primary clause holds but cross-check "
                f"residuals {bad.tolist()} exceed {CROSS_CHECK_FACTOR * tol:g}")
    return flags


def extremizer_class(u, v, tol: float = ALGEBRAIC_TOL) -> ExtremizerFlags:
    """Classify which saturation parts hold for the pair (u, v): two vectors
    or two 1-D arrays, a stack of one for :func:`extremizer_rows`."""
    return ExtremizerFlags(*extremizer_rows(u, v, tol)[0].tolist())
