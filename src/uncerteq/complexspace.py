"""Complex scalar-product vectors and the exact algebraic equality layer.

Everything here is finite-dimensional and pure: vectors with the standard
sesquilinear product (linear in the first slot, antilinear in the second),
the unit-modulus sign function, the Cauchy-Schwarz-type equality family and
the five-part saturation classification.  The family and the classification
take a whole (N, d) stack of zero-padded pairs at once (the CLI stacks at
most max(1, STACK_ENTRIES // d) pairs) and report only the worst pair of
each identity; a single pair is a stack of one and gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, Sequence

import numpy as np

from .report import EqualityReport, compare, worst  # compare: re-exported

DEFAULT_TOL = 1e-12
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


def sgn(z: complex) -> complex:
    """Unit-modulus sign of a complex scalar, with sgn(0) = 1."""
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    return z / abs(z)


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
        return complex(_norms_and_product(*_stacks(self, other))[2][0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __add__(self, other: "ComplexVector") -> "ComplexVector":
        u, v = _stacks(self, other)     # refuses a dimension mismatch
        return ComplexVector(u[0] + v[0])

    def __sub__(self, other: "ComplexVector") -> "ComplexVector":
        u, v = _stacks(self, other)
        return ComplexVector(u[0] - v[0])

    def __mul__(self, scalar) -> "ComplexVector":
        return ComplexVector(self.entries * complex(scalar))

    __rmul__ = __mul__


def random_vector(rng: np.random.Generator, dim: int,
                  normalize: bool = False) -> ComplexVector:
    """Rotation-invariant random vector: i.i.d. standard-normal re/im parts."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if normalize:
        z = z / np.linalg.norm(z)
    return ComplexVector(z)


def default_angles(rng: np.random.Generator | None = None,
                   extra: int = 8) -> list[float]:
    """Fixed special angles plus uniformly random ones."""
    angles = list(FIXED_ANGLES)
    if rng is not None and extra > 0:
        angles.extend(float(t) for t in rng.uniform(0.0, 2 * math.pi, extra))
    return angles


def _stacks(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors, or two (N, d) stacks of row vectors, as 2-D arrays."""
    u, v = (np.atleast_2d(np.asarray(getattr(x, "entries", x), np.complex128))
            for x in (u, v))
    if (u.shape != v.shape or u.ndim != 2 or u.size == 0
            or not (np.isfinite(u).all() and np.isfinite(v).all())):
        raise ValueError(f"entries must be finite, non-empty and of one shape, "
                         f"got shapes {u.shape} and {v.shape}")
    return u, v


def _row_sum(x: np.ndarray) -> np.ndarray:
    # Strictly left to right, in place: trailing zeros leave the bits of a
    # sum unchanged, so a padded row sums as the bare vector does.
    return np.add.accumulate(x, axis=-1, out=x)[..., -1]


def _norms_and_product(u: np.ndarray, v: np.ndarray):
    """||u||, ||v|| and (u|v) of each row pair, in real arithmetic."""
    ur, ui, vr, vi = u.real, u.imag, v.real, v.imag
    a2, b2, pr, pi = ur * ur, vr * vr, ur * vr, ui * vr
    a2 += ui * ui
    b2 += vi * vi
    pr += ui * vi
    pi -= ur * vi
    return (np.sqrt(_row_sum(a2)), np.sqrt(_row_sum(b2)),
            _row_sum(pr) + 1j * _row_sum(pi))


def phase_family(u, v, angles: Sequence[float] = FIXED_ANGLES):
    """Norms a, b, product p and Cauchy-Schwarz right sides, row by row.

    ``u`` and ``v`` are two vectors or two (N, d) stacks of row pairs.  Right
    sides use explicit combinations, t(w) = 1 - ||u/a + w v/b||^2 / 2 at unit
    phases w: ``abs`` = ab t(-sgn p) = |p|; ``re+``, ``re-``, ``im+``, ``im-``
    = ab t(-1), ab t(1), ab t(-i), ab t(i) = Re p, -Re p, Im p, -Im p;
    ``pyth*`` and ``rot*@theta``, ab hypot(t, t') at two phases, equal |p|.
    """
    u, v = _stacks(u, v)
    a, b, p = _norms_and_product(u, v)
    if not ((a > 0.0) & (b > 0.0)).all():
        raise ValueError("zero vectors are excluded")
    ur, ui = u.real / a[:, None], u.imag / a[:, None]
    vr, vi = v.real / b[:, None], v.imag / b[:, None]

    def t(w: np.ndarray) -> np.ndarray:     # phases w of shape (P, 1) or (P, N)
        c, s = w.real[..., None], w.imag[..., None]
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
    step = max(1, STACK_ENTRIES // u.size)  # phases per working array
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
                          tol: float = DEFAULT_TOL) -> list[EqualityReport]:
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


def classify_saturation(a: float, b: float, p: complex,
                        combo_norm: Callable[[complex, complex], float],
                        tol: float) -> ExtremizerFlags:
    """Shared five-part classification from norms, product and combinations.

    ``combo_norm(alpha, beta)`` returns ``||alpha*U + beta*V||`` for the pair,
    plain vectors or grid states.  Only when the primary clause of a part
    holds within ``tol`` are its other clauses computed; one beyond
    ``CROSS_CHECK_FACTOR * tol`` raises :class:`InternalConsistencyError`.
    """
    if a == 0.0 or b == 0.0:
        # Every clause of every part holds trivially.
        return ExtremizerFlags(True, True, True, True, True)

    ab = a * b

    def scal(lhs: complex, rhs: complex) -> float:
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), ab, 1.0)

    def vec(alpha: complex, beta: complex) -> float:
        return combo_norm(alpha, beta) / max(abs(alpha) * a, abs(beta) * b, 1.0)

    # Per part, the candidate primary clauses (lhs, rhs) in order, each with
    # the part's other clauses for when it holds.
    parts = {
        "real_parallel": [(p.real, s * ab, lambda s=s: [vec(b, -s * a),
                                                        scal(p, s * ab)])
                          for s in (1.0, -1.0)],
        "imag_parallel": [(p.imag, s * ab, lambda s=s: [vec(b, -s * 1j * a),
                                                        scal(p, s * 1j * ab)])
                          for s in (1.0, -1.0)],
        "real_saturated": [(abs(p.real), ab, lambda: [
            scal(p.imag, 0.0), scal(abs(p), ab),
            vec(b * b, -p.real), vec(-p.real, a * a)])],
        "imag_saturated": [(abs(p.imag), ab, lambda: [
            scal(p.real, 0.0), scal(abs(p), ab),
            vec(b * b, -1j * p.imag), vec(1j * p.imag, a * a)])],
        "cs_saturated": [(abs(p), ab, lambda: [
            vec(b, -sgn(p) * a), vec(b * b, -p), vec(-np.conj(p), a * a)])],
    }
    flags = []
    for name, candidates in parts.items():
        clauses = next((c for lhs, rhs, c in candidates
                        if scal(lhs, rhs) <= tol), None)
        bad = [] if clauses is None else [
            r for r in clauses() if r > CROSS_CHECK_FACTOR * tol]
        if bad:
            raise InternalConsistencyError(
                f"part {name!r}: primary clause holds but cross-check "
                f"residuals {bad} exceed {CROSS_CHECK_FACTOR * tol:g}")
        flags.append(clauses is not None)
    return ExtremizerFlags(*flags)


def extremizer_rows(u, v, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Five-part flags of each row pair, columns as in :class:`ExtremizerFlags`.

    Only a row where a primary clause holds goes through the cross-checks of
    :func:`classify_saturation`, which may raise InternalConsistencyError.
    """
    u, v = _stacks(u, v)
    a, b, p = _norms_and_product(u, v)
    ab = a * b
    screen = ab == 0.0
    # The primary clauses, scal(x, ab); a real (imaginary) multiple of either
    # sign can fire only where |Re p| (|Im p|) saturates.
    for x in (np.abs(p.real), np.abs(p.imag), np.hypot(p.real, p.imag)):
        screen |= np.abs(x - ab) / np.maximum(np.maximum(x, ab), 1.0) <= tol
    flags = np.zeros((len(ab), 5), dtype=bool)
    for i in np.flatnonzero(screen):
        ui, vi = u[i], v[i]
        flags[i] = classify_saturation(
            float(a[i]), float(b[i]), complex(p[i]),
            lambda al, be: float(np.linalg.norm(al * ui + be * vi)), tol).as_tuple()
    return flags


def extremizer_class(u: ComplexVector, v: ComplexVector,
                     tol: float = DEFAULT_TOL) -> ExtremizerFlags:
    """Classify which saturation parts hold for the pair (u, v)."""
    return ExtremizerFlags(*extremizer_rows(u, v, tol)[0].tolist())
