"""Complex scalar-product vectors and the exact algebraic equality layer.

Everything here is finite-dimensional and pure: vectors with the standard
sesquilinear product (linear in the first slot, antilinear in the second),
the unit-modulus sign function, the Cauchy-Schwarz-type equality family and
the five-part saturation classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .report import EqualityReport, compare

DEFAULT_TOL = 1e-12

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

    @property
    def dim(self) -> int:
        return self.entries.size

    def inner(self, other: "ComplexVector") -> complex:
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.sum(self.entries * np.conj(other.entries)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __add__(self, other: "ComplexVector") -> "ComplexVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return ComplexVector(self.entries + other.entries)

    def __sub__(self, other: "ComplexVector") -> "ComplexVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return ComplexVector(self.entries - other.entries)

    def __mul__(self, scalar) -> "ComplexVector":
        return ComplexVector(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ComplexVector(dim={self.dim})"


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


def phase_family(a: float, b: float, p: complex,
                 unit_combo_sq: Callable[[complex], float],
                 angles: Sequence[float] = FIXED_ANGLES) -> dict[str, float]:
    """Right sides of the Cauchy-Schwarz-type equality family for one pair.

    ``a``, ``b`` and ``p`` are ||U||, ||V|| and (U|V), and
    ``unit_combo_sq(w)`` returns ||U/a + w V/b||^2.  Each right side is built
    from t(w) = 1 - ||U/a + w V/b||^2 / 2 at unit phases w, each evaluated
    once: ``abs`` = ab t(-sgn p) equals |p|; ``re+``, ``re-``, ``im+``,
    ``im-`` = ab t(-1), ab t(1), ab t(-i), ab t(i) equal Re p, -Re p, Im p,
    -Im p; the quadrature forms ``pyth*`` and ``rot*@theta``, ab times the
    hypotenuse of two t values, equal |p|.
    """
    ab = a * b
    cache: dict[complex, float] = {}

    def t(phase: complex) -> float:
        if phase not in cache:
            cache[phase] = 1.0 - 0.5 * unit_combo_sq(phase)
        return cache[phase]

    rhs = {"abs": ab * t(-sgn(p)), "re+": ab * t(-1.0), "re-": ab * t(1.0),
           "im+": ab * t(-1j), "im-": ab * t(1j)}
    for sig, pr, pi in (("++", 1.0, 1j), ("--", -1.0, -1j),
                        ("+-", 1.0, -1j), ("-+", -1.0, 1j)):
        rhs[f"pyth{sig}"] = ab * math.hypot(t(pr), t(pi))
    for theta in angles:
        phase = complex(math.cos(theta), math.sin(theta))
        for sig, rot in (("+", 1j * phase), ("-", -1j * phase)):
            rhs[f"rot{sig}@{theta:.6f}"] = ab * math.hypot(t(phase), t(rot))
    return rhs


def cs_equality_residuals(u: ComplexVector, v: ComplexVector,
                          angles: Sequence[float] = FIXED_ANGLES,
                          tol: float = DEFAULT_TOL) -> list[EqualityReport]:
    """Evaluate both sides of every Cauchy-Schwarz-type equality.

    Covers the modulus form, the signed real/imaginary-part forms, the four
    quadrature (Pythagorean) combinations, and the phase-rotated quadrature
    family at the supplied angles.  Both sides are computed independently:
    the left side from the scalar product, the right side from norms of
    explicit vector combinations (:func:`phase_family`).
    """
    a = u.norm()
    b = v.norm()
    if a == 0.0 or b == 0.0:
        raise ValueError("zero vectors are excluded")
    p = u.inner(v)
    uh = u.entries / a
    vh = v.entries / b

    def unit_combo_sq(phase: complex) -> float:
        w = uh + phase * vh
        return float(np.real(np.vdot(w, w)))

    lhs = {"re+": p.real, "re-": -p.real, "im+": p.imag, "im-": -p.imag}
    return [compare(f"cs.{key}", lhs.get(key, abs(p)), rhs, tol, scale=a * b)
            for key, rhs in phase_family(a, b, p, unit_combo_sq,
                                         angles).items()]


@dataclass(frozen=True)
class ExtremizerFlags:
    """Which of the five saturation classes a pair (u, v) belongs to."""

    real_parallel: bool       # v is a real multiple of u (signed)
    imag_parallel: bool       # v is an imaginary multiple of u (signed)
    real_saturated: bool      # |Re (u|v)| = ||u|| ||v||
    imag_saturated: bool      # |Im (u|v)| = ||u|| ||v||
    cs_saturated: bool        # |(u|v)| = ||u|| ||v||

    def as_tuple(self) -> tuple[bool, ...]:
        return (self.real_parallel, self.imag_parallel, self.real_saturated,
                self.imag_saturated, self.cs_saturated)


CROSS_CHECK_FACTOR = 8.0


def classify_saturation(a: float, b: float, p: complex,
                        combo_norm: Callable[[complex, complex], float],
                        tol: float) -> ExtremizerFlags:
    """Shared five-part classification from norms, product and combinations.

    ``combo_norm(alpha, beta)`` must return ``||alpha*U + beta*V||`` for the
    underlying pair, so the routine works for plain vectors and for grid
    states alike.  When clause (a) of a part holds within ``tol`` the
    remaining clauses of that part are cross-checked within
    ``CROSS_CHECK_FACTOR * tol``; a disagreement raises
    :class:`InternalConsistencyError`.
    """
    if a == 0.0 or b == 0.0:
        # Every clause of every part holds trivially.
        return ExtremizerFlags(True, True, True, True, True)

    ab = a * b

    def scal(lhs: complex, rhs: complex) -> float:
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), ab, 1.0)

    def vec(alpha: complex, beta: complex) -> float:
        return combo_norm(alpha, beta) / max(abs(alpha) * a, abs(beta) * b, 1.0)

    def check(name: str, fired: bool, clause_residuals: list[float]) -> bool:
        if fired:
            bad = [r for r in clause_residuals if r > CROSS_CHECK_FACTOR * tol]
            if bad:
                raise InternalConsistencyError(
                    f"part {name!r}: primary clause holds but cross-check "
                    f"residuals {bad} exceed {CROSS_CHECK_FACTOR * tol:g}")
        return fired

    flags = []

    # Real multiple, either sign.
    fired = False
    for s in (1.0, -1.0):
        if scal(p.real, s * ab) <= tol:
            fired = check("real_parallel", True,
                          [vec(b, -s * a), scal(p, s * ab)])
            break
    flags.append(fired)

    # Imaginary multiple, either sign.
    fired = False
    for s in (1.0, -1.0):
        if scal(p.imag, s * ab) <= tol:
            fired = check("imag_parallel", True,
                          [vec(b, -s * 1j * a), scal(p, s * 1j * ab)])
            break
    flags.append(fired)

    # |Re (u|v)| saturates.
    fired = scal(abs(p.real), ab) <= tol
    flags.append(check("real_saturated", fired,
                       [scal(p.imag, 0.0), scal(abs(p), ab),
                        vec(b * b, -p.real), vec(-p.real, a * a)]))

    # |Im (u|v)| saturates.
    fired = scal(abs(p.imag), ab) <= tol
    flags.append(check("imag_saturated", fired,
                       [scal(p.real, 0.0), scal(abs(p), ab),
                        vec(b * b, -1j * p.imag), vec(1j * p.imag, a * a)]))

    # |(u|v)| saturates.
    fired = scal(abs(p), ab) <= tol
    flags.append(check("cs_saturated", fired,
                       [vec(b, -sgn(p) * a), vec(b * b, -p),
                        vec(-np.conj(p), a * a)]))

    return ExtremizerFlags(*flags)


def extremizer_class(u: ComplexVector, v: ComplexVector,
                     tol: float = DEFAULT_TOL) -> ExtremizerFlags:
    """Classify which saturation parts hold for the pair (u, v)."""
    a = u.norm()
    b = v.norm()
    p = u.inner(v)

    def combo_norm(alpha: complex, beta: complex) -> float:
        return float(np.linalg.norm(alpha * u.entries + beta * v.entries))

    return classify_saturation(a, b, p, combo_norm, tol)
