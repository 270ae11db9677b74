"""Executable verifiers for the analytic norm identities on L2(R^n).

Each verifier evaluates both sides of a family of identities on a supplied
state and returns one :class:`EqualityReport` per identity.  States may be
full tensor-grid fields or radial profiles with analytic derivatives; the
latter trade generality for quadrature accuracy, which the tight tolerances
of the Hardy-type checks need.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import grids, radial
from .complexspace import ExtremizerFlags, sgn
from .forms import PairSample, extremizer_parts
from .gaussians import GaussianSpec, realize
from .grids import StateField
from .radial import RadialState
from .report import EqualityReport, bound, compare

GRID_TOL = 1e-8


def _operators(state):
    """Operator module, dimension and report context for the state's kind.

    ``grids`` and ``radial`` expose the same operator names; this is the only
    place where the verifiers tell the state kinds apart.
    """
    if isinstance(state, StateField):
        return grids, state.grid.n, {"grid": state.grid.to_dict()}
    if isinstance(state, RadialState):
        return radial, state.quad.n, {"radial": state.quad.to_dict()}
    raise TypeError(f"unsupported state type {type(state).__name__}")


def verify_position_momentum(phi: StateField,
                             tol: float = GRID_TOL) -> list[EqualityReport]:
    """Norm identities tying n ||phi||^2 to the position/momentum pair."""
    xphi = grids.position(phi)
    gphi = grids.gradient(phi)
    a = xphi.norm()
    b = gphi.norm()
    if a == 0.0 or b == 0.0:
        raise ValueError("state is degenerate for the position/momentum pair")
    ctx = {"grid": phi.grid.to_dict()}
    lhs = phi.grid.n * phi.norm_sq()
    p = xphi.inner(gphi)
    ab = a * b

    sum_hat = (1.0 / a) * xphi + (1.0 / b) * gphi
    xsum = xphi + gphi
    aligned = (1.0 / a) * xphi - (sgn(p) / b) * gphi
    return [
        compare("pm.trace", lhs, -2.0 * p.real, tol, context=ctx),
        compare("pm.sum_norm", lhs, ab * (2.0 - sum_hat.norm_sq()), tol,
                context=ctx),
        compare("pm.expansion", lhs, a * a + b * b - xsum.norm_sq(), tol,
                context=ctx),
        compare("pm.schrodinger", abs(p),
                ab * (1.0 - 0.5 * aligned.norm_sq()), tol, scale=ab,
                context=ctx),
    ]


def saturation_flags(phi: StateField, tol: float = 1e-6) -> ExtremizerFlags:
    """Saturation classes of the momentum/position pair (-i grad phi, x phi)."""
    return extremizer_parts(
        PairSample.from_vectors(grids.momentum(phi), grids.position(phi)), tol)


def verify_dilation_pythagoras(state, tol: float = GRID_TOL) -> list[EqualityReport]:
    """||x.grad phi||^2 splits into the shifted part plus (n/2)^2 ||phi||^2."""
    ops, n, ctx = _operators(state)
    d = ops.x_dot_grad(state)
    shifted = d + (0.5 * n) * state
    gap = shifted.norm_sq()
    ctx["gap"] = gap
    return [
        compare("dil.pythagoras", d.norm_sq(),
                gap + (0.5 * n) ** 2 * state.norm_sq(), tol, context=ctx),
    ]


def verify_hardy(psi, tol: float = GRID_TOL) -> list[EqualityReport]:
    """Hardy-type equality with exact remainder, plus its transfer forms."""
    ops, n, ctx = _operators(psi)
    if n < 3:
        raise ValueError("the Hardy identities require dimension >= 3")
    # One gradient of psi gives ||d_r psi||, ||grad psi|| and the grid's
    # pointwise split; it is dropped before x.grad(psi/|x|) takes the next.
    g = ops.gradient(psi)
    grad_sq = g.norm_sq()
    dpsi = ops.radial_part(g)
    split = [grids.pointwise_split(g, dpsi, tol)] if ops is grids else []
    del g
    q = ops.coulomb(psi)                   # psi / |x|
    dr_sq = dpsi.norm_sq()
    q_sq = q.norm_sq()
    # ||d_r psi + (n-2)/(2|x|) psi||^2
    shifted_sq = (dpsi + (0.5 * (n - 2)) * q).norm_sq()
    del dpsi

    # Transfer through phi = psi/|x|: x.grad phi and its (n/2) shift.
    xg_phi = ops.x_dot_grad(q)

    return [
        compare("hardy.pythagoras", dr_sq,
                shifted_sq + (0.5 * (n - 2)) ** 2 * q_sq, tol, context=ctx),
        compare("hardy.radial_shift", xg_phi.norm_sq(),
                dr_sq + (n - 1) * q_sq, tol, context=ctx),
        compare("hardy.scaling_shift", (xg_phi + (0.5 * n) * q).norm_sq(),
                shifted_sq, tol, context=ctx),
        bound("hardy.chain.potential", math.sqrt(q_sq),
              2.0 / (n - 2) * math.sqrt(dr_sq), tol, context=ctx),
        bound("hardy.chain.gradient", math.sqrt(dr_sq), math.sqrt(grad_sq),
              tol, context=ctx),
    ] + split


def verify_dilation_hamiltonian(phi: StateField,
                                tol: float = GRID_TOL) -> list[EqualityReport]:
    """Identities from the scaling-generator / free-Hamiltonian pair."""
    a_phi = grids.dilation_generator(phi)
    b_phi = grids.neg_laplacian(phi)
    a = a_phi.norm()
    b = b_phi.norm()
    if a == 0.0 or b == 0.0:
        raise ValueError("degenerate state for the scaling/Hamiltonian pair")
    ctx = {"grid": phi.grid.to_dict()}
    grad_sq = grids.gradient(phi).norm_sq()
    lhs = 2.0 * grad_sq
    p = a_phi.inner(b_phi)
    combo = (1.0 / a) * a_phi + (1j / b) * b_phi
    return [
        compare("dilham.energy", lhs, 2.0 * b_phi.inner(phi), tol, context=ctx),
        compare("dilham.commutator", lhs, -2.0 * p.imag, tol, context=ctx),
        compare("dilham.sum_norm", lhs, a * b * (2.0 - combo.norm_sq()), tol,
                scale=a * b, context=ctx),
        bound("dilham.grad_bound", grad_sq, a * b, tol, context=ctx),
    ]


def verify_radial_coulomb(state, tol: float = GRID_TOL) -> list[EqualityReport]:
    """Identities from the symmetrized radial derivative / 1/|x| pair."""
    ops, n, ctx = _operators(state)
    if n < 3:
        raise ValueError("the radial/Coulomb identities require dimension >= 3")
    a_phi = ops.radial_derivative_sym(state)
    b_phi = ops.coulomb(state)
    a = a_phi.norm()
    b = b_phi.norm()
    if a == 0.0 or b == 0.0:
        raise ValueError("degenerate state for the radial/Coulomb pair")
    dpsi = ops.radial_derivative(state)
    dr_sq = dpsi.norm_sq()
    b_sq = b * b
    p = a_phi.inner(b_phi)
    combo = (1.0 / a) * a_phi + (1j / b) * b_phi
    pyth = (2j) * a_phi - b_phi
    shifted = dpsi + (0.5 * (n - 2)) * b_phi
    grad_sq = ops.gradient(state).norm_sq()
    sph_sq = ops.spherical_derivative(state).norm_sq()
    ortho = (b_phi - 2j * a_phi).inner(b_phi).real
    return [
        compare("radcoul.potential_sq", b_sq, -2.0 * p.imag, tol,
                scale=a * b, context=ctx),
        compare("radcoul.sum_norm", b_sq, a * b * (2.0 - combo.norm_sq()),
                tol, scale=a * b, context=ctx),
        compare("radcoul.sym_norm", a * a,
                dr_sq - 0.25 * (n - 1) * (n - 3) * b_sq, tol, context=ctx),
        compare("radcoul.orthogonality", ortho, 0.0, tol,
                scale=b_sq + 2.0 * a * b, context=ctx),
        compare("radcoul.pythagoras", 4.0 * a * a,
                pyth.norm_sq() + b_sq, tol, context=ctx),
        compare("radcoul.hardy_quadrupled", 4.0 * dr_sq,
                4.0 * shifted.norm_sq() + (n - 2) ** 2 * b_sq, tol,
                context=ctx),
        compare("radcoul.gradient_split", grad_sq - sph_sq, dr_sq, tol,
                context=ctx),
        bound("radcoul.relative_bound", b, 2.0 * a, tol, context=ctx),
    ]


def _hermite_functions(x: np.ndarray, kmax: int) -> np.ndarray:
    """Normalized Hermite functions h_0..h_kmax on the given points."""
    out = np.empty((kmax + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if kmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, kmax + 1):
        out[k] = (math.sqrt(2.0 / k) * x * out[k - 1]
                  - math.sqrt((k - 1) / k) * out[k - 2])
    return out


# Largest density |h_max_level|^2 the grid may leave at its box edge and at
# its Nyquist wavenumber.  Measured on the dilation suite (tolerance 1e-7):
# it fails at 8e-9 (L = 6.5) and passes at 1.2e-9 (N = 34, L = 8).
_EDGE_DENSITY = 2e-9


@lru_cache(maxsize=8)
def _hermite_basis(grid: grids.GridSpec, max_level: int) -> np.ndarray:
    """Read-only h_0..h_max_level on the grid axis; refuses a grid that cuts
    off the top mode in space or frequency.

    A Hermite function is its own Fourier transform up to a phase, so the
    same profile decides both the box half-width L and the spectral reach
    pi/h of the grid.  lru_cache keeps no refusal, so each call refuses anew.
    """
    edge, nyquist = _hermite_functions(
        np.array([grid.L, math.pi / grid.h]), max_level)[-1] ** 2
    if edge > _EDGE_DENSITY:
        raise ValueError(
            f"grid too small: the top Hermite mode keeps density {edge:.1e} "
            "at the box edge; enlarge L")
    if nyquist > _EDGE_DENSITY:
        raise ValueError(
            f"grid too coarse: the top Hermite mode keeps density "
            f"{nyquist:.1e} at the Nyquist wavenumber; increase N")
    basis = _hermite_functions(grid.axis_coords(), max_level)
    basis.setflags(write=False)
    return basis


def random_smooth_state(grid: grids.GridSpec, rng: np.random.Generator,
                        max_level: int = 8, terms: int = 3,
                        normalize: bool = True) -> StateField:
    """Random finite Hermite-function mixture: smooth, rapidly decaying.

    Every such state lies in the (grid) domain of all the operators here and
    carries no boundary mass for L a few units beyond sqrt(2*max_level+1).
    A grid whose box or spacing cuts off the top mode is a ValueError.
    """
    basis = _hermite_basis(grid, max_level)
    decay = 0.7 ** np.arange(max_level + 1)
    values = np.zeros(grid.shape, dtype=np.complex128)
    for _ in range(terms):
        coeff = (rng.standard_normal() + 1j * rng.standard_normal())
        term = None
        for axis in range(grid.n):
            c = (rng.standard_normal(max_level + 1)
                 + 1j * rng.standard_normal(max_level + 1)) * decay
            profile = c @ basis
            shape = [1] * grid.n
            shape[axis] = grid.N
            factor = profile.reshape(shape)
            term = factor if term is None else term * factor
        values = values + coeff * term
    phi = StateField(grid, values)
    if normalize:
        nrm = phi.norm()
        if nrm == 0.0:
            raise ValueError("degenerate random state")
        phi = phi * (1.0 / nrm)
    return phi


def refinement_study(identity_id: str, grid_specs: list[grids.GridSpec]) -> dict:
    """Residual-versus-spacing table with a fitted convergence order.

    The probe state is the isotropic Gaussian.  All grids must share
    one derivative scheme and come in at least three distinct spacings.
    """
    if len({g.h for g in grid_specs}) < 3:
        raise ValueError("need grids of at least three distinct spacings")
    schemes = {g.scheme for g in grid_specs}
    if len(schemes) > 1:
        raise ValueError("refinement study cannot mix derivative schemes")
    if not identity_id.startswith("pm."):
        raise ValueError(f"unsupported identity {identity_id!r} for refinement")
    rows = []
    for grid in sorted(grid_specs, key=lambda g: g.h, reverse=True):
        phi = realize(GaussianSpec("coherent", n=grid.n), grid)
        reps = {r.identity_id: r for r in
                verify_position_momentum(phi, tol=1.0)}
        rep = reps[identity_id]
        rows.append({"N": grid.N, "h": grid.h,
                     "abs_residual": rep.abs_residual,
                     "rel_residual": rep.rel_residual})
    hs = np.array([row["h"] for row in rows])
    res = np.array([max(row["rel_residual"], 1e-300) for row in rows])
    order = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    return {"identity_id": identity_id, "scheme": grid_specs[0].scheme,
            "rows": rows, "fitted_order": order}
