"""Executable verifiers for the analytic norm identities on L2(R^n).

Each verifier evaluates both sides of a family of identities on a supplied
state, or a stack of them, and returns one :class:`EqualityReport` per
identity (for a stack, its first worst row).  A state is a ``StateField``
on a tensor grid or on a radial rule; a radial profile carries its analytic
derivative, trading generality for quadrature accuracy, which the tight
tolerances of the Hardy checks need.  Each verifier calls its own space's
operators, ``grids`` or ``radial``; dilation and Hardy branch on the space.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import grids, radial
from .complexspace import ALGEBRAIC_TOL, ExtremizerFlags, extremizer_class
from .gaussians import GaussianSpec, realize
from .grids import StateField
from .report import EqualityReport, compare, worst  # compare: perfbench reads it

GRID_TOL = 1e-8
# The ids of verify_position_momentum, in its order; refine takes these.
_PM_IDS = ("pm.trace", "pm.sum_norm", "pm.expansion", "pm.schrodinger")


def _space(state, tol: float | None):
    """Whether the state is on a tensor grid (else on a radial rule), its
    dimension, report context and tolerance (``tol``, or the rule's:
    ALGEBRAIC_TOL on the exact Laguerre rule, else GRID_TOL)."""
    if not isinstance(state, StateField) or state.vector:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    space = state.space
    if tol is None:
        tol = ALGEBRAIC_TOL if isinstance(space, radial.LaguerreQuadrature) else GRID_TOL
    on_grid = isinstance(space, grids.GridSpec)
    return on_grid, space.n, {"grid" if on_grid else "radial": space.to_dict()}, tol


def verify_position_momentum(phi: StateField,
                             tol: float = GRID_TOL) -> list[EqualityReport]:
    """Norm identities tying n ||phi||^2 to the position/momentum pair; on a
    stack each id reports its first worst row."""
    xphi = grids.position(phi)
    gphi = grids.gradient(phi)
    a = xphi.norm()
    b = gphi.norm()
    if not (np.all(a) and np.all(b)):
        raise ValueError("state is degenerate for the position/momentum pair")
    lhs = phi.space.n * phi.norm_sq()
    p = xphi.inner(gphi)
    ab = a * b
    absp = np.hypot(p.real, p.imag)         # the bits of Python's abs(p)
    # sgn(p) / b, component by component as Python divides; sgn(0) = 1
    unit = np.where(absp == 0.0, 1.0, absp)
    sgn_b = np.where(absp == 0.0, 1.0, p.real / unit) / b + 1j * (p.imag / unit / b)
    # Each combination's norm at once: few stack-sized fields are alive.
    xsum_sq = (xphi + gphi).norm_sq()
    x_a = (1.0 / a) * xphi
    sum_sq = (x_a + (1.0 / b) * gphi).norm_sq()
    aligned_sq = (x_a - gphi * sgn_b).norm_sq()
    return worst(list(_PM_IDS), [lhs, lhs, lhs, absp],
                 [-2.0 * p.real, ab * (2.0 - sum_sq), a * a + b * b - xsum_sq,
                  ab * (1.0 - 0.5 * aligned_sq)], tol,
                 scale=[0.0, 0.0, 0.0, ab], context={"grid": phi.space.to_dict()})


def saturation_flags(phi: StateField, tol: float = 1e-6) -> ExtremizerFlags:
    """Saturation classes of the momentum/position pair (-i grad phi, x phi),
    as one pair of flat vectors scaled by the root of the cell weight."""
    phi.single("saturation_flags")
    w = math.sqrt(phi.space.weight)
    return extremizer_class(w * grids.momentum(phi).data.ravel(),
                            w * grids.position(phi).data.ravel(), tol)


def verify_dilation_pythagoras(state, tol: float | None = None) -> list[EqualityReport]:
    """||x.grad phi||^2 splits into the shifted part plus (n/2)^2 ||phi||^2;
    the context's ``gap`` is the reported row's shifted part."""
    on_grid, n, ctx, tol = _space(state, tol)
    d = grids.x_dot_grad(state) if on_grid else radial.x_dot_grad(state)
    gap = (d + (0.5 * n) * state).norm_sq()
    return worst(["dil.pythagoras"], d.norm_sq(),
                 gap + (0.5 * n) ** 2 * state.norm_sq(), tol,
                 context={**ctx, "gap": gap})


def verify_hardy(psi, tol: float | None = None) -> list[EqualityReport]:
    """Hardy-type equality with exact remainder and its two chain bounds.  A
    radial stack (first worst row per id) adds the transfer forms through
    psi/|x|; there grad psi = psi' x/|x|, so hardy.chain.gradient holds by
    construction.  A grid state adds its pointwise split instead: its spectral
    derivative misses psi/|x|'s cusp at 0 (2.7e-2 and 2.2e-1 at N = 96), and
    its hardy.pythagoras carries the lattice error of ||psi/|x|||^2, which
    the hardy suite's hardy.grid.value_* rows correct."""
    on_grid, n, ctx, tol = _space(psi, tol)
    if n < 3:
        raise ValueError("the Hardy identities require dimension >= 3")
    ids, lhs, tail = ["hardy.pythagoras"], [], []
    if on_grid:    # one pass over slabs of the grid, which also gives the split
        (grad_sq, dr_sq, q_sq, shifted_sq), split = grids.hardy_terms(
            psi, tol, "verify_hardy")
        tail = [split]
    else:   # transfer through phi = psi/|x|: x.grad phi and its (n/2) shift
        dpsi = radial.radial_derivative(psi)
        q = radial.coulomb(psi)                # psi / |x|
        xg_phi = radial.x_dot_grad(q)
        ids += ["hardy.radial_shift", "hardy.scaling_shift"]
        lhs = [xg_phi.norm_sq(), (xg_phi + (0.5 * n) * q).norm_sq()]
        dr_sq, q_sq = dpsi.norm_sq(), q.norm_sq()
        grad_sq = dr_sq                        # |grad psi| = |psi'|
        # ||d_r psi + (n-2)/(2|x|) psi||^2
        shifted_sq = (dpsi + (0.5 * (n - 2)) * q).norm_sq()
    rhs = [shifted_sq + (0.5 * (n - 2)) ** 2 * q_sq, dr_sq + (n - 1) * q_sq,
           shifted_sq][:len(ids)]
    return [*worst(ids, [dr_sq, *lhs], rhs, tol, context=ctx),
            *worst(["hardy.chain.potential", "hardy.chain.gradient"],
                   [np.sqrt(q_sq), np.sqrt(dr_sq)],
                   [2.0 / (n - 2) * np.sqrt(dr_sq), np.sqrt(grad_sq)], tol,
                   inequality=True, context=ctx),
            *tail]


def verify_dilation_hamiltonian(phi: StateField,
                                tol: float = GRID_TOL) -> list[EqualityReport]:
    """Identities from the scaling-generator / free-Hamiltonian pair; on a
    stack each id reports its first worst row."""
    a_phi = grids.dilation_generator(phi)
    b_phi = grids.neg_laplacian(phi)
    a = a_phi.norm()
    b = b_phi.norm()
    if not (np.all(a) and np.all(b)):
        raise ValueError("degenerate state for the scaling/Hamiltonian pair")
    ctx = {"grid": phi.space.to_dict()}
    grad_sq = grids.gradient(phi).norm_sq()
    lhs = 2.0 * grad_sq
    p = a_phi.inner(b_phi)
    combo = (1.0 / a) * a_phi + (1j / b) * b_phi
    return [*worst(["dilham.energy", "dilham.commutator", "dilham.sum_norm"], lhs,
                   [2.0 * b_phi.inner(phi), -2.0 * p.imag,
                    a * b * (2.0 - combo.norm_sq())],
                   tol, scale=[0.0, 0.0, a * b], context=ctx),
            *worst(["dilham.grad_bound"], grad_sq, a * b, tol, inequality=True,
                   context=ctx)]


def verify_radial_coulomb(state, tol: float | None = None) -> list[EqualityReport]:
    """Identities from the symmetrized radial derivative / 1/|x| pair, on a
    radial profile; on a stack each id reports its first worst row.  A tensor
    grid is a ValueError: its sums of 1/|x| carry the lattice error, which
    failed six of the eight ids at 5e-2 to 2.5e-1 on the coherent Gaussian
    (96^3 and 64^3 grids, L = 12).  A profile has grad psi = psi' x/|x| and
    L psi = 0, so radcoul.gradient_split holds by construction."""
    on_grid, n, ctx, tol = _space(state, tol)
    if on_grid:
        raise ValueError("verify_radial_coulomb takes a profile on a radial rule "
                         "(uncerteq.radial), not a tensor-grid state")
    if n < 3:
        raise ValueError("the radial/Coulomb identities require dimension >= 3")
    a_phi = radial.radial_derivative_sym(state)
    b_phi = radial.coulomb(state)
    a = a_phi.norm()
    b = b_phi.norm()
    if not (np.all(a) and np.all(b)):
        raise ValueError("degenerate state for the radial/Coulomb pair")
    dpsi = radial.radial_derivative(state)
    dr_sq = dpsi.norm_sq()
    b_sq = b * b
    p = a_phi.inner(b_phi)
    combo = (1.0 / a) * a_phi + (1j / b) * b_phi
    pyth = (2j) * a_phi - b_phi
    shifted = dpsi + (0.5 * (n - 2)) * b_phi
    ortho = (b_phi - 2j * a_phi).inner(b_phi).real
    return [
        *worst(["radcoul.potential_sq", "radcoul.sum_norm", "radcoul.sym_norm",
                "radcoul.orthogonality", "radcoul.pythagoras",
                "radcoul.hardy_quadrupled", "radcoul.gradient_split"],
               [b_sq, b_sq, a * a, ortho, 4.0 * a * a, 4.0 * dr_sq, dr_sq],
               [-2.0 * p.imag, a * b * (2.0 - combo.norm_sq()),
                dr_sq - 0.25 * (n - 1) * (n - 3) * b_sq, 0.0,
                pyth.norm_sq() + b_sq,
                4.0 * shifted.norm_sq() + (n - 2) ** 2 * b_sq, dr_sq], tol,
               scale=[a * b, a * b, 0.0, b_sq + 2.0 * a * b, 0.0, 0.0, 0.0],
               context=ctx),
        *worst(["radcoul.relative_bound"], [b], [2.0 * a], tol,
               inequality=True, context=ctx),
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
# its Nyquist wavenumber.  dilham.* tracks the Nyquist density, at about 30
# times it.  On every 1-D grid this accepts (N 24-64 even, L 5-12 in steps
# of 0.5, seeds 0-9 x 20 states; 126 grids) the worst is dilham.* 1.5e-9
# (N = 40, L = 9), pm.* 9.8e-11 and dil.* 1.5e-11: GRID_TOL / 6.7.  A density
# of 2e-9 (N = 38, L = 9) lets dilham.* reach 6.0e-8.
_EDGE_DENSITY = 5e-11


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
                        normalize: bool = True,
                        states: int | None = None) -> StateField:
    """Random finite Hermite-function mixture: smooth, rapidly decaying; with
    ``states``, a stack of as many, drawn as successive calls draw them.

    Every such state lies in the (grid) domain of all the operators here and
    carries no boundary mass for L a few units beyond sqrt(2*max_level+1).
    A grid whose box or spacing cuts off the top mode is a ValueError.
    """
    basis = _hermite_basis(grid, max_level)
    decay = 0.7 ** np.arange(max_level + 1)
    k = 1 if states is None else states
    # Per state and term: re, im of its coefficient; re, im of each axis's.
    z = rng.standard_normal((k, terms, 2 + 2 * grid.n * (max_level + 1)))
    axes = z[..., 2:].reshape(k, terms, grid.n, 2, max_level + 1)
    c = (axes[..., 0, :] + 1j * axes[..., 1, :]) * decay
    values = np.zeros((k,) + grid.shape, dtype=np.complex128)
    for t in range(terms):
        term = None
        for axis in range(grid.n):
            # per-row gemv, (k, 9) @ basis would go to gemm with other bits
            factor = (c[:, t, axis, None, :] @ basis)[:, 0].reshape(
                (k,) + (1,) * axis + (-1,) + (1,) * (grid.n - 1 - axis))
            term = factor if term is None else term * factor
        coeff = z[:, t, 0] + 1j * z[:, t, 1]
        values = values + coeff.reshape([k] + [1] * grid.n) * term
    phi = StateField(grid, values if states is not None else values[0])
    if normalize:
        nrm = phi.norm()
        if not np.all(nrm):
            raise ValueError("degenerate random state")
        phi = phi * (1.0 / nrm)
    return phi


def refinement_study(identity_id: str, grid_specs: list[grids.GridSpec]) -> dict:
    """Residual-versus-spacing table with a fitted convergence order.

    The probe state is the isotropic Gaussian.  The id is one of _PM_IDS,
    checked before any grid is built; all grids must share one derivative
    scheme and come in at least three distinct spacings.
    """
    if identity_id not in _PM_IDS:
        raise ValueError(f"unsupported identity {identity_id!r} for refinement; "
                         f"it takes {', '.join(_PM_IDS)}")
    if len({g.h for g in grid_specs}) < 3:
        raise ValueError("need grids of at least three distinct spacings")
    if len({g.scheme for g in grid_specs}) > 1:
        raise ValueError("refinement study cannot mix derivative schemes")
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
