"""Numerical estimates of the supporting inequality constants.

Four constants back the channel estimates: the slicewise Poincare constant
(uniform in the domain), the domain Poincare constant (proportional to the
max width), the L4 embedding constant, and the divergence-problem
(Bogovskii) constant.  Everything here is a numerical estimate at a stated
resolution, not a certified enclosure.

M1 and M4 back-solve positive definite Q1 stiffnesses by banded Cholesky
(``_fem.spd_solve``); only M5's indefinite saddle system is factored by
SuperLU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ._fem import (
    assemble_div,
    assemble_q1,
    boundary_mask,
    nested_dissection,
    smallest_eigenpair,
    spd_solve,
)
from .errors import AscentStagnation, SaddleSolveFailure
from .geometry import make_grid

__all__ = [
    "ConstantEstimate",
    "poincare_m1",
    "poincare_m0",
    "sobolev_m4",
    "bogovskii_m5",
]


@dataclass(frozen=True)
class ConstantEstimate:
    name: str                  # "M0", "M1", "M4" or "M5"
    value: float
    domain: str
    method: str                # "eigen", "rayleigh_ascent" or "inf_sup"
    resolution: tuple
    self_consistency: float = float("nan")


# ---------------------------------------------------------------------------
# M1: domain Poincare constant, walls Dirichlet / ends natural
# ---------------------------------------------------------------------------


def _grid_nodes(profile, a, b, nx, ny):
    grid = make_grid(profile, a, b, nx, ny)
    x = np.broadcast_to(grid.xi[:, None], (nx, ny)).ravel()
    y = grid.x2.ravel()
    return grid, x, y


def _laplace_eigenpair(profile, a, b, nx, ny, v0=None):
    """Smallest Laplace eigenvalue of an nx x ny grid with Dirichlet walls
    and natural ends, and its eigenvector as (nx, ny) nodal values, 0 on
    the walls; the Lanczos run starts from the free values of the nodal
    array ``v0``."""
    _, x, y = _grid_nodes(profile, a, b, nx, ny)
    K, M, _ = assemble_q1(x, y, nx, ny)
    free = ~boundary_mask(nx, ny, ends=False)
    start = None if v0 is None else v0.ravel()[free]
    lam, v_free = smallest_eigenpair(M[free][:, free], spd_solve(K[free][:, free]),
                                     start)
    v = np.zeros(nx * ny)
    v[free] = v_free
    return lam, v.reshape(nx, ny)


def _index_interpolation(m, n):
    """(n, m) matrix of linear interpolation from m to n equispaced indices."""
    s = np.linspace(0.0, m - 1, n)
    return np.column_stack([np.interp(s, np.arange(m), e) for e in np.eye(m)])


def poincare_m1(profile, a, b, resolution=(129, 65)):
    """M1 = lam_min^(-1/2), Laplace eigenvalue with Dirichlet walls.

    Natural (do-nothing) conditions at the truncation ends model functions
    vanishing on the walls only.  The half-resolution grid is solved first,
    from the seeded start: its value gives the self-consistency, and its
    eigenvector, interpolated bilinearly in index space, starts the Lanczos
    run on the full grid.
    """
    nx, ny = resolution
    mx, my = nx // 2 + 1, ny // 2 + 1
    lam_coarse, v_coarse = _laplace_eigenpair(profile, a, b, mx, my)
    start = (_index_interpolation(mx, nx) @ v_coarse
             @ _index_interpolation(my, ny).T)
    lam, _ = _laplace_eigenpair(profile, a, b, nx, ny, v0=start)
    value, coarse = lam ** -0.5, lam_coarse ** -0.5
    return ConstantEstimate(
        name="M1",
        value=value,
        domain=f"{profile.label()}[{a},{b}]",
        method="eigen",
        resolution=resolution,
        self_consistency=abs(value - coarse) / value,
    )


# ---------------------------------------------------------------------------
# M0: slicewise weighted Poincare constant
# ---------------------------------------------------------------------------


def _slice_m0(n):
    """sqrt of the largest eigenvalue of the Dirichlet P1 slice pencil on n
    uniform nodes, any width: (2 + cos t) / (6 (1 - cos t)) / (n-1)^2 for
    the lowest discrete sine, t = pi/(n-1); 1 - cos t = 2 sin(t/2)^2."""
    t = math.pi / (n - 1)
    return math.sqrt((2.0 + math.cos(t)) / 12.0) / (math.sin(0.5 * t) * (n - 1))


# M0: P1 nodes per slice
M0_NODES = 257


def poincare_m0(profile, a, b):
    """Slicewise best constant of ||w/f|| <= M0 ||d2 w||, sup over slices.

    On uniform slice nodes the discrete constant is the same on every slice.
    """
    value, coarse = _slice_m0(M0_NODES), _slice_m0(M0_NODES // 2 + 1)
    return ConstantEstimate(
        name="M0",
        value=value,
        domain=f"{profile.label()}[{a},{b}]",
        method="eigen",
        resolution=(M0_NODES,),
        self_consistency=abs(value - coarse) / value,
    )


# ---------------------------------------------------------------------------
# M4: L4 embedding constant by normalized ascent
# ---------------------------------------------------------------------------


# M4 ascent: seeded random starts, each capped at M4_MAX_STEPS steps; the
# start set decides the basin the ascent lands in, so it is fixed
M4_STARTS = 16
M4_MAX_STEPS = 500
M4_SEED = 0


def sobolev_m4(profile, a, b, resolution=(49, 33)):
    """Best ratio ||w||_L4 / ||grad w||_L2 over wall-vanishing fields.

    Normalized fixed-point ascent w <- K^(-1) M(w^3) from M4_STARTS seeded
    random starts.  The ascent can only stop short of the discrete
    supremum, but the lumped-mass L4 quadrature is no bound on the
    continuous one: at 49x33 on straight [-10, 10] the value lies 2.1 %
    above its refined value.  A start that has not settled after
    M4_MAX_STEPS steps raises :class:`AscentStagnation` naming it with its
    last ratio and relative change, and the best ratio a start settled at;
    so does a run in which no start reaches a positive ratio.
    """
    nx, ny = resolution
    _, x, y = _grid_nodes(profile, a, b, nx, ny)
    K, _, lumped = assemble_q1(x, y, nx, ny)
    free = ~boundary_mask(nx, ny, ends=False)
    Kf = K[free][:, free]
    lump_f = lumped[free]
    solve = spd_solve(Kf)

    # one standard_normal draw per start, the columns of one Fortran-ordered
    # block: each step back-solves the live ones in one call
    rng = np.random.default_rng(M4_SEED)
    W = rng.standard_normal((M4_STARTS, lump_f.size)).T
    W = W / np.sqrt(np.einsum("ij,ij->j", W, Kf @ W))
    W2 = W * W  # formed once per step: W**3 and w**4 are pow calls per entry
    live = np.arange(M4_STARTS)
    ratio_old = np.zeros(M4_STARTS)
    best = 0.0
    for _ in range(M4_MAX_STEPS):
        load = lump_f[:, None] * (W2 * W)
        W = solve(load)
        nrm = np.sqrt(np.einsum("ij,ij->j", W, load))  # w.Kw = w.r for K w = r
        W /= np.where(nrm > 0.0, nrm, 1.0)
        W2 = W * W
        ratio = (lump_f @ np.square(W2)) ** 0.25  # ||grad w|| normalized to 1
        # a start stops at a zero field or a settled ratio, keeping its last one
        change = np.abs(ratio - ratio_old)
        settled = change <= 1e-10 * np.maximum(ratio, 1e-300)
        done = settled | (nrm == 0.0)
        if done.any():
            best = max(best, ratio_old[done].max())
            W, W2, ratio, change, live = (
                W[:, ~done], W2[:, ~done], ratio[~done], change[~done], live[~done])
            if not live.size:
                break
        ratio_old = ratio
    if live.size:
        last = "; ".join(
            f"start {i} at ratio {r:.6g} (last relative change {c / r:.2e})"
            for i, r, c in zip(live, ratio, change))
        settled_at = (f"the best settled ratio is {best:.6g}" if best > 0.0
                      else "no start settled")
        raise AscentStagnation(
            f"M4 ascent starts {', '.join(map(str, live))} of {M4_STARTS} "
            f"did not settle in {M4_MAX_STEPS} steps: {last}; {settled_at}")
    best = float(best)
    if not best > 0.0:
        raise AscentStagnation("no ascent start produced a positive ratio")
    return ConstantEstimate(
        name="M4",
        value=best,
        domain=f"{profile.label()}[{a},{b}]",
        method="rayleigh_ascent",
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# M5: divergence problem (Bogovskii) constant
# ---------------------------------------------------------------------------


def _saddle_factor(x, y, nx, ny):
    """Back-solve of the stabilized Q1-Q1 saddle system for div a = w,
    a = 0 on bd; returns (solve, Mp, lumped, nf).

    The pressure is fixed up to a constant, so node 0 is pinned (its row and
    column dropped): a dense mean-zero multiplier border would fill the LU.
    The unknowns are factored in the nested-dissection order of the nodes,
    each node's a1, a2 and p side by side, and SuperLU keeps that order
    and the diagonal pivots (``permc_spec="NATURAL"``, ``diag_pivot_thresh
    =0``).  Positive definite velocity blocks and a negative definite
    stabilized pressure block make the system symmetric quasi-definite, so
    every symmetric order factors with diagonal pivots (Vanderbei, SIAM J.
    Optim. 5, 1995).
    """
    K, Mp, lumped = assemble_q1(x, y, nx, ny)
    B1, B2 = assemble_div(x, y, nx, ny)
    free = ~boundary_mask(nx, ny, ends=True)

    Kf = K[free][:, free]
    B1f = B1[1:, free]
    B2f = B2[1:, free]
    # pressure stabilization (Brezzi-Pitkaranta): eps_h * K_p with eps_h ~ h^2
    h2 = lumped.sum() / ((nx - 1) * (ny - 1))
    C = 0.1 * h2 * K[1:, 1:]
    nf = int(free.sum())
    s = sparse.bmat(
        [[Kf, None, B1f.T], [None, Kf, B2f.T], [B1f, B2f, -C]], format="csr"
    )
    # the unknowns (a1, a2, p) of each node, -1 where a node has none
    n = nx * ny
    unknowns = np.full((n, 3), -1)
    unknowns[free, 0] = np.arange(nf)
    unknowns[free, 1] = nf + np.arange(nf)
    unknowns[1:, 2] = 2 * nf + np.arange(n - 1)
    perm = unknowns[nested_dissection(nx, ny)].ravel()
    perm = perm[perm >= 0]
    try:
        lu = splu(s[perm][:, perm].tocsc(), permc_spec="NATURAL",
                  diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SaddleSolveFailure(str(exc)) from exc

    def solve(rhs):
        sol = np.empty_like(rhs)
        sol[perm] = lu.solve(rhs[perm])
        return sol

    return solve, Mp, lumped, nf


def _saddle_apply(solve, nf, lumped, w_times_mass):
    """(a1, a2, p), p[0] = 0, for the load r made compatible first as
    r - lumped sum(r) / area: what a mean-zero multiplier would absorb."""
    r = w_times_mass - lumped * (w_times_mass.sum() / lumped.sum())
    sol = solve(np.concatenate([np.zeros(2 * nf), r[1:]]))
    return sol[:nf], sol[nf : 2 * nf], np.concatenate([[0.0], sol[2 * nf :]])


def bogovskii_m5(profile, a, b, resolution=(33, 33)):
    """Estimate M5(D) = sup ||grad a|| / ||w|| over mean-zero w.

    M5^2 is the largest eigenvalue of w -> -p(Mp w), the pressure of one
    saddle solve projected to zero lumped mean (the inverse Schur
    complement), so M5 = lam^(-1/2) for the smallest eigenvalue lam of the
    pencil it inverts.  The projection removes the constant of the pinned
    pressure node, so the map is the one of a mean-zero multiplier.
    """
    nx, ny = resolution
    _, x, y = _grid_nodes(profile, a, b, nx, ny)
    saddle, Mp, lumped, nf = _saddle_factor(x, y, nx, ny)
    area = lumped.sum()

    def solve(rhs):
        z = -_saddle_apply(saddle, nf, lumped, rhs)[2]
        return z - (lumped @ z) / area

    lam, _ = smallest_eigenpair(Mp, solve)
    return ConstantEstimate(
        name="M5",
        value=lam ** -0.5,
        domain=f"{profile.label()}[{a},{b}]",
        method="inf_sup",
        resolution=(nx, ny),
    )
