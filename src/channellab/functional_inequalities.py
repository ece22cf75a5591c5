"""Numerical estimates of the supporting inequality constants.

Four constants back the channel estimates: the slicewise Poincare constant
(uniform in the domain), the domain Poincare constant (proportional to the
max width), the L4 embedding constant, and the divergence-problem constant
with its star-shaped decomposition bound.  Everything here is a numerical
estimate at a stated resolution, not a certified enclosure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ._fem import (
    assemble_div,
    assemble_q1,
    smallest_eigenpair,
)
from .errors import AscentStagnation, EigenFailure, SaddleSolveFailure
from .geometry import make_grid

__all__ = [
    "ConstantName",
    "Method",
    "ConstantEstimate",
    "poincare_m1",
    "poincare_m0",
    "sobolev_m4",
    "bogovskii_m5",
    "bogovskii_window_sweep",
    "Rect",
    "decomposition_bound",
]


class ConstantName(enum.Enum):
    M0 = "M0"
    M1 = "M1"
    M4 = "M4"
    M5 = "M5"


class Method(enum.Enum):
    EIGEN = "eigen"
    RAYLEIGH_ASCENT = "rayleigh_ascent"
    INF_SUP = "inf_sup"
    FORMULA_A5 = "formula_a5"


@dataclass(frozen=True)
class ConstantEstimate:
    name: ConstantName
    value: float
    domain: str
    method: Method
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


def _wall_mask(nx, ny, dirichlet_ends=False):
    mask = np.zeros(nx * ny, dtype=bool)
    idx = np.arange(nx * ny).reshape(nx, ny)
    mask[idx[:, 0]] = True
    mask[idx[:, -1]] = True
    if dirichlet_ends:
        mask[idx[0, :]] = True
        mask[idx[-1, :]] = True
    return mask


def _laplace_eigenvalue(profile, a, b, nx, ny, dirichlet_ends=False):
    """Smallest Laplace eigenvalue on the free nodes of an nx x ny grid."""
    _, x, y = _grid_nodes(profile, a, b, nx, ny)
    K, M, _ = assemble_q1(x, y, nx, ny)
    free = ~_wall_mask(nx, ny, dirichlet_ends)
    try:
        lu = splu(K[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise EigenFailure(str(exc)) from exc
    lam, _ = smallest_eigenpair(M[free][:, free].tocsr(), lu.solve)
    return lam


def poincare_m1(profile, a, b, resolution=(129, 65)):
    """M1 = lam_min^(-1/2), Laplace eigenvalue with Dirichlet walls.

    Natural (do-nothing) conditions at the truncation ends model functions
    vanishing on the walls only.
    """
    nx, ny = resolution
    value, coarse = (
        _laplace_eigenvalue(profile, a, b, n1, n2) ** -0.5
        for n1, n2 in ((nx, ny), (nx // 2 + 1, ny // 2 + 1))
    )
    return ConstantEstimate(
        name=ConstantName.M1,
        value=value,
        domain=f"{profile.label()}[{a},{b}]",
        method=Method.EIGEN,
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
        name=ConstantName.M0,
        value=value,
        domain=f"{profile.label()}[{a},{b}]",
        method=Method.EIGEN,
        resolution=(M0_NODES,),
        self_consistency=abs(value - coarse) / value,
    )


# ---------------------------------------------------------------------------
# M4: L4 embedding constant by normalized ascent
# ---------------------------------------------------------------------------


# M4 ascent: seeded random starts, each capped at M4_MAX_STEPS steps; the
# start set decides the basin the ascent lands in, so it is fixed
M4_STARTS = 16
M4_MAX_STEPS = 200
M4_SEED = 0


def sobolev_m4(profile, a, b, resolution=(65, 65)):
    """Best ratio ||w||_L4 / ||grad w||_L2 over wall-vanishing fields.

    Normalized fixed-point ascent w <- K^(-1) M(w^3) from M4_STARTS seeded
    random starts; the result is a certified lower bound on M4 (ascent can
    only stop short of the supremum).
    """
    nx, ny = resolution
    _, x, y = _grid_nodes(profile, a, b, nx, ny)
    K, _, lumped = assemble_q1(x, y, nx, ny)
    free = ~_wall_mask(nx, ny)
    Kf = K[free][:, free].tocsc()
    lump_f = lumped[free]
    try:
        lu = splu(Kf, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise EigenFailure(str(exc)) from exc

    # one standard_normal draw per start, the columns of one Fortran-ordered
    # block: each step back-solves the live ones in one call
    rng = np.random.default_rng(M4_SEED)
    W = rng.standard_normal((M4_STARTS, lump_f.size)).T
    W = W / np.sqrt(np.einsum("ij,ij->j", W, Kf @ W))
    ratio_old = np.zeros(M4_STARTS)
    best = 0.0
    for _ in range(M4_MAX_STEPS):
        W = lu.solve(lump_f[:, None] * (W * W * W))  # W**3 is a pow call per entry
        nrm = np.sqrt(np.einsum("ij,ij->j", W, Kf @ W))
        W /= np.where(nrm > 0.0, nrm, 1.0)
        ratio = (lump_f @ np.square(W * W)) ** 0.25  # ||grad w|| normalized to 1
        # a start stops at a zero field or a settled ratio, keeping its last one
        settled = np.abs(ratio - ratio_old) <= 1e-10 * np.maximum(ratio, 1e-300)
        done = settled | (nrm == 0.0)
        best = max(best, ratio_old[done].max(initial=0.0))
        W, ratio_old = W[:, ~done], ratio[~done]
        if not ratio_old.size:
            break
    best = float(max(best, ratio_old.max(initial=0.0)))
    if not best > 0.0:
        raise AscentStagnation("no ascent start produced a positive ratio")
    return ConstantEstimate(
        name=ConstantName.M4,
        value=best,
        domain=f"{profile.label()}[{a},{b}]",
        method=Method.RAYLEIGH_ASCENT,
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# M5: divergence problem (Bogovskii) constant
# ---------------------------------------------------------------------------


def _saddle_factor(x, y, nx, ny):
    """LU of the stabilized Q1-Q1 saddle system for div a = w, a = 0 on bd.

    The pressure is fixed up to a constant, so node 0 is pinned (its row and
    column dropped): a dense mean-zero multiplier border would fill the LU.
    """
    K, Mp, lumped = assemble_q1(x, y, nx, ny)
    B1, B2 = assemble_div(x, y, nx, ny)
    free = ~_wall_mask(nx, ny, dirichlet_ends=True)

    Kf = K[free][:, free]
    B1f = B1[1:, free]
    B2f = B2[1:, free]
    # pressure stabilization (Brezzi-Pitkaranta): eps_h * K_p with eps_h ~ h^2
    h2 = lumped.sum() / ((nx - 1) * (ny - 1))
    C = 0.1 * h2 * K[1:, 1:]
    nf = int(free.sum())
    s = sparse.bmat(
        [[Kf, None, B1f.T], [None, Kf, B2f.T], [B1f, B2f, -C]], format="csc"
    )
    try:
        lu = splu(s)
    except RuntimeError as exc:
        raise SaddleSolveFailure(str(exc)) from exc
    return lu, Mp, lumped, nf


def _saddle_apply(lu, nf, lumped, w_times_mass):
    """(a1, a2, p), p[0] = 0, for the load r made compatible first as
    r - lumped sum(r) / area: what a mean-zero multiplier would absorb."""
    r = w_times_mass - lumped * (w_times_mass.sum() / lumped.sum())
    sol = lu.solve(np.concatenate([np.zeros(2 * nf), r[1:]]))
    return sol[:nf], sol[nf : 2 * nf], np.concatenate([[0.0], sol[2 * nf :]])


def bogovskii_m5(profile, a, b, resolution=(49, 49)):
    """Estimate M5(D) = sup ||grad a|| / ||w|| over mean-zero w.

    M5^2 is the largest eigenvalue of w -> -p(Mp w), the pressure of one
    saddle solve projected to zero lumped mean (the inverse Schur
    complement), so M5 = lam^(-1/2) for the smallest eigenvalue lam of the
    pencil it inverts.  The projection removes the constant of the pinned
    pressure node, so the map is the one of a mean-zero multiplier.
    """
    nx, ny = resolution
    _, x, y = _grid_nodes(profile, a, b, nx, ny)
    lu, Mp, lumped, nf = _saddle_factor(x, y, nx, ny)
    area = lumped.sum()

    def solve(rhs):
        z = -_saddle_apply(lu, nf, lumped, rhs)[2]
        return z - (lumped @ z) / area

    lam, _ = smallest_eigenpair(Mp, solve)
    return ConstantEstimate(
        name=ConstantName.M5,
        value=lam ** -0.5,
        domain=f"{profile.label()}[{a},{b}]",
        method=Method.INF_SUP,
        resolution=(nx, ny),
    )


def bogovskii_window_sweep(profile, beta_star, t_values, resolution=(33, 33)):
    """M5 over the sliding windows Omega_{t - beta* f(t), t}."""
    out = []
    for t in t_values:
        width = beta_star * float(profile.width(t))
        est = bogovskii_m5(profile, t - width, t, resolution=resolution)
        out.append(est)
    return out


# ---------------------------------------------------------------------------
# Star-shaped decomposition bound (closed-form evaluation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def area(self):
        return max(self.x1 - self.x0, 0.0) * max(self.y1 - self.y0, 0.0)

    def ball_radius(self):
        return 0.5 * min(self.x1 - self.x0, self.y1 - self.y0)


def _union_area(rects):
    if not rects:
        return 0.0
    xs = sorted({r.x0 for r in rects} | {r.x1 for r in rects})
    ys = sorted({r.y0 for r in rects} | {r.y1 for r in rects})
    total = 0.0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            if any(r.x0 <= cx <= r.x1 and r.y0 <= cy <= r.y1 for r in rects):
                total += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return total


def _intersect(r, s):
    return Rect(
        max(r.x0, s.x0), min(r.x1, s.x1), max(r.y0, s.y0), min(r.y1, s.y1)
    )


def decomposition_bound(rects):
    """Evaluate the star-shaped union bound on M5 for rectangle chains.

    For a single rectangle the chain prefactor degenerates; the k = N term
    uses the domain itself, giving the factor 2 (flagged convention).
    """
    if not rects:
        raise ValueError("need at least one rectangle")
    n = len(rects)
    R0 = _union_diameter(rects)
    R = min(r.ball_radius() for r in rects)
    if R <= 0:
        raise ValueError("degenerate rectangle in the decomposition")

    def tilde_area(i):
        if i == n - 1:
            return rects[i].area()
        later = [_intersect(rects[i], rects[j]) for j in range(i + 1, n)]
        later = [r for r in later if r.area() > 0]
        return _union_area(later)

    def hat_minus_area(i):
        later = rects[i + 1 :]
        hat = _union_area(later)
        overlap = _union_area(
            [r for r in (_intersect(s, rects[i]) for s in later) if r.area() > 0]
        )
        return hat - overlap

    c_d = 0.0
    for k in range(n):
        tk = tilde_area(k)
        if tk <= 0:
            raise ValueError(f"rectangle {k} does not meet the later union")
        term = 1.0 + math.sqrt(rects[k].area() / tk)
        for i in range(k):
            ti = tilde_area(i)
            term *= 1.0 + math.sqrt(max(hat_minus_area(i), 0.0) / ti)
        c_d = max(c_d, term)
    return c_d * (R0 / R) ** 2 * (1.0 + R0 / R)


def _union_diameter(rects):
    corners = []
    for r in rects:
        corners.extend([(r.x0, r.y0), (r.x0, r.y1), (r.x1, r.y0), (r.x1, r.y1)])
    best = 0.0
    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            dx = corners[i][0] - corners[j][0]
            dy = corners[i][1] - corners[j][1]
            best = max(best, math.hypot(dx, dy))
    return best
