"""Steady Navier-Stokes on truncated channels, streamfunction-vorticity form.

The flux constraint is exact Dirichlet data (psi = 0 on the lower wall,
psi = flux on the upper wall); truncation ends carry the carrier data
psi = G, omega = curl g, so the zero-flux perturbation v = u - g vanishes
there up to the tangential component carried through the omega data.  The
nonlinear loop is a chord iteration on the coupled linear (psi, omega)
system with the advecting velocity frozen: one SuperLU factor serves
several steps, starting with the Stokes factor A(0) and carried across
continuation levels.  The factor takes the unknowns in a nested-dissection
order of the grid nodes, psi and omega of a node side by side, and keeps
its pivots on the diagonal so that the order's low fill survives.  The
wall vorticity closure is a second-order one-sided formula built into the
matrix.

The discretisation is written once, as the matrix A(u): each state has one
residual r = b - A(u) x.  Its interior and wall-closure rows give
:func:`residual_norm`, its Dirichlet rows :func:`boundary_defect`, and the
chord step from the state takes the same r as its right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import flux_carrier as fc
# neither is called here: both are patch points of bench/spans.py
from ._fem import assemble_q1, assemble_grad_load
from .errors import LinearSolveFailure, NonConvergence, OutOfRange
from .geometry import Grid, make_grid, window_weights

__all__ = [
    "SolverConfig",
    "FlowState",
    "solve_stokes",
    "picard_step",
    "solve_steady",
    "velocity_gradients",
    "dirichlet_energy",
    "weighted_energy",
    "slice_flux_profile",
]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9
    max_iter: int = 60

    def __post_init__(self):
        if self.tol <= 0.0:
            raise OutOfRange("tol must be positive")


@dataclass
class FlowState:
    grid: Grid
    profile: object
    params: fc.CarrierParams
    psi: np.ndarray
    omega: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    converged: bool = False
    residual_history: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Discrete operators on the mapped grid
# ---------------------------------------------------------------------------


def _d1(values, h, axis):
    """Second-order first derivative with one-sided edges."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _d2(values, h, axis):
    """Second derivative, one-sided second-order at the edges."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def velocity_from_psi(grid, psi):
    """u = (d2 psi, -d1 psi) through the metric chain rule.

    Wall rows come from the same one-sided stencils as everything else (a
    uniform O(h^2) bias); zeroing them exactly would kink the arrays
    against the biased interior and cost an order in wall-adjacent
    differences.
    """
    pe = _d1(psi, grid.hy, 1)
    px = _d1(psi, grid.hx, 0)
    u1 = pe / grid.f[:, None]
    u2 = -(px + grid.j1 * pe)
    return u1, u2


def velocity_gradients(state):
    """Nodal velocity gradient entries (d1u1, d2u1, d1u2, d2u2) from psi."""
    grid = state.grid
    psi = state.psi
    f = grid.f[:, None]
    fp = grid.fp[:, None]
    j1 = grid.j1
    j1_eta = -fp / f

    pe = _d1(psi, grid.hy, 1)
    pee = _d2(psi, grid.hy, 1)
    pxx = _d2(psi, grid.hx, 0)
    pxe = _d1(_d1(psi, grid.hy, 1), grid.hx, 0)

    d2u1 = pee / f**2
    d1u1 = pxe / f - pe * fp / f**2 + j1 * pee / f
    d2u2 = -(pxe + j1_eta * pe + j1 * pee) / f
    d1u2 = -(pxx + 2.0 * j1 * pxe + j1**2 * pee + grid.lap_s * pe)
    return d1u1, d2u1, d1u2, d2u2


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


# nested dissection stops at boxes of at most this many nodes a side
_LEAF_NODES = 4


def _nested_dissection(nx, ny):
    """Grid nodes ``i * ny + j`` in nested-dissection order.

    Each box larger than a leaf is cut across its longer side by one full
    grid line; both halves come first, then the separating line, so every
    separator follows the nodes it decouples (George, SIAM J. Numer.
    Anal. 10, 1973).
    """
    parts = []

    def visit(box):
        m, k = box.shape
        if max(m, k) <= _LEAF_NODES:
            parts.append(box.ravel())
            return
        if m < k:
            box = box.T
            m = k
        c = m // 2
        visit(box[:c])
        visit(box[c + 1:])
        parts.append(box[c])

    visit(np.arange(nx * ny).reshape(nx, ny))
    return np.concatenate(parts)


class _Workspace:
    """Constant matrix block of a grid, and the boundary data of one flux."""

    def __init__(self, grid, params, profile):
        self.grid = grid
        self.profile = profile
        self.n = grid.nx * grid.ny
        self.a_const = self._assemble_constant()
        # factor order of the 2n unknowns: psi and omega of each node
        # adjacent, the nodes in nested-dissection order
        order = _nested_dissection(grid.nx, grid.ny)
        self.perm = np.column_stack([order, order + self.n]).ravel()
        # advection pattern: the omega row of each interior node holds the
        # omega columns of its four neighbours, in ascending order
        inner = self.n + np.arange(self.n).reshape(grid.nx, grid.ny)[1:-1, 1:-1].ravel()
        counts = np.zeros(2 * self.n, dtype=int)
        counts[inner] = 4
        self._adv_pattern = sparse.csr_matrix(
            (np.ones(4 * inner.size),
             np.column_stack([inner - grid.ny, inner - 1, inner + 1,
                              inner + grid.ny]).ravel(),
             np.concatenate([[0], np.cumsum(counts)])),
            shape=(2 * self.n, 2 * self.n))
        self.set_params(params)

    def set_params(self, params):
        """End data and right-hand side of ``params``; ``a_const`` is kept.

        The flux enters only the Dirichlet rows, so one assembly of the
        constant block serves every continuation level on the grid.
        """
        grid, profile = self.grid, self.profile
        left = (np.full(grid.ny, grid.a), grid.x2[0, :])
        right = (np.full(grid.ny, grid.b), grid.x2[-1, :])
        # Dirichlet psi on the ends, then the walls (walls win at corners);
        # carrier vorticity on the ends; every other row is homogeneous
        psi = np.zeros((grid.nx, grid.ny))
        psi[0, :] = fc.stream_G(left, params, profile)
        psi[-1, :] = fc.stream_G(right, params, profile)
        psi[:, 0], psi[:, -1] = 0.0, params.phi
        omega = np.zeros((grid.nx, grid.ny))
        omega[0, :] = fc.carrier_vorticity(left, params, profile)
        omega[-1, :] = fc.carrier_vorticity(right, params, profile)
        self.rhs = np.concatenate([psi.ravel(), omega.ravel()])
        self._residual_of = self._residual = None

    def _idx(self, i, j):
        return i * self.grid.ny + j

    def _assemble_constant(self):
        grid = self.grid
        nx, ny = grid.nx, grid.ny
        n = self.n
        hx, hy = grid.hx, grid.hy
        # Delta = d_xx + 2 J1 d_xe + (J1^2 + 1/f^2) d_ee + S d_e in mapped
        # coordinates
        cxy = 2.0 * grid.j1
        cyy = grid.j1**2 + 1.0 / grid.f[:, None] ** 2
        cy = grid.lap_s

        rows, cols, vals = [], [], []

        ii, jj = np.meshgrid(
            np.arange(1, nx - 1), np.arange(1, ny - 1), indexing="ij"
        )
        ii = ii.ravel()
        jj = jj.ravel()
        center = self._idx(ii, jj)

        def lap_entries(row_offset, col_offset):
            cxy_i = cxy[ii, jj]
            cyy_i = cyy[ii, jj]
            cy_i = cy[ii, jj]
            xx = np.full(center.shape, 1.0 / hx**2)
            stencil = [
                (self._idx(ii + 1, jj), xx),
                (self._idx(ii - 1, jj), xx),
                (self._idx(ii, jj + 1), cyy_i / hy**2 + cy_i / (2 * hy)),
                (self._idx(ii, jj - 1), cyy_i / hy**2 - cy_i / (2 * hy)),
                (center, -2.0 / hx**2 - 2.0 * cyy_i / hy**2),
                (self._idx(ii + 1, jj + 1), cxy_i / (4 * hx * hy)),
                (self._idx(ii - 1, jj - 1), cxy_i / (4 * hx * hy)),
                (self._idx(ii + 1, jj - 1), -cxy_i / (4 * hx * hy)),
                (self._idx(ii - 1, jj + 1), -cxy_i / (4 * hx * hy)),
            ]
            for col, val in stencil:
                rows.append(row_offset + center)
                cols.append(col_offset + col)
                vals.append(np.broadcast_to(val, center.shape).astype(float))

        # psi rows: Delta psi + omega = 0 at interior
        lap_entries(0, 0)
        rows.append(center)
        cols.append(n + center)
        vals.append(np.ones_like(center, dtype=float))

        # omega rows: Delta omega (advection added separately)
        lap_entries(n, n)

        # Dirichlet psi: walls then ends (walls win at corners)
        wall_lo = self._idx(np.arange(nx), 0)
        wall_hi = self._idx(np.arange(nx), ny - 1)
        ends = np.concatenate(
            [self._idx(0, np.arange(1, ny - 1)), self._idx(nx - 1, np.arange(1, ny - 1))]
        )
        for rr in (wall_lo, wall_hi, ends):
            rows.append(rr)
            cols.append(rr)
            vals.append(np.ones(rr.size))

        # omega ends: carrier vorticity
        om_ends = np.concatenate(
            [self._idx(0, np.arange(ny)), self._idx(nx - 1, np.arange(ny))]
        )
        rows.append(n + om_ends)
        cols.append(n + om_ends)
        vals.append(np.ones(om_ends.size))

        # omega wall closure: omega + c*(8 psi_1 - psi_2 - 7 psi_0) = 0,
        # c = Cyy/(2 hy^2), one-sided second order with psi_eta = 0 at walls
        im = np.arange(1, nx - 1)
        for j0, j1_, j2_ in [(0, 1, 2), (ny - 1, ny - 2, ny - 3)]:
            c = cyy[im, j0] / (2.0 * hy**2)
            r = n + self._idx(im, j0)
            for col_j, coef in [(j0, -7.0), (j1_, 8.0), (j2_, -1.0)]:
                rows.append(r)
                cols.append(self._idx(im, col_j))
                vals.append(coef * c)
            rows.append(r)
            cols.append(r)
            vals.append(np.ones(im.size))

        rows = np.concatenate([np.asarray(r).ravel() for r in rows])
        cols = np.concatenate([np.asarray(c).ravel() for c in cols])
        vals = np.concatenate([np.asarray(v, dtype=float).ravel() for v in vals])
        a = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))
        # cxy and cy vanish where the wall is straight; SuperLU would
        # count those stored zeros as structural nonzeros
        a.eliminate_zeros()
        return a

    def advection_matrix(self, u1, u2):
        """-u.grad on the omega rows of the interior nodes, central in the
        mapped coordinates: u.grad = u1 d_xi + (u1 J1 + u2/f) d_eta.  The
        values fill the grid's fixed pattern."""
        grid = self.grid
        a1 = u1[1:-1, 1:-1].ravel() / (2 * grid.hx)
        a2 = (u1 * grid.j1 + u2 / grid.f[:, None])[1:-1, 1:-1].ravel() / (2 * grid.hy)
        pattern = self._adv_pattern
        return sparse.csr_matrix(
            (np.column_stack([a1, a2, -a2, -a1]).ravel(), pattern.indices,
             pattern.indptr), shape=pattern.shape)

    def residual(self, state):
        """r = b - A(u) x at the fields x and the velocity u of ``state``.

        The last state's r is kept, so its two defects and the chord step
        from it share one evaluation.
        """
        if state is not self._residual_of:
            x = np.concatenate([state.psi.ravel(), state.omega.ravel()])
            self._residual = (self.rhs - self.a_const @ x
                              - self.advection_matrix(state.u1, state.u2) @ x)
            self._residual.setflags(write=False)  # shared by every reader
            self._residual_of = state
        return self._residual

    def factor(self, u1, u2):
        """SuperLU factor of A(u) at a frozen advecting velocity.

        Rows and columns are both permuted by ``perm``, and SuperLU keeps
        that order (``permc_spec="NATURAL"``) with diagonal pivots
        (``diag_pivot_thresh=0``): a row swap would undo the symmetric
        nested-dissection order and its fill.  SuperLU still swaps a row
        where a diagonal pivot is exactly zero.  The factor is of the
        permuted matrix; :meth:`apply` maps in and out of that order.
        """
        a = self.a_const
        if u1 is not None:
            a = a + self.advection_matrix(u1, u2)
        p = self.perm
        try:
            return splu(a[p][:, p].tocsc(), permc_spec="NATURAL",
                        diag_pivot_thresh=0.0)
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveFailure(str(exc)) from exc

    def apply(self, lu, rhs):
        """(psi, omega) from the back-solve LU^-1 rhs, in natural order."""
        x = np.empty_like(rhs)
        x[self.perm] = lu.solve(rhs[self.perm])
        if not np.all(np.isfinite(x)):
            raise LinearSolveFailure("linear solve produced non-finite values")
        n = self.n
        nx, ny = self.grid.nx, self.grid.ny
        return x[:n].reshape(nx, ny), x[n:].reshape(nx, ny)


def residual_norm(state, workspace):
    """Max-norm of the interior and wall-closure rows of r = b - A(u) x.

    These rows are the psi-omega coupling, the vorticity transport equation
    and the wall closure; the norm is relative to the vorticity scale.
    ``workspace`` holds the grid's matrix and the data of ``state.params``.
    """
    grid = state.grid
    r_psi, r_omega = workspace.residual(state).reshape(2, grid.nx, grid.ny)
    r = max(float(np.abs(r_psi[1:-1, 1:-1]).max()),
            float(np.abs(r_omega[1:-1, :]).max()))
    return r / max(1.0, float(np.abs(state.omega).max()))


def boundary_defect(state, workspace):
    """Max-norm of the Dirichlet rows of r = b - A(u) x.

    The psi rows of walls and ends count relative to the psi scale, the
    omega end rows relative to the vorticity scale.  The interior residual
    is blind to the flux (it only enters through these rows), so
    convergence checks that step the flux up combine both defects.
    """
    grid = state.grid
    r_psi, r_omega = workspace.residual(state).reshape(2, grid.nx, grid.ny)
    psi_rows = max(float(np.abs(r_psi[[0, -1], :]).max()),
                   float(np.abs(r_psi[:, [0, -1]]).max()))
    omega_rows = float(np.abs(r_omega[[0, -1], :]).max())
    return max(psi_rows / max(1.0, float(np.abs(state.psi).max())),
               omega_rows / max(1.0, float(np.abs(state.omega).max())))


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _state_from_fields(grid, profile, params, psi, omega):
    u1, u2 = velocity_from_psi(grid, psi)
    return FlowState(
        grid=grid, profile=profile, params=params, psi=psi, omega=omega,
        u1=u1, u2=u2,
    )


def solve_stokes(grid, params, profile, workspace=None):
    """Linear Stokes solve (no advection); the Picard initializer."""
    ws = workspace or _Workspace(grid, params, profile)
    psi, omega = ws.apply(ws.factor(None, None), ws.rhs)
    state = _state_from_fields(grid, profile, params, psi, omega)
    state.residual_history.append((0, residual_norm(state, ws)))
    return state


def picard_step(state, workspace=None, lu=None, chord=False):
    """One Picard iteration; returns (new_state, residual).

    The plain step solves A(u) x = b at the velocity u of ``state``,
    factoring A(u) unless ``lu`` already holds that factor.  With
    ``chord=True`` the step is the chord correction
    x + LU^-1 (b - A(u) x) from the fields x of ``state``, where ``lu``
    may factor A at an earlier iterate.  The flux and the end data are
    those of ``state.params`` and ``state.profile``; a ``workspace`` passed
    in must hold them, and without one the step builds it from the state.
    """
    ws = workspace or _Workspace(state.grid, state.params, state.profile)
    if lu is None:
        lu = ws.factor(state.u1, state.u2)
    if chord:
        dpsi, domega = ws.apply(lu, ws.residual(state))
        psi, omega = state.psi + dpsi, state.omega + domega
    else:
        psi, omega = ws.apply(lu, ws.rhs)
    new = _state_from_fields(state.grid, state.profile, state.params, psi,
                             omega)
    new.residual_history = list(state.residual_history)
    res = residual_norm(new, ws)
    new.residual_history.append((len(new.residual_history), res))
    return new, res


# steps without halving the defect after which the chord loop gives up
_STALL_STEPS = 3


def _picard(state, config, workspace, lu=None, factorizations=0):
    """Chord iteration from ``state`` until both defects drop below tol.

    Steps with a factor in hand are chord corrections x + LU^-1 (b - A(u) x)
    that evaluate the full nonlinear residual, so they also refine away
    the round-off of the factored solve.  ``lu`` may factor A at any
    iterate and flux on the grid, because the flux enters only the
    right-hand side: ``solve_steady`` passes the Stokes factor A(0), then
    the last factor of the previous continuation level.  Whenever a step
    shrinks the defect max(residual_norm, boundary_defect) by less than
    2x, or when ``lu`` is None, A(u) is factored at the current iterate
    and the step is the plain Picard solve, which keeps flux-0 fields
    exactly 0.

    ``state.residual_history`` must end with the residual of ``state``;
    ``workspace`` carries the boundary data of ``state.params``, which
    every step keeps.  Returns
    ``(state, lu, factorizations)``: the converged state, the last factor
    and the factor count, which goes on from ``factorizations``.  Raises
    :class:`NonConvergence` with the smallest defect reached as soon as
    the defect has not halved over ``_STALL_STEPS`` steps after the first,
    or after max_iter steps.
    """
    res = state.residual_history[-1][1]
    stalled = 0
    best = prev = math.inf
    for steps in range(config.max_iter + 1):
        defect = max(res, boundary_defect(state, workspace))
        if defect < config.tol:
            state.converged = True
            return state, lu, factorizations
        best = min(best, defect)
        if defect > 0.5 * prev:
            lu = None
        # count stalls from the first solve on: a start at a new flux is
        # off only in its boundary rows, and that solve may raise the
        # interior residual well above their defect
        if steps <= 1 or defect <= 0.5 * anchor:
            anchor, stalled = defect, 0
        else:
            stalled += 1
        if stalled == _STALL_STEPS or steps == config.max_iter:
            break
        prev, chord = defect, lu is not None
        if not chord:
            lu = workspace.factor(state.u1, state.u2)
            factorizations += 1
        state, res = picard_step(state, workspace, lu, chord)
    raise NonConvergence(
        f"Picard stalled at flux {state.params.phi}: residual {best:.3e} after "
        f"{steps} iterations and {factorizations} factorizations "
        f"(tol {config.tol:.1e})",
        best_residual=best,
        iterations=steps,
        factorizations=factorizations,
    )


def solve_steady(profile, params, a, b, nx, ny, config=None):
    """Stokes initialize, then Picard to tolerance, stepping the flux up.

    Fluxes above 2 pass through linspace(2, phi, ceil(log2(phi / 2)) + 2),
    each level started from the previous one's solution and factor; the
    Stokes factor seeds the first.  The constant block is assembled once;
    each level replaces only the boundary data and right-hand side.  The
    residual history holds every level's entries, each level numbered from
    0.  Raises :class:`NonConvergence` rather than returning an unconverged
    state.  Diagnostics report the Dirichlet energy of v = u - g and the
    ratio against the carrier volume integral, which stays bounded
    uniformly in the truncation.
    """
    config = config or SolverConfig()
    grid = make_grid(profile, a, b, nx, ny)

    target = params.phi
    if target > 2.0:
        steps = int(math.ceil(math.log2(target / 2.0))) + 2
        phis = list(np.linspace(2.0, target, steps))
    else:
        phis = [target]

    state = ws = None
    history = []
    for phi_k in phis:
        params_k = fc.CarrierParams(phi_k, params.epsilon)
        if ws is None:
            ws = _Workspace(grid, params_k, profile)
            lu, factorizations = ws.factor(None, None), 1
            psi, omega = ws.apply(lu, ws.rhs)
        else:
            ws.set_params(params_k)
            psi, omega = state.psi, state.omega
        state = _state_from_fields(grid, profile, params_k, psi, omega)
        state.residual_history.append((0, residual_norm(state, ws)))
        state, lu, factorizations = _picard(state, config, ws, lu,
                                            factorizations)
        history += state.residual_history
    del lu, ws  # free the factor before the energy diagnostics
    state.params = params
    state.residual_history = history

    energy_v = dirichlet_energy(state, a, b, of_perturbation=True)
    carrier = fc.carrier_volume_integral(params, profile, a, b)
    state.diagnostics.update(
        {
            "dirichlet_energy_v": energy_v,
            "carrier_volume_integral": carrier,
            "energy_ratio_c0": energy_v / carrier if carrier > 0 else 0.0,
        }
    )
    return state


# ---------------------------------------------------------------------------
# Energies and fluxes
# ---------------------------------------------------------------------------


def _grad_square(state, of_perturbation):
    d1u1, d2u1, d1u2, d2u2 = velocity_gradients(state)
    if of_perturbation:
        x1 = np.broadcast_to(state.grid.xi[:, None], state.psi.shape)
        J = fc.grad_g((x1, state.grid.x2), state.params, state.profile)
        d1u1 = d1u1 - J[..., 0, 0]
        d2u1 = d2u1 - J[..., 0, 1]
        d1u2 = d1u2 - J[..., 1, 0]
        d2u2 = d2u2 - J[..., 1, 1]
    return d1u1**2 + d2u1**2 + d1u2**2 + d2u2**2


def dirichlet_energy(state, a, b, of_perturbation=False):
    """integral over Omega_{a,b} of |grad u|^2 (or |grad(u-g)|^2)."""
    e = _grad_square(state, of_perturbation)
    w = window_weights(state.profile, state.grid.xi, state.grid.ny, a, b)
    return float((w * e).sum())


def weighted_energy(state, weight):
    """integral of weight(x1) * |grad v|^2 with v = u - g."""
    e = _grad_square(state, True)
    w = np.asarray(weight(state.grid.xi), dtype=float)
    return float((state.grid.wq * w[:, None] * e).sum())


def _d1_fourth(values, h, axis):
    """Fourth-order first derivative along axis (one-sided near edges)."""
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    out = np.empty_like(v)
    out[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
    # 4th-order one-sided stencils
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    out[0] = np.tensordot(c0, v[:5], axes=(0, 0))
    out[1] = np.tensordot(c1, v[:5], axes=(0, 0))
    out[-1] = -np.tensordot(c0, v[-5:][::-1], axes=(0, 0))
    out[-2] = -np.tensordot(c1, v[-5:][::-1], axes=(0, 0))
    return np.moveaxis(out, 0, axis)


def slice_flux_profile(state):
    """Flux integral of u1 over each cross-section (one value per xi node).

    Computed as integral of d(psi)/d(eta) d(eta) with a fourth-order
    derivative and Simpson quadrature, independent of the psi boundary
    values it should telescope to.
    """
    grid = state.grid
    pe = _d1_fourth(state.psi, grid.hy, 1)
    ny = grid.ny
    if (ny - 1) % 2 == 0:
        w = np.ones(ny)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= grid.hy / 3.0
    else:
        w = np.full(ny, grid.hy)
        w[0] = w[-1] = grid.hy / 2.0
    return pe @ w
