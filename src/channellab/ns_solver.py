"""Steady Navier-Stokes on truncated channels, streamfunction-vorticity form.

The flux constraint is exact Dirichlet data (psi = 0 on the lower wall,
psi = flux on the upper wall); truncation ends carry the carrier data
psi = G, omega = curl g, so the zero-flux perturbation v = u - g vanishes
there up to the tangential component carried through the omega data.  The
nonlinear loop is one chord iteration at the requested flux on the
coupled linear (psi, omega) system with the advecting velocity frozen: one
SuperLU factor serves several steps, starting with the Stokes factor A(0)
and, in the uniqueness probe, carried on to the perturbed start; a
refresh releases the old factor before it builds the new one.  Each
solver decision has one owner.  The grid holds the wall.  The workspace
holds the flux ``params`` whose boundary data it carries, starts itself
from Stokes, holds its live factor and counts the factors it builds; its
``factor`` alone rules that zero data (flux 0) need none, as x = 0 solves
every step.  ``_ADVECTION_SLOTS`` alone holds the advection stencil.  The
chord loop :func:`_picard` alone records the residual history, stops
after ``_MAX_STEPS`` steps, and raises :class:`NonConvergence`.
SuperLU never sees the coupled matrix.  Every row of A(u) but the omega
rows of the interior nodes has a unit coefficient on one unknown that is
not an interior psi, so those rows eliminate omega and the Dirichlet
unknowns exactly, and the factor is of the psi-only Schur complement on
the interior nodes: one order on every grid, minimum degree on A^T + A
in symmetric mode, with the pivots kept on the diagonal.  The wall
vorticity closure is a second-order one-sided formula built into the
matrix.  Every difference stencil of the scheme, its uniform spacing and
its eta weights live in one place, the grid's two ``geometry.Axis``
objects, whose stencils build A(u) and the velocity.  Kept apart on
purpose are the wall closure's (-7, 8, -1) rows and
:func:`slice_flux_profile`'s fourth-order ``_d1_fourth`` with its
Simpson weights: that flux check must not share the scheme it checks.
Energies are computed only on request (:func:`energy_diagnostics`); a
state forms its nodal velocity gradients and carrier Jacobian once.

The discretisation is written once, as A(u) = A(0) + advection, with A(0)
a matrix and the advection -u.grad omega the four slots of
``_ADVECTION_SLOTS`` on the axes' central stencils.  A refresh stacks
their weights into a matrix to factor A(u); a residual applies the same
weights to the omega field, to the bit what the matrix gives.
Each state has one residual r = b - A(u) x.  Its interior and wall-closure
rows give :func:`residual_norm`, its Dirichlet rows
:func:`boundary_defect`, and the chord step from the state takes the same
r as its right-hand side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import flux_carrier as fc
from ._fem import boundary_mask
# neither is called here: both are patch points of bench/spans.py
from ._fem import assemble_q1, assemble_grad_load
from .errors import LinearSolveFailure, NonConvergence, OutOfRange
from .geometry import Grid, csr_slots, make_grid

__all__ = [
    "SolverConfig",
    "FlowState",
    "state_from_fields",
    "solve_stokes",
    "picard_step",
    "solve_steady",
    "solve_two_starts",
    "velocity_gradients",
    "gradient_squares",
    "dirichlet_energy",
    "energy_diagnostics",
    "weighted_energy",
    "slice_flux_profile",
]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9

    def __post_init__(self):
        if not self.tol > 0.0:
            raise OutOfRange("tol must be positive")


@dataclass
class FlowState:
    """The fields of one flux ``params`` on ``grid``, whose ``profile`` is
    the wall.  A solve returns only converged states, or raises."""

    grid: Grid
    params: fc.CarrierParams
    psi: np.ndarray
    omega: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    residual_history: list = field(default_factory=list)

    @functools.cached_property
    def gradients(self):
        """:func:`velocity_gradients`, formed on first use and kept: no code
        changes a state's fields once it is built."""
        return velocity_gradients(self)

    @functools.cached_property
    def carrier_gradients(self):
        """grad g at the nodes as (d1g1, d2g1, d1g2, d2g2), formed once."""
        x1 = np.broadcast_to(self.grid.xi[:, None], self.psi.shape)
        J = fc.grad_g((x1, self.grid.x2), self.params, self.grid.profile)
        return J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1]


# ---------------------------------------------------------------------------
# Discrete operators on the mapped grid
# ---------------------------------------------------------------------------


def velocity_from_psi(grid, psi):
    """u = (d2 psi, -d1 psi) through the metric chain rule.

    Wall rows come from the same one-sided stencils as everything else (a
    uniform O(h^2) bias); zeroing them exactly would kink the arrays
    against the biased interior and cost an order in wall-adjacent
    differences.
    """
    d1x, s1x, _, _ = grid.xi_axis.differences
    d1y, s1y, _, _ = grid.eta_axis.differences
    pe = psi @ d1y.T / s1y
    u1 = pe / grid.f[:, None]
    u2 = -(d1x @ psi / s1x + grid.j1 * pe)
    return u1, u2


def velocity_gradients(state):
    """Nodal velocity gradient entries (d1u1, d2u1, d1u2, d2u2) from psi."""
    grid = state.grid
    psi = state.psi
    f = grid.f[:, None]
    fp = grid.fp[:, None]
    j1 = grid.j1
    j1_eta = -fp / f
    d1x, s1x, d2x, s2x = grid.xi_axis.differences
    d1y, s1y, d2y, s2y = grid.eta_axis.differences

    pe = psi @ d1y.T / s1y
    pee = psi @ d2y.T / s2y
    pxx = d2x @ psi / s2x
    pxe = d1x @ pe / s1x

    d2u1 = pee / f**2
    d1u1 = pxe / f - pe * fp / f**2 + j1 * pee / f
    d2u2 = -(pxe + j1_eta * pe + j1 * pee) / f
    d1u2 = -(pxx + 2.0 * j1 * pxe + j1**2 * pee + grid.lap_s * pe)
    return d1u1, d2u1, d1u2, d2u2


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------

# the advection's slots on the omega row of node (i, j), in CSR column
# order: (axis, di, dj, entry of the axis's central D1) at (i + di, j + dj)
_ADVECTION_SLOTS = ((0, -1, 0, 0), (1, 0, -1, 0), (1, 0, 1, 2), (0, 1, 0, 2))


class _Workspace:
    """A grid's constant block, built straight from the axes' stencils, and
    its block split; the boundary data of one flux ``params`` (its
    right-hand side ``rhs``), at most one live ``lu`` and the count of
    ``factorizations`` it has built.  The flux enters only the Dirichlet
    rows of ``rhs``.  :meth:`stokes` factors A(0) and back-solves it.  The
    weights of :meth:`_advection` are applied to the fields by
    :meth:`residual`, and stacked into a matrix, on an index the first
    refresh builds, only when :meth:`factor` refreshes A(u) at a moving
    velocity.  :meth:`factor` builds nothing on all-zero data, which
    :meth:`apply` solves without a factor.

    The split is fixed per grid.  ``keep`` are the psi unknowns of the
    interior nodes, and ``rows`` and ``cols`` pair every other row with
    the unknown it has a unit coefficient on: the psi row of a boundary
    node with its psi, the psi row of an interior node with its omega,
    and the omega row of a boundary node (end data or wall closure) with
    its omega.  So A[rows][:, cols] = I + N, where N couples interior psi
    rows and wall closures to boundary psi, whose own rows are identities:
    N @ N = 0 and the inverse is I - N.  Advection enters only the omega
    rows of the interior nodes, so I - N and W = (I - N) A[rows][:, keep]
    are held once per grid.
    """

    def __init__(self, grid, params):
        self.grid = grid
        self.lu = self._a1 = None
        self.factorizations = 0
        self.n = n = grid.nx * grid.ny
        self._interior = interior = ~boundary_mask(grid.nx, grid.ny, True)
        self.a_const = self._assemble_constant()
        self.keep = np.flatnonzero(interior)
        boundary_omega = n + np.flatnonzero(~interior)
        self.rows = np.concatenate([np.arange(n), boundary_omega])
        self.cols = np.concatenate([np.arange(n) + n * interior,
                                    boundary_omega])
        outer = self.a_const[self.rows]
        eye = sparse.identity(len(self.rows), format="csr")
        # 2I - (I + N) = I - N
        self._unit_inverse = (2 * eye - outer[:, self.cols]).tocsr()
        self._w = (self._unit_inverse @ outer[:, self.keep]).tocsr()
        left = (np.full(grid.ny, grid.a), grid.x2[0, :])
        right = (np.full(grid.ny, grid.b), grid.x2[-1, :])
        # Dirichlet psi on the ends, then the walls (walls win at corners);
        # carrier vorticity on the ends; every other row is homogeneous
        psi = np.zeros((grid.nx, grid.ny))
        psi[0, :] = fc.stream_G(left, params, grid.profile)
        psi[-1, :] = fc.stream_G(right, params, grid.profile)
        psi[:, 0], psi[:, -1] = 0.0, params.phi
        omega = np.zeros((grid.nx, grid.ny))
        omega[0, :] = fc.carrier_vorticity(left, params, grid.profile)
        omega[-1, :] = fc.carrier_vorticity(right, params, grid.profile)
        self.params = params
        self.rhs = np.concatenate([psi.ravel(), omega.ravel()])
        self._residual_of = self._residual = None

    def stokes(self):
        """The Stokes state of ``params``: A(0) factored, then back-solved
        (exactly 0, with no factor, where the data are zero)."""
        self.factor(None, None)
        return state_from_fields(self.grid, self.params, *self.apply(self.rhs))

    def _assemble_constant(self):
        """A(0): psi and omega of node p = i * ny + j are columns p and n + p.

        Interior rows are Delta psi + omega = 0 and Delta omega = 0, with
        Delta = d_xx + 2 J1 d_xe + (J1^2 + 1/f^2) d_ee + S d_e in mapped
        coordinates, summed in that order from the axes' central stencils on
        the nodes (i + di, j + dj).  Boundary psi rows and end omega rows
        are Dirichlet identities.  Wall omega rows close with the one-sided
        second-order omega + (J1^2 + 1/f^2)(8 psi_1 - psi_2 - 7 psi_0) /
        2hy^2 = 0, which takes psi_eta = 0 at the wall.
        """
        grid, n, nx, ny = self.grid, self.n, self.grid.nx, self.grid.ny
        _, s1x, _, s2x = grid.xi_axis.differences
        _, s1y, _, s2y = grid.eta_axis.differences
        (c1x, c2x), (c1y, c2y) = grid.xi_axis.central, grid.eta_axis.central
        one, outer = np.array([0.0, 1.0, 0.0]), np.multiply.outer
        cyy = grid.j1**2 + 1.0 / grid.f[:, None] ** 2
        xe, ee, e = (w[1:-1, 1:-1, None, None] for w in (
            2.0 * grid.j1 / (s1x * s1y), cyy / s2y, grid.lap_s / s1y))
        # slots of each psi row, then omega row: psi at (i, j - 2..j + 2),
        # the row's own field at the nine nodes (i + di, j + dj), omega (i, j)
        lap = ((outer(c2x / s2x, one) + xe * outer(c1x, c1y))
               + ee * outer(one, c2y)) + e * outer(one, c1y)
        vals = np.zeros((2, nx, ny, 15))
        vals[:, 1:-1, 1:-1, 5:14] = lap.reshape(nx - 2, ny - 2, 9)
        interior = self._interior.reshape(nx, ny)
        vals[:, ~interior, 9] = 1.0  # boundary rows: identities
        vals[0, ..., 14] = interior
        vals[1, 1:-1, 0, 2:5] = cyy[1:-1, 0, None] / (2.0 * s2y) * [-7, 8, -1]
        vals[1, 1:-1, -1, :3] = cyy[1:-1, -1, None] / (2.0 * s2y) * [-1, 8, -7]
        step = np.arange(-1, 2)
        at = np.r_[-2:3, (ny * step[:, None] + step).ravel(), n]
        cols = np.arange(n, dtype=np.int32)[:, None] + np.array(
            [at, np.r_[at[:5], n + at[5:]]], np.int32)[:, None]
        return csr_slots(cols.reshape(2 * n, 15), vals.reshape(2 * n, 15))

    def _advection(self, u1, u2):
        """The weights of -u.grad omega on the omega rows of the interior
        nodes, one (nx - 2, ny - 2) array per slot of ``_ADVECTION_SLOTS``:
        the slot's central D1 entry, negated, times u1 / 2hx on a xi slot
        and (u1 J1 + u2 / f) / 2hy on an eta slot, the two speeds of
        u.grad = u1 d_xi + (u1 J1 + u2 / f) d_eta."""
        grid = self.grid
        axes = grid.xi_axis, grid.eta_axis
        s1x, s1y = (axis.differences[1] for axis in axes)
        speeds = u1 / s1x, (u1 * grid.j1 + u2 / grid.f[:, None]) / s1y
        return [-axes[axis].central[0][entry] * speeds[axis][1:-1, 1:-1]
                for axis, _, _, entry in _ADVECTION_SLOTS]

    @functools.cached_property
    def _advection_index(self):
        """Column indices and row pointers of the advection matrix, built by
        the first refresh that factors A(u) at a moving velocity."""
        n, ny = self.n, self.grid.ny
        offsets = [di * ny + dj for _, di, dj, _ in _ADVECTION_SLOTS]
        return ((n + self.keep[:, None] + offsets).ravel(),
                np.cumsum(np.r_[np.zeros(n + 1, int),
                                len(offsets) * self._interior]))

    def advection_matrix(self, u1, u2):
        """-u.grad on the omega rows of the interior nodes as a matrix, for a
        refresh to factor: the weights of :meth:`_advection` in CSR."""
        return sparse.csr_matrix(
            (np.stack(self._advection(u1, u2), axis=-1).ravel(),
             *self._advection_index), shape=(2 * self.n, 2 * self.n))

    def residual(self, state):
        """r = b - A(u) x at the fields x and the velocity u of ``state``.

        A(0) x is a product with the constant block; -u.grad omega on the
        omega rows of the interior nodes applies the weights of
        :meth:`_advection` to the omega field, its products added in the
        order of ``_ADVECTION_SLOTS``, so r is the same to the bit as with
        :meth:`advection_matrix`.  The last state's r is kept, so its two
        defects and the chord step from it share one evaluation.
        """
        if state is not self._residual_of:
            x = np.concatenate([state.psi.ravel(), state.omega.ravel()])
            r = self.rhs - self.a_const @ x
            w, nx, ny = state.omega, self.grid.nx, self.grid.ny
            adv = [a * w[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj]
                   for a, (_, di, dj, _) in zip(
                       self._advection(state.u1, state.u2), _ADVECTION_SLOTS)]
            r[self.n:].reshape(w.shape)[1:-1, 1:-1] -= sum(adv[1:], adv[0])
            r.setflags(write=False)  # shared by every reader
            self._residual, self._residual_of = r, state
        return self._residual

    def factor(self, u1, u2):
        """Replace ``lu`` by the SuperLU factor of the psi-only Schur
        complement of A(u) at a frozen advecting velocity (u1 None: A(0)),
        releasing the old factor first.  All-zero data need no factor, as
        x = 0 solves A(u) x = 0: then nothing is factored or counted.

        With A1 = A(u)[n + keep][:, cols], the omega rows of the interior
        nodes on the eliminated unknowns, the complement is
        S(u) = A(u)[n + keep][:, keep] - A1 W.  Its first block is zero
        in the frozen-velocity matrix; a Newton Jacobian would fill it.
        SuperLU orders S by minimum degree
        on A^T + A in symmetric mode (Liu, ACM TOMS 11, 1985) and keeps
        the pivots on the diagonal (``diag_pivot_thresh=0``), since a row
        swap would undo that symmetric order and its fill; it still swaps
        a row where a diagonal pivot is exactly zero.  A1 is held with the
        factor for :meth:`apply`.
        """
        if not self.rhs.any():
            return
        self.lu = self._a1 = None
        self.factorizations += 1
        a = self.a_const
        if u1 is not None:
            a = a + self.advection_matrix(u1, u2)
        inner = a[self.n + self.keep]
        self._a1 = inner[:, self.cols]
        s = (inner[:, self.keep] - self._a1 @ self._w).tocsc()
        del a, inner  # freed before SuperLU runs
        try:
            self.lu = splu(s, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveFailure(str(exc)) from exc

    def apply(self, rhs):
        """(psi, omega) solving A(u) x = rhs at the factored u, in natural
        order, by exact block elimination: y = (I - N) rhs[rows], then
        x[keep] = S^-1 (rhs[n + keep] - A1 y) and x[cols] = y - W x[keep].
        With no factor held, as on zero data, an all-zero rhs gives x = 0
        exactly; a NaN in rhs is not zero and needs the factor."""
        if self.lu is None and not rhs.any():
            return np.zeros((2, self.grid.nx, self.grid.ny))
        y = self._unit_inverse @ rhs[self.rows]
        x = np.empty_like(rhs)
        x[self.keep] = x_keep = self.lu.solve(rhs[self.n + self.keep]
                                              - self._a1 @ y)
        x[self.cols] = y - self._w @ x_keep
        if not np.all(np.isfinite(x)):
            raise LinearSolveFailure("linear solve produced non-finite values")
        return x.reshape(2, self.grid.nx, self.grid.ny)


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
    is blind to the flux (it only enters through these rows), so the
    chord loop's convergence check combines both defects.
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


def state_from_fields(grid, params, psi, omega):
    """The state of the fields ``psi`` and ``omega``, with their velocity."""
    return FlowState(grid, params, psi, omega, *velocity_from_psi(grid, psi))


def solve_stokes(grid, params):
    """Linear Stokes solve (no advection): the start of the chord loops."""
    return _Workspace(grid, params).stokes()


def picard_step(state, workspace, chord=False):
    """One Picard iteration on ``workspace``; returns (new_state, residual).

    The plain step factors A(u) at the velocity u of ``state`` into the
    workspace, replacing the factor it held, and solves A(u) x = b; on
    zero data (flux 0) :meth:`_Workspace.factor` builds nothing.  With
    ``chord=True`` the step is the chord correction x + LU^-1 (b - A(u) x)
    from the fields x of ``state``, where the held factor LU may be of A
    at an earlier iterate.  The workspace holds the grid, the end data and
    the flux ``state.params``.
    """
    if chord:
        dpsi, domega = workspace.apply(workspace.residual(state))
        psi, omega = state.psi + dpsi, state.omega + domega
    else:
        workspace.factor(state.u1, state.u2)
        psi, omega = workspace.apply(workspace.rhs)
    new = state_from_fields(state.grid, state.params, psi, omega)
    return new, residual_norm(new, workspace)


# steps without halving the defect after which the chord loop gives up,
# and the most steps of one loop
_STALL_STEPS, _MAX_STEPS = 3, 120


def _picard(state, config, workspace):
    """Chord iteration from ``state`` until both defects drop below tol.

    Steps with a factor in hand are chord corrections x + LU^-1 (b - A(u) x)
    that evaluate the full nonlinear residual, so they also refine away
    the round-off of the factored solve.  The workspace's factor may be of
    A at any iterate on the grid: a solve starts with the Stokes factor
    A(0), and the uniqueness probe's perturbed start with the last factor
    of the Stokes-started loop.  Whenever a step shrinks the defect
    max(residual_norm, boundary_defect) by less than 2x, or when the
    workspace holds no factor, the step is the plain Picard solve, which
    refactors A(u) at the current iterate.  On zero data (flux 0) the
    workspace never factors, so every step is the plain one, which sets
    the fields to exactly 0.

    ``workspace`` carries the boundary data of ``state.params``, which
    every step keeps, and counts the factorizations.  The converged state
    is returned with each state's ``(step, residual)`` as its
    ``residual_history``, the start's as step 0.  Raises
    :class:`NonConvergence` with the smallest defect reached and every
    factorization the workspace has made as soon as the defect has not
    halved over ``_STALL_STEPS`` steps, or after ``_MAX_STEPS`` steps.
    """
    res = residual_norm(state, workspace)
    history = [(0, res)]
    stalled = 0
    best = prev = math.inf
    for steps in range(_MAX_STEPS + 1):
        defect = max(res, boundary_defect(state, workspace))
        if defect < config.tol:
            state.residual_history = history
            return state
        best = min(best, defect)
        if steps == 0 or defect <= 0.5 * anchor:
            anchor, stalled = defect, 0
        else:
            stalled += 1
        if stalled == _STALL_STEPS or steps == _MAX_STEPS:
            break
        chord = workspace.lu is not None and defect <= 0.5 * prev
        prev = defect
        state, res = picard_step(state, workspace, chord)
        history.append((steps + 1, res))
    raise NonConvergence(
        f"Picard stalled at flux {state.params.phi}: residual {best:.3e} after "
        f"{steps} iterations and {workspace.factorizations} factorizations "
        f"(tol {config.tol:.1e})",
        best_residual=best,
        iterations=steps,
        factorizations=workspace.factorizations,
    )


def solve_steady(profile, params, a, b, nx, ny, config=None):
    """Stokes initialize, then one chord loop to tolerance at ``params``.

    The grid's constant block is assembled and A(0) factored once by the
    workspace's Stokes start (not at all at flux 0); the last factor is
    released when the loop ends.  Raises :class:`NonConvergence` rather
    than returning an unconverged state.
    """
    ws = _Workspace(make_grid(profile, a, b, nx, ny), params)
    return _picard(ws.stokes(), config or SolverConfig(), ws)


def solve_two_starts(profile, params, a, b, nx, ny, perturb, config):
    """The Stokes-started solution and the one started from
    ``perturb(stokes)``, with ``stokes`` the Stokes state of ``params``.

    Both share one grid, constant block and workspace, whose Stokes start
    gives ``stokes``.  The Stokes-started loop runs from the factor of
    A(0); the perturbed loop starts with chord steps on that loop's last
    factor, under :func:`_picard`'s rules, with a residual history of its
    own.  At flux 0 both loops end at fields that are exactly 0 and the
    probe factors nothing.  A :class:`NonConvergence` of either loop
    counts every factorization of the probe.  The factor goes with the
    workspace when the probe returns.
    """
    ws = _Workspace(make_grid(profile, a, b, nx, ny), params)
    stokes = ws.stokes()
    other = perturb(stokes)
    return _picard(stokes, config, ws), _picard(other, config, ws)


# ---------------------------------------------------------------------------
# Energies and fluxes
# ---------------------------------------------------------------------------


def gradient_squares(state, reference=None):
    """The squared entries of grad u - R at the nodes of ``state``, R the
    carrier's or another state's gradient entries on the grid (None: 0)."""
    return [(g - r) ** 2 for g, r in zip(state.gradients, reference or (0,) * 4)]


def dirichlet_energy(state, a, b, of_perturbation=False):
    """integral over Omega_{a,b} of |grad u|^2 (or |grad(u-g)|^2)."""
    e = sum(gradient_squares(
        state, state.carrier_gradients if of_perturbation else None))
    return float((state.grid.window_weights(a, b) * e).sum())


def energy_diagnostics(state, a, b):
    """The Dirichlet energy of v = u - g on Omega_{a,b}, the carrier volume
    integral there, and their ratio, which stays bounded uniformly in the
    truncation; by name."""
    energy_v = dirichlet_energy(state, a, b, of_perturbation=True)
    carrier = fc.carrier_volume_integral(state.params, state.grid.profile, a, b)
    return dict(dirichlet_energy_v=energy_v, carrier_volume_integral=carrier,
                energy_ratio_c0=energy_v / carrier if carrier > 0 else 0.0)


def weighted_energy(state, weight):
    """integral of weight(x1) * |grad v|^2 with v = u - g."""
    e = sum(gradient_squares(state, state.carrier_gradients))
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
    derivative and Simpson quadrature (on an even ny, the eta axis's
    trapezoid weights), independent of the psi boundary values it should
    telescope to and of the scheme's stencils.
    """
    eta, ny = state.grid.eta_axis, state.grid.ny
    pe = _d1_fourth(state.psi, eta.h, 1)
    if (ny - 1) % 2:
        return pe @ eta.weights
    w = np.ones(ny)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= eta.h / 3.0
    return pe @ w
