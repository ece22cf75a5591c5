"""Steady Navier-Stokes on truncated channels, streamfunction-vorticity form.

The flux constraint is exact Dirichlet data (psi = 0 on the lower wall,
psi = flux on the upper wall); truncation ends carry the carrier data
psi = G, omega = curl g, so the zero-flux perturbation v = u - g vanishes
there up to the tangential component carried through the omega data.  Each
Picard iteration solves the coupled linear (psi, omega) system with the
advecting velocity frozen; the wall vorticity closure is a second-order
one-sided formula built into the matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import flux_carrier as fc
from ._fem import assemble_q1, assemble_grad_load
from .errors import LinearSolveFailure, NonConvergence, OutOfRange
from .geometry import Grid, make_grid, window_weights

__all__ = [
    "ConvectionScheme",
    "SolverConfig",
    "FlowState",
    "solve_stokes",
    "picard_step",
    "solve_steady",
    "velocity_gradients",
    "dirichlet_energy",
    "weighted_energy",
    "slice_flux_profile",
    "pressure_recover",
    "pressure_mean_zero",
    "momentum_residual",
]


class ConvectionScheme(enum.Enum):
    CENTRAL = "central"
    UPWIND = "upwind"


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9
    max_iter: int = 60
    relax: float = 1.0
    continuation: Optional[tuple] = None
    convection: ConvectionScheme = ConvectionScheme.CENTRAL

    def __post_init__(self):
        if self.tol <= 0.0:
            raise OutOfRange("tol must be positive")
        if not (0.0 < self.relax <= 1.0):
            raise OutOfRange("relax must lie in (0, 1]")


@dataclass
class FlowState:
    grid: Grid
    profile: object
    params: fc.CarrierParams
    psi: np.ndarray
    omega: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    p: Optional[np.ndarray] = None
    converged: bool = False
    residual_history: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Discrete operators on the mapped grid
# ---------------------------------------------------------------------------


def _lap_coeffs(grid):
    """Coefficient fields of Delta = d_xx + 2 J1 d_xe + (J1^2 + 1/f^2) d_ee
    + S d_e in mapped coordinates."""
    cxy = 2.0 * grid.j1
    cyy = grid.j1**2 + 1.0 / grid.f[:, None] ** 2
    cy = grid.lap_s
    return cxy, cyy, cy


def apply_laplacian(grid, phi):
    """Mapped Laplacian at interior nodes; boundary entries are zero."""
    hx, hy = grid.hx, grid.hy
    cxy, cyy, cy = _lap_coeffs(grid)
    out = np.zeros_like(phi)
    pxx = (phi[2:, 1:-1] - 2.0 * phi[1:-1, 1:-1] + phi[:-2, 1:-1]) / hx**2
    pee = (phi[1:-1, 2:] - 2.0 * phi[1:-1, 1:-1] + phi[1:-1, :-2]) / hy**2
    pxe = (phi[2:, 2:] - phi[2:, :-2] - phi[:-2, 2:] + phi[:-2, :-2]) / (4 * hx * hy)
    pe = (phi[1:-1, 2:] - phi[1:-1, :-2]) / (2 * hy)
    out[1:-1, 1:-1] = (
        pxx
        + cxy[1:-1, 1:-1] * pxe
        + cyy[1:-1, 1:-1] * pee
        + cy[1:-1, 1:-1] * pe
    )
    return out


def _advection_coeffs(grid, u1, u2):
    """Mapped advection u.grad = a1 d_xi + a2 d_eta."""
    a1 = u1
    a2 = u1 * grid.j1 + u2 / grid.f[:, None]
    return a1, a2


def apply_advection(grid, phi, u1, u2, scheme):
    hx, hy = grid.hx, grid.hy
    a1, a2 = _advection_coeffs(grid, u1, u2)
    out = np.zeros_like(phi)
    if scheme is ConvectionScheme.CENTRAL:
        px = (phi[2:, 1:-1] - phi[:-2, 1:-1]) / (2 * hx)
        pe = (phi[1:-1, 2:] - phi[1:-1, :-2]) / (2 * hy)
        out[1:-1, 1:-1] = a1[1:-1, 1:-1] * px + a2[1:-1, 1:-1] * pe
    else:
        a1i = a1[1:-1, 1:-1]
        a2i = a2[1:-1, 1:-1]
        dxm = (phi[1:-1, 1:-1] - phi[:-2, 1:-1]) / hx
        dxp = (phi[2:, 1:-1] - phi[1:-1, 1:-1]) / hx
        dem = (phi[1:-1, 1:-1] - phi[1:-1, :-2]) / hy
        dep = (phi[1:-1, 2:] - phi[1:-1, 1:-1]) / hy
        out[1:-1, 1:-1] = np.where(a1i >= 0, a1i * dxm, a1i * dxp) + np.where(
            a2i >= 0, a2i * dem, a2i * dep
        )
    return out


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


class _Workspace:
    """Per-(grid, params) constant matrix blocks and boundary data."""

    def __init__(self, grid, params, profile):
        self.grid = grid
        self.params = params
        nx, ny = grid.nx, grid.ny
        n = nx * ny
        self.n = n

        x1_left = np.full(ny, grid.a)
        x1_right = np.full(ny, grid.b)
        self.psi_left = fc.stream_G((x1_left, grid.x2[0, :]), params, profile)
        self.psi_right = fc.stream_G((x1_right, grid.x2[-1, :]), params, profile)
        self.omega_left = fc.carrier_vorticity(
            (x1_left, grid.x2[0, :]), params, profile
        )
        self.omega_right = fc.carrier_vorticity(
            (x1_right, grid.x2[-1, :]), params, profile
        )
        self.a_const, self.rhs = self._assemble_constant()

    def _idx(self, i, j):
        return i * self.grid.ny + j

    def _assemble_constant(self):
        grid = self.grid
        nx, ny = grid.nx, grid.ny
        n = self.n
        hx, hy = grid.hx, grid.hy
        cxy, cyy, cy = _lap_coeffs(grid)
        phi = self.params.phi

        rows, cols, vals = [], [], []
        rhs = np.zeros(2 * n)

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
        for rr, vv in [
            (wall_lo, np.zeros(nx)),
            (wall_hi, np.full(nx, phi)),
            (
                ends,
                np.concatenate([self.psi_left[1:-1], self.psi_right[1:-1]]),
            ),
        ]:
            rows.append(rr)
            cols.append(rr)
            vals.append(np.ones(rr.size))
            rhs[rr] = vv

        # omega ends: carrier vorticity
        om_ends = np.concatenate(
            [self._idx(0, np.arange(ny)), self._idx(nx - 1, np.arange(ny))]
        )
        rows.append(n + om_ends)
        cols.append(n + om_ends)
        vals.append(np.ones(om_ends.size))
        rhs[n + om_ends] = np.concatenate([self.omega_left, self.omega_right])

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
        return a, rhs

    def advection_matrix(self, u1, u2, scheme):
        grid = self.grid
        nx, ny = grid.nx, grid.ny
        n = self.n
        hx, hy = grid.hx, grid.hy
        a1, a2 = _advection_coeffs(grid, u1, u2)
        ii, jj = np.meshgrid(np.arange(1, nx - 1), np.arange(1, ny - 1), indexing="ij")
        ii = ii.ravel()
        jj = jj.ravel()
        center = self._idx(ii, jj)
        a1i = a1[ii, jj]
        a2i = a2[ii, jj]
        rows, cols, vals = [], [], []
        if scheme is ConvectionScheme.CENTRAL:
            entries = [
                (self._idx(ii + 1, jj), -a1i / (2 * hx)),
                (self._idx(ii - 1, jj), a1i / (2 * hx)),
                (self._idx(ii, jj + 1), -a2i / (2 * hy)),
                (self._idx(ii, jj - 1), a2i / (2 * hy)),
            ]
        else:
            a1p = np.maximum(a1i, 0.0)
            a1m = np.minimum(a1i, 0.0)
            a2p = np.maximum(a2i, 0.0)
            a2m = np.minimum(a2i, 0.0)
            entries = [
                (center, -(a1p - a1m) / hx - (a2p - a2m) / hy),
                (self._idx(ii - 1, jj), a1p / hx),
                (self._idx(ii + 1, jj), -a1m / hx),
                (self._idx(ii, jj - 1), a2p / hy),
                (self._idx(ii, jj + 1), -a2m / hy),
            ]
        for col, val in entries:
            rows.append(n + center)
            cols.append(n + col)
            vals.append(val)
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))

    def solve(self, u1, u2, config):
        """Solve the linearized coupled system at frozen advecting velocity."""
        a = self.a_const
        if u1 is not None:
            a = a + self.advection_matrix(u1, u2, config.convection)
        try:
            x = splu(a.tocsc()).solve(self.rhs)
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveFailure(str(exc)) from exc
        if not np.all(np.isfinite(x)):
            raise LinearSolveFailure("linear solve produced non-finite values")
        n = self.n
        nx, ny = self.grid.nx, self.grid.ny
        return x[:n].reshape(nx, ny), x[n:].reshape(nx, ny)


def _closure_defect(grid, psi, omega):
    _, cyy, _ = _lap_coeffs(grid)
    hy = grid.hy
    lo = omega[1:-1, 0] + cyy[1:-1, 0] * (
        8.0 * psi[1:-1, 1] - psi[1:-1, 2] - 7.0 * psi[1:-1, 0]
    ) / (2 * hy**2)
    hi = omega[1:-1, -1] + cyy[1:-1, -1] * (
        8.0 * psi[1:-1, -2] - psi[1:-1, -3] - 7.0 * psi[1:-1, -1]
    ) / (2 * hy**2)
    return max(float(np.abs(lo).max()), float(np.abs(hi).max()))


def residual_norm(state, config=None):
    """Max-norm defect of the steady system at the current fields.

    Covers the vorticity transport equation, the psi-omega coupling, and
    the wall closure, relative to the vorticity scale.
    """
    scheme = config.convection if config is not None else ConvectionScheme.CENTRAL
    grid = state.grid
    transport = apply_laplacian(grid, state.omega) - apply_advection(
        grid, state.omega, state.u1, state.u2, scheme
    )
    poisson = apply_laplacian(grid, state.psi) + state.omega
    r = max(
        float(np.abs(transport[1:-1, 1:-1]).max()),
        float(np.abs(poisson[1:-1, 1:-1]).max()),
        _closure_defect(grid, state.psi, state.omega),
    )
    scale = max(1.0, float(np.abs(state.omega).max()))
    return r / scale


def boundary_defect(state, workspace):
    """Max mismatch of the imposed boundary data at the current fields.

    The interior residual is blind to the flux (it only enters through the
    boundary rows), so convergence checks that drive continuation combine
    both defects.  ``workspace`` holds the boundary data of ``state.params``.
    """
    ws = workspace
    psi_scale = max(1.0, float(np.abs(state.psi).max()))
    om_scale = max(1.0, float(np.abs(state.omega).max()))
    d = max(
        float(np.abs(state.psi[:, 0]).max()) / psi_scale,
        float(np.abs(state.psi[:, -1] - state.params.phi).max()) / psi_scale,
        float(np.abs(state.psi[0, :] - ws.psi_left).max()) / psi_scale,
        float(np.abs(state.psi[-1, :] - ws.psi_right).max()) / psi_scale,
        float(np.abs(state.omega[0, :] - ws.omega_left).max()) / om_scale,
        float(np.abs(state.omega[-1, :] - ws.omega_right).max()) / om_scale,
    )
    return d


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _state_from_fields(grid, profile, params, psi, omega):
    u1, u2 = velocity_from_psi(grid, psi)
    return FlowState(
        grid=grid, profile=profile, params=params, psi=psi, omega=omega,
        u1=u1, u2=u2,
    )


def solve_stokes(grid, params, profile, config=None, workspace=None):
    """Linear Stokes solve (no advection); the Picard initializer."""
    config = config or SolverConfig()
    ws = workspace or _Workspace(grid, params, profile)
    psi, omega = ws.solve(None, None, config)
    state = _state_from_fields(grid, profile, params, psi, omega)
    state.residual_history.append((0, residual_norm(state, config)))
    return state


def picard_step(state, params, profile, config=None, workspace=None):
    """One Picard iteration; returns (new_state, residual)."""
    config = config or SolverConfig()
    ws = workspace or _Workspace(state.grid, params, profile)
    psi_new, omega_new = ws.solve(state.u1, state.u2, config)
    r = config.relax
    psi = state.psi + r * (psi_new - state.psi)
    omega = state.omega + r * (omega_new - state.omega)
    new = _state_from_fields(state.grid, profile, params, psi, omega)
    new.residual_history = list(state.residual_history)
    res = residual_norm(new, config)
    new.residual_history.append((len(new.residual_history), res))
    return new, res


def _picard(state, params, profile, config, workspace):
    """Picard steps from ``state`` until both defects drop below tol.

    ``state.residual_history`` must end with the residual of ``state``;
    ``workspace`` carries the boundary data of ``params``.  Returns the
    converged state, or raises :class:`NonConvergence` with the best
    residual seen when max_iter steps do not get there.
    """
    res = best = state.residual_history[-1][1]
    for steps in range(config.max_iter + 1):
        if max(res, boundary_defect(state, workspace)) < config.tol:
            state.converged = True
            return state
        if steps < config.max_iter:
            state, res = picard_step(state, params, profile, config, workspace)
            best = min(best, res)
    raise NonConvergence(
        f"Picard stalled at flux {params.phi}: residual {best:.3e} "
        f"after {config.max_iter} iterations (tol {config.tol:.1e})",
        best_residual=best,
        iterations=config.max_iter,
    )


def solve_steady(profile, params, a, b, nx, ny, config=None):
    """Stokes initialize, then Picard (with flux continuation) to tolerance.

    Raises :class:`NonConvergence` rather than returning an unconverged
    state.  Diagnostics report the Dirichlet energy of v = u - g and the
    ratio against the carrier volume integral, which stays bounded
    uniformly in the truncation.
    """
    config = config or SolverConfig()
    grid = make_grid(profile, a, b, nx, ny)

    phis = list(config.continuation or [])
    if not phis:
        target = params.phi
        if target > 2.0:
            steps = int(math.ceil(math.log2(target / 2.0))) + 1
            phis = list(np.linspace(2.0, target, steps + 1))
        else:
            phis = [target]
    if phis[-1] != params.phi:
        phis.append(params.phi)

    state = None
    for phi_k in phis:
        params_k = fc.CarrierParams(phi_k, params.epsilon, params.cutoff)
        ws = _Workspace(grid, params_k, profile)
        if state is None:
            state = solve_stokes(grid, params_k, profile, config, ws)
        else:
            state = _state_from_fields(grid, profile, params_k, state.psi, state.omega)
            state.residual_history.append((0, residual_norm(state, config)))
        state = _picard(state, params_k, profile, config, ws)
    state.params = params

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


def weighted_energy(state, weight, of_perturbation=True):
    """integral of weight(x1) * |grad v|^2 with v = u - g by default."""
    e = _grad_square(state, of_perturbation)
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


# ---------------------------------------------------------------------------
# Pressure recovery
# ---------------------------------------------------------------------------


def _laplacian_from_gradients(state):
    """Lap u by differencing the psi-based gradient fields.

    Differencing the u arrays directly would mix their uniform O(h^2)
    stencil bias with the exact wall zeros and kink at the wall; the
    gradient fields are smooth nodal samples, so this stays consistent up
    to the boundary.
    """
    grid = state.grid
    f = grid.f[:, None]
    d1u1, d2u1, d1u2, d2u2 = velocity_gradients(state)

    def ddx(v):
        return _d1(v, grid.hx, 0) + grid.j1 * _d1(v, grid.hy, 1)

    def ddy(v):
        return _d1(v, grid.hy, 1) / f

    return ddx(d1u1) + ddy(d2u1), ddx(d1u2) + ddy(d2u2)


def pressure_recover(state):
    """Pressure from the weak projection of the momentum balance.

    Solves integral grad p . grad q = integral (Lap u - u.grad u) . grad q
    for all bilinear test functions q, normalized to zero mean; the natural
    boundary condition carries the momentum-balance Neumann data.
    """
    grid = state.grid
    nx, ny = grid.nx, grid.ny
    x = np.broadcast_to(grid.xi[:, None], (nx, ny)).ravel()
    y = grid.x2.ravel()

    lap_u1, lap_u2 = _laplacian_from_gradients(state)
    d1u1, d2u1, d1u2, d2u2 = velocity_gradients(state)
    f1 = lap_u1 - (state.u1 * d1u1 + state.u2 * d2u1)
    f2 = lap_u2 - (state.u1 * d1u2 + state.u2 * d2u2)

    K, _, lumped = assemble_q1(x, y, nx, ny)
    b = assemble_grad_load(x, y, nx, ny, f1.ravel(), f2.ravel())

    n = x.size
    s = sparse.bmat(
        [[K, sparse.csr_matrix(lumped[:, None])], [sparse.csr_matrix(lumped[None, :]), None]],
        format="csc",
    )
    rhs = np.concatenate([b, [0.0]])
    try:
        sol = splu(s).solve(rhs)
    except RuntimeError as exc:
        raise LinearSolveFailure(str(exc)) from exc
    p = sol[:n].reshape(nx, ny)
    state.p = p
    return p


def pressure_mean_zero(state, a, b):
    """Pressure re-normalized to zero mean over the window [a, b].

    The recovered pressure is defined up to a constant; window quantities
    use the mean-zero representative on their own subdomain.
    """
    if state.p is None:
        pressure_recover(state)
    w = window_weights(state.profile, state.grid.xi, state.grid.ny, a, b)
    area = float(w.sum())
    if area <= 0.0:
        raise OutOfRange(f"window [{a}, {b}] has no overlap with the grid")
    mean = float((w * state.p).sum()) / area
    return state.p - mean


def momentum_residual(state, a=None, b=None):
    """Max-norm defect of grad p + u.grad u - Lap u on an interior window.

    The window defaults to the whole truncation minus two cells; pass a, b
    to stay clear of the carrier end layers, which carry steep analytic
    data the grid only resolves to O(1).
    """
    if state.p is None:
        pressure_recover(state)
    grid = state.grid
    px = _d1(state.p, grid.hx, 0)
    pe = _d1(state.p, grid.hy, 1)
    dp1 = px + grid.j1 * pe
    dp2 = pe / grid.f[:, None]
    lap_u1, lap_u2 = _laplacian_from_gradients(state)
    d1u1, d2u1, d1u2, d2u2 = velocity_gradients(state)
    r1 = dp1 + state.u1 * d1u1 + state.u2 * d2u1 - lap_u1
    r2 = dp2 + state.u1 * d1u2 + state.u2 * d2u2 - lap_u2
    cols = np.arange(2, grid.nx - 2)
    if a is not None:
        cols = cols[grid.xi[cols] >= a]
    if b is not None:
        cols = cols[grid.xi[cols] <= b]
    sl = np.ix_(cols, np.arange(2, grid.ny - 2))
    return max(float(np.abs(r1[sl]).max()), float(np.abs(r2[sl]).max()))
