"""Minimal bilinear (Q1) finite elements on mapped quadrilateral grids.

Shared by the pressure recovery and the functional-inequality estimators.
Nodes are the mapped-grid nodes ordered idx = i*ny + j; elements are the
grid cells, integrated isoparametrically with 2x2 Gauss.  Also holds the
eigen helper for the 1D P1 stiffness/mass pencils of the slice constants.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.linalg import solve_banded

from .errors import EigenFailure

_G = 1.0 / np.sqrt(3.0)
_GAUSS = [(-_G, -_G), (_G, -_G), (_G, _G), (-_G, _G)]


def _shape(xi, eta):
    n = np.array(
        [
            0.25 * (1 - xi) * (1 - eta),
            0.25 * (1 + xi) * (1 - eta),
            0.25 * (1 + xi) * (1 + eta),
            0.25 * (1 - xi) * (1 + eta),
        ]
    )
    dn_dxi = np.array(
        [-0.25 * (1 - eta), 0.25 * (1 - eta), 0.25 * (1 + eta), -0.25 * (1 + eta)]
    )
    dn_deta = np.array(
        [-0.25 * (1 - xi), -0.25 * (1 + xi), 0.25 * (1 + xi), 0.25 * (1 - xi)]
    )
    return n, dn_dxi, dn_deta


def element_connectivity(nx, ny):
    """(n_elem, 4) node indices of each cell, counterclockwise."""
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    i = i.ravel()
    j = j.ravel()
    n0 = i * ny + j
    n1 = (i + 1) * ny + j
    n2 = (i + 1) * ny + (j + 1)
    n3 = i * ny + (j + 1)
    return np.column_stack([n0, n1, n2, n3])


def _gauss_points(xe, ye):
    """Yield (shape values, Jacobian determinant, physical shape gradients
    bx, by) at each 2x2 Gauss point for elements with corners (xe, ye)."""
    for gx, gy in _GAUSS:
        n, dxi, deta = _shape(gx, gy)
        jx_xi = xe @ dxi
        jx_eta = xe @ deta
        jy_xi = ye @ dxi
        jy_eta = ye @ deta
        det = jx_xi * jy_eta - jx_eta * jy_xi
        bx = (jy_eta[:, None] * dxi[None, :] - jy_xi[:, None] * deta[None, :]) / det[
            :, None
        ]
        by = (-jx_eta[:, None] * dxi[None, :] + jx_xi[:, None] * deta[None, :]) / det[
            :, None
        ]
        yield n, det, bx, by


def _scatter(conn, ndof, *blocks):
    """CSR matrices from (n_elem, 4, 4) element blocks (duplicates summed)."""
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    return [
        sparse.csr_matrix((blk.ravel(), (rows, cols)), shape=(ndof, ndof))
        for blk in blocks
    ]


def assemble_q1(x, y, nx, ny, coeff=None):
    """Stiffness K, mass M, and lumped mass for nodes (x, y) flattened.

    coeff, if given, is a nodal scalar multiplying the mass integrand.
    Returns (K, M, lumped) as CSR / CSR / array.
    """
    conn = element_connectivity(nx, ny)
    ne = conn.shape[0]
    ce = coeff[conn] if coeff is not None else None

    ke = np.zeros((ne, 4, 4))
    me = np.zeros((ne, 4, 4))
    for n, det, bx, by in _gauss_points(x[conn], y[conn]):
        w = det
        ke += w[:, None, None] * (
            bx[:, :, None] * bx[:, None, :] + by[:, :, None] * by[:, None, :]
        )
        cval = (ce @ n) if ce is not None else 1.0
        scal = w * cval if ce is not None else w
        me += scal[:, None, None] * (n[None, :, None] * n[None, None, :])

    K, M = _scatter(conn, x.size, ke, me)
    return K, M, np.asarray(M.sum(axis=1)).ravel()


def assemble_grad_load(x, y, nx, ny, fx, fy):
    """Load vector b_A = integral (fx, fy) . grad(phi_A) dx, fields nodal."""
    conn = element_connectivity(nx, ny)
    fxe = fx[conn]
    fye = fy[conn]
    be = np.zeros((conn.shape[0], 4))
    for n, det, bx, by in _gauss_points(x[conn], y[conn]):
        fxq = fxe @ n
        fyq = fye @ n
        be += det[:, None] * (fxq[:, None] * bx + fyq[:, None] * by)
    b = np.zeros(x.size)
    np.add.at(b, conn.ravel(), be.ravel())
    return b


def assemble_div(x, y, nx, ny):
    """B1, B2 with (B_k a_k)_A = integral phi_A * d(a_k)/d(x_k) dx (Q1-Q1)."""
    conn = element_connectivity(nx, ny)
    ne = conn.shape[0]
    b1e = np.zeros((ne, 4, 4))
    b2e = np.zeros((ne, 4, 4))
    for n, det, bx, by in _gauss_points(x[conn], y[conn]):
        b1e += det[:, None, None] * (n[None, :, None] * bx[:, None, :])
        b2e += det[:, None, None] * (n[None, :, None] * by[:, None, :])
    B1, B2 = _scatter(conn, x.size, b1e, b2e)
    return B1, B2


def _tri_apply(d, o, v):
    """Symmetric tridiagonal (diagonal d, off-diagonal o) times v."""
    out = d * v
    out[:-1] += o * v[1:]
    out[1:] += o * v[:-1]
    return out


def tridiagonal_pencil_max(dK, oK, dM, oM, seed, tol, max_iter):
    """Largest lam of M v = lam K v for symmetric tridiagonal 1D P1 pencils.

    (dK, oK) and (dM, oM) are diagonals and off-diagonals, K positive
    definite.  Seeded inverse iteration on K until the Rayleigh quotient
    changes by at most tol relative; raises :class:`EigenFailure` on a
    collapse to zero or after max_iter steps.
    """
    ab = np.array([np.r_[0.0, oK], dK, np.r_[oK, 0.0]])
    v = np.random.default_rng(seed).standard_normal(dK.size)
    lam, step = 0.0, math.inf
    for _ in range(max_iter):
        v = solve_banded((1, 1), ab, _tri_apply(dM, oM, v))
        nrm = math.sqrt(abs(v @ _tri_apply(dM, oM, v)))
        if nrm == 0.0:
            raise EigenFailure("tridiagonal inverse iteration collapsed to zero")
        v /= nrm
        lam_new = float(v @ _tri_apply(dM, oM, v)) / float(v @ _tri_apply(dK, oK, v))
        step, lam = abs(lam_new - lam), lam_new
        if step <= tol * max(abs(lam), 1e-300):
            return lam
    raise EigenFailure(
        f"tridiagonal inverse iteration not converged after {max_iter} iterations "
        f"(last relative change {step / max(abs(lam), 1e-300):.3e}, tol {tol:.1e})"
    )
