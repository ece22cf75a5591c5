"""Minimal bilinear (Q1) finite elements on mapped quadrilateral grids.

Used by the functional-inequality estimators.  Nodes are the mapped-grid
nodes ordered idx = i*ny + j; elements are the grid cells, integrated
isoparametrically with 2x2 Gauss.  Also holds the one eigen helper behind
every inequality constant (shift-invert Lanczos with a residual-checked
acceptance) and its wrapper for the tridiagonal 1D P1 pencils of the
carrier's slice constant.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import EigenFailure

_G = 1.0 / np.sqrt(3.0)
_GAUSS = [(-_G, -_G), (_G, -_G), (_G, _G), (-_G, _G)]
_EIGEN_RTOL = 1e-10


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


def assemble_q1(x, y, nx, ny):
    """Stiffness K, mass M, and lumped mass for nodes (x, y) flattened.

    Returns (K, M, lumped) as CSR / CSR / array.
    """
    conn = element_connectivity(nx, ny)
    ne = conn.shape[0]

    ke = np.zeros((ne, 4, 4))
    me = np.zeros((ne, 4, 4))
    for n, det, bx, by in _gauss_points(x[conn], y[conn]):
        ke += det[:, None, None] * (
            bx[:, :, None] * bx[:, None, :] + by[:, :, None] * by[:, None, :]
        )
        me += det[:, None, None] * (n[None, :, None] * n[None, None, :])

    K, M = _scatter(conn, x.size, ke, me)
    return K, M, np.asarray(M.sum(axis=1)).ravel()


# no caller in the package: kept as a patch point of bench/spans.py
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


def smallest_eigenpair(M, solve):
    """Smallest lam of K v = lam M v, given M and solve = K^(-1).

    Shift-invert Lanczos (ARPACK mode 3, sigma 0) from a seeded start, so
    reruns are byte-identical; only solve and M are applied, never K.  The
    pair is accepted only if ||lam solve(M v) - v|| <= 1e-10 ||v||;
    otherwise, and on any ARPACK error, :class:`EigenFailure` is raised.
    """
    n = M.shape[0]
    op = LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        # in shift-invert mode the first argument is read for its shape only
        vals, vecs = eigsh(M, k=1, M=M, sigma=0.0, OPinv=op, v0=v0)
    except ArpackError as exc:
        raise EigenFailure(f"shift-invert Lanczos failed: {exc}") from exc
    lam, v = float(vals[0]), vecs[:, 0]
    residual = np.linalg.norm(lam * solve(M @ v) - v) / np.linalg.norm(v)
    if not residual <= _EIGEN_RTOL:
        raise EigenFailure(
            f"eigenpair residual {residual:.3e} above {_EIGEN_RTOL:.0e} (lam {lam:.6e})"
        )
    return lam, v


def tridiagonal_pencil_max(dK, oK, dM, oM):
    """Largest lam of M v = lam K v for symmetric tridiagonal 1D P1 pencils.

    (dK, oK) and (dM, oM) are diagonals and off-diagonals, K positive definite.
    """
    K = sparse.diags([oK, dK, oK], [-1, 0, 1], format="csc")
    M = sparse.diags([oM, dM, oM], [-1, 0, 1], format="csr")
    lam, _ = smallest_eigenpair(M, splu(K).solve)
    return 1.0 / lam
