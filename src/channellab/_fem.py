"""Minimal bilinear (Q1) finite elements on mapped quadrilateral grids.

Used by the functional-inequality estimators.  Nodes are the mapped-grid
nodes ordered idx = i*ny + j; elements are the grid cells, integrated
isoparametrically with 2x2 Gauss.  Holds the one copy of each element rule:
the 2-point Gauss nodes and 1-D P1 shapes, the Q1 shapes as their products,
one element loop behind every assembly, and the wall and end node mask.
Also holds the nested-dissection order of the grid nodes that M5's
saddle factor in ``functional_inequalities`` keeps (its only user;
``ns_solver`` factors a psi-only Schur complement in minimum-degree
order), the banded Cholesky back-solve of every positive definite stiffness
(``spd_solve``) and the one eigen helper behind every inequality constant
(shift-invert Lanczos with a residual-checked acceptance).

``spd_solve`` keeps one banded factor and two back-solve kernels: LAPACK's
``DPBTRS`` for a vector or a block of up to three columns, and for a block
of four or more columns two level-3 sweeps over the factor cut into
diagonal blocks (``_sweep_blocks``, ``_sweeps``), formed by the first such
block solve only.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtrtri
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import EigenFailure

# 2-point Gauss-Legendre nodes on [-1, 1]; both weights are 1
GAUSS2_NODES = np.array([-1.0, 1.0]) / np.sqrt(3.0)
# slopes of the two 1-D P1 shape functions on [-1, 1], left then right
P1_SLOPES = np.array([-0.5, 0.5])
# the (xi, eta) P1 factor of each Q1 corner, counterclockwise
_CORNERS = ([0, 1, 1, 0], [0, 0, 1, 1])
_EIGEN_RTOL = 1e-10


def p1_values(s):
    """The two 1-D P1 shape functions on [-1, 1] at s, left then right."""
    return np.array([0.5 * (1.0 - s), 0.5 * (1.0 + s)])


def _shape(xi, eta):
    """Q1 shape values and xi and eta derivatives at (xi, eta): products of
    P1 factors, each rounded once, as 0.25 (1 -+ xi)(1 -+ eta) would be."""
    vx, vy = p1_values(xi), p1_values(eta)
    return (np.outer(vx, vy)[_CORNERS], np.outer(P1_SLOPES, vy)[_CORNERS],
            np.outer(vx, P1_SLOPES)[_CORNERS])


def element_connectivity(nx, ny):
    """(n_elem, 4) node indices of each cell, corners in ``_CORNERS`` order."""
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    di, dj = np.array(_CORNERS)
    return (i.ravel()[:, None] + di) * ny + (j.ravel()[:, None] + dj)


def _gauss_points(xe, ye):
    """Yield (shape values, Jacobian determinant, physical shape gradients
    bx, by) at each 2x2 Gauss point for elements with corners (xe, ye)."""
    for i, j in zip(*_CORNERS):
        n, dxi, deta = _shape(GAUSS2_NODES[i], GAUSS2_NODES[j])
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


# nested dissection stops at boxes of at most this many nodes a side
_LEAF_NODES = 4


def nested_dissection(nx, ny):
    """Grid nodes ``i * ny + j`` in nested-dissection order, the factor
    order of M5's saddle system (no other factor uses it).

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


def _scatter(conn, ndof, *blocks):
    """CSR matrices from (n_elem, 4, 4) element blocks (duplicates summed)."""
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    return [
        sparse.csr_matrix((blk.ravel(), (rows, cols)), shape=(ndof, ndof))
        for blk in blocks
    ]


def _element_sums(xe, ye, kernel):
    """Per element with corners (xe, ye), the sum from 0 of the array
    ``kernel(n, det, bx, by)`` over the points of :func:`_gauss_points`."""
    return sum(kernel(*point) for point in _gauss_points(xe, ye))


def assemble_q1(x, y, nx, ny):
    """Stiffness K, mass M, and lumped mass for nodes (x, y) flattened.

    Returns (K, M, lumped) as CSR / CSR / array.
    """
    conn = element_connectivity(nx, ny)

    def kernel(n, det, bx, by):
        w = det[:, None, None]
        stiffness = bx[:, :, None] * bx[:, None, :] + by[:, :, None] * by[:, None, :]
        return np.stack([w * stiffness, w * (n[None, :, None] * n[None, None, :])])

    K, M = _scatter(conn, x.size, *_element_sums(x[conn], y[conn], kernel))
    return K, M, np.asarray(M.sum(axis=1)).ravel()


# no caller in the package: kept as a patch point of bench/spans.py
def assemble_grad_load(x, y, nx, ny, fx, fy):
    """Load vector b_A = integral (fx, fy) . grad(phi_A) dx, fields nodal."""
    conn = element_connectivity(nx, ny)
    fxe = fx[conn]
    fye = fy[conn]

    def kernel(n, det, bx, by):
        fxq = fxe @ n
        fyq = fye @ n
        return det[:, None] * (fxq[:, None] * bx + fyq[:, None] * by)

    be = _element_sums(x[conn], y[conn], kernel)
    b = np.zeros(x.size)
    np.add.at(b, conn.ravel(), be.ravel())
    return b


def assemble_div(x, y, nx, ny):
    """B1, B2 with (B_k a_k)_A = integral phi_A * d(a_k)/d(x_k) dx (Q1-Q1)."""
    conn = element_connectivity(nx, ny)

    def kernel(n, det, bx, by):
        w = det[:, None, None]
        return np.stack([w * (n[None, :, None] * bx[:, None, :]),
                         w * (n[None, :, None] * by[:, None, :])])

    B1, B2 = _scatter(conn, x.size, *_element_sums(x[conn], y[conn], kernel))
    return B1, B2


def boundary_mask(nx, ny, ends):
    """Mask of the nodes ``i * ny + j`` on the walls (j = 0 and ny - 1)
    and, if ``ends``, on the truncation ends (i = 0 and nx - 1)."""
    mask = np.zeros((nx, ny), dtype=bool)
    mask[[0, -1], :] = ends
    mask[:, [0, -1]] = True
    return mask.ravel()


# blocks of at least this many columns go through the level-3 sweeps
_SWEEP_COLUMNS = 4


def spd_solve(K):
    """Back-solve of the sparse symmetric positive definite K, for one
    right-hand side or a block of them as columns.

    K's band is copied into LAPACK band storage, one column of K per
    Fortran-ordered column, and factored in place by banded Cholesky
    (``DPBTRF``; Golub & Van Loan, Matrix Computations, 4th ed., 4.3).  The
    lower triangle is stored because the upper one's blocked steps call a
    small ``DTRSM`` that two OpenBLAS threads make slow: on a 2-core x86_64
    machine the 129x65 M1 stiffness factors in 5 ms from the lower triangle
    and in 24 ms from the upper one.  A pivot at or below n eps times the
    largest diagonal entry counts as non-positive, since a singular K rounds
    its zero pivot to either sign; on a non-positive pivot
    :class:`EigenFailure` is raised.

    A vector or a block of up to three columns is back-solved by
    ``DPBTRS``.  It solves a block one column at a time with the level-2
    ``DTBSV``, so a block of ``_SWEEP_COLUMNS`` = 4 or more columns goes
    through the level-3 sweeps of :func:`_sweeps` instead: on the 49x33 M4
    stiffness 16 columns take 0.30 ms there against 0.92 ms in ``DPBTRS``,
    4 columns break even (0.24 against 0.23 ms), and 2 columns take
    0.21 ms there against 0.13 ms.  The sweeps' blocks are formed by the
    first solve of four or more columns, so a factor that never solves
    such a block (M1's Lanczos) never holds them: at 129x65 they would
    take 17 MB.
    """
    n = K.shape[0]
    lower = sparse.tril(K, format="coo")
    width = int((lower.row - lower.col).max(initial=0))
    ab = np.zeros((width + 1, n), order="F")
    ab[lower.row - lower.col, lower.col] = lower.data
    floor = n * np.finfo(float).eps * ab[0].max()
    try:
        cb = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise EigenFailure(f"banded Cholesky: {exc}") from exc
    pivot = np.square(cb[0]).min()
    if not pivot > floor:
        raise EigenFailure(f"banded Cholesky: pivot {pivot:.3e} at or below "
                           f"{floor:.3e}, the rounding level of the diagonal")
    blocks = []  # the sweep blocks, once a block solve has formed them

    def solve(rhs):
        if rhs.ndim == 1 or rhs.shape[1] < _SWEEP_COLUMNS:
            return cho_solve_banded((cb, True), rhs, check_finite=False)
        if not blocks:
            blocks.extend(_sweep_blocks(cb))
        return _sweeps(blocks, rhs)

    return solve


def _sweep_blocks(cb):
    """The blocks of the sweeps of :func:`_sweeps` for the lower band
    ``cb`` of a Cholesky factor L (``cb[d, j] = L[j + d, j]``).

    L is cut into nb diagonal blocks D_k of b = width + 1 rows, the last one
    padded with identity rows; each D_k couples only to the block before it,
    through the strictly upper triangular E_k (Golub & Van Loan, Matrix
    Computations, 4th ed., 4.3).  Returns the (nb, b, b) arrays D_k^-1 and
    D_k^-T and the (nb - 1, b, b) arrays F_k = D_k^-1 E_k (k >= 1) and
    G_k = D_k^-T E_(k+1)^T (k < nb - 1).
    """
    b, n = cb.shape
    nb = -(-n // b)
    band = np.zeros((b, nb * b))
    d, j = np.indices(cb.shape)
    band[:, :n] = np.where(d + j < n, cb, 0.0)  # storage past row n is not L's
    band[0, n:] = 1.0
    starts = np.arange(nb)[:, None] * b
    diag = np.zeros((nb, b, b))
    rows, cols = np.tril_indices(b)
    diag[:, rows, cols] = band[rows - cols, starts + cols]
    coupling = np.zeros((nb - 1, b, b))
    rows, cols = np.triu_indices(b, 1)
    coupling[:, rows, cols] = band[b + rows - cols, starts[:-1] + cols]
    inv = np.stack([dtrtri(block, lower=1)[0] for block in diag])
    inv_t = np.ascontiguousarray(inv.transpose(0, 2, 1))
    return (inv, inv[1:] @ coupling, inv_t,
            inv_t[:-1] @ coupling.transpose(0, 2, 1))


def _sweeps(blocks, rhs):
    """L^-T L^-1 rhs for the (n, m) block ``rhs``, from the blocks of
    :func:`_sweep_blocks`: the forward sweep Y = D^-1 B as one batched
    product, then Y_k -= F_k Y_(k-1) block by block; the backward sweep
    Z = D^-T Y, then Z_k -= G_k Z_(k+1)."""
    inv, forward, inv_t, backward = blocks
    nb, b, _ = inv.shape
    n, m = rhs.shape
    padded = np.zeros((nb * b, m))
    padded[:n] = rhs
    y = inv @ padded.reshape(nb, b, m)
    for k in range(1, nb):
        y[k] -= forward[k - 1] @ y[k - 1]
    z = inv_t @ y
    for k in range(nb - 2, -1, -1):
        z[k] -= backward[k] @ z[k + 1]
    return z.reshape(nb * b, m)[:n]


def smallest_eigenpair(M, solve, v0=None):
    """Smallest lam of K v = lam M v, given M and solve = K^(-1).

    Shift-invert Lanczos (ARPACK mode 3, sigma 0) from the start ``v0``,
    by default a seeded random vector, so reruns are byte-identical; only
    solve and M are applied, never K.  The pair is accepted only if
    ||lam solve(M v) - v|| <= 1e-10 ||v||; otherwise, and on any ARPACK
    error, :class:`EigenFailure` is raised.
    """
    n = M.shape[0]
    op = LinearOperator((n, n), matvec=solve, dtype=float)
    if v0 is None:
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
