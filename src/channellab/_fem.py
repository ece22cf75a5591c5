"""Minimal bilinear (Q1) finite elements on mapped quadrilateral grids.

Used by the functional-inequality estimators.  Nodes are the mapped-grid
nodes ordered idx = i*ny + j; elements are the grid cells, integrated
isoparametrically with 2x2 Gauss.  Holds the one copy of each element rule:
the 2-point Gauss nodes and 1-D P1 shapes, the Q1 shapes as their products
and their (Gauss point, corner) tables, one product of a constant table of
shape products with per-cell quantities formed from the Jacobian entries of
all cells at all Gauss points (``_cell_sums``) and one scatter of
corner-pair sums into the nine CSR slots of each node's 3x3 neighbourhood
(``_slot_csr``) behind every assembly, and the wall and end node mask.
Also holds the nested-dissection order of the grid nodes that M5's
saddle factor in ``functional_inequalities`` keeps (its only user;
``ns_solver`` factors a psi-only Schur complement in minimum-degree
order), the banded Cholesky back-solve of every positive definite stiffness
(``spd_solve``) and the one eigen helper behind every inequality constant
(a Lanczos recurrence on solve(M .) that stops on its own Ritz residual
bound, with a residual-checked acceptance).

``spd_solve`` keeps one banded factor and two back-solve kernels: LAPACK's
``DPBTRS`` for a vector or a block of up to three columns, and for a block
of four or more columns two level-3 sweeps over the factor cut into
diagonal blocks (``_sweep_blocks``, ``_sweeps``), formed by the first such
block solve only.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import (
    LinAlgError,
    block_diag,
    cho_solve_banded,
    cholesky_banded,
    eigh_tridiagonal,
)
from scipy.linalg.lapack import dtrtri

from .errors import EigenFailure
from .geometry import csr_slots

# 2-point Gauss-Legendre nodes on [-1, 1]; both weights are 1
GAUSS2_NODES = np.array([-1.0, 1.0]) / np.sqrt(3.0)
# slopes of the two 1-D P1 shape functions on [-1, 1], left then right
P1_SLOPES = np.array([-0.5, 0.5])
# the (xi, eta) P1 factor of each Q1 corner, counterclockwise
_CORNERS = ([0, 1, 1, 0], [0, 0, 1, 1])
_EIGEN_RTOL = 1e-10
# the Lanczos run of smallest_eigenpair stops with EigenFailure after this many steps
_LANCZOS_STEPS = 300


def p1_values(s):
    """The two 1-D P1 shape functions on [-1, 1] at s, left then right."""
    return np.array([0.5 * (1.0 - s), 0.5 * (1.0 + s)])


def _shape(xi, eta):
    """Q1 shape values and xi and eta derivatives at (xi, eta): products of
    P1 factors, each rounded once, as 0.25 (1 -+ xi)(1 -+ eta) would be."""
    vx, vy = p1_values(xi), p1_values(eta)
    return (np.outer(vx, vy)[_CORNERS], np.outer(P1_SLOPES, vy)[_CORNERS],
            np.outer(vx, P1_SLOPES)[_CORNERS])


# Q1 shape values and xi and eta derivatives, (Gauss point, corner) arrays
# over the 2x2 Gauss points, both in ``_CORNERS`` order
_N, _DXI, _DETA = map(np.array, zip(*(_shape(GAUSS2_NODES[i], GAUSS2_NODES[j])
                                      for i, j in zip(*_CORNERS))))


def _corner_arrays(v, nx, ny):
    """(4, (nx - 1) (ny - 1)) values of the nodal v at each cell's corners."""
    v = v.reshape(nx, ny)
    return np.stack([v[di:nx - 1 + di, dj:ny - 1 + dj].ravel() for di, dj in zip(*_CORNERS)])


def _cell_sums(x, y, nx, ny, table, kernel):
    """Per-cell sums over the 2x2 Gauss points on all (nx - 1) (ny - 1)
    cells of the nodes (x, y) at once, as the product of the constant
    (pair, quantity) ``table`` with the (quantity, cells) array
    ``kernel(jx_xi, jx_eta, jy_xi, jy_eta)``.  The Jacobian entries are
    (4, cells) arrays of the values at the Gauss points, linear in the
    corners; every Q1 integral here is such a product."""
    xc, yc = _corner_arrays(x, nx, ny), _corner_arrays(y, nx, ny)
    return table @ kernel(_DXI @ xc, _DETA @ xc, _DXI @ yc, _DETA @ yc)


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


def _slot_csr(sums, pairs, nx, ny, mirror):
    """CSR matrices from the per-cell sums ``sums[m, k]`` of corner pair
    (p, q) = (pairs[0][k], pairs[1][k]), one matrix per m: each sum is added
    into p's row at q's column, and, if ``mirror``, into q's row at p's
    column too.  A row holds the nine slots of its node's 3x3 neighbourhood
    (:func:`geometry.csr_slots`)."""
    di, dj = np.array(_CORNERS)
    sums = sums.reshape(len(sums), -1, nx - 1, ny - 1)
    vals = np.zeros((len(sums), 9, nx, ny))
    for k, (p, q) in enumerate(zip(*pairs)):
        for a, b in ((p, q), (q, p))[:1 + (mirror and p != q)]:
            slot = 3 * (di[b] - di[a] + 1) + dj[b] - dj[a] + 1
            vals[:, slot, di[a]:nx - 1 + di[a], dj[a]:ny - 1 + dj[a]] += sums[:, k]
    oi, oj = np.divmod(np.arange(9), 3)
    cols = np.arange(nx * ny)[:, None] + (oi - 1) * ny + (oj - 1)
    return [csr_slots(cols, v.reshape(9, nx * ny).T) for v in vals]


def assemble_q1(x, y, nx, ny):
    """Stiffness K, mass M, and lumped mass for nodes (x, y) flattened.

    Returns (K, M, lumped) as CSR / CSR / array.
    """
    p, q = np.triu_indices(4)  # mirrored: K and M come out exactly symmetric
    # det grad(phi_p).grad(phi_q) = a dxi_p dxi_q + b (dxi_p deta_q + deta_p
    # dxi_q) + c deta_p deta_q, with the metric (a, b, c) over det, and
    # det phi_p phi_q: one (10, 12) and one (10, 4) block
    table = block_diag(np.vstack([_DXI[:, p] * _DXI[:, q],
                                  _DXI[:, p] * _DETA[:, q] + _DETA[:, p] * _DXI[:, q],
                                  _DETA[:, p] * _DETA[:, q]]).T,
                       (_N[:, p] * _N[:, q]).T)

    def kernel(jx_xi, jx_eta, jy_xi, jy_eta):
        det = jx_xi * jy_eta - jx_eta * jy_xi
        return np.concatenate([(np.stack([jx_eta * jx_eta + jy_eta * jy_eta,
                                          -(jx_xi * jx_eta + jy_xi * jy_eta),
                                          jx_xi * jx_xi + jy_xi * jy_xi]) / det
                                ).reshape(12, -1), det])

    K, M = _slot_csr(_cell_sums(x, y, nx, ny, table, kernel).reshape(2, 10, -1),
                     (p, q), nx, ny, mirror=True)
    return K, M, np.asarray(M.sum(axis=1)).ravel()


# no caller in the package: kept as a patch point of bench/spans.py
def assemble_grad_load(x, y, nx, ny, fx, fy):
    """Load vector b_A = integral (fx, fy) . grad(phi_A) dx, fields nodal."""
    fxg, fyg = _N @ _corner_arrays(fx, nx, ny), _N @ _corner_arrays(fy, nx, ny)

    def kernel(jx_xi, jx_eta, jy_xi, jy_eta):
        # det (fx bx_A + fy by_A) at each Gauss point, split by dxi_A and deta_A
        return np.concatenate([fxg * jy_eta - fyg * jx_eta, fyg * jx_xi - fxg * jy_xi])

    be = _cell_sums(x, y, nx, ny, np.vstack([_DXI, _DETA]).T, kernel)
    b = np.zeros((nx, ny))
    for c, (di, dj) in enumerate(zip(*_CORNERS)):
        b[di:nx - 1 + di, dj:ny - 1 + dj] += be[c].reshape(nx - 1, ny - 1)
    return b.ravel()


def assemble_div(x, y, nx, ny):
    """B1, B2 with (B_k a_k)_A = integral phi_A * d(a_k)/d(x_k) dx (Q1-Q1)."""
    p, q = np.indices((4, 4)).reshape(2, 16)
    # det phi_p (bx_q, by_q) = phi_p (jy_eta, -jx_eta) dxi_q - phi_p (jy_xi, -jx_xi) deta_q
    table = np.vstack([_N[:, p] * _DXI[:, q], -_N[:, p] * _DETA[:, q]]).T

    def kernel(jx_xi, jx_eta, jy_xi, jy_eta):
        return np.stack([np.concatenate([jy_eta, jy_xi]),
                         -np.concatenate([jx_eta, jx_xi])])

    B1, B2 = _slot_csr(_cell_sums(x, y, nx, ny, table, kernel), (p, q), nx, ny, mirror=False)
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

    Lanczos on solve(M .), which is self-adjoint in the M inner product
    (the spectral transformation Lanczos of Ericsson & Ruhe, Math. Comp. 35,
    1980), from the start ``v0``, by default a seeded random vector, so
    reruns are byte-identical; only solve and M are applied, never K.  Each
    step back-solves once and reorthogonalizes the new vector twice against
    the whole basis, which grows one vector per step.  The run stops at the
    first step whose largest Ritz value mu has a residual bound beta
    |s_last| at or below 1e-2 ``_EIGEN_RTOL`` mu; beta = 0 (an invariant
    basis) always stops it.  It returns lam = 1/mu and the Ritz vector.
    The pair is accepted only if ||lam solve(M v) - v|| <= 1e-10 ||v||;
    otherwise, and on a start of no positive M-norm, a non-positive mu or
    ``_LANCZOS_STEPS`` steps without convergence, :class:`EigenFailure` is
    raised.
    """
    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal(M.shape[0])
    Mv = M @ v0
    square = v0 @ Mv
    if not square > 0.0:
        raise EigenFailure(f"Lanczos start has M-norm squared {square:.3e}, not positive")
    norm = np.sqrt(square)
    Q, MQ = [v0 / norm], [Mv / norm]  # the basis and M times it
    alpha, beta = [], []
    for _ in range(_LANCZOS_STEPS):
        w = np.array(solve(MQ[-1]), dtype=float)  # updated in place below
        a = 0.0
        for _ in range(2):
            for u, Mu in zip(Q, MQ):
                h = Mu @ w
                w -= h * u
            a += h
        alpha.append(a)
        Mw = M @ w
        b = np.sqrt(max(w @ Mw, 0.0))
        k = len(alpha)
        mu, s = eigh_tridiagonal(alpha, beta, select="i", select_range=(k - 1, k - 1))
        mu, s = float(mu[0]), s[:, 0]
        if not mu > 0.0:
            raise EigenFailure(f"largest Ritz value {mu:.3e} of solve(M .) is not positive")
        bound = b * abs(s[-1])
        if bound <= 1e-2 * _EIGEN_RTOL * mu:
            break
        beta.append(b)
        Q.append(w / b)
        MQ.append(Mw / b)
    else:
        raise EigenFailure(
            f"Lanczos did not converge in {_LANCZOS_STEPS} steps: last Ritz bound "
            f"{bound:.3e} (lam {1.0 / mu:.6e})")
    lam, v = 1.0 / mu, s @ np.array(Q)
    residual = np.linalg.norm(lam * solve(M @ v) - v) / np.linalg.norm(v)
    if not residual <= _EIGEN_RTOL:
        raise EigenFailure(
            f"eigenpair residual {residual:.3e} above {_EIGEN_RTOL:.0e} (lam {lam:.6e})"
        )
    return lam, v
