from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh

from channellab import _fem
from channellab import functional_inequalities as fi
from channellab import geometry as geo
from channellab._fem import (
    assemble_div,
    assemble_grad_load,
    assemble_q1,
    boundary_mask,
    smallest_eigenpair,
    spd_solve,
)
from channellab.cli_io import parse_scenario
from channellab.errors import EigenFailure

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def random_pencil(m, seed):
    """Random SPD tridiagonal K and M (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    oK = -rng.uniform(0.5, 1.5, m - 1)
    dK = np.zeros(m)
    dK[:-1] += np.abs(oK)
    dK[1:] += np.abs(oK)
    dK += rng.uniform(0.1, 1.0, m)
    oM = rng.uniform(0.0, 0.5, m - 1)
    dM = 2.0 * np.concatenate([oM, [0.0]]) + 2.0 * np.concatenate([[0.0], oM])
    dM += rng.uniform(0.1, 1.0, m)
    return dK, oK, dM, oM


def dense(d, o):
    return np.diag(d) + np.diag(o, 1) + np.diag(o, -1)


class TestSmallestEigenpair:
    def test_matches_dense_eigh(self):
        dK, oK, dM, oM = random_pencil(50, seed=5)
        K, M = dense(dK, oK), dense(dM, oM)
        lam, v = smallest_eigenpair(M, lambda r: np.linalg.solve(K, r))
        ref = eigh(K, M, eigvals_only=True)[0]
        assert lam == pytest.approx(ref, rel=1e-10)
        assert np.linalg.norm(K @ v - lam * M @ v) <= 1e-9 * np.linalg.norm(K @ v)

    def test_nonsymmetric_solve_fails_residual_check(self):
        # a solve that is not the inverse of a symmetric K has no pencil
        # eigenpair; the Lanczos answer must be rejected by its residual
        dK, oK, dM, oM = random_pencil(50, seed=5)
        K = dense(dK, oK) + 0.5 * np.triu(np.ones((50, 50)), 1)
        with pytest.raises(EigenFailure) as err:
            smallest_eigenpair(dense(dM, oM), lambda r: np.linalg.solve(K, r))
        assert "residual" in str(err.value)

    def test_invariant_start_returns_its_pair(self):
        # powers of two keep every step exact: the first step leaves w = 0,
        # so beta is exactly 0 and no vector is divided by it
        dK = 2.0 ** np.arange(6)
        start = np.eye(6)[0]
        with np.errstate(all="raise"):
            lam, v = smallest_eigenpair(np.eye(6), lambda r: r / dK, start)
        assert lam == 1.0
        assert np.array_equal(v, start)

    def test_start_of_zero_m_norm_raises(self):
        dK, oK, dM, oM = random_pencil(50, seed=5)
        with pytest.raises(EigenFailure, match="M-norm"):
            smallest_eigenpair(dense(dM, oM), lambda r: np.linalg.solve(dense(dK, oK), r),
                               np.zeros(50))

    def test_step_cap_raises_with_the_last_bound(self, monkeypatch):
        monkeypatch.setattr(_fem, "_LANCZOS_STEPS", 2)
        dK, oK, dM, oM = random_pencil(50, seed=5)
        with pytest.raises(EigenFailure) as err:
            smallest_eigenpair(dense(dM, oM), lambda r: np.linalg.solve(dense(dK, oK), r))
        message = str(err.value)
        assert "2 steps" in message
        assert "Ritz bound" in message
        assert "lam" in message


def arpack_eigenvalue(M, solve, v0=None):
    """Smallest eigenvalue of the pencil by ARPACK's shift-invert Lanczos
    (``eigsh``, mode 3, sigma 0) from the same start: the eigen solve that
    ``smallest_eigenpair``'s Lanczos recurrence replaced, kept as its
    reference."""
    n = M.shape[0]
    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal(n)
    op = LinearOperator((n, n), matvec=solve, dtype=float)
    # in shift-invert mode the first argument is read for its shape only
    return float(eigsh(M, k=1, M=M, sigma=0.0, OPinv=op, v0=v0,
                       return_eigenvectors=False)[0])


class TestSpdSolve:
    def test_indefinite_matrix_raises(self):
        # a shift between the extreme eigenvalues leaves K symmetric but
        # indefinite
        dK, oK, _, _ = random_pencil(50, seed=3)
        lam = eigh(dense(dK, oK), eigvals_only=True)
        shifted = dense(dK - 0.5 * (lam[0] + lam[-1]), oK)
        with pytest.raises(EigenFailure):
            spd_solve(sparse.csr_matrix(shifted))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("columns", [1, 2, 3, 4, 5, 16])
    @pytest.mark.parametrize("kind", ["wall_17x9", "diagonal", "one_block"])
    def test_block_matches_column_solves(self, kind, columns, order):
        # wall_17x9: n 119 in blocks of 9, the last one padded with 7 rows;
        # diagonal: width 0, blocks of one row; one_block: a dense matrix,
        # one block and no coupling
        K = spd_matrix(kind)
        rhs = np.random.default_rng(4).standard_normal((K.shape[0], columns))
        solve = spd_solve(K)
        got = solve(np.asarray(rhs, order=order))
        want = np.column_stack([solve(column) for column in rhs.T])
        assert got.shape == rhs.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        residual = K @ got - rhs
        assert np.abs(residual).max() <= 1e-12 * np.abs(rhs).max()

    def test_blocks_formed_by_the_first_block_solve(self, monkeypatch):
        formed = []

        def recording(cb):
            formed.append(cb.shape)
            return sweep_blocks(cb)

        sweep_blocks = _fem._sweep_blocks
        monkeypatch.setattr(_fem, "_sweep_blocks", recording)
        # blocks of up to three columns stay on DPBTRS and form none
        K = spd_matrix("wall_17x9")
        rhs = np.ones((K.shape[0], 4))
        solve = spd_solve(K)
        solve(rhs[:, 0])
        for columns in (1, 2, 3):
            solve(rhs[:, :columns])
        assert formed == []
        solve(rhs)
        solve(rhs[:, :2])
        solve(rhs)
        assert formed == [(9, 119)]


def spd_matrix(kind):
    """A sparse symmetric positive definite matrix of the block tests."""
    if kind == "wall_17x9":
        nx, ny = 17, 9
        x, y = mapped_nodes("bump_outlet", nx, ny)
        free = ~boundary_mask(nx, ny, ends=False)
        return assemble_q1(x, y, nx, ny)[0][free][:, free]
    rng = np.random.default_rng(6)
    if kind == "diagonal":
        return sparse.diags(rng.uniform(0.5, 2.0, 13), format="csr")
    a = rng.standard_normal((5, 5))
    return sparse.csr_matrix(a @ a.T + 5.0 * np.eye(5))


def mapped_nodes(stem, nx, ny):
    """Flattened nodes (x, y) of an nx x ny mapped grid of a bundled wall."""
    sc = parse_scenario(SCENARIOS / f"{stem}.scn", environ={})
    grid = geo.make_grid(sc.profile, *sc.grid_window[:2], nx, ny)
    return np.broadcast_to(grid.xi[:, None], (nx, ny)).ravel(), grid.x2.ravel()


class TestElementLoop:
    @pytest.mark.parametrize("stem", ["bump_outlet", "widening"])
    def test_grad_load_is_the_transposed_divergence(self, stem):
        # both integrate phi_B d(phi_A)/dx_k at the same 2x2 Gauss points
        nx, ny = 41, 17
        x, y = mapped_nodes(stem, nx, ny)
        rng = np.random.default_rng(3)
        fx, fy = rng.standard_normal((2, x.size))
        B1, B2 = assemble_div(x, y, nx, ny)
        want = B1.T @ fx + B2.T @ fy
        got = assemble_grad_load(x, y, nx, ny, fx, fy)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("stem", ["bump_outlet", "widening"])
    def test_stiffness_annihilates_constants(self, stem):
        nx, ny = 41, 17
        x, y = mapped_nodes(stem, nx, ny)
        K = assemble_q1(x, y, nx, ny)[0]
        assert np.abs(K @ np.ones(x.size)).max() <= 1e-12 * np.abs(K).max()


def element_loop(x, y, nx, ny, fx, fy):
    """K, M, lumped, B1, B2 and the grad load of (fx, fy), assembled cell
    by cell: each cell's 4x4 blocks summed over its 2x2 Gauss points and
    scattered through COO, duplicates summed (the assembly before the
    cell-array kernel, kept as its reference)."""
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    di, dj = np.array(_fem._CORNERS)
    conn = (i.ravel()[:, None] + di) * ny + (j.ravel()[:, None] + dj)
    xe, ye = x[conn], y[conn]
    blocks = load = 0
    for gi, gj in zip(di, dj):
        n, dxi, deta = _fem._shape(_fem.GAUSS2_NODES[gi], _fem.GAUSS2_NODES[gj])
        jx_xi, jx_eta, jy_xi, jy_eta = xe @ dxi, xe @ deta, ye @ dxi, ye @ deta
        det = (jx_xi * jy_eta - jx_eta * jy_xi)[:, None]
        bx = (jy_eta[:, None] * dxi - jy_xi[:, None] * deta) / det
        by = (jx_xi[:, None] * deta - jx_eta[:, None] * dxi) / det
        blocks = blocks + det[:, :, None] * np.stack([
            bx[:, :, None] * bx[:, None] + by[:, :, None] * by[:, None],
            np.broadcast_to(np.outer(n, n), (len(conn), 4, 4)),
            n[:, None] * bx[:, None], n[:, None] * by[:, None]])
        load = load + det * ((fx[conn] @ n)[:, None] * bx + (fy[conn] @ n)[:, None] * by)
    rows, cols = np.repeat(conn, 4, axis=1).ravel(), np.tile(conn, (1, 4)).ravel()
    K, M, B1, B2 = (sparse.csr_matrix((b.ravel(), (rows, cols)), shape=(x.size,) * 2)
                    for b in blocks)
    b = np.zeros(x.size)
    np.add.at(b, conn.ravel(), load.ravel())
    return K, M, np.asarray(M.sum(axis=1)).ravel(), B1, B2, b


WALLS = ["bump_outlet", "custom_walls", "straight", "widening"]


class TestCellArrays:
    @pytest.mark.parametrize("nx, ny", [(41, 17), (129, 65)])
    @pytest.mark.parametrize("stem", WALLS)
    def test_matches_element_loop(self, stem, nx, ny):
        x, y = mapped_nodes(stem, nx, ny)
        fx, fy = np.random.default_rng(8).standard_normal((2, x.size))
        got = (*assemble_q1(x, y, nx, ny), *assemble_div(x, y, nx, ny),
               assemble_grad_load(x, y, nx, ny, fx, fy))
        for name, a, b in zip(("K", "M", "lumped", "B1", "B2", "load"), got,
                              element_loop(x, y, nx, ny, fx, fy)):
            assert abs(a - b).max() <= 1e-14 * abs(b).max(), name

    @pytest.mark.parametrize("stem", WALLS)
    def test_nine_point_pattern(self, stem):
        # spd_solve reads K's lower triangle only: an asymmetric K would
        # pass unseen there
        nx, ny = 41, 17
        x, y = mapped_nodes(stem, nx, ny)
        K, M, _ = assemble_q1(x, y, nx, ny)
        assert (K - K.T).nnz == 0
        assert (M - M.T).nnz == 0
        for m in (K, M, *assemble_div(x, y, nx, ny)):
            coo = m.tocoo()
            (ri, rj), (ci, cj) = np.divmod(coo.row, ny), np.divmod(coo.col, ny)
            assert np.abs(ri - ci).max() <= 1
            assert np.abs(rj - cj).max() <= 1


class TestLanczosReference:
    @pytest.mark.parametrize("stem", WALLS)
    def test_matches_arpack(self, stem, monkeypatch):
        # M1's coarse and fine pencils and M5's, each from the start the
        # estimator gives it
        pencils = []

        def recording(M, solve, v0=None):
            lam, v = smallest_eigenpair(M, solve, v0)
            pencils.append((M, solve, v0, lam))
            return lam, v

        monkeypatch.setattr(fi, "smallest_eigenpair", recording)
        sc = parse_scenario(SCENARIOS / f"{stem}.scn", environ={})
        a, b = sc.grid_window[:2]
        fi.poincare_m1(sc.profile, a, b)
        fi.bogovskii_m5(sc.profile, a, b)
        assert len(pencils) == 3
        for M, solve, v0, lam in pencils:
            assert lam == pytest.approx(arpack_eigenvalue(M, solve, v0), rel=1e-13, abs=0.0)
