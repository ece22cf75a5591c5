from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh

from channellab import _fem
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
