from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh

from channellab import geometry as geo
from channellab._fem import (
    assemble_div,
    assemble_grad_load,
    assemble_q1,
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
