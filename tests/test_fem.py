import numpy as np
import pytest
from scipy.linalg import eigh

from channellab._fem import smallest_eigenpair, tridiagonal_pencil_max
from channellab.errors import EigenFailure


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


class TestTridiagonalPencil:
    def test_matches_dense_eigh(self):
        dK, oK, dM, oM = random_pencil(50, seed=5)
        lam = tridiagonal_pencil_max(dK, oK, dM, oM)
        ref = eigh(dense(dM, oM), dense(dK, oK), eigvals_only=True)[-1]
        assert lam == pytest.approx(ref, rel=1e-10)

    def test_zero_mass_collapse_raises(self):
        dK, oK, dM, oM = random_pencil(10, seed=1)
        with pytest.raises(EigenFailure):
            tridiagonal_pencil_max(dK, oK, 0.0 * dM, 0.0 * oM)


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
