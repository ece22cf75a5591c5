import numpy as np
import pytest
from scipy.linalg import eigh

from channellab._fem import tridiagonal_pencil_max
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
        lam = tridiagonal_pencil_max(dK, oK, dM, oM, seed=3, tol=1e-14,
                                     max_iter=5000)
        ref = eigh(dense(dM, oM), dense(dK, oK), eigvals_only=True)[-1]
        assert lam == pytest.approx(ref, rel=1e-10)

    def test_cap_raises(self):
        dK, oK, dM, oM = random_pencil(50, seed=5)
        with pytest.raises(EigenFailure) as err:
            tridiagonal_pencil_max(dK, oK, dM, oM, seed=3, tol=1e-12,
                                   max_iter=1)
        assert "1 iterations" in str(err.value)

    def test_zero_mass_collapse_raises(self):
        dK, oK, dM, oM = random_pencil(10, seed=1)
        with pytest.raises(EigenFailure):
            tridiagonal_pencil_max(dK, oK, 0.0 * dM, 0.0 * oM, seed=3,
                                   tol=1e-12, max_iter=10)
