import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, null_space
from scipy.sparse.linalg import splu

from channellab import _fem
from channellab import functional_inequalities as fi
from channellab import geometry as geo
from channellab._fem import (
    assemble_div,
    assemble_q1,
    boundary_mask,
    smallest_eigenpair,
    spd_solve,
)
from channellab.cli_io import parse_scenario
from channellab.errors import AscentStagnation, EigenFailure

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# stem -> (profile, a, b) of the bundled walls, on the window `constants` uses
BUNDLED = {
    path.stem: (sc.profile, *sc.grid_window[:2])
    for path in sorted(SCENARIOS.glob("*.scn"))
    for sc in [parse_scenario(path, environ={})]
}


def bundled(*stems):
    return [pytest.param(*BUNDLED[s], id=s) for s in stems or BUNDLED]


class TestPoincareM1:
    def test_strip_matches_analytic(self, straight):
        est = fi.poincare_m1(straight, 0, 2, resolution=(65, 65))
        assert est.value == pytest.approx(2.0 / math.pi, rel=0.02)
        assert est.self_consistency < 0.05

    def test_doubles_with_width(self, straight):
        wide = geo.straight(d0=2.0)
        narrow = fi.poincare_m1(straight, 0, 2, resolution=(65, 65))
        doubled = fi.poincare_m1(wide, 0, 4, resolution=(65, 65))
        assert doubled.value / narrow.value == pytest.approx(2.0, rel=0.02)

    def test_all_dirichlet_unit_square(self):
        p = geo.straight(c1=0.0, c2=1.0)
        _, x, y = fi._grid_nodes(p, 0, 1, 65, 65)
        K, M, _ = assemble_q1(x, y, 65, 65)
        free = ~boundary_mask(65, 65, ends=True)
        lam, _ = smallest_eigenpair(M[free][:, free], spd_solve(K[free][:, free]))
        assert lam ** -0.5 == pytest.approx(1.0 / (math.pi * math.sqrt(2)), rel=0.02)

    def test_fitted_universal_constant_stable(self, straight):
        # M1 / ||f||_inf is the same across widths
        wide = geo.straight(d0=2.0)
        c1 = fi.poincare_m1(straight, 0, 2, resolution=(49, 49)).value / 2.0
        c2 = fi.poincare_m1(wide, 0, 4, resolution=(49, 49)).value / 4.0
        assert c1 == pytest.approx(c2, rel=0.02)

    def test_monotone_under_domain_growth(self, power_half):
        small = fi.poincare_m1(power_half, -5, 5, resolution=(65, 33))
        large = fi.poincare_m1(power_half, -10, 10, resolution=(129, 33))
        assert large.value >= small.value - 1e-9

    @pytest.mark.parametrize("profile, a, b", bundled())
    def test_coarse_start_matches_seeded_start(self, profile, a, b, monkeypatch):
        # the full-grid Lanczos run from the interpolated coarse eigenvector
        # lands on the eigenvalue of the seeded run, in fewer back-solves
        runs = {}
        for start in ("coarse", "seeded"):
            solves = []

            def counting(M, solve, v0=None):
                def counted(rhs):
                    solves.append(M.shape[0])
                    return solve(rhs)

                return smallest_eigenpair(M, counted,
                                          v0 if start == "coarse" else None)

            monkeypatch.setattr(fi, "smallest_eigenpair", counting)
            value = fi.poincare_m1(profile, a, b).value
            runs[start] = value, solves.count(max(solves))
        (value, fine), (seeded, fine_seeded) = runs["coarse"], runs["seeded"]
        assert value == pytest.approx(seeded, rel=1e-13, abs=0.0)
        assert fine <= fine_seeded
        if profile.label().startswith("straight"):
            assert fine < fine_seeded

    def test_eigen_refinement_order(self, straight):
        exact = 2.0 / math.pi
        e1 = abs(fi.poincare_m1(straight, 0, 2, resolution=(33, 33)).value - exact)
        e2 = abs(fi.poincare_m1(straight, 0, 2, resolution=(65, 65)).value - exact)
        assert math.log2(e1 / e2) >= 1.5


def wall_stiffness(profile, a, b, nx, ny, walls_free=False):
    """Q1 stiffness of the nx x ny grid, wall rows dropped unless walls_free."""
    _, x, y = fi._grid_nodes(profile, a, b, nx, ny)
    K = assemble_q1(x, y, nx, ny)[0]
    if walls_free:
        return K
    free = ~boundary_mask(nx, ny, ends=False)
    return K[free][:, free]


class TestSpdSolve:
    @pytest.mark.parametrize("nx, ny", [(129, 65), (65, 33), (49, 33)])
    @pytest.mark.parametrize("profile, a, b", bundled())
    def test_matches_superlu(self, profile, a, b, nx, ny):
        # the M1 stiffnesses (129x65, 65x33) and the M4 one (49x33)
        K = wall_stiffness(profile, a, b, nx, ny)
        rhs = np.random.default_rng(2).standard_normal((K.shape[0], 3))
        want = splu(K.tocsc()).solve(rhs)
        solve = spd_solve(K)
        for got, ref in ((solve(rhs), want), (solve(rhs[:, 0]), want[:, 0])):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("nx, ny", [(129, 65), (49, 33)])
    @pytest.mark.parametrize("profile, a, b", bundled())
    def test_singular_stiffness_raises(self, profile, a, b, nx, ny):
        # with the wall rows left free the constants span K's null space
        with pytest.raises(EigenFailure):
            spd_solve(wall_stiffness(profile, a, b, nx, ny, walls_free=True))

    def test_only_the_saddle_uses_superlu(self, straight, monkeypatch):
        factored = []

        def recording(matrix, *args, **kwargs):
            factored.append(matrix.shape[0])
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(fi, "splu", recording)
        fi.poincare_m1(straight, 0, 2, resolution=(33, 17))
        fi.sobolev_m4(straight, 0, 2, resolution=(33, 17))
        assert factored == []
        fi.bogovskii_m5(straight, 0, 2, resolution=(17, 17))
        assert len(factored) == 1

    def test_only_m4_forms_sweep_blocks(self, straight, monkeypatch):
        # M1's Lanczos solves vectors: its factors never hold the blocks
        formed = []

        def recording(cb):
            formed.append(cb.shape)
            return sweep_blocks(cb)

        sweep_blocks = _fem._sweep_blocks
        monkeypatch.setattr(_fem, "_sweep_blocks", recording)
        fi.poincare_m1(straight, 0, 2, resolution=(33, 17))
        assert formed == []
        fi.sobolev_m4(straight, 0, 2, resolution=(33, 17))
        # 15 free nodes a grid line: width 16, so one factor with blocks of 17
        assert formed == [(17, 33 * 15)]


class TestPoincareM0:
    def test_analytic_value(self, straight):
        est = fi.poincare_m0(straight, -5, 5)
        assert est.value == pytest.approx(1.0 / math.pi, rel=0.02)

    def test_uniform_across_profiles(self, straight, power_half):
        a = fi.poincare_m0(straight, -5, 5)
        b = fi.poincare_m0(power_half, -5, 5)
        assert abs(a.value - b.value) / a.value < 0.05

    @pytest.mark.parametrize("n", [fi.M0_NODES, fi.M0_NODES // 2 + 1])
    @pytest.mark.parametrize("width", [1.0, 7.3])
    def test_closed_form_matches_slice_pencil(self, n, width):
        # the Dirichlet P1 pencil of one slice, as it was assembled and
        # handed to the eigen helper slice by slice, solved densely here
        h = np.full(n - 1, width / (n - 1))
        dK = np.zeros(n)
        dK[:-1] += 1.0 / h
        dK[1:] += 1.0 / h
        dM = np.zeros(n)
        dM[:-1] += h / 3.0
        dM[1:] += h / 3.0
        oK, oM = -1.0 / h, h / 6.0
        dM /= width**2
        oM /= width**2
        K = np.diag(dK[1:-1]) + np.diag(oK[1:-1], 1) + np.diag(oK[1:-1], -1)
        M = np.diag(dM[1:-1]) + np.diag(oM[1:-1], 1) + np.diag(oM[1:-1], -1)
        lam = eigh(M, K, eigvals_only=True)[-1]
        assert fi._slice_m0(n) == pytest.approx(math.sqrt(lam), rel=1e-11)

    def test_random_fields_below_constant(self, straight):
        # the maximizer property: any wall-vanishing discrete field has
        # ratio at most M0 (up to discretization)
        est = fi.poincare_m0(straight, -1, 1)
        rng = np.random.default_rng(0)
        x2 = np.linspace(-1, 1, fi.M0_NODES)
        h = x2[1] - x2[0]
        for _ in range(20):
            w = rng.standard_normal(fi.M0_NODES)
            w[0] = w[-1] = 0.0
            q = (w / 2.0) ** 2
            num = h * (q.sum() - 0.5 * (q[0] + q[-1]))
            den = np.sum(np.diff(w) ** 2 / h)
            assert math.sqrt(num / den) <= est.value * (1 + 1e-6)


class TestSobolevM4:
    def test_scaling_exponent_half(self):
        # doubling the domain scale multiplies the L4/H1 ratio by sqrt(2)
        a = fi.sobolev_m4(geo.straight(d0=0.5), 0, 2, resolution=(49, 25))
        b = fi.sobolev_m4(geo.straight(d0=1.0), 0, 4, resolution=(49, 25))
        assert b.value / a.value == pytest.approx(math.sqrt(2.0), abs=0.05)

    def test_positive_on_any_start(self, straight):
        est = fi.sobolev_m4(straight, 0, 2, resolution=(33, 17))
        assert est.value > 0

    def test_monotone_under_domain_growth(self, power_half):
        small = fi.sobolev_m4(power_half, -3, 3, resolution=(41, 25))
        large = fi.sobolev_m4(power_half, -6, 6, resolution=(81, 25))
        assert large.value >= small.value * (1 - 1e-6)

    @pytest.mark.parametrize("profile, a, b", bundled())
    def test_matches_power_reference(self, profile, a, b):
        # the ascent as it read one start at a time, with integer array powers,
        # K-norms from K and a COLAMD factor; every start settles below the
        # step cap (bump_outlet's start 13 only on its 269th step), straight
        # has starts that settle in different basins
        nx, ny = 49, 33
        _, x, y = fi._grid_nodes(profile, a, b, nx, ny)
        K, _, lumped = assemble_q1(x, y, nx, ny)
        free = ~boundary_mask(nx, ny, ends=False)
        Kf = K[free][:, free].tocsc()
        lump_f = lumped[free]
        lu = splu(Kf)
        rng = np.random.default_rng(0)
        best = 0.0
        for _ in range(16):
            w = rng.standard_normal(lump_f.size)
            w /= math.sqrt(w @ (Kf @ w))
            ratio_old = 0.0
            for _ in range(fi.M4_MAX_STEPS):
                w = lu.solve(lump_f * w**3)
                w /= math.sqrt(w @ (Kf @ w))
                ratio = float(lump_f @ w**4) ** 0.25
                if abs(ratio - ratio_old) <= 1e-10 * ratio:
                    break
                ratio_old = ratio
            else:
                pytest.fail("a start reached the step cap")
            best = max(best, ratio_old)
        est = fi.sobolev_m4(profile, a, b, resolution=(nx, ny))
        assert est.value == pytest.approx(best, rel=1e-12)

    def test_step_cap_names_unsettled_starts(self, straight, monkeypatch):
        monkeypatch.setattr(fi, "M4_MAX_STEPS", 2)
        with pytest.raises(AscentStagnation) as err:
            fi.sobolev_m4(straight, 0, 2, resolution=(17, 9))
        message = str(err.value)
        assert "starts 0, 1, 2" in message
        assert "did not settle in 2 steps: start 0 at ratio " in message
        # each unsettled start's last ratio and relative change, in order
        last = re.findall(r"start (\d+) at ratio (\S+) \(last relative change "
                          r"(\S+)\)", message)
        assert [int(start) for start, _, _ in last] == list(range(fi.M4_STARTS))
        assert all(float(ratio) > 0.0 and float(change) > 1e-10
                   for _, ratio, change in last)
        assert message.endswith("; no start settled")

    def test_step_cap_names_the_best_settled_ratio(self, straight, monkeypatch):
        # with the cap one step short of the slowest start, the others settle
        settled = fi.sobolev_m4(straight, 0, 2, resolution=(17, 9)).value
        steps = self.steps_to_settle(straight)
        monkeypatch.setattr(fi, "M4_MAX_STEPS", max(steps) - 1)
        with pytest.raises(AscentStagnation) as err:
            fi.sobolev_m4(straight, 0, 2, resolution=(17, 9))
        message = str(err.value)
        slowest = [i for i, s in enumerate(steps) if s == max(steps)]
        assert f"starts {', '.join(map(str, slowest))} of 16 " in message
        best = float(message.rsplit("the best settled ratio is ", 1)[1])
        assert best <= settled and best == pytest.approx(settled, rel=1e-5)

    @staticmethod
    def steps_to_settle(profile):
        """Steps each M4 start takes on [0, 2] at 17x9, run one at a time."""
        nx, ny = 17, 9
        _, x, y = fi._grid_nodes(profile, 0, 2, nx, ny)
        K, _, lumped = assemble_q1(x, y, nx, ny)
        free = ~boundary_mask(nx, ny, ends=False)
        Kf, lump_f = K[free][:, free].tocsc(), lumped[free]
        lu = splu(Kf)
        draws = np.random.default_rng(fi.M4_SEED).standard_normal(
            (fi.M4_STARTS, lump_f.size))
        steps = []
        for w in draws:
            w = w / math.sqrt(w @ (Kf @ w))
            ratio_old = 0.0
            for step in range(1, fi.M4_MAX_STEPS + 1):
                w = lu.solve(lump_f * w**3)
                w /= math.sqrt(w @ (Kf @ w))
                ratio = float(lump_f @ w**4) ** 0.25
                if abs(ratio - ratio_old) <= 1e-10 * ratio:
                    break
                ratio_old = ratio
            steps.append(step)
        return steps

    def test_zero_fields_stagnate(self, straight, monkeypatch):
        # every start's first step is the zero field: no start has a ratio
        monkeypatch.setattr(fi, "spd_solve", lambda matrix: np.zeros_like)
        with pytest.raises(AscentStagnation) as err:
            fi.sobolev_m4(straight, 0, 2, resolution=(17, 9))
        assert "positive ratio" in str(err.value)

    def test_fitted_constant_stable_against_reference(self):
        # M4 / [(b-a)^-1 M1 + 1]^(1/2) |Omega|^(1/4) is one number across a
        # family of strips: only the scaling is testable, the universal
        # prefactor is unspecified
        ratios = []
        for scale in (0.5, 1.0, 2.0):
            p = geo.straight(d0=scale)
            a, b = 0.0, 4.0 * scale
            m4 = fi.sobolev_m4(p, a, b, resolution=(49, 25))
            m1 = fi.poincare_m1(p, a, b, resolution=(49, 25))
            area = geo.weight_integral(p, a, b, 1.0)
            reference = math.sqrt(m1.value / (b - a) + 1.0) * area**0.25
            ratios.append(m4.value / reference)
        assert max(ratios) / min(ratios) < 1.05


class TestBogovskii:
    def test_refinement_stability(self):
        p = geo.straight(c1=0.0, c2=1.0)
        a = fi.bogovskii_m5(p, 0, 1, resolution=(25, 25))
        b = fi.bogovskii_m5(p, 0, 1, resolution=(49, 49))
        assert abs(b.value - a.value) / b.value < 0.05

    def test_matches_dense_schur_reference(self):
        # dense reference: the projected multiplier map G (one saddle solve
        # per column) and eigh of Mp G Mp against Mp on the mean-zero
        # complement; the largest eigenvalue is M5^2
        p = geo.straight(c1=0.0, c2=1.0)
        nx = ny = 25
        _, x, y = fi._grid_nodes(p, 0, 1, nx, ny)
        n = x.size
        lu, Mp, lumped, nf = fi._saddle_factor(x, y, nx, ny)
        G = -np.column_stack(
            [fi._saddle_apply(lu, nf, lumped, e)[2] for e in np.eye(n)]
        )
        G -= np.outer(np.ones(n), lumped @ G) / lumped.sum()
        Q = null_space(lumped[None, :])
        Md = Mp.toarray()
        A = Q.T @ Md @ G @ Md @ Q
        ref = math.sqrt(eigh(0.5 * (A + A.T), Q.T @ Md @ Q, eigvals_only=True)[-1])
        est = fi.bogovskii_m5(p, 0, 1, resolution=(nx, ny))
        assert est.value == pytest.approx(ref, rel=1e-8)

    def test_zero_rhs_gives_zero_field(self):
        # div a = 0 with a = 0 on the boundary has only the zero minimizer
        p = geo.straight(c1=0.0, c2=1.0)
        _, x, y = fi._grid_nodes(p, 0, 1, 17, 17)
        lu, _, lumped, nf = fi._saddle_factor(x, y, 17, 17)
        a1, a2, _ = fi._saddle_apply(lu, nf, lumped, np.zeros(x.size))
        assert np.abs(a1).max() == 0.0 and np.abs(a2).max() == 0.0

    @pytest.mark.parametrize("profile, a, b", bundled())
    def test_matches_bordered_reference(self, profile, a, b):
        # reference: the saddle system bordered by the dense mean-zero
        # multiplier row and column, whose pressure is mean-zero already
        nx = ny = 33
        _, x, y = fi._grid_nodes(profile, a, b, nx, ny)
        n = x.size
        K, Mp, lumped = assemble_q1(x, y, nx, ny)
        B1, B2 = assemble_div(x, y, nx, ny)
        free = ~boundary_mask(nx, ny, ends=True)
        nf = int(free.sum())
        Kf = K[free][:, free]
        C = 0.1 * lumped.sum() / ((nx - 1) * (ny - 1)) * K
        border = sparse.csr_matrix(lumped[None, :])
        lu = splu(
            sparse.bmat(
                [
                    [Kf, None, B1[:, free].T, None],
                    [None, Kf, B2[:, free].T, None],
                    [B1[:, free], B2[:, free], -C, border.T],
                    [None, None, border, None],
                ],
                format="csc",
            )
        )

        def solve(rhs):
            z = -lu.solve(np.concatenate([np.zeros(2 * nf), rhs, [0.0]]))[2 * nf : -1]
            return z - (lumped @ z) / lumped.sum()

        ref = smallest_eigenpair(Mp, solve)[0] ** -0.5
        est = fi.bogovskii_m5(profile, a, b, resolution=(nx, ny))
        assert est.value == pytest.approx(ref, rel=1e-12)

        # one load with nonzero mean: same velocity, same pressure up to the
        # constant of the pinned node
        load = Mp @ np.random.default_rng(1).standard_normal(n)
        want = lu.solve(np.concatenate([np.zeros(2 * nf), load, [0.0]]))[:-1]
        pinned = fi._saddle_factor(x, y, nx, ny)[0]
        a1, a2, p = fi._saddle_apply(pinned, nf, lumped, load)
        got = np.concatenate([a1, a2, p - (lumped @ p) / lumped.sum()])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("profile, a, b", bundled())
    def test_saddle_factor_keeps_its_order(self, profile, a, b, monkeypatch):
        # nested dissection with diagonal pivots: SuperLU keeps the given
        # order, swaps no row and fills L+U to 343-344k entries (COLAMD with
        # partial pivoting: 479-483k)
        factors = []

        def recording(matrix, *args, **kwargs):
            factors.append(splu(matrix, *args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(fi, "splu", recording)
        _, x, y = fi._grid_nodes(profile, a, b, 33, 33)
        fi._saddle_factor(x, y, 33, 33)
        (lu,) = factors
        identity = np.arange(lu.shape[0])
        assert np.array_equal(lu.perm_c, identity)
        assert np.array_equal(lu.perm_r, identity)
        assert lu.L.nnz + lu.U.nnz <= 360_000

    def test_saddle_matrix_has_no_dense_border(self, monkeypatch):
        # Q1 couplings give at most 9 + 9 + 9 entries in a pressure row; a
        # bordered multiplier would add a full row and column
        factored = []

        def recording(matrix, *args, **kwargs):
            factored.append(matrix.tocsr())
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(fi, "splu", recording)
        fi.bogovskii_m5(geo.straight(c1=0.0, c2=1.0), 0, 1, resolution=(33, 33))
        (s,) = factored
        assert np.diff(s.indptr).max() <= 27
        assert np.diff(s.tocsc().indptr).max() <= 27
