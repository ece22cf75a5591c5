import math
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, null_space
from scipy.sparse.linalg import splu

from channellab import functional_inequalities as fi
from channellab import geometry as geo
from channellab._fem import (
    assemble_div,
    assemble_q1,
    smallest_eigenpair,
    tridiagonal_pencil_max,
)
from channellab.cli_io import parse_scenario
from channellab.errors import AscentStagnation

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
        m1 = fi._laplace_eigenvalue(p, 0, 1, 65, 65, True) ** -0.5
        assert m1 == pytest.approx(1.0 / (math.pi * math.sqrt(2)), rel=0.02)

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

    def test_eigen_refinement_order(self, straight):
        exact = 2.0 / math.pi
        e1 = abs(fi.poincare_m1(straight, 0, 2, resolution=(33, 33)).value - exact)
        e2 = abs(fi.poincare_m1(straight, 0, 2, resolution=(65, 65)).value - exact)
        assert math.log2(e1 / e2) >= 1.5


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
        # handed to the eigen helper slice by slice
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
        lam = tridiagonal_pencil_max(dK[1:-1], oK[1:-1], dM[1:-1], oM[1:-1])
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
        # the ascent as it read one start at a time, with integer array powers
        # and a COLAMD factor; bump_outlet has a start stopped by the step
        # cap, straight has starts that settle in different basins
        nx, ny = 49, 33
        _, x, y = fi._grid_nodes(profile, a, b, nx, ny)
        K, _, lumped = assemble_q1(x, y, nx, ny)
        free = ~fi._wall_mask(nx, ny)
        Kf = K[free][:, free].tocsc()
        lump_f = lumped[free]
        lu = splu(Kf)
        rng = np.random.default_rng(0)
        best = 0.0
        for _ in range(16):
            w = rng.standard_normal(lump_f.size)
            w /= math.sqrt(w @ (Kf @ w))
            ratio_old = 0.0
            for _ in range(200):
                w = lu.solve(lump_f * w**3)
                w /= math.sqrt(w @ (Kf @ w))
                ratio = float(lump_f @ w**4) ** 0.25
                if abs(ratio - ratio_old) <= 1e-10 * ratio:
                    break
                ratio_old = ratio
            best = max(best, ratio_old)
        est = fi.sobolev_m4(profile, a, b, resolution=(nx, ny))
        assert est.value == pytest.approx(best, rel=1e-12)

    def test_zero_fields_stagnate(self, straight, monkeypatch):
        # every start's first step is the zero field: no start has a ratio
        class ZeroSolve:
            def __init__(self, matrix, **kwargs):
                pass

            def solve(self, rhs):
                return np.zeros_like(rhs)

        monkeypatch.setattr(fi, "splu", ZeroSolve)
        with pytest.raises(AscentStagnation):
            fi.sobolev_m4(straight, 0, 2, resolution=(17, 9))

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

    def test_below_decomposition_bound(self):
        p = geo.straight(c1=0.0, c2=1.0)
        est = fi.bogovskii_m5(p, 0, 1, resolution=(33, 33))
        bound = fi.decomposition_bound([fi.Rect(0, 1, 0, 1)])
        assert est.value <= bound

    def test_window_sweep_uniform(self, power_half):
        sweep = fi.bogovskii_window_sweep(
            power_half, 0.5, [8.0, 12.0, 20.0, 28.0, 36.0], resolution=(25, 25)
        )
        vals = [e.value for e in sweep]
        assert max(vals) / min(vals) <= 1.10

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
        free = ~fi._wall_mask(nx, ny, dirichlet_ends=True)
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


class TestDecompositionBound:
    def test_single_rectangle_degenerate_chain(self):
        # one square: chain prefactor 2, diameter sqrt(2), radius 1/2
        got = fi.decomposition_bound([fi.Rect(0, 1, 0, 1)])
        r0 = math.sqrt(2.0)
        assert got == pytest.approx(2.0 * (r0 / 0.5) ** 2 * (1 + r0 / 0.5))

    def test_two_rectangles_hand_computed(self):
        # two unit squares overlapping on half their area:
        # tilde_1 = 1/2, hat_1 minus D_1 = 1/2, tilde_2 = |D_2| = 1
        # k=1 term: 1 + sqrt(1/(1/2)) = 1 + sqrt(2)
        # k=2 term: (1 + 1) * (1 + sqrt((1/2)/(1/2))) = 4
        r1 = fi.Rect(0, 1, 0, 1)
        r2 = fi.Rect(0.5, 1.5, 0, 1)
        r0 = math.hypot(1.5, 1.0)
        expected = 4.0 * (r0 / 0.5) ** 2 * (1 + r0 / 0.5)
        assert fi.decomposition_bound([r1, r2]) == pytest.approx(expected)

    def test_union_area_exact(self):
        r1 = fi.Rect(0, 1, 0, 1)
        r2 = fi.Rect(0.5, 1.5, 0, 1)
        assert fi._union_area([r1, r2]) == pytest.approx(1.5)
