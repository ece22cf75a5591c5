import math

import numpy as np
import pytest
from scipy.linalg import eigh, null_space

from channellab import functional_inequalities as fi
from channellab import geometry as geo


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
        est = fi.poincare_m1(p, 0, 1, resolution=(65, 65), dirichlet_ends=True)
        assert est.value == pytest.approx(1.0 / (math.pi * math.sqrt(2)), rel=0.02)

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

    def test_random_fields_below_constant(self, straight):
        # the maximizer property: any wall-vanishing discrete field has
        # ratio at most M0 (up to discretization)
        est = fi.poincare_m0(straight, -1, 1, resolution=129)
        rng = np.random.default_rng(0)
        x2 = np.linspace(-1, 1, 129)
        h = x2[1] - x2[0]
        for _ in range(20):
            w = rng.standard_normal(129)
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
        est = fi.sobolev_m4(straight, 0, 2, resolution=(33, 17), n_starts=4)
        assert est.value > 0

    def test_monotone_under_domain_growth(self, power_half):
        small = fi.sobolev_m4(power_half, -3, 3, resolution=(41, 25))
        large = fi.sobolev_m4(power_half, -6, 6, resolution=(81, 25))
        assert large.value >= small.value * (1 - 1e-6)

    def test_fitted_constant_stable_against_reference(self):
        # M4 / reference is one number across a family of strips
        ratios = []
        for scale in (0.5, 1.0, 2.0):
            p = geo.straight(d0=scale)
            a, b = 0.0, 4.0 * scale
            m4 = fi.sobolev_m4(p, a, b, resolution=(49, 25))
            m1 = fi.poincare_m1(p, a, b, resolution=(49, 25))
            ratios.append(m4.value / fi.m4_scaling_reference(p, a, b, m1.value))
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
            [fi._saddle_apply(lu, nf, n, e)[2] for e in np.eye(n)]
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
        lu, _, _, nf = fi._saddle_factor(x, y, 17, 17)
        a1, a2, _ = fi._saddle_apply(lu, nf, x.size, np.zeros(x.size))
        assert np.abs(a1).max() == 0.0 and np.abs(a2).max() == 0.0


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
