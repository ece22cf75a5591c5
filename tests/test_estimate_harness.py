import numpy as np
import pytest

from channellab import comparison_lemmas as cl
from channellab import estimate_harness as eh
from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns
from channellab.errors import HypothesisNotMet, NonConvergence, OutOfRange

SMALL = eh.GridPolicy(target_hx=0.125, ny=33)


@pytest.fixture(scope="module")
def small_power_report(power_half):
    state, _ = eh.padded_solve(
        power_half, fc.CarrierParams(1.0, 0.5), 8.0, SMALL
    )
    return state


class TestGrowthScan:
    def test_straight_channel_matches_analytic_ratio(self, straight):
        # per unit length: dissipation 3/2 phi^2, weight 1/8 -> ratio 12
        rep = eh.growth_scan(straight, 1.0, [2, 4, 6], policy=SMALL)
        assert rep.lower_ratio[-1] == pytest.approx(12.0, rel=0.02)
        assert all(rep.verdicts.values())

    def test_dirichlet_and_weight_monotone(self, power_half,
                                           small_power_report):
        rep = eh.growth_scan(
            power_half, 1.0, [2, 4, 8], state=small_power_report
        )
        assert np.all(np.diff(rep.dirichlet) > 0)
        assert np.all(np.diff(rep.weight) > 0)
        assert rep.upper_spread <= 3.0
        assert rep.lower_min > 0.5

    def test_zero_flux_skips_lower_bound(self, straight):
        state = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -6, 6, 97, 17
        )
        rep = eh.growth_scan(straight, 0.0, [2, 4], state=state)
        assert np.isnan(rep.lower_min)
        assert rep.verdicts["lower_positive"]

    def test_invalid_t(self, straight):
        with pytest.raises(OutOfRange):
            eh.growth_scan(straight, 1.0, [-1, 2], policy=SMALL)


class TestDecayScan:
    def test_straight_channel_constant_product(self, straight):
        # Poiseuille maximum 3 phi/4 at the center, width 2: product 3/2
        rep = eh.decay_scan(straight, 1.0, (2, 5), policy=SMALL)
        assert rep.slice_sup[0] == pytest.approx(1.5, rel=0.02)
        assert rep.sup_spread <= 1.05

    def test_power_law_bounded_products(self, power_half, small_power_report):
        rep = eh.decay_scan(
            power_half, 1.0, (3, 8), state=small_power_report
        )
        assert rep.hypothesis_met
        assert rep.sup_spread <= 4.0
        assert rep.window_spread <= 4.0
        assert all(rep.verdicts.values())

    def test_zero_flux_zero_products(self, straight):
        state = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -6, 6, 97, 17
        )
        rep = eh.decay_scan(straight, 0.0, (2, 4), state=state)
        assert max(rep.slice_sup) == 0.0

    def test_interior_wall_split(self, power_half, small_power_report):
        rep = eh.decay_scan(power_half, 1.0, (3, 8), state=small_power_report)
        for full, inner, wall in zip(
            rep.slice_sup, rep.slice_sup_interior, rep.slice_sup_wall
        ):
            assert full == pytest.approx(max(inner, wall), rel=1e-12)


class TestPoiseuilleConvergence:
    def test_bump_profile_plateaus(self):
        p = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4.0)
        rep = eh.poiseuille_convergence(
            p, 0.5, 4.0, [6, 10, 14], policy=eh.GridPolicy(0.1, 33)
        )
        assert rep.plateau_ok
        assert rep.tail_decreasing

    def test_straight_everywhere_error_is_floor(self, straight):
        rep = eh.poiseuille_convergence(
            straight, 0.5, 0.0, [4, 8], policy=eh.GridPolicy(0.1, 33)
        )
        assert max(rep.h1_error) < 1e-6
        assert rep.plateau_ok

    def test_zero_flux(self, straight):
        rep = eh.poiseuille_convergence(
            straight, 0.0, 0.0, [3, 6], policy=eh.GridPolicy(0.125, 17)
        )
        assert max(rep.h1_error) == 0.0


class TestUniqueness:
    def test_small_flux_unique(self, straight):
        rep = eh.uniqueness_probe(straight, 0.1, -6, 6, nx=129, ny=33)
        assert rep.unique
        assert rep.l2_distance <= 1e-6
        assert rep.dirichlet_distance <= 1e-6

    def test_perturbed_start_reports_nonconvergence(self, straight):
        cfg = ns.SolverConfig(tol=1e-12, max_iter=2)
        with pytest.raises(NonConvergence) as err:
            eh._perturbed_solve(straight, fc.CarrierParams(1.0, 0.5),
                                -4, 4, 65, 17, cfg, seed=7)
        assert "Picard stalled" in str(err.value)
        assert err.value.iterations == 2
        assert cfg.tol <= err.value.best_residual < np.inf

    def test_zero_flux_exact_agreement(self, straight):
        rep = eh.uniqueness_probe(straight, 0.0, -4, 4, nx=65, ny=17)
        assert rep.l2_distance == 0.0
        assert rep.dirichlet_distance == 0.0
        assert rep.unique


class TestHatWeight:
    def test_shape(self, power_half):
        m = geo.validate(power_half, (-40, 40))
        bs = m.beta_star
        t = 1.0
        h_t, h_l, h_r = geo.h_parameterization(power_half, t, bs)
        w = eh.hat_weight(power_half, t, bs)
        assert w(np.array([h_t + 1.0]))[0] == 0.0
        assert w(np.array([0.5 * (h_l + h_r)]))[0] == pytest.approx(bs)
        # continuity at the joins
        for x in (h_l, h_r):
            lo = w(np.array([x - 1e-9]))[0]
            hi = w(np.array([x + 1e-9]))[0]
            assert lo == pytest.approx(hi, abs=1e-6)

    def test_undefined_below_crossing(self, power_half):
        m = geo.validate(power_half, (-40, 40), classify_case=True)
        assert m.t_star is not None
        with pytest.raises(OutOfRange):
            eh.hat_weight(power_half, 0.5 * m.t_star, m.beta_star)

    def test_weighted_energy_nondecreasing_in_t(self, power_half,
                                                small_power_report):
        # dt zeta_hat >= 0: the weighted energy grows with the window
        m = geo.validate(power_half, (-40, 40), classify_case=True)
        ts = np.linspace(1.05 * m.t_star, geo.k_of(power_half, 6.0), 8)
        ys = [
            ns.weighted_energy(
                small_power_report, eh.hat_weight(power_half, t, m.beta_star)
            )
            for t in ts
        ]
        assert np.all(np.diff(ys) >= -1e-9 * max(ys))


class TestHatEnergyInequality:
    def test_dominated_on_power_law(self, power_half, small_power_report):
        rep = eh.hat_energy_inequality(
            power_half, 1.0, 6.0, state=small_power_report
        )
        assert rep.verdict is cl.Verdict.DOMINATED
        assert rep.monotone
        assert rep.c11 > 0

    def test_zero_flux_trivial(self, straight):
        state = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -8, 8, 129, 17
        )
        rep = eh.hat_energy_inequality(straight, 0.0, 4.0, state=state)
        assert rep.verdict is cl.Verdict.DOMINATED
        assert max(rep.y_hat) == 0.0

    def test_requires_case_one(self):
        p = geo.power_law(d0=1.0, alpha=0.7)
        with pytest.raises(HypothesisNotMet):
            eh.hat_energy_inequality(p, 1.0, 4.0, policy=SMALL)


class TestFitInequality:
    def test_fit_covers_data(self):
        rng = np.random.default_rng(1)
        y = np.cumsum(rng.uniform(0.1, 1.0, 20))
        yp = np.gradient(y)
        i_vals = np.linspace(0.5, 2.0, 20)
        c11, c12 = eh._fit_inequality(y, yp, i_vals)
        a = yp + yp**1.5
        assert np.all(c11 * a + c12 * i_vals >= y * (1 - 1e-8))
