import dataclasses
import functools

import numpy as np
import pytest
from scipy import optimize

from channellab import comparison_lemmas as cl
from channellab import estimate_harness as eh
from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns
from channellab.errors import (
    AssumptionViolation,
    HypothesisNotMet,
    LemmaViolation,
    NonConvergence,
    OutOfRange,
)

SMALL = dict(target_hx=0.125, ny=33)


def judged(rep):
    """The report's verdict records by name."""
    return {v.name: v for v in rep.verdicts}


def statuses(rep):
    return {v.name: v.status for v in rep.verdicts}


class TestVerdict:
    @pytest.mark.parametrize("sense, at, below, above", [
        ("<=", "PASS", "PASS", "FAIL"),
        ("<", "FAIL", "PASS", "FAIL"),
        (">=", "PASS", "FAIL", "PASS"),
        (">", "FAIL", "FAIL", "PASS"),
        ("==", "PASS", "FAIL", "FAIL"),
    ])
    def test_status_at_and_one_ulp_across_the_bound(self, sense, at, below,
                                                    above):
        # the inline comparisons the records replace: spread <= 3.0,
        # lower_min > 0.5, diff >= -1e-12 max D, err <= 1e-8, x < inf
        for bound in (3.0, 0.5, -1e-12, 1e-8):
            down, up = np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)
            got = [eh.Verdict("v", x, bound, sense).status
                   for x in (bound, down, up)]
            assert got == [at, below, above], bound

    @pytest.mark.parametrize("sense", ["<=", "<", ">=", ">", "=="])
    def test_nan_fails(self, sense):
        assert eh.Verdict("v", np.nan, 3.0, sense).status == "FAIL"
        assert eh.Verdict("v", 1.0, np.nan, sense).status == "FAIL"

    def test_finite_means_below_infinity(self):
        assert eh.Verdict("v", 1e308, np.inf, "<").status == "PASS"
        assert eh.Verdict("v", np.inf, np.inf, "<").status == "FAIL"

    def test_skipped_whatever_the_value(self):
        v = eh.Verdict("v", np.nan, 3.0, "<=", skipped="does not apply")
        assert v.status == "SKIPPED"
        assert str(v) == "v: SKIPPED (does not apply)"
        assert str(eh.Verdict("v", 1.0, 3.0, "<=")) == "v: PASS (1 <= 3)"

    def test_records_are_frozen(self):
        v = eh.Verdict("v", 1.0, 3.0, "<=")
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.value = 4.0


@pytest.fixture(scope="module")
def small_power_report(power_half):
    return eh.padded_solve(power_half, fc.CarrierParams(1.0, 0.5), 8.0, **SMALL)


class TestPaddedSolve:
    def test_assumption_broken_only_in_the_pad_raises_before_solving(
        self, straight, monkeypatch
    ):
        # f'' is infinite beyond |x| = t_max + 2: outside the reporting
        # window (-t_max-1, t_max+1) but inside the pads (beta* f = 2 each)
        t_max = 6.0
        bad = dataclasses.replace(
            straight,
            f2pp=lambda x: np.where(np.abs(np.asarray(x)) > t_max + 2.0, np.inf, 0.0),
        )
        geo.validate(bad, (-t_max - 1.0, t_max + 1.0))
        solves = []
        monkeypatch.setattr(ns, "solve_steady", lambda *args: solves.append(args))
        with pytest.raises(AssumptionViolation):
            eh.padded_solve(bad, fc.CarrierParams(1.0), t_max, **SMALL)
        assert solves == []
        eh.padded_solve(straight, fc.CarrierParams(1.0), t_max, **SMALL)
        assert len(solves) == 1

    @pytest.mark.parametrize("t_max, target_hx, nx", [
        (2.0, 0.5, 65),      # 25 nodes would do: the floor of 65 holds
        (6.0, 0.3, 69),      # ceil(20 / 0.3) + 1 = 68 is even: one more
        (6.0, 0.125, 161)])
    def test_grid_size_rule(self, straight, monkeypatch, t_max, target_hx,
                            nx):
        # the straight pads are 4 long: [a, b] = [-t_max - 4, t_max + 4].
        # nx is the fewest odd count, at least 65, of spacing at most
        # target_hx; ny passes through
        solves = []
        monkeypatch.setattr(ns, "solve_steady", lambda *args: solves.append(args))
        eh.padded_solve(straight, fc.CarrierParams(1.0), t_max, target_hx, 23)
        [(_, _, a, b, got, ny)] = solves
        assert (a, b, got, ny) == (-t_max - 4.0, t_max + 4.0, nx, 23)
        assert got % 2 == 1 and got >= 65
        assert (b - a) / (got - 1) <= target_hx
        assert got == 65 or (b - a) / (got - 3) > target_hx


class TestGrowthScan:
    def test_straight_channel_matches_analytic_ratio(self, straight):
        # per unit length: dissipation 3/2 phi^2, weight 1/8 -> ratio 12
        state = eh.padded_solve(straight, fc.CarrierParams(1.0), 6.0, **SMALL)
        rep = eh.growth_scan(state, [2, 4, 6])
        assert rep.lower_ratio[-1] == pytest.approx(12.0, rel=0.02)
        assert set(statuses(rep).values()) == {"PASS"}

    def test_dirichlet_and_weight_monotone(self, power_half,
                                           small_power_report):
        rep = eh.growth_scan(small_power_report, [2, 4, 8])
        assert np.all(np.diff(rep.dirichlet) > 0)
        assert np.all(np.diff(rep.weight) > 0)
        assert judged(rep)["upper_bounded"].value <= 3.0
        assert judged(rep)["lower_positive"].value > 0.5

    def test_zero_flux_skips_lower_bound(self, straight):
        state = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -6, 6, 97, 17
        )
        rep = eh.growth_scan(state, [2, 4])
        # it once passed by construction
        assert np.isnan(judged(rep)["lower_positive"].value)
        assert statuses(rep)["lower_positive"] == "SKIPPED"
        # D vanishes: the spread once read inf and FAIL
        assert statuses(rep)["upper_bounded"] == "SKIPPED"

    def test_invalid_t(self, straight):
        with pytest.raises(OutOfRange):
            eh.growth_scan(None, [-1, 2])


class TestDecayScan:
    def test_straight_channel_constant_product(self, straight):
        # Poiseuille maximum 3 phi/4 at the center, width 2: product 3/2
        state = eh.padded_solve(straight, fc.CarrierParams(1.0), 5.0, **SMALL)
        rep = eh.decay_scan(state, (2, 5))
        assert rep.slice_sup[0] == pytest.approx(1.5, rel=0.02)
        assert judged(rep)["pointwise_bounded"].value <= 1.05

    def test_power_law_bounded_products(self, power_half, small_power_report):
        rep = eh.decay_scan(small_power_report, (3, 8))
        assert judged(rep)["pointwise_bounded"].value <= 4.0
        assert judged(rep)["local_energy_bounded"].value <= 4.0
        assert statuses(rep) == dict.fromkeys(
            ["hypothesis_met", "local_energy_bounded", "pointwise_bounded"],
            "PASS")

    def test_zero_flux_zero_products(self, straight):
        state = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -6, 6, 97, 17
        )
        rep = eh.decay_scan(state, (2, 4))
        assert max(rep.slice_sup) == 0.0
        # the spreads once read inf and FAIL
        assert statuses(rep) == {"hypothesis_met": "PASS",
                                 "local_energy_bounded": "SKIPPED",
                                 "pointwise_bounded": "SKIPPED"}

    def test_interior_wall_split(self, power_half, small_power_report):
        rep = eh.decay_scan(small_power_report, (3, 8))
        for full, inner, wall in zip(
            rep.slice_sup, rep.slice_sup_interior, rep.slice_sup_wall
        ):
            assert full == pytest.approx(max(inner, wall), rel=1e-12)


class TestPoiseuilleConvergence:
    def test_bump_profile_plateaus(self):
        p = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4.0)
        state = eh.padded_solve(
            p, fc.CarrierParams(0.5), 14.0, 0.1, 33
        )
        rep = eh.poiseuille_convergence(state, 4.0, [6, 10, 14])
        assert statuses(rep) == {"plateau": "PASS", "tail_decreasing": "PASS"}

    def test_straight_everywhere_error_is_floor(self, straight):
        state = eh.padded_solve(
            straight, fc.CarrierParams(0.5), 8.0, 0.1, 33
        )
        rep = eh.poiseuille_convergence(state, 0.0, [4, 8])
        assert max(rep.h1_error) < 1e-6
        assert statuses(rep)["plateau"] == "PASS"
        # one window has no increment to judge
        rep = eh.poiseuille_convergence(state, 0.0, [8])
        assert set(statuses(rep).values()) == {"SKIPPED"}

    def test_zero_flux(self, straight):
        state = eh.padded_solve(
            straight, fc.CarrierParams(0.0), 6.0, 0.125, 17
        )
        rep = eh.poiseuille_convergence(state, 0.0, [3, 6])
        assert max(rep.h1_error) == 0.0

    def test_empty_window_rejected_before_solving(self):
        # T = 0 leaves the tail window 0 < x1 < T empty: the window ends are
        # checked before the state is read, as the command line checks
        # t_list before its solve
        with pytest.raises(OutOfRange, match="t values must be positive"):
            eh.poiseuille_convergence(None, 4.0, [8, 0, 4])


class TestUniqueness:
    def test_small_flux_unique(self, straight):
        rep = eh.uniqueness_probe(straight, 0.1, -6, 6, nx=129, ny=33)
        assert rep.unique
        assert rep.l2_distance <= 1e-6
        assert rep.dirichlet_distance <= 1e-6

    def test_small_flux_probe_factorizations(self, straight, splu_calls):
        # two solves at tol 1e-12 on one Stokes factor: the Stokes-started
        # one runs its whole chord loop on it, and the perturbed one goes
        # on with chord steps on the same factor; refactoring at every
        # Picard step would take dozens
        rep = eh.uniqueness_probe(straight, 0.1, -6, 6, nx=129, ny=33)
        assert rep.unique
        assert len(splu_calls) == 1

    @pytest.mark.parametrize("phi, a, b, nx, ny, factors", [
        (0.0, -4, 4, 65, 17, 0), (0.1, -6, 6, 129, 33, 1),
        (5.0, -4, 4, 65, 17, 5)])
    def test_perturbed_loop_on_the_held_factor(self, straight, splu_calls,
                                               phi, a, b, nx, ny, factors):
        # the perturbed loop goes on from the Stokes-started loop's last
        # factor; at flux 0 no loop factors at all, since x = 0 solves the
        # zero data, so its plain step keeps the fields exactly 0; either
        # way its history starts at the perturbed fields, not at a
        # back-solve that drops them
        params = fc.CarrierParams(phi)
        starts = []

        def perturb(stokes):
            starts.extend([stokes, eh._perturbed_start(stokes, seed=7)])
            return starts[1]

        base, other = ns.solve_two_starts(straight, params, a, b, nx, ny,
                                          perturb, eh._UNIQUENESS_SOLVER)
        assert len(splu_calls) == factors
        ws = ns._Workspace(base.grid, params)
        stokes_res, start_res = (ns.residual_norm(s, ws) for s in starts)
        assert other.residual_history[0] == (0, start_res)
        assert start_res != stokes_res

    @pytest.mark.parametrize("phi, a, b, nx, ny", [
        (0.1, -6, 6, 129, 33), (3.0, -4, 4, 65, 17)])
    def test_base_start_is_solve_steady(self, straight, phi, a, b, nx, ny):
        params = fc.CarrierParams(phi)
        cfg = eh._UNIQUENESS_SOLVER
        base, _ = ns.solve_two_starts(
            straight, params, a, b, nx, ny,
            functools.partial(eh._perturbed_start, seed=7), cfg)
        ref = ns.solve_steady(straight, params, a, b, nx, ny, cfg)
        assert np.array_equal(base.psi, ref.psi)
        assert np.array_equal(base.omega, ref.omega)
        assert base.residual_history == ref.residual_history

    def test_perturbed_start_reports_nonconvergence(self, straight,
                                                    monkeypatch):
        monkeypatch.setattr(ns, "_MAX_STEPS", 2)
        cfg = ns.SolverConfig(tol=1e-12)
        params = fc.CarrierParams(1.0, 0.5)
        grid = geo.make_grid(straight, -4, 4, 65, 17)
        start = eh._perturbed_start(ns.solve_stokes(grid, params),
                                    seed=7)
        with pytest.raises(NonConvergence) as err:
            ns._picard(start, cfg, ns._Workspace(grid, params))
        assert "Picard stalled" in str(err.value)
        assert err.value.iterations == 2
        assert cfg.tol <= err.value.best_residual < np.inf

    def test_perturbed_nonconvergence_counts_every_factor(self, straight,
                                                          splu_calls,
                                                          monkeypatch):
        # the perturbed loop runs on the workspace of the Stokes-started
        # one, so its error counts the Stokes factor too; this start, 1e4
        # times the probe's perturbation, needs more than 15 steps, and the
        # Stokes-started loop 13
        monkeypatch.setattr(ns, "_MAX_STEPS", 15)
        cfg = ns.SolverConfig(tol=1e-12)

        def perturb(stokes):
            other = eh._perturbed_start(stokes, seed=7)
            psi = stokes.psi + 1e4 * (other.psi - stokes.psi)
            return ns.state_from_fields(stokes.grid, stokes.params, psi,
                                        stokes.omega)

        with pytest.raises(NonConvergence) as err:
            ns.solve_two_starts(straight, fc.CarrierParams(1.0), -4, 4, 65,
                                17, perturb, cfg)
        assert err.value.iterations == ns._MAX_STEPS
        assert len(splu_calls) >= 2
        assert err.value.factorizations == len(splu_calls)

    def test_zero_flux_exact_agreement(self, straight):
        rep = eh.uniqueness_probe(straight, 0.0, -4, 4, nx=65, ny=17)
        assert rep.l2_distance == 0.0
        assert rep.dirichlet_distance == 0.0
        assert rep.unique

    def test_zero_flux_needs_no_factor(self, straight, splu_calls):
        # x = 0 solves zero data, so neither loop of the flux-0 probe
        # factors, and both end at fields that are exactly 0
        base, other = ns.solve_two_starts(
            straight, fc.CarrierParams(0.0), -4, 4, 65, 17,
            functools.partial(eh._perturbed_start, seed=7),
            eh._UNIQUENESS_SOLVER)
        assert len(splu_calls) == 0
        for state in (base, other):
            assert not state.psi.any() and not state.omega.any()
        rep = eh.uniqueness_probe(straight, 0.0, -4, 4, nx=65, ny=17)
        assert len(splu_calls) == 0
        assert rep.l2_distance == rep.dirichlet_distance == 0.0


def hat_weight(profile, t, beta_star):
    return eh._hat_weight(profile, t, beta_star,
                          geo.h_window(profile, t, beta_star))


class TestHatWeight:
    def test_shape(self, power_half):
        m = geo.validate(power_half, (-40, 40))
        bs = m.beta_star
        t = 1.0
        h_m, h_t, h_l, h_r = geo.h_window(power_half, t, bs)
        w = hat_weight(power_half, t, bs)
        assert w(np.array([h_t + 1.0]))[0] == 0.0
        # the ramps start at 0 on the window ends and reach beta* at h_L, h_R
        ends, inner = w(np.array([h_m, h_t])), w(np.array([h_l, h_r]))
        assert ends.tolist() == [0.0, 0.0]
        assert inner == pytest.approx([bs, bs], rel=1e-12)
        assert w(np.array([0.5 * (h_l + h_r)]))[0] == pytest.approx(bs)
        # continuity at the joins
        for x in (h_l, h_r):
            lo = w(np.array([x - 1e-9]))[0]
            hi = w(np.array([x + 1e-9]))[0]
            assert lo == pytest.approx(hi, abs=1e-6)

    def test_undefined_below_crossing(self, power_half):
        m = geo.validate(power_half, (-40, 40))
        t_star = geo.try_t_star(power_half, m.beta_star)
        assert t_star is not None
        with pytest.raises(OutOfRange):
            hat_weight(power_half, 0.5 * t_star, m.beta_star)

    def test_weighted_energy_nondecreasing_in_t(self, power_half,
                                                small_power_report):
        # dt zeta_hat >= 0: the weighted energy grows with the window
        m = geo.validate(power_half, (-40, 40))
        t_star = geo.try_t_star(power_half, m.beta_star)
        ts = np.linspace(1.05 * t_star, geo.k_of(power_half, 6.0), 8)
        ys = [
            ns.weighted_energy(
                small_power_report, hat_weight(power_half, t, m.beta_star)
            )
            for t in ts
        ]
        assert np.all(np.diff(ys) >= -1e-9 * max(ys))


@pytest.fixture(scope="module")
def counted_hat(power_half, small_power_report):
    """The power-law report, its inverse_k calls, and those of the t* search."""
    calls = []
    inverse_k = geo.inverse_k

    def counting(*args, **kwargs):
        calls.append(args)
        return inverse_k(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "inverse_k", counting)
        rep = eh.hat_energy_inequality(small_power_report, 6.0)
        n_report = len(calls)
        geo.try_t_star(power_half, geo.validate(power_half, (-7, 7)).beta_star)
    return rep, n_report, len(calls) - n_report


class TestHatEnergyInequality:
    def test_dominated_on_power_law(self, counted_hat):
        rep = counted_hat[0]
        assert judged(rep)["hat_dominated"].value is cl.Verdict.DOMINATED
        assert statuses(rep) == {"hat_dominated": "PASS", "hat_monotone": "PASS"}
        assert rep.c11 > 0

    def test_window_ends_inverted_once_per_sample(self, counted_hat):
        rep, n_report, n_t_star = counted_hat
        assert n_t_star > 0
        assert n_report == 2 * len(rep.t) + n_t_star

    def test_report_carries_majorant(self, power_half, counted_hat):
        # the formula the command line used to rebuild from the report
        rep = counted_hat[0]
        integrals = [
            geo.weight_integral(power_half, geo.inverse_k(power_half, -t),
                                geo.inverse_k(power_half, t), -3.0)
            for t in rep.t
        ]
        assert rep.majorant == [rep.c13 + rep.c14 * i for i in integrals]

    def test_zero_flux_trivial(self, straight):
        state = ns.solve_steady(
            straight, fc.CarrierParams(0.0, 0.5), -8, 8, 129, 17
        )
        rep = eh.hat_energy_inequality(state, 4.0)
        assert judged(rep)["hat_dominated"].value is cl.Verdict.DOMINATED
        assert max(rep.y_hat) == 0.0

    def test_requires_case_one(self):
        p = geo.power_law(d0=1.0, alpha=0.7)
        state = ns.solve_steady(p, fc.CarrierParams(0.0, 0.5), -4, 4, 65, 17)
        with pytest.raises(HypothesisNotMet):
            eh.hat_energy_inequality(state, 4.0)


def test_scans_form_each_state_gradients_once(power_half, small_power_report,
                                              monkeypatch):
    # every window and hat sample of the four scans reads the gradients a
    # state formed once: the velocity gradients of the state and of the
    # Poiseuille reference, and the carrier Jacobian at the grid nodes
    state = ns.state_from_fields(
        small_power_report.grid, small_power_report.params,
        small_power_report.psi, small_power_report.omega)
    gradients, jacobians = [], []
    velocity_gradients, grad_g = ns.velocity_gradients, fc.grad_g

    def count_gradients(of):
        gradients.append(of)
        return velocity_gradients(of)

    def count_jacobians(x, *args):
        jacobians.append(np.shape(x[0]))
        return grad_g(x, *args)

    monkeypatch.setattr(ns, "velocity_gradients", count_gradients)
    monkeypatch.setattr(fc, "grad_g", count_jacobians)
    eh.growth_scan(state, [2, 4, 8])
    eh.decay_scan(state, (3, 8))
    eh.poiseuille_convergence(state, 2.0, [4, 6, 8])
    eh.hat_energy_inequality(state, 6.0)
    assert len(gradients) == 2
    assert gradients[0] is state and gradients[1] is not state
    assert jacobians == [state.psi.shape]


class TestFitInequality:
    def test_fit_covers_data(self):
        rng = np.random.default_rng(1)
        y = np.cumsum(rng.uniform(0.1, 1.0, 20))
        yp = np.gradient(y)
        i_vals = np.linspace(0.5, 2.0, 20)
        c11, c12 = eh._fit_inequality(y, yp, i_vals)
        a = yp + yp**1.5
        assert np.all(c11 * a + c12 * i_vals >= y * (1 - 1e-8))

    def test_smallest_pair_over_every_vertex(self):
        # samples 0 and 1 have the smallest y, so a scan of the largest y
        # alone missed the vertex where their two constraints meet
        y = np.linspace(1.0, 2.0, 25)
        a_target = np.full(25, 2.0)
        a_target[:2] = 0.01, 0.02
        yp = np.array([optimize.brentq(lambda s: s + s**1.5 - t, 0.0, 2.0)
                       for t in a_target])
        i_vals = np.full(25, 2.0)
        i_vals[:2] = 0.02, 0.01
        a = yp + yp**1.5
        # brute force: the axis vertices and every pairwise intersection
        vertices = [(max(y / a), 0.0), (0.0, max(y / i_vals))]
        for i in range(25):
            for j in range(25):
                det = a[i] * i_vals[j] - a[j] * i_vals[i]
                if det != 0.0:
                    vertices.append(((y[i] * i_vals[j] - y[j] * i_vals[i]) / det,
                                     (a[i] * y[j] - a[j] * y[i]) / det))
        best = min((c11 + c12, c11, c12) for c11, c12 in vertices
                   if c11 >= 0.0 and c12 >= 0.0
                   and np.all(c11 * a + c12 * i_vals >= y * (1 - 1e-12)))
        assert best[0] < 70.0
        assert eh._fit_inequality(y, yp, i_vals) == pytest.approx(best[1:], rel=1e-8)

    def test_no_feasible_vertex_raises(self):
        # a zero weight integral where y' = 0 leaves no (c11, c12) at all
        y = np.array([1.0, 2.0, 3.0, 4.0])
        yp = np.array([0.0, 1.0, 1.0, 1.0])
        i_vals = np.array([0.0, 1.0, 1.0, 1.0])
        with pytest.raises(LemmaViolation):
            eh._fit_inequality(y, yp, i_vals)
