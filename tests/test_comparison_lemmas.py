import math

import numpy as np
import pytest
from scipy import optimize

from channellab import comparison_lemmas as cl
from channellab.errors import InsufficientTail, NonMonotoneSamples, OutOfRange


def exp_pair(T=2.0, n=60):
    """The worked instance: z = e^t, phi = 4 e^(t/2), Psi(s) = s, d1 = 1/2."""
    psi = cl.separable_psi(c1=1.0)
    t = np.linspace(0.0, T, n)
    return cl.ComparisonProblem(
        psi, 0.5, t, np.exp(t), lambda s: 4.0 * np.exp(np.asarray(s) / 2.0)
    )


class TestHypotheses:
    def test_exact_majorant_has_zero_margin(self):
        # phi = 4 e^(t/2) saturates phi = 2 Psi(phi') identically
        rep = cl.check_hypotheses(exp_pair())
        assert abs(rep.majorant_margin) < 1e-8
        assert rep.growth_margin > 0
        assert rep.endpoint_ok
        # e^2 = 7.389 <= 4e = 10.873
        assert rep.endpoint_gap == pytest.approx(4 * math.e - math.e**2, rel=1e-6)

    def test_zero_z_satisfies_growth(self):
        psi = cl.separable_psi(c1=1.0)
        t = np.linspace(0, 2, 40)
        prob = cl.ComparisonProblem(
            psi, 0.5, t, np.zeros_like(t), lambda s: np.ones_like(np.asarray(s))
        )
        rep = cl.check_hypotheses(prob)
        assert rep.growth_margin >= 0

    def test_non_monotone_samples_rejected(self):
        psi = cl.separable_psi(c1=1.0)
        t = np.linspace(0, 1, 20)
        z = np.sin(6 * t) + 1.0
        with pytest.raises(NonMonotoneSamples):
            cl.ComparisonProblem(psi, 0.5, t, z, lambda s: np.ones_like(s))


class TestConclusion:
    def test_dominated_on_worked_instance(self):
        assert cl.comparison_conclude(exp_pair()) is cl.Verdict.DOMINATED

    def test_endpoint_fails_at_T3(self):
        # e^3 = 20.1 > 4 e^1.5 = 17.9
        assert (
            cl.comparison_conclude(exp_pair(T=3.0, n=90))
            is cl.Verdict.HYPOTHESIS_FAILED_ENDPOINT
        )

    def test_trivial_zero(self):
        psi = cl.separable_psi(c1=1.0)
        t = np.linspace(0, 2, 40)
        prob = cl.ComparisonProblem(
            psi, 0.5, t, np.zeros_like(t),
            lambda s: 4.0 * np.exp(np.asarray(s) / 2.0),
        )
        assert cl.comparison_conclude(prob) is cl.Verdict.DOMINATED

    def test_sampled_problem_interpolates_z_and_phi_once(self, monkeypatch):
        # the hypotheses and the conclusion share one interpolant of z and
        # one of phi, with their derivatives
        psi = cl.separable_psi(c2=1.0)
        ts, phi = cl.solve_majorant(psi, 0.5, 2.0, 0.0, 1.0, step=1 / 60)
        built = []
        pchip = cl.PchipInterpolator

        def counted(*args, **kwargs):
            built.append(1)
            return pchip(*args, **kwargs)

        monkeypatch.setattr(cl, "PchipInterpolator", counted)
        prob = cl.ComparisonProblem(psi, 0.5, ts, 0.25 * phi, phi)
        assert cl.comparison_conclude(prob) is cl.Verdict.DOMINATED
        assert len(built) <= 2


class TestMajorant:
    def test_linear_psi_gives_exponential(self):
        psi = cl.separable_psi(c1=1.0)
        ts, phi = cl.solve_majorant(psi, 0.5, 4.0, 0.0, 2.0, step=1e-3)
        assert np.abs(phi - 4.0 * np.exp(ts / 2.0)).max() / (4 * math.e) < 1e-8

    def test_cubic_saturator(self):
        # Psi(s) = s^(3/2), d1 = 1/2: z~ = t^3/108, checked at t = 6
        psi = cl.separable_psi(c2=1.0, exponent=1.5)
        ts, phi = cl.solve_majorant(psi, 0.5, 2.0, 6.0, 12.0, step=1e-3)
        exact = ts**3 / 108.0
        assert np.abs(phi - exact).max() / exact.max() < 1e-8
        assert phi[0] == 2.0

    def test_saturator_defining_residual(self):
        # z~ = 2 C (z~')^(3/2) with C = 1 at machine accuracy
        t = np.linspace(6.0, 12.0, 200)
        z = t**3 / 108.0
        zp = t**2 / 36.0
        assert np.abs(z - 2.0 * zp**1.5).max() < 1e-8

    def test_satisfies_defining_ode(self):
        psi = cl.separable_psi(c1=0.3, c2=1.2, exponent=1.7)
        d1 = 0.4
        ts, phi = cl.solve_majorant(psi, d1, 1.0, 0.0, 1.5, step=1e-3)
        phip = np.gradient(phi, ts)
        resid = np.abs(phi - psi(ts, phip) / d1)[2:-2] / phi.max()
        assert resid.max() < 1e-5

    def test_invalid_start(self):
        with pytest.raises(OutOfRange):
            cl.solve_majorant(cl.separable_psi(c1=1.0), 0.5, 0.0, 0.0, 1.0)


class TestBlowup:
    def test_exact_power_law(self):
        # z = t^3/108 satisfies z = Psi(z') for Psi(s) = 2 s^(3/2)
        psi = cl.separable_psi(c2=2.0, exponent=1.5)
        t = np.linspace(1.0, 100.0, 400)
        rep = cl.blowup_rate(t, t**3 / 108.0, psi)
        assert rep.critical_exponent == 3.0
        assert rep.hypothesis_holds
        assert rep.exponent == pytest.approx(3.0, abs=0.05)
        assert rep.passes

    def test_subcritical_growth_flagged(self):
        # t^2 <= (2t)^(3/2) fails beyond t = 8
        psi = cl.separable_psi(c2=1.0, exponent=1.5)
        t = np.linspace(1.0, 200.0, 800)
        rep = cl.blowup_rate(t, t**2, psi)
        assert not rep.hypothesis_holds

    def test_insufficient_tail(self):
        psi = cl.separable_psi(c2=1.0, exponent=1.5)
        t = np.linspace(1.0, 100.0, 10)  # 9 samples in the final decade < 10
        with pytest.raises(InsufficientTail):
            cl.blowup_rate(t, t**3, psi)


class TestInverse:
    def test_round_trip(self):
        psi = cl.separable_psi(c1=0.7, c2=1.3, exponent=1.8)
        for s in np.logspace(-6, 6, 25):
            y = float(psi(0.0, s))
            assert psi.inverse(0.0, y) == pytest.approx(s, rel=1e-10)

    def test_pure_linear_and_pure_power(self):
        lin = cl.separable_psi(c1=2.0)
        assert lin.inverse(0.0, 3.0) == pytest.approx(1.5)
        pw = cl.separable_psi(c2=2.0, exponent=1.5)
        assert pw.inverse(0.0, 2.0) == pytest.approx(1.0)

    def test_separable_matches_dense_bracket_reference(self):
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for _ in range(200):
            c1, c2 = 10.0 ** rng.uniform(-2, 2, size=2)
            m = rng.uniform(1.05, 3.5)
            psi = cl.separable_psi(c1=c1, c2=c2, exponent=m)
            for y in 10.0 ** rng.uniform(-8, 4, size=5):
                hi = 1.0
                while c1 * hi + c2 * hi**m < y:
                    hi *= 2.0
                ref = optimize.brentq(lambda s: c1 * s + c2 * s**m - y, 0.0, hi,
                                      xtol=1e-300, rtol=4 * eps, maxiter=300)
                assert abs(psi.inverse(0.0, y) - ref) <= 4 * np.spacing(ref)

    def test_separable_one_brentq_and_no_psi_calls(self, monkeypatch):
        psi = cl.separable_psi(c1=0.7, c2=1.3, exponent=1.8)
        calls = []
        brentq = optimize.brentq

        def counting_brentq(*args, **kwargs):
            calls.append("brentq")
            return brentq(*args, **kwargs)

        def counting_call(self, t, s):
            calls.append("psi")
            return orig_call(self, t, s)

        orig_call = cl.PsiSpec.__call__
        monkeypatch.setattr(cl.optimize, "brentq", counting_brentq)
        monkeypatch.setattr(cl.PsiSpec, "__call__", counting_call)
        s = psi.inverse(0.0, 3.0)
        assert calls == ["brentq"]
        assert 0.7 * s + 1.3 * s**1.8 == pytest.approx(3.0, rel=1e-15)

    def test_negative_y_rejected(self):
        with pytest.raises(OutOfRange):
            cl.separable_psi(c1=1.0, c2=1.0).inverse(0.0, -1e-12)


class TestFuzz:
    def test_majorant_built_instances_never_violate(self):
        """300 random instances (the acceptance suite runs 1000)."""
        rng = np.random.default_rng(42)
        for _ in range(300):
            c1 = rng.uniform(0, 2.0) * (rng.random() < 0.7)
            c2 = rng.uniform(0.1, 2.0)
            mexp = rng.uniform(1.1, 3.0)
            d1 = rng.uniform(0.1, 0.9)
            psi = cl.separable_psi(c1=c1, c2=c2, exponent=mexp)
            phi0 = rng.uniform(0.1, 10.0)
            t1 = rng.uniform(0.5, 3.0)
            ts, phi = cl.solve_majorant(psi, d1, phi0, 0.0, t1, step=t1 / 60)
            z = rng.uniform(0.05, 1.0) * (1 - d1) * phi
            prob = cl.ComparisonProblem(psi, d1, ts, z, phi)
            rep = cl.check_hypotheses(prob)
            verdict = cl.comparison_conclude(prob, rep)  # raises on violation
            assert verdict is cl.Verdict.DOMINATED
