import math
from pathlib import Path

import numpy as np
import pytest

from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab.cli_io import parse_scenario
from channellab.errors import OutOfRange

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.scn"))


def band_point(profile, params, x1, s):
    """x2 with cutoff argument exactly s (inside the carrier band)."""
    f2 = float(profile.f2(x1))
    fb = float(profile.center(x1))
    ratio = math.exp((s - 1.0) / params.epsilon)
    return fb + (f2 - fb) / (1.0 + ratio)


class TestCutoffs:
    def test_plateaus_and_monotonicity(self):
        t = np.linspace(-0.5, 1.5, 401)
        mu = fc.mu(t)
        assert np.all(mu[t <= 0] == 1.0)
        assert np.all(mu[t >= 1] == 0.0)
        assert np.all(np.diff(mu) <= 1e-15)

    def test_derivatives_vanish_at_plateau_edges(self):
        edges = np.array([0.0, 1.0])
        assert np.all(fc.mup(edges) == 0.0)
        assert np.all(fc.mupp(edges) == 0.0)

    def test_derivative_consistency(self):
        t = np.linspace(0.05, 0.95, 37)
        h = 1e-6
        assert np.abs((fc.mu(t + h) - fc.mu(t - h)) / (2 * h) - fc.mup(t)).max() < 1e-7
        assert (
            np.abs((fc.mup(t + h) - fc.mup(t - h)) / (2 * h) - fc.mupp(t)).max() < 1e-4
        )


class TestParams:
    def test_epsilon_range_enforced(self):
        with pytest.raises(OutOfRange):
            fc.CarrierParams(1.0, 1.5)
        with pytest.raises(OutOfRange):
            fc.CarrierParams(-1.0, 0.5)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_flux_must_be_finite(self, phi):
        # nan once passed with epsilon 0.5, inf failed on its epsilon 0
        for eps in (None, 0.5):
            with pytest.raises(OutOfRange, match=f"flux .*got {phi}$"):
                fc.CarrierParams(phi, eps)

    def test_default_epsilon_rule(self):
        assert fc.CarrierParams(0.1).epsilon == 0.5
        assert fc.CarrierParams(4.0).epsilon == pytest.approx(0.25)


class TestStreamfunction:
    def test_worked_example(self, straight):
        # f = 2, center 0, flux 1, eps 0.5, x2 = 0.8: ratio (f2-x2)/(x2-fbar)
        # is 0.25, the cutoff argument 1 + 0.5 ln(0.25) ~ 0.30685
        params = fc.CarrierParams(1.0, 0.5)
        s = 1.0 + 0.5 * math.log(0.25)
        assert s == pytest.approx(0.30685, abs=1e-5)
        G = fc.stream_G((0.0, 0.8), params, straight)
        assert G == pytest.approx(float(fc.mu(s)), abs=1e-14)

    def test_branches(self, straight):
        params = fc.CarrierParams(1.0, 0.5)
        assert fc.stream_G((0.0, 0.0), params, straight) == 0.0
        assert fc.stream_G((0.0, -0.5), params, straight) == 0.0
        near_top = fc.stream_G((0.0, 1.0 - 1e-12), params, straight)
        assert near_top == pytest.approx(1.0, abs=1e-12)

    def test_continuous_across_center_line(self, power_half):
        params = fc.CarrierParams(2.0, 0.4)
        x1 = 1.7
        below = fc.stream_G((x1, float(power_half.center(x1)) - 1e-9), params,
                            power_half)
        above = fc.stream_G((x1, float(power_half.center(x1)) + 1e-9), params,
                            power_half)
        assert below == 0.0
        assert abs(above) < 1e-12


class TestVelocity:
    def test_worked_example(self, straight, power_half):
        params = fc.CarrierParams(1.0, 0.5)
        g = fc.velocity_g((0.0, 0.8), params, straight)
        s = 1.0 + 0.5 * math.log(0.25)
        expected = 0.5 * float(fc.mup(s)) * (-1.0 / 0.2 - 1.0 / 0.8)
        assert expected == pytest.approx(4.2411, abs=2e-4)
        assert g[0] == pytest.approx(expected, rel=1e-12)

        # a scalar point is its row of the array call: two points in the
        # band, one on the center line, one below it, one above the top wall
        params = fc.CarrierParams(2.0, 0.4)
        x1 = np.array([0.0, 1.7, -2.3, 0.5, 3.1])
        for profile in (straight, power_half):
            x2 = np.array([band_point(profile, params, x1[0], 0.3),
                           band_point(profile, params, x1[1], 0.8),
                           float(profile.center(x1[2])), -0.4,
                           float(profile.f2(x1[4])) + 0.1])
            g = fc.velocity_g((x1, x2), params, profile)
            J = fc.grad_g((x1, x2), params, profile)
            assert np.any(g[:2] != 0.0) and np.all(g[2:] == 0.0)
            for i in range(len(x1)):
                gi = fc.velocity_g((x1[i], x2[i]), params, profile)
                Ji = fc.grad_g((x1[i], x2[i]), params, profile)
                assert gi.shape == (2,) and Ji.shape == (2, 2)
                assert np.array_equal(gi, g[i]) and np.array_equal(Ji, J[i])

    def test_zero_outside_support(self, straight):
        params = fc.CarrierParams(1.0, 0.5)
        assert np.all(fc.velocity_g((0.0, -0.3), params, straight) == 0.0)
        assert np.all(fc.velocity_g((0.0, 0.2), params, straight) == 0.0)

    def test_straight_channel_has_no_vertical_component(self, straight):
        params = fc.CarrierParams(1.0, 0.5)
        x2 = np.linspace(-0.99, 0.99, 101)
        g = fc.velocity_g((np.zeros_like(x2), x2), params, straight)
        assert np.all(g[:, 1] == 0.0)

    def test_matches_stream_derivative(self, power_half):
        params = fc.CarrierParams(3.7, 0.35)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x1 = rng.uniform(-5, 5)
            x2 = band_point(power_half, params, x1, rng.uniform(0.05, 0.95))
            g = fc.velocity_g((x1, x2), params, power_half)
            h = 1e-6

            def G2(v):
                return fc.stream_G((x1, v), params, power_half)

            def G1(v):
                return fc.stream_G((v, x2), params, power_half)

            g1_fd = (-G2(x2 + 2 * h) + 8 * G2(x2 + h) - 8 * G2(x2 - h)
                     + G2(x2 - 2 * h)) / (12 * h)
            g2_fd = -(-G1(x1 + 2 * h) + 8 * G1(x1 + h) - 8 * G1(x1 - h)
                      + G1(x1 - 2 * h)) / (12 * h)
            assert np.abs(g - [g1_fd, g2_fd]).max() < 1e-6 * max(
                1.0, np.abs(g).max()
            )


class TestGradient:
    def test_zero_matrix_outside_support(self, power_half):
        params = fc.CarrierParams(1.0, 0.5)
        J = fc.grad_g((2.0, 0.1), params, power_half)
        assert np.all(J == 0.0)

    def test_incompressibility_of_closed_forms(self, power_half):
        params = fc.CarrierParams(2.0, 0.4)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x1 = rng.uniform(-6, 6)
            x2 = band_point(power_half, params, x1, rng.uniform(0.02, 0.98))
            J = fc.grad_g((x1, x2), params, power_half)
            scale = max(np.abs(J).max(), 1e-12)
            assert abs(J[0, 0] + J[1, 1]) <= 1e-12 * scale

    def test_matches_finite_differences(self, power_half):
        params = fc.CarrierParams(3.7, 0.35)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            x1 = rng.uniform(-5, 5)
            x2 = band_point(power_half, params, x1, rng.uniform(0.05, 0.95))
            J = fc.grad_g((x1, x2), params, power_half)
            h = 1e-4
            J_fd = np.zeros((2, 2))
            for col, dv in enumerate([(h, 0.0), (0.0, h)]):
                vals = [
                    fc.velocity_g(
                        (x1 + k * dv[0], x2 + k * dv[1]), params, power_half
                    )
                    for k in (-2, -1, 1, 2)
                ]
                J_fd[:, col] = (
                    vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]
                ) / (12 * h)
            worst = max(
                worst, float(np.abs(J - J_fd).max() / max(np.abs(J).max(), 1e-12))
            )
        assert worst < 1e-6


class TestFluxAndSupport:
    def test_slice_flux_equals_flux(self, straight, power_half):
        for profile in (straight, power_half, geo.linear_widen(1.0, 0.3)):
            params = fc.CarrierParams(3.7, 0.5)
            for x1 in (0.0, 2.3, 12.0):
                assert fc.slice_flux(params, profile, x1) == pytest.approx(
                    3.7, abs=1e-8
                )

    def test_zero_flux(self, straight):
        assert fc.slice_flux(fc.CarrierParams(0.0, 0.5), straight, 1.0) == 0.0

    def test_support_band_for_straight_channel(self, straight):
        # support lies in x2 - fbar >= f/4 = 1/2
        params = fc.CarrierParams(1.0, 0.5)
        x2 = np.linspace(-1, 1, 2001)
        g = fc.velocity_g((np.zeros_like(x2), x2), params, straight)
        on = np.hypot(g[:, 0], g[:, 1]) > 0
        assert x2[on].min() >= 0.5 - 1e-9
        assert x2[on].max() <= 1.0

    def test_vanishes_near_both_walls(self, power_half):
        params = fc.CarrierParams(1.0, 0.5)
        xs = np.linspace(-5, 5, 21)
        for x1 in xs:
            f = float(power_half.width(x1))
            f2 = float(power_half.f2(x1))
            margin = math.exp(-1.0 / params.epsilon) * f / 8.0
            pts_top = f2 - np.linspace(0, margin, 9)
            g = fc.velocity_g((np.full(9, x1), pts_top), params, power_half)
            assert np.all(g == 0.0)
            below = float(power_half.center(x1)) - np.linspace(0, f / 2, 9)
            g2 = fc.velocity_g((np.full(9, x1), below), params, power_half)
            assert np.all(g2 == 0.0)

    def test_report_no_violations_and_finite_sizes(self, power_half):
        params = fc.CarrierParams(1.0, 0.5)
        rep = fc.support_and_bounds_report(params, power_half, (-5, 5))
        assert rep.violations == 0
        assert rep.n_support_points > 1000
        assert math.isfinite(rep.sup_f_g)
        assert math.isfinite(rep.sup_f2_grad_g)
        assert math.isfinite(rep.volume_ratio)

    def test_report_matches_per_slice_loop(self, power_half):
        """The report samples the same jittered points as a loop over x1."""
        params = fc.CarrierParams(1.0, 0.5)
        rng = np.random.default_rng(3)
        checked, sup_fg, sup_f2dg = 0, 0.0, 0.0
        for x1 in np.linspace(-5.0, 5.0, 64):
            x2, _ = fc._band_gauss_nodes(params, power_half, x1)
            x2 = x2 + rng.uniform(-0.2, 0.2, size=x2.shape) * np.gradient(x2)
            x2 = np.clip(x2, power_half.center(x1) + 1e-14, power_half.f2(x1) - 1e-300)
            pts = (np.full_like(x2, x1), x2)
            gn = np.hypot(*fc.velocity_g(pts, params, power_half).T)
            dg = np.sqrt((fc.grad_g(pts, params, power_half) ** 2).sum(axis=(-2, -1)))
            f = float(power_half.width(x1))
            checked += int(np.count_nonzero(gn > 0.0))
            sup_fg = max(sup_fg, f * float(gn.max()))
            sup_f2dg = max(sup_f2dg, f * f * float(dg[gn > 0.0].max()))
        rep = fc.support_and_bounds_report(params, power_half, (-5.0, 5.0),
                                           rng=np.random.default_rng(3))
        assert (rep.n_support_points, rep.sup_f_g, rep.sup_f2_grad_g) == (
            checked, sup_fg, sup_f2dg)
        assert rep.violations == 0

    def test_sup_f_g_independent_of_window(self, straight):
        # translation invariance: the straight-channel carrier is uniform
        params = fc.CarrierParams(1.0, 0.5)
        r1 = fc.support_and_bounds_report(params, straight, (-3, 3))
        r2 = fc.support_and_bounds_report(params, straight, (-9, 9))
        assert r1.violations == r2.violations == 0
        assert r1.sup_f_g == pytest.approx(r2.sup_f_g, rel=1e-6)


def per_slice_volume_integral(params, profile, a, b, n_x=256):
    """Composite 8-point Gauss in x1, one band quadrature per x1 node."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    eps = params.epsilon
    tau_edges = np.linspace(math.log(2.0),
                            1.0 / eps + math.log1p(math.exp(-1.0 / eps)), 33)
    tau_mid = 0.5 * (tau_edges[:-1] + tau_edges[1:])
    tau_rad = 0.5 * np.diff(tau_edges)
    tau = (tau_mid[:, None] + tau_rad[:, None] * nodes).ravel()
    w_tau = (tau_rad[:, None] * weights).ravel()
    edges = np.linspace(a, b, n_x // 8 + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for xn, wn in zip(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes,
                          0.5 * (hi - lo) * weights):
            A = 0.5 * float(profile.width(xn)) * np.exp(-tau)
            pts = (np.full_like(tau, xn), float(profile.f2(xn)) - A)
            g = fc.velocity_g(pts, params, profile)
            J = fc.grad_g(pts, params, profile)
            dens = (J**2).sum(axis=(-2, -1)) + (g**2).sum(axis=-1) ** 2
            total += wn * float(np.dot(w_tau * A, dens))
    return total


class TestVolumeIntegral:
    @pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
    def test_matches_per_slice_gauss_sum(self, path):
        sc = parse_scenario(path)
        a, b = sc.grid_window[:2]
        ref = per_slice_volume_integral(sc.params, sc.profile, a, b)
        assert fc.carrier_volume_integral(sc.params, sc.profile, a, b) == pytest.approx(
            ref, rel=1e-13
        )
