import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from channellab import geometry as geo
from channellab.cli_io import parse_scenario
from channellab.errors import AssumptionViolation, DegenerateGrid, OutOfRange

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# the four bundled walls and a wall with a kink off every seed panel edge,
# with the points besides 0 where f is not smooth
QUAD_PROFILES = [
    (path.stem, parse_scenario(path).profile) for path in sorted(SCENARIOS.glob("*.scn"))
] + [("kink_1.3", geo.custom("-1", "1+0.3*abs(x-1.3)"))]
ROUGH_POINTS = {"bump_outlet": (-4.0, 4.0), "kink_1.3": (1.3,)}


def quad_reference(profile, a, b, p, rough=()):
    """integrate.quad split at 0, at the rough points and into dyadic blocks."""
    cuts = sorted({a, b, *(c for c in (0.0, *rough) if a < c < b)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        for blo, bhi in geo._dyadic_blocks(lo, hi):
            total += integrate.quad(lambda x: profile.width(x) ** p, blo, bhi,
                                    epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return total


class TestValidate:
    def test_straight_channel_metrics(self, straight):
        m = geo.validate(straight, (-10, 10))
        assert m.d_lower == pytest.approx(2.0, abs=1e-12)
        assert m.beta == 0.0
        assert m.gamma == 0.0
        # flat walls: capped slope keeps the window scale at 1
        assert m.beta_star == 1.0

    def test_power_law_supremum_found_by_refinement(self):
        p = geo.power_law(d0=1.0, alpha=0.5)
        m = geo.validate(p, (0, 100))
        assert m.beta == pytest.approx(0.5, rel=2e-3)
        assert 0 < m.gamma <= 0.5 + 1e-9
        # the slope supremum sits at the window edge t=0; a symmetric
        # window has to find it between samples
        m2 = geo.validate(p, (-40, 40))
        assert m2.beta == pytest.approx(0.5, rel=1e-6)

    def test_zero_width_rejected(self):
        p = geo.custom("x*0", "x*0")
        with pytest.raises(AssumptionViolation):
            geo.validate(p, (-1, 1))

    def test_closing_channel_rejected(self):
        p = geo.custom("-exp(-x^2)", "exp(-x^2)")
        with pytest.raises(AssumptionViolation):
            geo.validate(p, (-40, 40))  # width -> 0 at the far field

    @pytest.mark.parametrize("f1, f2, window, message", [
        ("-1", "1/x", (0, 1), "width is not finite on the window"),
        ("-1", "1+sqrt(x)", (0, 1), "wall slope is unbounded on the window"),
        ("-1", "1+1e7*x", (0, 1), "wall slope bound beta = 1.000e+07 is unbounded"),
        ("-1", "1+x^1.5", (0, 1), "f''*f is unbounded on the window"),
        ("0", "1e7+x^2", (-1, 1), "curvature bound gamma = 2.000e+07 is unbounded"),
    ], ids=["width_not_finite", "slope_not_finite", "slope_above_1e6",
            "curvature_not_finite", "curvature_above_1e6"])
    def test_each_bound_rejects(self, f1, f2, window, message):
        # a non-finite sample sits at x = 0, the window's first node
        with np.errstate(divide="ignore"), pytest.raises(AssumptionViolation) as err:
            geo.validate(geo.custom(f1, f2), window)
        assert str(err.value) == message

    def test_straight_takes_d0_or_both_walls(self):
        assert (float(geo.straight().f1(0.0)), float(geo.straight().f2(0.0))) == (-1.0, 1.0)
        assert geo.straight(d0=2.0).params == {"c1": -2.0, "c2": 2.0}
        assert geo.straight(c1=0.0, c2=1.0).params == {"c1": 0.0, "c2": 1.0}
        for kwargs in ({"c1": -1.0}, {"c2": 1.0}, {"d0": 1.0, "c1": -1.0, "c2": 1.0}):
            with pytest.raises(AssumptionViolation, match="either d0 or both walls c1 and c2"):
                geo.straight(**kwargs)

    def test_infinite_window_rejected(self, straight):
        with pytest.raises(OutOfRange):
            geo.validate(straight, (0, math.inf))


class TestWeightIntegral:
    def test_constant_width_closed_form(self, straight):
        t = 7.3
        assert geo.weight_integral(straight, 0, t, -5.0 / 3.0) == pytest.approx(
            t * 2.0 ** (-5.0 / 3.0), rel=1e-10
        )

    def test_power_law_antiderivative(self, power_half):
        # f = 2(1+|t|)^(1/2): int_0^T f^-3 = (1/4)(1 - (1+T)^(-1/2))
        T = 25.0
        expected = 0.25 * (1.0 - (1.0 + T) ** -0.5)
        assert geo.weight_integral(power_half, 0, T, -3.0) == pytest.approx(
            expected, rel=1e-10
        )

    def test_empty_interval(self, power_half):
        assert geo.weight_integral(power_half, 3.0, 3.0, -3.0) == 0.0

    def test_additivity(self, power_half):
        a = geo.weight_integral(power_half, -3, 2, -3.0)
        b = geo.weight_integral(power_half, 2, 9, -3.0)
        total = geo.weight_integral(power_half, -3, 9, -3.0)
        assert abs(a + b - total) < 1e-12

    @pytest.mark.parametrize("name,profile", QUAD_PROFILES, ids=[n for n, _ in QUAD_PROFILES])
    @pytest.mark.parametrize("p", [-5.0 / 3.0, -3.0, 1.0])
    def test_matches_quad(self, name, profile, p):
        for a, b in [(0.0, 7.3), (-12.0, 12.0), (-3.0, 40.0), (-1e4, 5.0), (0.5, 1e6)]:
            ref = quad_reference(profile, a, b, p, ROUGH_POINTS.get(name, ()))
            assert geo.weight_integral(profile, a, b, p) == pytest.approx(ref, rel=1e-12)

    def test_no_quad_or_brentq(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(geo.integrate, "quad", counting(integrate.quad))
        monkeypatch.setattr(geo.optimize, "brentq", counting(geo.optimize.brentq))
        for _, profile in QUAD_PROFILES[:-1]:
            geo.weight_integral(profile, -7.0, 30.0, -3.0)
            geo.k_of(profile, -2.5)
            geo.inverse_k(profile, 1.7)
            geo.inverse_k(profile, -0.2)
        assert calls == []


class TestHParameterization:
    def test_straight_channel_inverse_is_linear(self, straight):
        # k(t) = t * 2^(-5/3), so h(t) = 2^(5/3) t
        t = 0.7
        bs = geo.validate(straight, (-8, 8)).beta_star
        h_m, h, h_l, h_r = geo.h_window(straight, t, bs)
        assert h_m == pytest.approx(-h, rel=1e-12)
        assert h == pytest.approx(2.0 ** (5.0 / 3.0) * t, rel=1e-9)
        assert h_r == pytest.approx(h - 2.0, rel=1e-9)  # beta* f = 2

    def test_origin(self, straight):
        bs = geo.validate(straight, (-8, 8)).beta_star
        h_m, h, h_l, h_r = geo.h_window(straight, 0.0, bs)
        assert h_m == h == 0.0
        assert h_r == -2.0  # -beta* f(0) < 0
        assert h_l == 2.0

    def test_round_trip(self, power_half):
        for t in [0.05, 0.4, 1.2, 2.0]:
            h = geo.inverse_k(power_half, t)
            assert abs(geo.k_of(power_half, h) - t) <= 1e-10 * max(t, 1.0)
            h = geo.inverse_k(power_half, -t)
            assert abs(geo.k_of(power_half, h) + t) <= 1e-10 * max(t, 1.0)

    @pytest.mark.parametrize(
        "profile",
        [geo.power_law(d0=1.0, alpha=0.5), geo.straight_outlet()],
        ids=["power_law", "straight_outlet"],
    )
    def test_round_trip_to_rounding(self, profile):
        for t in [1e-6, 0.05, 0.4, 1.2, 2.0, 7.5, 30.0]:
            for tt in (t, -t):
                assert geo.k_of(profile, geo.inverse_k(profile, tt)) == pytest.approx(
                    tt, rel=1e-13
                )

    def test_monotonicity_bounds(self, power_half):
        # finite-difference slopes of h_L, h_R respect +-d^(5/3)/2
        m = geo.validate(power_half, (-50, 50))
        d53 = m.d_lower ** (5.0 / 3.0)
        ts = np.linspace(0.2, 1.8, 9)
        hl = []
        hr = []
        for t in ts:
            _, _, l, r = geo.h_window(power_half, t, m.beta_star)
            hl.append(l)
            hr.append(r)
        dhl = np.diff(hl) / np.diff(ts)
        dhr = np.diff(hr) / np.diff(ts)
        assert np.all(dhl <= -d53 / 2.0 + 1e-9)
        assert np.all(dhr >= d53 / 2.0 - 1e-9)

    def test_out_of_range_signals_finite_tail(self):
        p = geo.power_law(d0=1.0, alpha=0.7)  # int f^(-5/3) converges
        limit = geo.weight_integral(p, 0, 1e9, -5.0 / 3.0)
        with pytest.raises(OutOfRange):
            geo.inverse_k(p, 2.0 * limit)

    @pytest.mark.parametrize(
        "profile_factory",
        [
            lambda: geo.power_law(d0=1.0, alpha=0.5),
            lambda: geo.straight(d0=1.0),
            lambda: geo.linear_widen(d0=1.0, slope=0.4),
        ],
    )
    def test_window_sandwich(self, profile_factory):
        # f(t)/2 <= f(xi) <= 3 f(t)/2 on [t - beta* f(t), t + beta* f(t)]
        profile = profile_factory()
        m = geo.validate(profile, (-200, 200))
        rng = np.random.default_rng(5)
        for _ in range(1000):
            t = rng.uniform(-100, 100)
            ft = float(profile.width(t))
            xi = t + rng.uniform(-1, 1) * m.beta_star * ft
            fxi = float(profile.width(xi))
            assert 0.5 * ft - 1e-12 <= fxi <= 1.5 * ft + 1e-12

    def test_t_star_straight(self, straight):
        m = geo.validate(straight, (-10, 10))
        t_star = geo.try_t_star(straight, m.beta_star)
        assert t_star is not None and t_star > 0


TAIL_PROFILES = QUAD_PROFILES[:-1] + [
    ("linear_widen_0.5", geo.linear_widen(d0=1.0, slope=0.5)),
    ("power_law_0.2", geo.power_law(d0=1.0, alpha=0.2)),
]

# each bundled wall's report: case, right and left divergence, conditions
# 16 and 17
BUNDLED_REPORTS = {
    "bump_outlet": (geo.KRangeCase.BOTH_INFINITE, True, True, True, False),
    "custom_walls": (geo.KRangeCase.BOTH_INFINITE, True, True, False, True),
    "straight": (geo.KRangeCase.BOTH_INFINITE, True, True, True, False),
    "widening": (geo.KRangeCase.BOTH_INFINITE, True, True, False, True),
}


class TestClassify:
    @pytest.mark.parametrize("name,profile", TAIL_PROFILES, ids=[n for n, _ in TAIL_PROFILES])
    @pytest.mark.parametrize("p", [-5.0 / 3.0, -3.0])
    @pytest.mark.parametrize("side", [1, -1])
    def test_tail_increments_match_quad(self, name, profile, p, side):
        edges = geo.TAIL_EDGES
        incs = geo._tail_increments(profile, p, side)
        for lo, hi, got in zip(edges[:-1], edges[1:], incs):
            if side < 0:
                lo, hi = -hi, -lo
            ref = integrate.quad(lambda x: profile.width(x) ** p, lo, hi,
                                 epsabs=0.0, epsrel=1e-10, limit=200)[0]
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name,profile", QUAD_PROFILES[:-1],
                             ids=[n for n, _ in QUAD_PROFILES[:-1]])
    def test_bundled_wall_reports(self, name, profile):
        rep = geo.classify(profile)
        assert (rep.case, rep.right_diverges, rep.left_diverges, rep.condition_16,
                rep.condition_17) == BUNDLED_REPORTS[name]

    def test_straight_both_infinite_and_condition_16(self, straight):
        rep = geo.classify(straight)
        assert rep.case is geo.KRangeCase.BOTH_INFINITE
        assert rep.condition_16
        assert not rep.condition_17

    def test_alpha_07_both_finite_conditions_fail(self):
        # exponent 0.7: 0.7 * 5/3 > 1 makes the k-integrals converge,
        # and 0.7 > 3/5 breaks both uniqueness conditions
        rep = geo.classify(geo.power_law(d0=1.0, alpha=0.7))
        assert rep.case is geo.KRangeCase.BOTH_FINITE
        assert not rep.condition_16
        assert not rep.condition_17

    def test_alpha_05_both_infinite_condition_17(self, power_half):
        # 0.5 * 5/3 < 1: k diverges; 0.5 < 3/5: the ratio condition holds
        rep = geo.classify(power_half)
        assert rep.case is geo.KRangeCase.BOTH_INFINITE
        assert rep.condition_16 or rep.condition_17

    def test_linear_widen_conditions_fail(self):
        rep = geo.classify(geo.linear_widen(d0=1.0, slope=0.3))
        assert not rep.condition_16
        assert not rep.condition_17


class TestGrid:
    def test_rectangle_area(self, straight):
        g = geo.make_grid(straight, 0, 1, 16, 16)
        assert g.wq.sum() == pytest.approx(2.0, rel=1e-12)

    def test_linear_widen_area(self):
        p = geo.custom("-(1+x)", "1+x")
        g = geo.make_grid(p, 0, 1, 32, 16)
        assert g.wq.sum() == pytest.approx(3.0, rel=1e-10)

    def test_window_weights_of_whole_grid_are_wq(self, power_half):
        g = geo.make_grid(power_half, -3, 3, 33, 16)
        w = g.window_weights(g.a, g.b)
        assert np.array_equal(w, g.wq)

    def test_window_weights_partial_end_cells(self, straight):
        # both window ends cut through a cell of the width-2 strip
        g = geo.make_grid(straight, -4, 8, 97, 17)
        w = g.window_weights(-3.03, 7.77)
        assert abs(w.sum() - 21.6) <= 1e-12
        hx = g.xi_axis.h
        outside = (g.xi < -3.03 - 0.5 * hx) | (g.xi > 7.77 + 0.5 * hx)
        assert np.all(w[outside] == 0.0)

    def test_window_weights_match_cellwise_quad(self):
        p = geo.linear_widen(d0=1.0, slope=0.3)
        g = geo.make_grid(p, -2, 3, 41, 9)
        a, b = -1.3, 2.2
        cols = g.window_weights(a, b).sum(axis=1)
        ref = []
        for x in g.xi:
            lo = max(a, x - 0.5 * g.xi_axis.h)
            hi = min(b, x + 0.5 * g.xi_axis.h)
            ref.append(integrate.quad(p.width, lo, hi)[0] if hi > lo else 0.0)
        assert np.allclose(cols, ref, rtol=1e-12, atol=0.0)

    def test_top_line_maps_to_upper_wall(self, power_half):
        g = geo.make_grid(power_half, -3, 3, 32, 16)
        assert np.allclose(g.x2[:, -1], power_half.f2(g.xi), atol=1e-14)
        assert np.allclose(g.x2[:, 0], power_half.f1(g.xi), atol=1e-14)

    def test_metric_terms_match_analytic(self, power_half):
        g = geo.make_grid(power_half, 0.5, 4.0, 16, 16)
        f = power_half.width(g.xi)
        f1p = power_half.f1p(g.xi)
        fp = power_half.f2p(g.xi) - power_half.f1p(g.xi)
        j1 = -(f1p[:, None] + g.eta[None, :] * fp[:, None]) / f[:, None]
        assert np.allclose(g.j1, j1, rtol=1e-14)

    def test_degenerate_resolution_rejected(self, straight):
        with pytest.raises(DegenerateGrid):
            geo.make_grid(straight, 0, 1, 4, 16)

    def test_monotone_coordinates(self, power_half):
        g = geo.make_grid(power_half, -2, 2, 16, 16)
        assert np.all(np.diff(g.xi) > 0)
        assert np.all(np.diff(g.x2, axis=1) > 0)


# a 9-node xi axis of step 3/8 and make_grid's eta axis at ny 17; another
# discretisation of an axis joins as one more entry
AXES = {
    "xi_9": geo.Axis(np.linspace(-1.0, 2.0, 9)),
    "eta_17": geo.make_grid(geo.straight(), 0, 1, 9, 17).eta_axis,
}


@pytest.mark.parametrize("axis", AXES.values(), ids=AXES.keys())
def test_axis_is_exact_on_low_degree(axis):
    # a stencil of at most 4 terms, |coefficients| summing to at most 12,
    # rounds by at most 4 * 12 eps max|v| before its division
    x = axis.nodes
    lo, hi = x[0], x[-1]
    d1, s1, d2, s2 = axis.differences
    v = 0.3 - 1.7 * x + 2.5 * x**2
    floor = 48 * np.finfo(float).eps * np.abs(v).max()
    assert np.all(np.abs(d1 @ v / s1 - (-1.7 + 5.0 * x)) <= floor / s1)
    assert np.all(np.abs(d2 @ v / s2 - 5.0) <= floor / s2)
    exact = 0.4 * (hi - lo) + 0.65 * (hi**2 - lo**2)
    assert axis.weights @ (0.4 + 1.3 * x) == pytest.approx(exact, rel=1e-14)
    assert axis.weights.sum() == pytest.approx(hi - lo, rel=1e-14)


class TestBump:
    def test_products_match_power_form(self):
        # _bump forms q^3 as q*q*q; the pow form agrees to 2 ulp
        x = np.linspace(-4.4, 4.4, 200_001)
        s = x / 4.0
        inside = np.abs(s) < 1.0
        ref = np.where(inside, (1.0 - s**2) ** 3, 0.0)
        got = geo._bump(x, 4.0)
        assert np.all(got[~inside] == 0.0)
        assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(ref))


class TestCustomProfiles:
    def test_power_law_expression_matches_family(self):
        pc = geo.custom("-(1+abs(x))^0.5", "(1+abs(x))^0.5")
        pf = geo.power_law(d0=1.0, alpha=0.5)
        # avoid x = 0: sign(0) differs between the symbolic tree
        # and the closed-form family exactly at the kink
        xs = np.linspace(-9, 9, 41) + 0.011
        assert np.allclose(pc.f2(xs), pf.f2(xs), rtol=1e-13)
        assert np.allclose(pc.f2p(xs), pf.f2p(xs), rtol=1e-12)
        assert np.allclose(pc.f2pp(xs), pf.f2pp(xs), rtol=1e-12)

    def test_straight_outlet_is_exactly_straight_beyond_k(self):
        p = geo.straight_outlet(c1=-1, c2=1, amp=0.5, k=4.0)
        xs = np.linspace(4.0, 30.0, 17)
        assert np.allclose(p.f2(xs), 1.0, atol=1e-15)
        assert np.allclose(p.f2p(xs), 0.0, atol=1e-15)
        # C2 smooth at the junction: curvature bound finite
        m = geo.validate(p, (-10, 10))
        assert math.isfinite(m.gamma)

    # bit patterns of each wall and its symbolic derivatives, at a point of
    # each sign, both zeros and past the kink of abs
    PIN_XS = [-3.7, -0.0, 0.0, 0.5, 9.25]
    PINNED_WALLS = {
        "custom_walls": {
            "f1": ["-0x1.157f54c76d72fp+1", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
                   "-0x1.3988e1409212ep+0", "-0x1.99ccc999fff00p+1"],
            "f2": ["0x1.157f54c76d72fp+1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
                   "0x1.3988e1409212ep+0", "0x1.99ccc999fff00p+1"],
            "f1p": ["0x1.d85602b00bff9p-3", "0x0.0p+0", "0x0.0p+0",
                    "-0x1.a20bd700c2c3ep-2", "-0x1.3fd8077e70577p-3"],
            "f2p": ["-0x1.d85602b00bff9p-3", "0x0.0p+0", "0x0.0p+0",
                    "0x1.a20bd700c2c3ep-2", "0x1.3fd8077e70577p-3"],
            "f1pp": ["0x1.91fcf1f26c40fp-6", "0x0.0p+0", "0x0.0p+0",
                     "0x1.16b28f55d72d4p-3", "0x1.f344ba86edcd2p-8"],
            "f2pp": ["-0x1.91fcf1f26c40fp-6", "-0x0.0p+0", "-0x0.0p+0",
                     "-0x1.16b28f55d72d4p-3", "-0x1.f344ba86edcd2p-8"],
        },
        "tanh_sin": {
            "f1": ["-0x1.99b9a0af18b17p-1", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
                   "-0x1.17a90fdf786f3p+0", "-0x1.333333235486ep+0"],
            "f2": ["0x1.cdfed2092dcb0p+0", "0x1.237d37fe5d298p+0", "0x1.237d37fe5d298p+0",
                   "0x1.6888ef6406346p+0", "0x1.00e1d2987dc9bp+1"],
            "f1p": ["-0x1.00109a410b59ap-11", "-0x1.999999999999ap-3", "-0x1.999999999999ap-3",
                    "-0x1.42210594f6944p-3", "-0x1.fbd58b4cccccdp-28"],
            "f2p": ["-0x1.77ee16fe9f788p-3", "0x1.5555555555555p-1", "0x1.5555555555555p-1",
                    "0x1.150385c724400p-2", "-0x1.1c01be745f86bp-1"],
            "f1pp": ["-0x1.ff8106b3e6857p-11", "0x0.0p+0", "0x0.0p+0",
                     "0x1.29b900bdff4a7p-3", "0x1.fbd58aaf649f8p-27"],
            "f2pp": ["-0x1.99608c00b680cp+0", "0x1.999999999999ap-3", "0x1.999999999999ap-3",
                     "-0x1.701895a91a458p+0", "-0x1.918f37e36e868p-1"],
        },
    }

    @staticmethod
    def pinned_profile(name):
        if name == "custom_walls":
            return parse_scenario(SCENARIOS / "custom_walls.scn").profile
        return geo.custom("-1-0.2*tanh(x)", "1+sin(2*x)*cos(x)/3+log(2+x^2)/5")

    @pytest.mark.parametrize("name", sorted(PINNED_WALLS))
    def test_wall_values_are_pinned(self, name):
        profile = self.pinned_profile(name)
        for key, pinned in self.PINNED_WALLS[name].items():
            wall = getattr(profile, key)
            assert [float(v).hex() for v in wall(np.array(self.PIN_XS))] == pinned, key
            scalars = [wall(x) for x in self.PIN_XS]
            assert all(np.shape(v) == () for v in scalars), key
            assert [float(v).hex() for v in scalars] == pinned, key

    @pytest.mark.parametrize("name", sorted(PINNED_WALLS))
    def test_compiled_trees_hold_grammar_nodes_only(self, name):
        # a wall's graph is evaluated node by node with numpy's functions
        # and the five operators: no node outside the grammar may be in it
        ops = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        funcs = {"sqrt", "exp", "log", "sin", "cos", "tanh", "abs", "_sign"}

        def outside_grammar(node):
            match node:
                case ast.BinOp(left, op, right) if type(op) in ops:
                    return outside_grammar(left) + outside_grammar(right)
                case ast.Call(ast.Name(fn), [arg], []) if fn in funcs:
                    return outside_grammar(arg)
                case ast.Constant(float()) | ast.Name("x"):
                    return []
            return [ast.dump(node)]

        profile = self.pinned_profile(name)
        for key in self.PINNED_WALLS[name]:
            assert outside_grammar(getattr(profile, key).tree) == [], key
