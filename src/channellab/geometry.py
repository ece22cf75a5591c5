"""Channel geometry: wall profiles, standing assumptions, and mapped grids.

A channel is the set f1(x1) < x2 < f2(x1).  Everything downstream (carrier,
solver, harness) consumes a :class:`ChannelProfile` through its closed-form
wall evaluators and their first two derivatives.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
# integrate is not called here: bench/spans.py patches integrate.quad
from scipy import integrate, optimize

from .errors import (AssumptionViolation, DegenerateGrid, OutOfRange,
                     ParseError, ValidationError)
from .expressions import parse_expression

__all__ = [
    "Family",
    "KRangeCase",
    "ChannelProfile",
    "ChannelMetrics",
    "Grid",
    "straight",
    "linear_widen",
    "power_law",
    "straight_outlet",
    "custom",
    "validate",
    "weight_integral",
    "h_parameterization",
    "inverse_k",
    "classify",
    "make_grid",
    "window_weights",
]


class Family(enum.Enum):
    STRAIGHT = "straight"
    LINEAR_WIDEN = "linear_widen"
    POWER_LAW = "power_law"
    STRAIGHT_OUTLET = "straight_outlet"
    CUSTOM = "custom"


class KRangeCase(enum.Enum):
    """Divergence pattern of the two tail integrals of f^(-5/3)."""

    BOTH_INFINITE = "both_infinite"
    BOTH_FINITE = "both_finite"
    FINITE_LEFT = "finite_left"
    FINITE_RIGHT = "finite_right"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ChannelProfile:
    """Analytic description of the two walls and their derivatives."""

    family: Family
    params: dict
    f1: Callable
    f2: Callable
    f1p: Callable
    f2p: Callable
    f1pp: Callable
    f2pp: Callable

    def width(self, x):
        return self.f2(x) - self.f1(x)

    def center(self, x):
        return 0.5 * (self.f1(x) + self.f2(x))

    def centerp(self, x):
        return 0.5 * (self.f1p(x) + self.f2p(x))

    def centerpp(self, x):
        return 0.5 * (self.f1pp(x) + self.f2pp(x))

    def label(self):
        items = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family.value}({items})"


@dataclass(frozen=True)
class ChannelMetrics:
    """Sampled geometric constants of a profile on a window."""

    d_lower: float
    beta: float
    beta_star: float
    gamma: float
    window: tuple


# ---------------------------------------------------------------------------
# Profile families
# ---------------------------------------------------------------------------


def _symmetric(family, params, f2, f2p, f2pp):
    """Profile whose lower wall mirrors the upper one: f1 = -f2."""
    return ChannelProfile(
        family, params, f1=lambda x: -f2(x), f2=f2, f1p=lambda x: -f2p(x),
        f2p=f2p, f1pp=lambda x: -f2pp(x), f2pp=f2pp)


def straight(d0=1.0, c1=None, c2=None):
    """Straight channel.  Either half-width d0 (walls at +-d0) or walls c1<c2."""
    if c1 is None and c2 is None:
        c1, c2 = -float(d0), float(d0)
    if not c2 > c1:
        raise AssumptionViolation(f"straight walls need c2 > c1, got ({c1}, {c2})")
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return ChannelProfile(
        Family.STRAIGHT,
        {"c1": c1, "c2": c2},
        f1=lambda x: np.full_like(np.asarray(x, dtype=float), c1),
        f2=lambda x: np.full_like(np.asarray(x, dtype=float), c2),
        f1p=zero,
        f2p=zero,
        f1pp=zero,
        f2pp=zero,
    )


def linear_widen(d0=1.0, slope=0.25):
    """Symmetric channel widening asymptotically linearly: f2 = d0 + s*sqrt(1+x^2)."""
    d0, s = float(d0), float(slope)
    if d0 <= 0 or s < 0:
        raise AssumptionViolation("linear_widen needs d0 > 0 and slope >= 0")

    def f2(x):
        x = np.asarray(x, dtype=float)
        return d0 + s * np.sqrt(1.0 + x * x)

    def f2p(x):
        x = np.asarray(x, dtype=float)
        return s * x / np.sqrt(1.0 + x * x)

    def f2pp(x):
        x = np.asarray(x, dtype=float)
        return s / (1.0 + x * x) ** 1.5

    return _symmetric(Family.LINEAR_WIDEN, {"d0": d0, "slope": s}, f2, f2p, f2pp)


def power_law(d0=1.0, alpha=0.5):
    """Symmetric power-law channel: f2 = -f1 = d0*(1+|x|)^alpha, alpha in [0,1)."""
    d0, a = float(d0), float(alpha)
    if d0 <= 0 or not (0.0 <= a < 1.0):
        raise AssumptionViolation("power_law needs d0 > 0 and alpha in [0,1)")

    def f2(x):
        x = np.asarray(x, dtype=float)
        return d0 * (1.0 + np.abs(x)) ** a

    def f2p(x):
        x = np.asarray(x, dtype=float)
        return d0 * a * np.sign(x) * (1.0 + np.abs(x)) ** (a - 1.0)

    def f2pp(x):
        x = np.asarray(x, dtype=float)
        return d0 * a * (a - 1.0) * (1.0 + np.abs(x)) ** (a - 2.0)

    return _symmetric(Family.POWER_LAW, {"d0": d0, "alpha": a}, f2, f2p, f2pp)


def _bump(x, half_len):
    """C^2 compactly supported bump (1-(x/k)^2)^3 on |x| < k, 0 outside."""
    x = np.asarray(x, dtype=float)
    s = x / half_len
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    q = 1.0 - s[inside] ** 2
    out[inside] = q * q * q  # q**3 is a libm pow call per element
    return out


def _bump_p(x, half_len):
    x = np.asarray(x, dtype=float)
    s = x / half_len
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    si = s[inside]
    out[inside] = -6.0 * si * (1.0 - si**2) ** 2 / half_len
    return out


def _bump_pp(x, half_len):
    x = np.asarray(x, dtype=float)
    s = x / half_len
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    si = s[inside]
    q = 1.0 - si**2
    out[inside] = (-6.0 * q**2 + 24.0 * si**2 * q) / half_len**2
    return out


def straight_outlet(c1=-1.0, c2=1.0, amp=0.5, k=4.0):
    """Straight outlets beyond |x| >= k, symmetric C^2 bump widening inside."""
    c1, c2, amp, k = float(c1), float(c2), float(amp), float(k)
    if not c2 > c1 or k <= 0:
        raise AssumptionViolation("straight_outlet needs c2 > c1 and k > 0")
    if amp <= 0.5 * (c1 - c2):
        raise AssumptionViolation("bump amplitude closes the channel")
    return ChannelProfile(
        Family.STRAIGHT_OUTLET,
        {"c1": c1, "c2": c2, "amp": amp, "k": k},
        f1=lambda x: c1 - amp * _bump(x, k),
        f2=lambda x: c2 + amp * _bump(x, k),
        f1p=lambda x: -amp * _bump_p(x, k),
        f2p=lambda x: amp * _bump_p(x, k),
        f1pp=lambda x: -amp * _bump_pp(x, k),
        f2pp=lambda x: amp * _bump_pp(x, k),
    )


def custom(f1, f2):
    """Profile from two wall expressions in x (see :mod:`.expressions`).

    A wall that does not parse raises :class:`ValidationError` whose
    ``field`` names it (``"f1"`` or ``"f2"``).
    """
    walls = {}
    for key, text in (("f1", f1), ("f2", f2)):
        try:
            e = parse_expression(text)
            ep = e.diff().simplified()
            walls.update({key: e, key + "p": ep, key + "pp": ep.diff().simplified()})
        except ParseError as exc:
            raise ValidationError(key, str(exc)) from exc
    return ChannelProfile(Family.CUSTOM, {"f1": f1, "f2": f2}, **walls)


_FACTORIES = {
    Family.STRAIGHT: straight,
    Family.LINEAR_WIDEN: linear_widen,
    Family.POWER_LAW: power_law,
    Family.STRAIGHT_OUTLET: straight_outlet,
    Family.CUSTOM: custom,
}


# ---------------------------------------------------------------------------
# Assumption checking
# ---------------------------------------------------------------------------

_BETA_FLOOR = 0.25  # keeps beta* = 1/(4*beta_eff) <= 1 for flat walls
_SAMPLES = 4096


def _refined_extremum(fn, xs, vals, mode):
    """Refine the sampled extremum of fn with a bounded scalar search."""
    idx = int(np.argmin(vals) if mode == "min" else np.argmax(vals))
    lo = xs[max(idx - 1, 0)]
    hi = xs[min(idx + 1, len(xs) - 1)]
    if hi <= lo:
        return float(vals[idx])
    sign = 1.0 if mode == "min" else -1.0
    res = optimize.minimize_scalar(
        lambda x: sign * float(fn(x)), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12 * max(1.0, abs(hi - lo))},
    )
    best = sign * res.fun
    return float(min(best, vals[idx]) if mode == "min" else max(best, vals[idx]))


def validate(profile, window):
    """Check the standing assumptions on a window and return the metrics.

    Sampling is dense (4096 points) with a local golden-section style
    refinement around the worst sample of each quantity.  Raises
    :class:`AssumptionViolation` if the width degenerates or a derivative
    bound blows up on the window.
    """
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise OutOfRange(f"window must be finite with b > a, got ({a}, {b})")
    xs = np.linspace(a, b, _SAMPLES)

    width = profile.width(xs)
    if not np.all(np.isfinite(width)):
        raise AssumptionViolation("width is not finite on the window")
    d_lower = _refined_extremum(profile.width, xs, width, "min")
    if d_lower <= 0.0:
        raise AssumptionViolation(
            f"width must stay positive: inf f = {d_lower:.3e} on [{a}, {b}]"
        )

    slopes = np.maximum(np.abs(profile.f1p(xs)), np.abs(profile.f2p(xs)))
    if not np.all(np.isfinite(slopes)):
        raise AssumptionViolation("wall slope is unbounded on the window")
    beta = _refined_extremum(
        lambda x: max(abs(float(profile.f1p(x))), abs(float(profile.f2p(x)))),
        xs,
        slopes,
        "max",
    )
    if beta > 1e6:
        raise AssumptionViolation(f"wall slope bound beta = {beta:.3e} is unbounded")

    curv = np.maximum(
        np.abs(profile.f1pp(xs) * width), np.abs(profile.f2pp(xs) * width)
    )
    if not np.all(np.isfinite(curv)):
        raise AssumptionViolation("f''*f is unbounded on the window")
    gamma = _refined_extremum(
        lambda x: max(
            abs(float(profile.f1pp(x) * profile.width(x))),
            abs(float(profile.f2pp(x) * profile.width(x))),
        ),
        xs,
        curv,
        "max",
    )
    if gamma > 1e6:
        raise AssumptionViolation(f"curvature bound gamma = {gamma:.3e} is unbounded")

    return ChannelMetrics(
        d_lower=d_lower,
        beta=beta,
        beta_star=1.0 / (4.0 * max(beta, _BETA_FLOOR)),
        gamma=gamma,
        window=(a, b),
    )


# ---------------------------------------------------------------------------
# Weight integrals and the k/h parameterization
# ---------------------------------------------------------------------------

_QUAD_RTOL = 1e-13
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def weight_integral(profile, a, b, p):
    """Integral_a^b f(x)^p dx by adaptive 8-point Gauss-Legendre.

    Seed panels: eight per block of :func:`_dyadic_blocks`, which splits at
    0 (families built from |x| have a slope kink there) and grows
    geometrically far out.  Every panel whose whole-panel and two-half
    values disagree by more than 1e-13 relative is bisected, level by
    level, so kinks are found wherever they are; each level is one
    vectorised ``profile.width`` call.  Panels are not split below the
    spacing of the floats around them.
    """
    a, b = float(a), float(b)
    if a > b:
        raise OutOfRange(f"need a <= b, got ({a}, {b})")
    if a == b:
        return 0.0
    blocks = np.array(_dyadic_blocks(a, b))
    edges = blocks[:, :1] + np.diff(blocks, axis=1) * np.linspace(0.0, 1.0, 9)
    edges[:, -1] = blocks[:, 1]
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    total = 0.0
    while lo.size:
        mid = 0.5 * (lo + hi)
        whole, left, right = _gl8_panels(
            profile, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]), p
        ).reshape(3, -1)
        two = left + right
        split = (np.abs(two - whole) > _QUAD_RTOL * np.abs(two)) & (
            mid - lo > 64.0 * np.spacing(np.abs(mid)))
        total += float(np.sum(two[~split]))
        # both halves of every split panel go on to the next level
        lo, hi = np.stack([lo, mid, mid, hi])[:, split].reshape(2, -1)
    return total


def _gl8_panels(profile, lo, hi, p):
    """8-point Gauss-Legendre value of integral f^p on each panel [lo, hi]."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL8_NODES
    return half * (profile.width(x) ** p @ _GL8_WEIGHTS)


def _dyadic_blocks(lo, hi):
    """Split [lo, hi] at 0 and into blocks that grow geometrically away from 0,
    the first 64 long."""
    if hi <= lo:
        return []
    if lo >= 0.0:
        blocks = []
        edge = lo
        step = 64.0
        while edge + step < hi and edge < 1e300:
            nxt = max(edge + step, step)
            if nxt >= hi:
                break
            blocks.append((edge, nxt))
            edge = nxt
            step = 2.0 * nxt
        blocks.append((edge, hi))
        return blocks
    if hi <= 0.0:
        return [(-b, -a) for a, b in reversed(_dyadic_blocks(-hi, -lo))]
    return _dyadic_blocks(lo, 0.0) + _dyadic_blocks(0.0, hi)


def k_of(profile, t):
    """k(t) = integral_0^t f^(-5/3)."""
    t = float(t)
    if t >= 0.0:
        return weight_integral(profile, 0.0, t, -5.0 / 3.0)
    return -weight_integral(profile, t, 0.0, -5.0 / 3.0)


def inverse_k(profile, t):
    """Solve k(h) = t for h: bracket by x4 growth from 1, then safeguarded Newton.

    Newton uses k' = f^(-5/3) and advances k by the integral over each
    step; a step that would leave the current bracket is replaced by
    bisection.  Stops when the step is at most 1e-15 |h| or the bracket
    has shrunk to that width.
    """
    t = float(t)
    if t == 0.0:
        return 0.0
    sign = 1.0 if t > 0.0 else -1.0
    target = abs(t)
    lo, k_lo = 0.0, 0.0
    hi = 1.0
    k_hi = abs(k_of(profile, sign * hi))
    guard = 0
    while k_hi < target:
        lo, k_lo, hi, guard = hi, k_hi, 4.0 * hi, guard + 1
        if guard > 120 or hi > 1e280:
            raise OutOfRange(f"t={t:.6g} lies outside the range of k for this profile")
        k_hi = abs(k_of(profile, sign * hi))
    h, k_h = (lo, k_lo) if target - k_lo <= k_hi - target else (hi, k_hi)
    while hi - lo > 1e-15 * hi:
        step = (target - k_h) * float(profile.width(sign * h)) ** (5.0 / 3.0)
        if abs(step) <= 1e-15 * h:
            return sign * (h + step)
        new = h + step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        span = weight_integral(profile, *sorted((sign * h, sign * new)), -5.0 / 3.0)
        h, k_h = new, k_h + (span if new > h else -span)
        lo, hi = (h, hi) if k_h < target else (lo, h)
    return sign * h


def h_parameterization(profile, t, beta_star):
    """Return (h(t), h_L(t), h_R(t)) for the reparameterized windows.

    h inverts k; h_L(t) = h(-t) + beta* f(h(-t)) and
    h_R(t) = h(t) - beta* f(h(t)).
    """
    return _h_window(profile, t, beta_star)[1:]


def _h_window(profile, t, beta_star):
    """(h(-t), h(t), h_L(t), h_R(t)), inverting k once at each end."""
    hm = inverse_k(profile, -t)
    hp = inverse_k(profile, t)
    h_L = hm + beta_star * float(profile.width(hm))
    h_R = hp - beta_star * float(profile.width(hp))
    return hm, hp, h_L, h_R


def _try_t_star(profile, beta_star):
    """sup{t>0 : h_L(t) >= h_R(t)} by bracketed root-finding, None if out of range."""

    def gap(t):
        _, hl, hr = h_parameterization(profile, t, beta_star)
        return hl - hr

    try:
        t_hi = 1.0
        for _ in range(60):
            if gap(t_hi) < 0.0:
                break
            t_hi *= 2.0
        else:
            return None
        return float(optimize.brentq(gap, 1e-12, t_hi, rtol=1e-12))
    except (OutOfRange, ValueError):
        return None


# ---------------------------------------------------------------------------
# Divergence classification of the tail integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    case: KRangeCase
    right_diverges: Optional[bool]
    left_diverges: Optional[bool]
    condition_16: bool
    condition_17: bool
    details: dict = field(default_factory=dict)


# classify: TAIL_WINDOWS dyadic windows on each side, the first at TAIL_T0
TAIL_T0 = 64.0
TAIL_WINDOWS = 36


def _tail_increments(profile, p, side):
    """Partial-integral increments of f^p over dyadic windows on one side."""
    edges = TAIL_T0 * 2.0 ** np.arange(TAIL_WINDOWS + 1)
    lo, hi = (edges[:-1], edges[1:]) if side > 0 else (-edges[1:], -edges[:-1])
    incs = [weight_integral(profile, a, b, p) for a, b in zip(lo, hi)]
    return edges, np.asarray(incs)


def _diverges(incs):
    """True/False/None for divergence from the dyadic increment ratios.

    On [T, 2T] an integrand ~ x^-q contributes ~ T^(1-q); the increment
    ratio tends to 2^(1-q), so ratio > 1 <=> q < 1 <=> divergence.  A
    median ratio within 0.02 of 1 is inconclusive.
    """
    incs = np.asarray(incs)
    if np.all(incs == 0.0):
        return False
    tail = incs[-6:]
    if np.any(tail <= 0.0):
        return None
    ratios = tail[1:] / tail[:-1]
    r = float(np.median(ratios))
    if r >= 1.02:
        return True
    if r <= 0.98:
        return False
    return None


def _slope_limit_zero(edges, sups):
    """Does sup|f'| over dyadic windows tend to 0?  Trend-based surrogate."""
    sups = np.asarray(sups)
    if np.all(sups <= 1e-12):
        return True
    tail = sups[-6:]
    if np.any(tail <= 0.0):
        return bool(tail[-1] <= 1e-9)
    mids = np.sqrt(edges[-7:-1] * edges[-6:])
    slope = np.polyfit(np.log(mids), np.log(tail), 1)[0]
    return bool(slope < -0.02 or tail[-1] < 1e-9)


def classify(profile):
    """Classify the k-range case and evaluate the uniqueness hypotheses.

    The divergence of integral f^(-5/3) on each side fixes the case; the
    uniqueness conditions compare sup f' against the tail of integral f^(-3).
    Results are finite-window surrogates of asymptotic statements.
    """
    edges_r, inc53_r = _tail_increments(profile, -5.0 / 3.0, +1)
    edges_l, inc53_l = _tail_increments(profile, -5.0 / 3.0, -1)
    right = _diverges(inc53_r)
    left = _diverges(inc53_l)

    if right is None or left is None:
        case = KRangeCase.INCONCLUSIVE
    elif right and left:
        case = KRangeCase.BOTH_INFINITE
    elif not right and not left:
        case = KRangeCase.BOTH_FINITE
    elif right and not left:
        case = KRangeCase.FINITE_LEFT
    else:
        case = KRangeCase.FINITE_RIGHT

    _, inc3_r = _tail_increments(profile, -3.0, +1)
    _, inc3_l = _tail_increments(profile, -3.0, -1)
    div3_r = _diverges(inc3_r)
    div3_l = _diverges(inc3_l)

    def window_sup_slope(lo, hi):
        xs = np.linspace(lo, hi, 257, axis=-1)
        return np.max(np.maximum(np.abs(profile.f1p(xs)), np.abs(profile.f2p(xs))), axis=-1)

    # symmetric-profile shortcut is not assumed: sample the left too
    sup_slope = window_sup_slope(edges_r[:-1], edges_r[1:])
    sup_slope_l = window_sup_slope(-edges_l[1:], -edges_l[:-1])

    cond16 = bool(
        div3_r is True
        and div3_l is True
        and _slope_limit_zero(edges_r, sup_slope)
        and _slope_limit_zero(edges_l, sup_slope_l)
    )

    cond17 = False
    if div3_r is False and div3_l is False:
        cond17 = _ratio_limit_zero(inc3_r, sup_slope, edges_r) and _ratio_limit_zero(
            inc3_l, sup_slope_l, edges_l
        )

    return ClassificationReport(
        case=case,
        right_diverges=right,
        left_diverges=left,
        condition_16=cond16,
        condition_17=cond17,
        details={
            "f3_right_diverges": div3_r,
            "f3_left_diverges": div3_l,
            "sup_slope_last": float(sup_slope[-1]),
        },
    )


def _ratio_limit_zero(inc3, sup_slope, edges):
    """sup_{tau>=t} f' / sqrt(tail integral f^-3) -> 0, trend surrogate."""
    inc3 = np.asarray(inc3)
    # running sup of the slope from each window outward
    run_sup = np.maximum.accumulate(sup_slope[::-1])[::-1]
    # geometric extrapolation of the remainder beyond the last window
    tail_ratio = inc3[-1] / inc3[-2] if inc3[-2] > 0 else 0.0
    remainder = inc3[-1] * tail_ratio / (1.0 - tail_ratio) if tail_ratio < 1.0 else 0.0
    tails = np.cumsum(inc3[::-1])[::-1] + remainder
    mask = tails > 0
    if np.count_nonzero(mask[-8:]) < 4:
        return False
    ratios = run_sup[mask] / np.sqrt(tails[mask])
    if np.all(ratios[-4:] < 1e-9):
        return True
    mids = np.sqrt(edges[:-1] * edges[1:])[mask]
    good = ratios > 0
    if np.count_nonzero(good) < 4:
        return bool(np.all(ratios[-4:] < 1e-6))
    slope = np.polyfit(np.log(mids[good][-8:]), np.log(ratios[good][-8:]), 1)[0]
    return bool(slope < -0.02)


# ---------------------------------------------------------------------------
# Mapped grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform grid in mapped coordinates (xi, eta) over Omega_{a,b}.

    xi = x1 in [a, b]; eta = (x2 - f1(xi)) / f(xi) in [0, 1].  Arrays are
    indexed [i, j] = [xi, eta].  Metric terms are the analytic chain-rule
    factors at the nodes; ``wq`` holds the :func:`window_weights` of the
    whole grid, so quadrature of a constant reproduces the area.
    """

    a: float
    b: float
    nx: int
    ny: int
    xi: np.ndarray          # (nx,)
    eta: np.ndarray         # (ny,)
    x2: np.ndarray          # (nx, ny) physical x2
    f: np.ndarray           # (nx,) width at xi
    fp: np.ndarray          # (nx,)
    f1p: np.ndarray         # (nx,)
    j1: np.ndarray          # (nx, ny) d(eta)/d(x1)
    lap_s: np.ndarray       # (nx, ny) first-order eta coefficient of Delta
    wq: np.ndarray          # (nx, ny) nodal quadrature weights (dx measure)

    @property
    def hx(self):
        return (self.b - self.a) / (self.nx - 1)

    @property
    def hy(self):
        return 1.0 / (self.ny - 1)


def window_weights(profile, xi, ny, a, b):
    """Nodal weights of integral dx over the window a <= x1 <= b.

    ``xi`` are the uniform x1 nodes and ``ny`` the eta node count of a
    mapped grid.  A node's column mass integrates f over its xi-cell,
    clipped to the window and the grid, by 8-point Gauss-Legendre (exact to
    rounding); the eta factor is the trapezoid rule.  Nodes whose cell
    misses the window get weight zero.
    """
    hx = (xi[-1] - xi[0]) / (len(xi) - 1)
    lo = np.maximum(xi - 0.5 * hx, max(a, xi[0]))
    hi = np.minimum(xi + 0.5 * hx, min(b, xi[-1]))
    inside = hi > lo
    mid = 0.5 * (lo[inside] + hi[inside])
    half = 0.5 * (hi[inside] - lo[inside])
    width = profile.width(mid[:, None] + half[:, None] * _GL8_NODES)
    masses = np.zeros(len(xi))
    masses[inside] = half * (width @ _GL8_WEIGHTS)
    wy = np.full(ny, 1.0 / (ny - 1))
    wy[0] *= 0.5
    wy[-1] *= 0.5
    return masses[:, None] * wy[None, :]


def make_grid(profile, a, b, nx, ny):
    """Build the mapped grid; raises :class:`DegenerateGrid` below 8x8."""
    a, b = float(a), float(b)
    if not b > a:
        raise OutOfRange(f"need b > a, got ({a}, {b})")
    if nx < 8 or ny < 8:
        raise DegenerateGrid(f"need nx, ny >= 8, got ({nx}, {ny})")

    xi = np.linspace(a, b, nx)
    eta = np.linspace(0.0, 1.0, ny)
    f = np.asarray(profile.width(xi), dtype=float)
    if np.any(f <= 0.0):
        raise AssumptionViolation("width vanishes inside the grid window")
    f1 = np.asarray(profile.f1(xi), dtype=float)
    f1p = np.asarray(profile.f1p(xi), dtype=float)
    f2p = np.asarray(profile.f2p(xi), dtype=float)
    f1pp = np.asarray(profile.f1pp(xi), dtype=float)
    f2pp = np.asarray(profile.f2pp(xi), dtype=float)
    fp = f2p - f1p
    fpp = f2pp - f1pp

    x2 = f1[:, None] + eta[None, :] * f[:, None]
    j1 = -(f1p[:, None] + eta[None, :] * fp[:, None]) / f[:, None]
    lap_s = (
        -(f1pp[:, None] + eta[None, :] * fpp[:, None]) / f[:, None]
        + 2.0
        * (f1p[:, None] + eta[None, :] * fp[:, None])
        * fp[:, None]
        / f[:, None] ** 2
    )

    return Grid(
        a=a,
        b=b,
        nx=nx,
        ny=ny,
        xi=xi,
        eta=eta,
        x2=x2,
        f=f,
        fp=fp,
        f1p=f1p,
        j1=j1,
        lap_s=lap_s,
        wq=window_weights(profile, xi, ny, a, b),
    )
