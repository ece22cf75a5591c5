"""Scenario-level scans that verify the channel-flow estimates at desk scale.

Each scan runs one converged solve on a truncation padded past the
reporting windows (the truncation ends carry carrier data, so verification
windows stay clear of the end layers by a multiple of the local window
scale beta* f), then extracts windowed energies, slice suprema, and ratio
verdicts.  Thresholds quantify "bounded with unspecified constant" at desk
scale and live in :class:`HarnessThresholds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import comparison_lemmas as cl
from . import flux_carrier as fc
from . import geometry as geo
from . import ns_solver as ns
from .errors import HypothesisNotMet, OutOfRange

__all__ = [
    "GridPolicy",
    "HarnessThresholds",
    "GrowthReport",
    "DecayReport",
    "PoiseuilleReport",
    "UniquenessReport",
    "HatEnergyReport",
    "growth_scan",
    "decay_scan",
    "poiseuille_convergence",
    "uniqueness_probe",
    "hat_energy_inequality",
    "padded_solve",
]


@dataclass(frozen=True)
class GridPolicy:
    """How scans size their grids: target xi spacing, fixed eta count."""

    target_hx: float = 0.125
    ny: int = 65
    nx_cap: int = 1201
    pad_factor: float = 2.0

    def nx_for(self, length):
        nx = int(math.ceil(length / self.target_hx)) + 1
        nx = max(nx, 65)
        if nx % 2 == 0:
            nx += 1
        return min(nx, self.nx_cap)


@dataclass(frozen=True)
class HarnessThresholds:
    """Desk-scale quantifications of 'bounded'; raw sequences always ship."""

    growth_ratio_bound: float = 3.0
    growth_lower_bound: float = 0.5
    decay_ratio_bound: float = 4.0
    plateau_fraction: float = 0.1
    wall_delta: float = 0.1
    uniqueness_tol: float = 1e-6


def padded_solve(profile, params, t_max, policy=None, config=None,
                 symmetric=True, t_min=None):
    """Converged solve on a truncation padded beyond the reporting window.

    The pad is pad_factor * beta* f at each end, so windows up to +-t_max
    sit at least one window scale inside the carrier end layers.
    """
    policy = policy or GridPolicy()
    config = config or ns.SolverConfig()
    metrics = geo.validate(profile, (-t_max - 1.0, t_max + 1.0))
    bs = metrics.beta_star
    lo = -t_max if symmetric else (t_min if t_min is not None else -t_max)
    hi = t_max
    pad_lo = policy.pad_factor * bs * float(profile.width(lo))
    pad_hi = policy.pad_factor * bs * float(profile.width(hi))
    a, b = lo - pad_lo, hi + pad_hi
    nx = policy.nx_for(b - a)
    state = ns.solve_steady(profile, params, a, b, nx, policy.ny, config)
    return state, metrics


# ---------------------------------------------------------------------------
# Growth of the Dirichlet norm
# ---------------------------------------------------------------------------


@dataclass
class GrowthReport:
    profile: str
    phi: float
    t: list
    dirichlet: list            # D(t) over Omega_t
    weight: list               # I(t) = int_{-t}^{t} f^-3
    upper_ratio: list          # D / (1 + I)
    lower_ratio: list          # D / (phi^2 I)
    upper_spread: float
    lower_min: float
    verdicts: dict = field(default_factory=dict)

    def rows(self):
        for k in range(len(self.t)):
            yield {
                "t": self.t[k],
                "dirichlet": self.dirichlet[k],
                "weight_integral": self.weight[k],
                "upper_ratio": self.upper_ratio[k],
                "lower_ratio": self.lower_ratio[k],
            }


def growth_scan(profile, phi, t_list, policy=None, config=None, params=None,
                thresholds=None, state=None):
    """D(t) against 1 + I(t) and phi^2 I(t) from one converged solve."""
    thresholds = thresholds or HarnessThresholds()
    t_list = sorted(float(t) for t in t_list)
    if any(t <= 0 for t in t_list):
        raise OutOfRange("t values must be positive")
    params = params or fc.CarrierParams(phi)
    if state is None:
        state, _ = padded_solve(profile, params, t_list[-1], policy, config)

    d_vals = [ns.dirichlet_energy(state, -t, t) for t in t_list]
    i_vals = [geo.weight_integral(profile, -t, t, -3.0) for t in t_list]
    upper = [d / (1.0 + i) for d, i in zip(d_vals, i_vals)]
    if phi > 0:
        lower = [d / (phi**2 * i) for d, i in zip(d_vals, i_vals)]
        lower_min = min(lower)
    else:
        lower = [math.nan] * len(t_list)
        lower_min = math.nan
    spread = max(upper) / min(upper) if min(upper) > 0 else math.inf

    verdicts = {
        "upper_bounded": spread <= thresholds.growth_ratio_bound,
        "lower_positive": (phi == 0.0)
        or (lower_min > thresholds.growth_lower_bound),
        "monotone": all(np.diff(d_vals) >= -1e-12 * max(d_vals)),
    }
    return GrowthReport(
        profile=profile.label(),
        phi=phi,
        t=t_list,
        dirichlet=d_vals,
        weight=i_vals,
        upper_ratio=upper,
        lower_ratio=lower,
        upper_spread=spread,
        lower_min=lower_min,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Pointwise and local-energy decay
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    profile: str
    phi: float
    hypothesis_met: bool
    slice_x: list              # sampled x1 locations
    slice_sup: list            # f(x1) * sup over the slice of |u|
    slice_sup_interior: list   # away from the walls (distance > delta f)
    slice_sup_wall: list       # near-wall complement
    window_t: list
    window_energy: list        # ||grad u||^2 on Omega_{t - beta* f, t} * f^2
    sup_spread: float
    window_spread: float
    verdicts: dict = field(default_factory=dict)

    def rows(self):
        for k in range(len(self.slice_x)):
            yield {
                "x1": self.slice_x[k],
                "f_sup_u": self.slice_sup[k],
                "f_sup_u_interior": self.slice_sup_interior[k],
                "f_sup_u_wall": self.slice_sup_wall[k],
            }


def decay_scan(profile, phi, t_range, policy=None, config=None, params=None,
               thresholds=None, state=None, n_slices=17, n_windows=7):
    """f * sup|u| per slice and f^2-weighted window energies.

    Requires the uniqueness-condition hypotheses; if they fail the scan
    still runs and the verdicts are informational only.
    """
    thresholds = thresholds or HarnessThresholds()
    t_lo, t_hi = float(t_range[0]), float(t_range[-1])
    params = params or fc.CarrierParams(phi)
    classification = geo.classify(profile)
    hypothesis = classification.condition_16 or classification.condition_17
    if state is None:
        state, _ = padded_solve(profile, params, t_hi, policy, config)
    metrics = geo.validate(profile, (-t_hi - 1.0, t_hi + 1.0))
    bs = metrics.beta_star
    delta = thresholds.wall_delta

    grid = state.grid
    speed = np.hypot(state.u1, state.u2)
    xs = np.concatenate(
        [np.linspace(-t_hi, -t_lo, n_slices // 2 + 1),
         np.linspace(t_lo, t_hi, n_slices // 2 + 1)]
    )
    sup_all, sup_int, sup_wall = [], [], []
    for x in xs:
        i = int(np.argmin(np.abs(grid.xi - x)))
        fx = float(profile.width(grid.xi[i]))
        col = speed[i, :]
        interior = (grid.eta >= delta) & (grid.eta <= 1.0 - delta)
        sup_all.append(fx * float(col.max()))
        sup_int.append(fx * float(col[interior].max()))
        sup_wall.append(fx * float(col[~interior].max()))

    win_t = list(np.linspace(t_lo, t_hi, n_windows))
    win_e = []
    for t in win_t:
        w = bs * float(profile.width(t))
        e = ns.dirichlet_energy(state, t - w, t)
        win_e.append(e * float(profile.width(t)) ** 2)

    sup_spread = max(sup_all) / min(sup_all) if min(sup_all) > 0 else math.inf
    win_spread = max(win_e) / min(win_e) if min(win_e) > 0 else math.inf
    verdicts = {
        "hypothesis_met": hypothesis,
        "pointwise_bounded": sup_spread <= thresholds.decay_ratio_bound,
        "local_energy_bounded": win_spread <= thresholds.decay_ratio_bound,
    }
    return DecayReport(
        profile=profile.label(),
        phi=phi,
        hypothesis_met=hypothesis,
        slice_x=list(xs),
        slice_sup=sup_all,
        slice_sup_interior=sup_int,
        slice_sup_wall=sup_wall,
        window_t=win_t,
        window_energy=win_e,
        sup_spread=sup_spread,
        window_spread=win_spread,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Convergence to the outlet shear flow
# ---------------------------------------------------------------------------


@dataclass
class PoiseuilleReport:
    profile: str
    phi: float
    k: float
    T: list
    h1_error: list             # ||u - U||^2_{H^1} on k < x1 < T
    scaled_tail: list          # t^-3 * D+(t)
    plateau_ok: bool
    tail_decreasing: bool
    verdicts: dict = field(default_factory=dict)

    def rows(self):
        for i in range(len(self.T)):
            yield {
                "T": self.T[i],
                "h1_error": self.h1_error[i],
                "scaled_tail": self.scaled_tail[i],
            }


def poiseuille_convergence(profile, phi, k, t_list, policy=None, config=None,
                           params=None, thresholds=None, state=None):
    """H1 distance to the outlet shear flow on growing windows.

    The reference flow is carried by its streamfunction and differentiated
    with the same discrete operators as the computed state, so the shared
    O(h^2) representation bias cancels and the windows measure the genuine
    field difference.  The verdict is a plateau: the increment from the
    second-largest to the largest window stays below plateau_fraction of
    the former.
    """
    thresholds = thresholds or HarnessThresholds()
    t_list = sorted(float(t) for t in t_list)
    params = params or fc.CarrierParams(phi)
    if state is None:
        state, _ = padded_solve(profile, params, t_list[-1], policy, config)
    grid = state.grid

    c1 = float(profile.f1(t_list[-1]))
    c2 = float(profile.f2(t_list[-1]))
    hw = 0.5 * (c2 - c1)
    cen = 0.5 * (c1 + c2)
    zeta = (grid.x2 - cen) / hw
    psi_ref = phi * (0.75 * (zeta - zeta**3 / 3.0) + 0.5)
    ref = ns._state_from_fields(grid, profile, params, psi_ref,
                                np.zeros_like(psi_ref))

    d1u1, d2u1, d1u2, d2u2 = ns.velocity_gradients(state)
    r1u1, r2u1, r1u2, r2u2 = ns.velocity_gradients(ref)
    diff2 = (
        (state.u1 - ref.u1) ** 2
        + (state.u2 - ref.u2) ** 2
        + (d1u1 - r1u1) ** 2
        + (d2u1 - r2u1) ** 2
        + (d1u2 - r1u2) ** 2
        + (d2u2 - r2u2) ** 2
    )

    h1 = []
    tails = []
    for T in t_list:
        w = geo.window_weights(profile, grid.xi, grid.ny, k, T)
        h1.append(float((w * diff2).sum()))
        d_plus = ns.dirichlet_energy(state, 0.0, T)
        tails.append(d_plus / T**3)

    plateau_ok = True
    if len(h1) >= 2:
        # a fully converged E sits at the discretization floor everywhere;
        # measure the plateau relative to max(previous value, that floor)
        floor = 1e-6 * phi**2 * max(1.0, t_list[-1] - k)
        plateau_ok = (h1[-1] - h1[-2]) <= thresholds.plateau_fraction * max(
            h1[-2], floor
        )
    tail_dec = all(np.diff(tails) <= 1e-12)
    return PoiseuilleReport(
        profile=profile.label(),
        phi=phi,
        k=k,
        T=t_list,
        h1_error=h1,
        scaled_tail=tails,
        plateau_ok=plateau_ok,
        tail_decreasing=tail_dec,
        verdicts={"plateau": plateau_ok, "tail_decreasing": tail_dec},
    )


# ---------------------------------------------------------------------------
# Uniqueness probe
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    profile: str
    phi: float
    l2_distance: float
    dirichlet_distance: float
    unique: bool


def _perturbed_solve(profile, params, a, b, nx, ny, config, seed):
    """Solve with a randomly perturbed initial streamfunction.

    The perturbation is 20 percent of the streamfunction scale, vanishes
    at the walls, and only changes the starting point of the Picard
    iteration; boundary data are untouched.
    """
    grid = ns.make_grid(profile, a, b, nx, ny)
    ws = ns._Workspace(grid, params, profile)
    state = ns.solve_stokes(grid, params, profile, config, ws)
    rng = np.random.default_rng(seed)
    envelope = (grid.eta * (1.0 - grid.eta)) ** 2 * 16.0
    modes = np.zeros((grid.nx, grid.ny))
    xi_n = (grid.xi - grid.a) / (grid.b - grid.a)
    for kx in range(1, 4):
        for ky in range(1, 4):
            amp = rng.standard_normal()
            modes += amp * np.outer(
                np.sin(np.pi * kx * xi_n), np.sin(np.pi * ky * grid.eta)
            )
    if np.abs(modes).max() > 0:
        modes /= np.abs(modes).max()
    scale = 0.2 * max(float(np.abs(state.psi).max()), params.phi, 1e-12)
    psi = state.psi + scale * envelope[None, :] * modes
    state = ns._state_from_fields(grid, profile, params, psi, state.omega)

    state.residual_history.append((0, ns.residual_norm(state, config)))
    return ns._picard(state, params, profile, config, ws)


def uniqueness_probe(profile, phi, a, b, nx=257, ny=65, config=None,
                     params=None, thresholds=None, seed=7):
    """Compare the Stokes-started and perturbation-started solutions."""
    thresholds = thresholds or HarnessThresholds()
    config = config or ns.SolverConfig(tol=1e-12, max_iter=120)
    params = params or fc.CarrierParams(phi)
    base = ns.solve_steady(profile, params, a, b, nx, ny, config)
    other = _perturbed_solve(profile, params, a, b, nx, ny, config, seed)

    wq = base.grid.wq
    du1 = base.u1 - other.u1
    du2 = base.u2 - other.u2
    l2_diff = math.sqrt(float((wq * (du1**2 + du2**2)).sum()))
    l2_base = math.sqrt(float((wq * (base.u1**2 + base.u2**2)).sum()))

    e_diff = _gradient_distance(base, other)
    e_base = math.sqrt(max(ns.dirichlet_energy(base, a, b), 1e-300))

    if phi == 0.0:
        l2 = l2_diff
        dd = e_diff
    else:
        l2 = l2_diff / max(l2_base, 1e-300)
        dd = e_diff / max(e_base, 1e-300)
    unique = bool(max(l2, dd) <= thresholds.uniqueness_tol)
    return UniquenessReport(
        profile=profile.label(),
        phi=phi,
        l2_distance=l2,
        dirichlet_distance=dd,
        unique=unique,
    )


def _gradient_distance(a_state, b_state):
    ga = ns.velocity_gradients(a_state)
    gb = ns.velocity_gradients(b_state)
    total = sum((x - y) ** 2 for x, y in zip(ga, gb))
    return math.sqrt(float((a_state.grid.wq * total).sum()))


# ---------------------------------------------------------------------------
# Weighted-energy differential inequality
# ---------------------------------------------------------------------------


def hat_weight(profile, t, beta_star):
    """The reparameterized trapezoidal weight at parameter t (callable).

    Defined once the plateau exists (t past the crossing of the inner
    window edges); below that the two ramps overlap and the construction
    is meaningless.
    """
    h_t, h_l, h_r = geo.h_parameterization(profile, t, beta_star)
    h_m = geo.inverse_k(profile, -t)
    if h_l >= h_r:
        raise OutOfRange(
            f"weight undefined at t={t}: inner edges cross (t below t*)"
        )
    f_r = float(profile.width(h_t))
    f_l = float(profile.width(h_m))

    def weight(x1):
        x1 = np.asarray(x1, dtype=float)
        out = np.zeros_like(x1)
        out = np.where((x1 > h_l) & (x1 < h_r), beta_star, out)
        right = (x1 >= h_r) & (x1 <= h_t)
        out = np.where(right, (h_t - x1) / f_r, out)
        left = (x1 >= h_m) & (x1 <= h_l)
        out = np.where(left, (x1 - h_m) / f_l, out)
        return out

    return weight


@dataclass
class HatEnergyReport:
    profile: str
    phi: float
    t: list
    y_hat: list
    c11: float
    c12: float
    c13: float
    c14: float
    monotone: bool
    verdict: cl.Verdict
    verdicts: dict = field(default_factory=dict)

    def rows(self):
        for i in range(len(self.t)):
            yield {"t": self.t[i], "y_hat": self.y_hat[i]}


def hat_energy_inequality(profile, phi, x_max, policy=None, config=None,
                          params=None, n_t=25, state=None):
    """Reproduce the weighted-energy inequality and its comparison verdict.

    One converged solve; y_hat(t) is the zeta-hat weighted energy of
    v = u - g; the smallest (C11, C12) making
    y_hat <= C11 (y' + y'^(3/2)) + C12 * int f^-3 hold on the sample grid
    come from a tiny linear program, and the induced majorant is handed to
    the comparison module, which must conclude domination.
    """
    params = params or fc.CarrierParams(phi)
    classification = geo.classify(profile)
    if classification.case is not geo.KRangeCase.BOTH_INFINITE:
        raise HypothesisNotMet(
            f"weight parameterization needs both tails infinite, got "
            f"{classification.case.value}"
        )
    metrics = geo.validate(profile, (-x_max - 1.0, x_max + 1.0))
    bs = metrics.beta_star
    if state is None:
        state, _ = padded_solve(profile, params, x_max, policy, config)

    t_star = metrics.t_star or geo._try_t_star(profile, bs)
    t_max = geo.k_of(profile, x_max)
    t_min = (t_star or 0.0) * 1.05 + 1e-6
    if t_min >= t_max:
        raise OutOfRange("x_max too small: no room above t*")
    ts = np.linspace(t_min, t_max, n_t)

    y = np.array(
        [ns.weighted_energy(state, hat_weight(profile, t, bs)) for t in ts]
    )
    yp = np.gradient(y, ts)
    yp = np.maximum(yp, 0.0)
    i_vals = np.array(
        [
            geo.weight_integral(
                profile, geo.inverse_k(profile, -t), geo.inverse_k(profile, t), -3.0
            )
            for t in ts
        ]
    )

    c11, c12 = _fit_inequality(y, yp, i_vals)
    # majorant in the same shape: phi(t) = C13 + C14 * I(t)
    c14 = 2.0 * c12
    psi = cl.separable_psi(c1=c11, c2=c11, exponent=1.5)
    ip = np.gradient(i_vals, ts)
    need = 2.0 * psi(ts, np.maximum(c14 * ip, 0.0)) - c14 * i_vals
    c13 = max(float(np.max(need)), float(y[-1] - c14 * i_vals[-1]), 1e-12) * 1.01

    phi_fn_vals = c13 + c14 * i_vals
    prob = cl.ComparisonProblem(psi, 0.5, ts, y, phi_fn_vals)
    verdict = cl.comparison_conclude(prob)
    monotone = bool(np.all(np.diff(y) >= -1e-9 * max(float(y.max()), 1e-300)))
    return HatEnergyReport(
        profile=profile.label(),
        phi=phi,
        t=list(ts),
        y_hat=list(y),
        c11=c11,
        c12=c12,
        c13=c13,
        c14=c14,
        monotone=monotone,
        verdict=verdict,
        verdicts={
            "dominated": verdict is cl.Verdict.DOMINATED,
            "monotone": monotone,
        },
    )


def _fit_inequality(y, yp, i_vals):
    """Smallest (c11, c12) >= 0 with c11*a + c12*b >= y pointwise.

    a = y' + y'^(3/2), b = the weight integral; minimized by scanning the
    one-dimensional family of binding constraints (a 2-variable LP).
    """
    a = yp + yp**1.5
    b = i_vals
    best = None
    # candidate vertices: single constraints binding at c12 = 0 or c11 = 0,
    # plus pairwise intersections
    cands = []
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(a > 0):
            c11_only = np.nanmax(np.where(a > 0, y / a, np.nan))
            if np.isfinite(c11_only):
                cands.append((float(c11_only), 0.0))
        if np.any(b > 0):
            c12_only = np.nanmax(np.where(b > 0, y / b, np.nan))
            if np.isfinite(c12_only):
                cands.append((0.0, float(c12_only)))
    n = len(y)
    idx = np.argsort(-y)[: min(n, 12)]
    for i in idx:
        for j in idx:
            det = a[i] * b[j] - a[j] * b[i]
            if abs(det) < 1e-300:
                continue
            c11 = (y[i] * b[j] - y[j] * b[i]) / det
            c12 = (a[i] * y[j] - a[j] * y[i]) / det
            if c11 >= -1e-12 and c12 >= -1e-12:
                cands.append((max(c11, 0.0), max(c12, 0.0)))
    feasible = []
    for c11, c12 in cands:
        margin = c11 * a + c12 * b - y
        if np.all(margin >= -1e-9 * max(1.0, float(np.abs(y).max()))):
            feasible.append((c11 + c12, c11, c12))
    if not feasible:
        # fall back to the safe corner
        c11 = float(np.nanmax(np.where(a > 0, y / a, 0.0)))
        return c11 * 1.001 + 1e-12, 1e-12
    _, c11, c12 = min(feasible)
    scale = 1.0 + 1e-9
    return c11 * scale + 1e-15, c12 * scale + 1e-15
