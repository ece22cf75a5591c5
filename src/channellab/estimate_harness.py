"""Scenario-level scans that verify the channel-flow estimates at desk scale.

Each scan measures one given converged state, takes the wall from its
grid and the flux from its params, and extracts windowed energies, slice
suprema, and ratio verdicts; :mod:`.cli_io` lays out their CSV rows.
:func:`padded_solve` solves the state on a truncation padded past the
reporting windows (the truncation ends carry carrier data, so
verification windows stay clear of the end layers by a multiple of the
local window scale beta* f).  The module constants below quantify
"bounded with unspecified constant" at desk scale; the raw sequences always
ship next to the verdicts.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import comparison_lemmas as cl
from . import flux_carrier as fc
from . import geometry as geo
from . import ns_solver as ns
from .errors import HypothesisNotMet, LemmaViolation, OutOfRange

__all__ = [
    "Verdict",
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


# Desk-scale quantifications of "bounded", and the pad of the states they
# are judged on: fixed, so no scenario can loosen a verdict
GROWTH_RATIO_BOUND = 3.0   # max/min of D / (1 + I) over the t values
GROWTH_LOWER_BOUND = 0.5   # min of D / (phi^2 I) must exceed this
DECAY_RATIO_BOUND = 4.0    # max/min of the slice and window products
PLATEAU_FRACTION = 0.1     # last increment of E(T) relative to the previous E
WALL_DELTA = 0.1           # near-wall band: eta < 0.1 or eta > 0.9
PAD_FACTOR = 2.0           # end pads of padded_solve, in window scales beta* f


_SENSES = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
           ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Verdict:
    """One judged quantity: ``value`` must stand in ``sense`` to ``bound``.

    ``status`` is PASS or FAIL by that comparison (a NaN value fails), or
    SKIPPED when the check does not apply; ``skipped`` then says why.
    """

    name: str
    value: object
    bound: object
    sense: str
    skipped: str | None = None

    @property
    def status(self):
        if self.skipped is not None:
            return "SKIPPED"
        return "PASS" if _SENSES[self.sense](self.value, self.bound) else "FAIL"

    def __str__(self):
        """``name: STATUS``, then why: the reason it was skipped, or a
        numeric value against its bound."""
        why = self.skipped or (f"{self.value:.3g} {self.sense} {self.bound:.3g}"
                               if isinstance(self.value, float) else "")
        return f"{self.name}: {self.status}" + (f" ({why})" if why else "")


def _window_beta_star(profile, t):
    """beta* of the reporting window +-t, validated on (-t - 1, t + 1)."""
    return geo.validate(profile, (-t - 1.0, t + 1.0)).beta_star


def padded_solve(profile, params, t_max, target_hx, ny):
    """Converged solve on a truncation padded beyond the reporting window.

    The pad is PAD_FACTOR * beta* f at each end, so windows up to +-t_max
    sit at least one window scale inside the carrier end layers.  beta*
    comes from (-t_max-1, t_max+1); the padded window [a, b] that is solved
    on is checked too, so no assumption fails unchecked inside a pad.  The
    grid has ``ny`` eta nodes and the fewest xi nodes, odd and at least
    65, whose spacing is at most ``target_hx``.
    """
    bs = _window_beta_star(profile, t_max)
    lo, hi = -t_max, t_max
    pad_lo = PAD_FACTOR * bs * float(profile.width(lo))
    pad_hi = PAD_FACTOR * bs * float(profile.width(hi))
    a, b = lo - pad_lo, hi + pad_hi
    geo.validate(profile, (a, b))
    nx = max(int(math.ceil((b - a) / target_hx)) + 1, 65)
    if nx % 2 == 0:
        nx += 1
    return ns.solve_steady(profile, params, a, b, nx, ny)


# ---------------------------------------------------------------------------
# Growth of the Dirichlet norm
# ---------------------------------------------------------------------------


@dataclass
class GrowthReport:
    t: list
    dirichlet: list            # D(t) over Omega_t
    weight: list               # I(t) = int_{-t}^{t} f^-3
    upper_ratio: list          # D / (1 + I)
    lower_ratio: list          # D / (phi^2 I)
    verdicts: list             # Verdict records


def growth_scan(state, t_list):
    """D(t) against 1 + I(t) and phi^2 I(t) on the converged ``state``."""
    t_list = sorted(float(t) for t in t_list)
    if any(t <= 0 for t in t_list):
        raise OutOfRange("t values must be positive")
    profile, phi = state.grid.profile, state.params.phi

    d_vals = [ns.dirichlet_energy(state, -t, t) for t in t_list]
    i_vals = [geo.weight_integral(profile, -t, t, -3.0) for t in t_list]
    upper = [d / (1.0 + i) for d, i in zip(d_vals, i_vals)]
    if phi > 0:
        lower = [d / (phi**2 * i) for d, i in zip(d_vals, i_vals)]
    else:
        lower = [math.nan] * len(t_list)
    spread = max(upper) / min(upper) if min(upper) > 0 else math.inf

    # at flux 0 the flow is at rest: D vanishes and neither bound applies
    at_rest = phi == 0.0
    verdicts = [
        Verdict("lower_positive", min(lower), GROWTH_LOWER_BOUND, ">",
                skipped="flux 0: D has no lower bound" if at_rest else None),
        Verdict("monotone", float(np.min(np.diff(d_vals), initial=math.inf)),
                -1e-12 * max(d_vals), ">="),
        Verdict("upper_bounded", spread, GROWTH_RATIO_BOUND, "<=",
                skipped="flux 0: D vanishes, no spread" if at_rest else None),
    ]
    return GrowthReport(
        t=t_list,
        dirichlet=d_vals,
        weight=i_vals,
        upper_ratio=upper,
        lower_ratio=lower,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Pointwise and local-energy decay
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    slice_x: list              # sampled x1 locations
    slice_sup: list            # f(x1) * sup over the slice of |u|
    slice_sup_interior: list   # away from the walls (distance > delta f)
    slice_sup_wall: list       # near-wall complement
    window_t: list
    window_energy: list        # ||grad u||^2 on Omega_{t - beta* f, t} * f^2
    verdicts: list             # Verdict records


# sampled slices on each outlet (x1 < 0 and x1 > 0), energy windows
_DECAY_SLICES_PER_SIDE, _DECAY_WINDOWS = 9, 7


def decay_scan(state, t_range):
    """f * sup|u| per slice and f^2-weighted window energies on ``state``.

    Requires the uniqueness-condition hypotheses; if they fail the scan
    still runs and its verdicts read SKIPPED.  At flux 0 the two spreads
    read SKIPPED: every product vanishes.
    """
    profile = state.grid.profile
    t_lo, t_hi = float(t_range[0]), float(t_range[-1])
    classification = geo.classify(profile)
    hypothesis = classification.condition_16 or classification.condition_17
    bs = _window_beta_star(profile, t_hi)

    grid = state.grid
    # ny >= 8 puts eta = 1/7 ... 6/7 inside and eta = 0 outside: both sides
    interior = (grid.eta >= WALL_DELTA) & (grid.eta <= 1.0 - WALL_DELTA)
    speed = np.hypot(state.u1, state.u2)
    xs = np.concatenate(
        [np.linspace(-t_hi, -t_lo, _DECAY_SLICES_PER_SIDE),
         np.linspace(t_lo, t_hi, _DECAY_SLICES_PER_SIDE)]
    )
    sup_all, sup_int, sup_wall = [], [], []
    for x in xs:
        i = int(np.argmin(np.abs(grid.xi - x)))
        fx = float(profile.width(grid.xi[i]))
        col = speed[i, :]
        sup_all.append(fx * float(col.max()))
        sup_int.append(fx * float(col[interior].max()))
        sup_wall.append(fx * float(col[~interior].max()))

    win_t = list(np.linspace(t_lo, t_hi, _DECAY_WINDOWS))
    win_e = []
    for t in win_t:
        w = bs * float(profile.width(t))
        e = ns.dirichlet_energy(state, t - w, t)
        win_e.append(e * float(profile.width(t)) ** 2)

    skipped = None if hypothesis else "neither condition (16) nor (17) holds"
    verdicts = [Verdict("hypothesis_met", hypothesis, True, "==", skipped)]
    if skipped is None and state.params.phi == 0.0:
        skipped = "flux 0: the products vanish, no spread"
    for name, products in (("local_energy_bounded", win_e),
                           ("pointwise_bounded", sup_all)):
        spread = max(products) / min(products) if min(products) > 0 else math.inf
        verdicts.append(Verdict(name, spread, DECAY_RATIO_BOUND, "<=", skipped))
    return DecayReport(
        slice_x=list(xs),
        slice_sup=sup_all,
        slice_sup_interior=sup_int,
        slice_sup_wall=sup_wall,
        window_t=win_t,
        window_energy=win_e,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Convergence to the outlet shear flow
# ---------------------------------------------------------------------------


@dataclass
class PoiseuilleReport:
    T: list
    h1_error: list             # ||u - U||^2_{H^1} on k < x1 < T
    scaled_tail: list          # t^-3 * D+(t)
    verdicts: list             # Verdict records


def poiseuille_convergence(state, k, t_list):
    """H1 distance to the outlet shear flow on growing windows of ``state``.

    The reference flow is carried by its streamfunction and differentiated
    with the same discrete operators as the computed state, so the shared
    O(h^2) representation bias cancels and the windows measure the genuine
    field difference.  The verdict is a plateau: the increment from the
    second-largest to the largest window stays below PLATEAU_FRACTION of
    the former; it is skipped unless two window ends T lie beyond k.  A
    window end T <= k leaves k < x1 < T empty, and its distance reads NaN.
    """
    t_list = sorted(float(t) for t in t_list)
    if t_list[0] <= 0:  # the tail window 0 < x1 < T would be empty
        raise OutOfRange("t values must be positive")
    grid, phi = state.grid, state.params.phi

    c1 = float(grid.profile.f1(t_list[-1]))
    c2 = float(grid.profile.f2(t_list[-1]))
    hw = 0.5 * (c2 - c1)
    cen = 0.5 * (c1 + c2)
    zeta = (grid.x2 - cen) / hw
    psi_ref = phi * (0.75 * (zeta - zeta**3 / 3.0) + 0.5)
    ref = ns.state_from_fields(grid, state.params, psi_ref,
                               np.zeros_like(psi_ref))

    l2 = (state.u1 - ref.u1) ** 2 + (state.u2 - ref.u2) ** 2
    # from l2 on: the order of additions fixes the last bits
    diff2 = sum(ns.gradient_squares(state, ref.gradients), l2)

    h1 = []
    tails = []
    for T in t_list:
        w = grid.window_weights(k, T)
        h1.append(float((w * diff2).sum()) if T > k else math.nan)
        d_plus = ns.dirichlet_energy(state, 0.0, T)
        tails.append(d_plus / T**3)

    # a fully converged E sits at the discretization floor everywhere;
    # measure the plateau relative to max(previous value, that floor)
    floor = 1e-6 * phi**2 * max(1.0, t_list[-1] - k)
    prev = h1[-2] if len(h1) >= 2 else math.nan
    skipped = None if len(h1) >= 2 else "one window: no increment"
    plateau_skipped = skipped or (
        f"the plateau needs two windows beyond k = {k}, but the "
        f"second-largest T is {t_list[-2]}" if t_list[-2] <= k else None)
    return PoiseuilleReport(
        T=t_list,
        h1_error=h1,
        scaled_tail=tails,
        verdicts=[
            Verdict("plateau", h1[-1] - prev,
                    PLATEAU_FRACTION * max(prev, floor), "<=", plateau_skipped),
            Verdict("tail_decreasing",
                    float(np.max(np.diff(tails), initial=-math.inf)),
                    1e-12, "<=", skipped),
        ],
    )


# ---------------------------------------------------------------------------
# Uniqueness probe
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    l2_distance: float
    dirichlet_distance: float
    unique: bool


def _perturbed_start(stokes, seed):
    """The Stokes state ``stokes`` with a random streamfunction perturbation.

    The perturbation is 20 percent of the streamfunction scale, vanishes
    at the walls, and only changes the starting point of the Picard
    iteration; boundary data are untouched.
    """
    grid, params = stokes.grid, stokes.params
    rng = np.random.default_rng(seed)
    envelope = (grid.eta * (1.0 - grid.eta)) ** 2 * 16.0
    modes = np.zeros((grid.nx, grid.ny))
    xi_n = (grid.xi - grid.a) / (grid.b - grid.a)
    for kx in range(1, 4):
        for ky in range(1, 4):
            modes += rng.standard_normal() * np.outer(
                np.sin(np.pi * kx * xi_n), np.sin(np.pi * ky * grid.eta))
    if np.abs(modes).max() > 0:
        modes /= np.abs(modes).max()
    scale = 0.2 * max(float(np.abs(stokes.psi).max()), params.phi, 1e-12)
    psi = stokes.psi + scale * envelope[None, :] * modes
    return ns.state_from_fields(grid, params, psi, stokes.omega)


# both starts are solved far below the distance bound, so a distance above
# it is a second solution, not solver noise
_UNIQUENESS_SOLVER = ns.SolverConfig(tol=1e-12)
_UNIQUENESS_TOL = 1e-6


def uniqueness_probe(profile, phi, a, b, nx=257, ny=65, seed=7):
    """Compare the Stokes-started solution with the one started from
    :func:`_perturbed_start` (:func:`ns_solver.solve_two_starts`)."""
    base, other = ns.solve_two_starts(
        profile, fc.CarrierParams(phi), a, b, nx, ny,
        functools.partial(_perturbed_start, seed=seed), _UNIQUENESS_SOLVER)

    def integral(values):  # over the grid window, by its weights wq
        return float((base.grid.wq * values).sum())

    l2_diff = math.sqrt(integral((base.u1 - other.u1) ** 2
                                 + (base.u2 - other.u2) ** 2))
    l2_base = math.sqrt(integral(base.u1**2 + base.u2**2))
    e_diff = math.sqrt(integral(sum(ns.gradient_squares(base, other.gradients))))
    e_base = math.sqrt(max(integral(sum(ns.gradient_squares(base))), 1e-300))

    l2, dd = l2_diff, e_diff
    if phi != 0.0:
        l2, dd = l2 / max(l2_base, 1e-300), dd / max(e_base, 1e-300)
    return UniquenessReport(l2_distance=l2, dirichlet_distance=dd,
                            unique=bool(max(l2, dd) <= _UNIQUENESS_TOL))


# ---------------------------------------------------------------------------
# Weighted-energy differential inequality
# ---------------------------------------------------------------------------


def _hat_weight(profile, t, beta_star, window):
    """The reparameterized trapezoidal weight at parameter t (callable):
    the lower of the ramps (x1 - h(-t)) / f(h(-t)) and (h(t) - x1) / f(h(t)),
    clipped to [0, beta*].

    ``window`` is (h(-t), h(t), h_L, h_R) of t.  Defined once the plateau
    exists (t past the crossing of the inner window edges); below that the
    two ramps overlap and the construction is meaningless.
    """
    h_m, h_t, h_l, h_r = window
    if h_l >= h_r:
        raise OutOfRange(
            f"weight undefined at t={t}: inner edges cross (t below t*)"
        )
    f_r = float(profile.width(h_t))
    f_l = float(profile.width(h_m))

    def weight(x1):
        x1 = np.asarray(x1, dtype=float)
        return np.clip(np.minimum((x1 - h_m) / f_l, (h_t - x1) / f_r),
                       0.0, beta_star)

    return weight


@dataclass
class HatEnergyReport:
    t: list
    y_hat: list
    majorant: list             # phi(t) = C13 + C14 * I(t) fed to the comparison
    c11: float
    c12: float
    c13: float
    c14: float
    verdicts: list             # Verdict records


_HAT_SAMPLES = 25


def hat_energy_inequality(state, x_max):
    """Reproduce the weighted-energy inequality and its comparison verdict.

    On the converged ``state``, y_hat(t) is the zeta-hat weighted energy of
    v = u - g; the smallest (C11, C12) making y_hat <= C11 (y' + y'^(3/2)) +
    C12 I(t), I(t) = int f^-3 over (h(-t), h(t)), hold on the sample grid
    come from a tiny linear program; the induced majorant (in the report) is
    handed to the comparison module, which must conclude domination.
    """
    profile = state.grid.profile
    classification = geo.classify(profile)
    if classification.case is not geo.KRangeCase.BOTH_INFINITE:
        raise HypothesisNotMet(
            f"weight parameterization needs both tails infinite, got "
            f"{classification.case.value}"
        )
    bs = _window_beta_star(profile, x_max)

    t_star = geo.try_t_star(profile, bs)
    t_max = geo.k_of(profile, x_max)
    t_min = (t_star or 0.0) * 1.05 + 1e-6
    if t_min >= t_max:
        raise OutOfRange("x_max too small: no room above t*")
    ts = np.linspace(t_min, t_max, _HAT_SAMPLES)
    windows = [geo.h_window(profile, t, bs) for t in ts]

    y = np.array([ns.weighted_energy(state, _hat_weight(profile, t, bs, w))
                  for t, w in zip(ts, windows)])
    yp = np.gradient(y, ts)
    yp = np.maximum(yp, 0.0)
    i_vals = np.array(
        [geo.weight_integral(profile, h_m, h_t, -3.0) for h_m, h_t, _, _ in windows]
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
    return HatEnergyReport(
        t=list(ts),
        y_hat=list(y),
        majorant=list(phi_fn_vals),
        c11=c11,
        c12=c12,
        c13=c13,
        c14=c14,
        verdicts=[
            Verdict("hat_dominated", cl.comparison_conclude(prob),
                    cl.Verdict.DOMINATED, "=="),
            Verdict("hat_monotone", float(np.min(np.diff(y))),
                    -1e-9 * max(float(y.max()), 1e-300), ">="),
        ],
    )


def _fit_inequality(y, yp, i_vals):
    """Smallest (c11, c12) >= 0 with c11*a + c12*b >= y pointwise.

    a = y' + y'^(3/2), b = the weight integral; a 2-variable LP, minimized
    over its candidate vertices: single constraints binding at c12 = 0 or
    c11 = 0, and the intersection of every pair of binding constraints.
    """
    a = yp + yp**1.5
    b = i_vals
    axes = []
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(a > 0):
            c11_only = np.nanmax(np.where(a > 0, y / a, np.nan))
            if np.isfinite(c11_only):
                axes.append((float(c11_only), 0.0))
        if np.any(b > 0):
            c12_only = np.nanmax(np.where(b > 0, y / b, np.nan))
            if np.isfinite(c12_only):
                axes.append((0.0, float(c12_only)))
        # entry [i, j] solves constraints i and j binding together
        det = np.outer(a, b) - np.outer(b, a)
        c11 = (np.outer(y, b) - np.outer(b, y)) / det
        c12 = (np.outer(a, y) - np.outer(y, a)) / det
    vertex = (np.abs(det) >= 1e-300) & (c11 >= -1e-12) & (c12 >= -1e-12)
    cands = np.concatenate([
        np.reshape(axes, (-1, 2)),
        np.maximum(np.column_stack([c11[vertex], c12[vertex]]), 0.0),
    ])
    margin = cands[:, :1] * a + cands[:, 1:] * b - y
    feasible = np.all(margin >= -1e-9 * max(1.0, float(np.abs(y).max())), axis=1)
    if not feasible.any():
        # the (0, max y/b) vertex is feasible whenever every b > 0
        raise LemmaViolation(
            "no feasible (c11, c12): a weight integral is not positive")
    c11, c12 = cands[feasible].T
    _, c11, c12 = min(zip(c11 + c12, c11, c12))
    scale = 1.0 + 1e-9
    return float(c11) * scale + 1e-15, float(c12) * scale + 1e-15
