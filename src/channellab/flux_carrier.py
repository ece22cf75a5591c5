"""Divergence-free flux carrier built from a streamfunction plateau.

The carrier g = (d2 G, -d1 G) pushes the prescribed flux through a band in
the upper half of the channel while vanishing near both walls, with
G = phi * mu(1 + eps*ln((f2-x2)/(x2-fbar))) above the center line and 0
below.  All derivatives are closed-form; the finite-difference oracle in the
tests guards the hand-derived gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fem import tridiagonal_pencil_max
from .errors import OutOfRange
from .geometry import _GL8_NODES, _GL8_WEIGHTS

__all__ = [
    "mu",
    "mup",
    "mupp",
    "CarrierParams",
    "default_epsilon",
    "stream_G",
    "velocity_g",
    "grad_g",
    "carrier_vorticity",
    "slice_flux",
    "carrier_volume_integral",
    "support_and_bounds_report",
    "weighted_inequality_constant",
]


def mu(t):
    """Quintic cutoff: mu = 1 for t <= 0, mu = 0 for t >= 1, monotone."""
    tc = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return 1.0 - tc * tc * tc * (10.0 + tc * (-15.0 + 6.0 * tc))


def mup(t):
    """mu'(t): -30 t^2 (1-t)^2 on (0, 1), 0 outside."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = -30.0 * ti * ti * (1.0 - ti) ** 2
    return out


def mupp(t):
    """mu''(t): -60 t (1-t) (1-2t) on (0, 1), 0 outside."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = -60.0 * ti * (1.0 - ti) * (1.0 - 2.0 * ti)
    return out


def default_epsilon(phi):
    """Regularization default: small enough for the advective smallness,
    large enough that the carrier band stays resolvable on desk grids."""
    return min(0.5, 1.0 / max(float(phi), 1.0))


@dataclass(frozen=True)
class CarrierParams:
    phi: float
    epsilon: float = None

    def __post_init__(self):
        if self.phi < 0.0:
            raise OutOfRange(f"flux must be nonnegative, got {self.phi}")
        eps = self.epsilon
        if eps is None:
            eps = default_epsilon(self.phi)
            object.__setattr__(self, "epsilon", eps)
        if not (0.0 < eps < 1.0):
            raise OutOfRange(f"epsilon must lie in (0,1), got {eps}")


def _split_point(x):
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    return np.broadcast_arrays(x1, x2)


def _s_and_derivs(x1, x2, params, profile):
    """Cutoff argument s, A = f2-x2, B = x2-fbar and the mask where s is finite.

    s = +inf at and below the center line (mu = 0) and -inf at and above the
    top wall (mu = 1).
    """
    A = np.asarray(profile.f2(x1), dtype=float) - x2
    B = x2 - np.asarray(profile.center(x1), dtype=float)
    upper = B > 0.0
    inside = upper & (A > 0.0)
    s = np.full_like(A, np.inf)
    s[upper & ~(A > 0.0)] = -np.inf
    s[inside] = 1.0 + params.epsilon * (np.log(A[inside]) - np.log(B[inside]))
    return A, B, inside, s


def stream_G(x, params, profile):
    """Carrier streamfunction G = phi * mu(s) at points x = (x1, x2)."""
    out = params.phi * mu(_s_and_derivs(*_split_point(x), params, profile)[3])
    return out if out.ndim else float(out)


def velocity_g(x, params, profile):
    """Carrier velocity (g1, g2) from the closed-form derivatives of G."""
    x1, x2 = _split_point(x)
    eps, phi = params.epsilon, params.phi
    A, B, inside, s = _s_and_derivs(x1, x2, params, profile)
    g1 = np.zeros_like(A)
    g2 = np.zeros_like(A)
    if np.any(inside):
        dmu = mup(s[inside])
        f2p = np.asarray(profile.f2p(x1), dtype=float)
        fbp = np.asarray(profile.centerp(x1), dtype=float)
        f2p = np.broadcast_to(f2p, A.shape)[inside]
        fbp = np.broadcast_to(fbp, A.shape)[inside]
        Ai, Bi = A[inside], B[inside]
        g1[inside] = eps * phi * dmu * (-1.0 / Ai - 1.0 / Bi)
        g2[inside] = -eps * phi * dmu * (f2p / Ai + fbp / Bi)
    if g1.ndim:
        return np.stack([g1, g2], axis=-1)
    return np.array([float(g1), float(g2)])


def grad_g(x, params, profile):
    """Jacobian of g: entry [i, j] = d g_i / d x_j (hand-derived chain rule)."""
    x1, x2 = _split_point(x)
    eps, phi = params.epsilon, params.phi
    A, B, inside, s = _s_and_derivs(x1, x2, params, profile)
    out = np.zeros(A.shape + (2, 2))
    if np.any(inside):
        Ai, Bi = A[inside], B[inside]
        si = s[inside]
        dmu = mup(si)
        d2mu = mupp(si)
        f2p = np.broadcast_to(np.asarray(profile.f2p(x1), dtype=float), A.shape)[inside]
        fbp = np.broadcast_to(np.asarray(profile.centerp(x1), dtype=float), A.shape)[inside]
        f2pp = np.broadcast_to(np.asarray(profile.f2pp(x1), dtype=float), A.shape)[inside]
        fbpp = np.broadcast_to(np.asarray(profile.centerpp(x1), dtype=float), A.shape)[inside]

        s1 = eps * (f2p / Ai + fbp / Bi)              # d s / d x1
        s2 = eps * (-1.0 / Ai - 1.0 / Bi)             # d s / d x2
        s12 = eps * (f2p / Ai**2 - fbp / Bi**2)       # d2 s / dx1 dx2
        s22 = eps * (-1.0 / Ai**2 + 1.0 / Bi**2)      # d2 s / dx2^2
        s11 = eps * (
            f2pp / Ai - f2p**2 / Ai**2 + fbpp / Bi + fbp**2 / Bi**2
        )

        # g1 = phi * mu'(s) * s2 ; g2 = -phi * mu'(s) * s1
        d1g1 = phi * (d2mu * s1 * s2 + dmu * s12)
        d2g1 = phi * (d2mu * s2 * s2 + dmu * s22)
        d1g2 = -phi * (d2mu * s1 * s1 + dmu * s11)
        d2g2 = -phi * (d2mu * s2 * s1 + dmu * s12)

        out[inside, 0, 0] = d1g1
        out[inside, 0, 1] = d2g1
        out[inside, 1, 0] = d1g2
        out[inside, 1, 1] = d2g2
    return out if A.ndim else out.reshape(2, 2)


def carrier_vorticity(x, params, profile):
    """curl g = d1 g2 - d2 g1 (= -Laplacian G)."""
    J = grad_g(x, params, profile)
    return J[..., 1, 0] - J[..., 0, 1]


# ---------------------------------------------------------------------------
# Quadratures that resolve the near-wall band exactly
# ---------------------------------------------------------------------------


def _band_gauss_nodes(params, profile, x1):
    """Gauss nodes in tau = -ln((f2-x2)/(f2-fbar)) covering the carrier band.

    The substitution x2 = f2 - (f/2) e^(-tau) makes the integrand smooth and
    O(1) however thin the band is; d x2 = A d tau.  Panels are aligned with
    the exact band edges (cutoff argument 1 and 0) where the quintic cutoff
    is only C^1, so composite Gauss converges at full order.  ``x1`` may be
    an array: x2 and the weights get one trailing axis of 8 * 32 nodes.
    """
    eps = params.epsilon
    x1 = np.asarray(x1, dtype=float)
    f2 = np.asarray(profile.f2(x1), dtype=float)[..., None]
    half = 0.5 * np.asarray(profile.width(x1), dtype=float)[..., None]
    tau_lo = math.log(2.0)                       # cutoff argument = 1
    tau_hi = 1.0 / eps + math.log1p(math.exp(-1.0 / eps))  # argument = 0
    edges = np.linspace(tau_lo, tau_hi, 33)  # 32 panels
    mid, rad = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    tau = (mid[:, None] + rad[:, None] * _GL8_NODES).ravel()
    w = (rad[:, None] * _GL8_WEIGHTS).ravel()
    jac = half * np.exp(-tau)  # = A = f2 - x2
    return f2 - jac, w * jac


def slice_flux(params, profile, x1):
    """Gauss quadrature of integral g1 dx2 over the cross-section at x1."""
    x2, w = _band_gauss_nodes(params, profile, x1)
    g = velocity_g((np.full_like(x2, float(x1)), x2), params, profile)
    return float(np.dot(w, g[:, 0]))


def carrier_volume_integral(params, profile, a, b, n_x=256):
    """integral over Omega_{a,b} of |grad g|^2 + |g|^4 (composite Gauss in x1).

    Each x1 panel is one (x1, tau) evaluation of its 8 x1 nodes times the
    band nodes, which keeps the temporaries small.
    """
    n_panels = max(8, int(n_x // 8))
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x1 = mid + rad * _GL8_NODES
        x2, w = _band_gauss_nodes(params, profile, x1)
        pts = (np.broadcast_to(x1[:, None], x2.shape), x2)
        g = velocity_g(pts, params, profile)
        J = grad_g(pts, params, profile)
        dens = (J**2).sum(axis=(-2, -1)) + (g**2).sum(axis=-1) ** 2
        total += rad * float(_GL8_WEIGHTS @ (dens * w).sum(axis=-1))
    return total


# ---------------------------------------------------------------------------
# Support and size report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CarrierReport:
    n_support_points: int
    violations: int
    sup_f_g: float
    sup_f2_grad_g: float
    volume_integral: float
    weight_integral_f3: float
    volume_ratio: float


def support_and_bounds_report(params, profile, window, rng=None):
    """Check the support/ratio bounds on a dense sample and report sizes.

    The sample is 64 equispaced sections times the jittered band nodes.
    The inequalities are theorem-backed, so any of the ``violations``
    counted signals an implementation bug.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    a, b = float(window[0]), float(window[1])
    eps = params.epsilon
    checked, violations, sup_fg, sup_f2dg = 0, 0, 0.0, 0.0
    # eight sections per evaluation, as in the volume integral: a single
    # sweep over all of them left about 0.5 MB more resident at peak
    for x1 in np.split(np.linspace(a, b, 64), range(8, 64, 8)):
        x2, _ = _band_gauss_nodes(params, profile, x1)
        f2 = np.asarray(profile.f2(x1), dtype=float)[:, None]
        fbar = np.asarray(profile.center(x1), dtype=float)[:, None]
        f = np.asarray(profile.width(x1), dtype=float)[:, None]
        jitter = rng.uniform(-0.2, 0.2, size=x2.shape) * np.gradient(x2, axis=-1)
        x2 = np.clip(x2 + jitter, fbar + 1e-14, f2 - 1e-300)
        pts = (np.broadcast_to(x1[:, None], x2.shape), x2)
        g = velocity_g(pts, params, profile)
        gn = np.hypot(g[..., 0], g[..., 1])
        dg = np.sqrt((grad_g(pts, params, profile) ** 2).sum(axis=(-2, -1)))
        on_supp = gn > 0.0
        A, B, tol = f2 - x2, x2 - fbar, 1e-12 * f
        ok = (
            (A <= B + tol)
            & (B <= math.exp(1.0 / eps) * A + tol)
            & (B >= f / 4.0 - tol)
            & (B <= f / 2.0 + tol)
            & (A >= math.exp(-1.0 / eps) * f / 4.0 - tol)
        )
        checked += int(np.count_nonzero(on_supp))
        violations += int(np.count_nonzero(on_supp & ~ok))
        sup_fg = max(sup_fg, float(np.max(f * gn, where=on_supp, initial=0.0)))
        sup_f2dg = max(sup_f2dg, float(np.max(f * f * dg, where=on_supp, initial=0.0)))

    vol = carrier_volume_integral(params, profile, a, b, n_x=64)
    from .geometry import weight_integral

    wint = weight_integral(profile, a, b, -3.0)

    return CarrierReport(
        n_support_points=checked,
        violations=violations,
        sup_f_g=sup_fg,
        sup_f2_grad_g=sup_f2dg,
        volume_integral=vol,
        weight_integral_f3=wint,
        volume_ratio=vol / wint if wint > 0 else math.inf,
    )


# ---------------------------------------------------------------------------
# Weighted (Hardy-type) inequality constant
# ---------------------------------------------------------------------------


def weighted_inequality_constant(params, profile, x1):
    """Best constant of integral |g|^2 w^2 <= c * phi^2 * integral |d2 w|^2.

    Slicewise 1D generalized eigenproblem over w vanishing at both walls.
    The carrier concentrates exponentially at the upper wall, so the
    admissible functions are written as w = phi*v with the ground-state
    factor phi = sqrt(max(A, f/4)/(f/2)), A = f2 - x2, and the band is
    discretized in the log coordinate tau = -ln(2A/f).  In these variables
    every matrix entry is O(1) regardless of epsilon; a direct physical
    discretization loses the eigenvalue to conditioning once the band gets
    thin.  Solved by the shift-invert eigen helper on the tridiagonal
    pencil.
    """
    if params.phi <= 0.0:
        return 0.0
    eps = params.epsilon
    f1 = float(profile.f1(x1))
    f2 = float(profile.f2(x1))
    f = f2 - f1
    half = 0.5 * f

    # nodes: physical below the band edge x2 = fbar + f/4, tau inside
    n_coarse, n_band = 200, 2400  # P1 elements below the band and in tau
    x_low = np.linspace(f1, f2 - half / 2.0, n_coarse + 1)  # A from f down to f/4
    tau_end = 1.0 / eps + 8.0
    tau = np.linspace(math.log(2.0), tau_end, n_band + 1)  # A from f/4 downward

    n_low = x_low.size  # nodes 0 .. n_low-1, node n_low-1 is the interface
    n_tot = n_low + n_band  # band appends n_band new nodes
    diag_K = np.zeros(n_tot)
    off_K = np.zeros(n_tot - 1)
    diag_M = np.zeros(n_tot)
    off_M = np.zeros(n_tot - 1)

    # below the band: w = sqrt(1/2) v, carrier vanishes, pure stiffness
    h_low = np.diff(x_low)
    diag_K[: n_low - 1] += 0.5 / h_low
    diag_K[1:n_low] += 0.5 / h_low
    off_K[: n_low - 1] -= 0.5 / h_low

    # inside the band (element integrals of (2/f)(v_tau - v/2)^2 exactly,
    # carrier weight by 2-pt Gauss); s, A/B formed from tau with no huge
    # intermediates
    h_b = np.diff(tau)
    tl, tr = tau[:-1], tau[1:]
    # exact element integrals for linear v:
    # int v_tau^2 = (vr-vl)^2/h ; int v v_tau = (vr^2-vl^2)/2 ;
    # int v^2/4 = h (vl^2 + vl vr + vr^2)/12
    d_ll = 1.0 / h_b + 0.5 + h_b / 12.0
    d_rr = 1.0 / h_b - 0.5 + h_b / 12.0
    d_lr = -1.0 / h_b + h_b / 24.0
    scale = 2.0 / f
    i0 = n_low - 1
    diag_K[i0 : i0 + n_band] += scale * d_ll
    diag_K[i0 + 1 : i0 + n_band + 1] += scale * d_rr
    off_K[i0 : i0 + n_band] += scale * d_lr

    gauss_x = np.array([-1.0, 1.0]) / math.sqrt(3.0)
    for gx in gauss_x:
        tq = 0.5 * (tl + tr) + 0.5 * h_b * gx
        ratio = np.exp(-tq) / (1.0 - np.exp(-tq))  # A/B
        s = 1.0 + eps * np.log(ratio)
        dmu = mup(s)
        dens = (eps**2) * dmu**2 * (1.0 + ratio) ** 2 / half  # A*q*phi^2/phi_flux^2
        wq = 0.5 * h_b
        phi_l = 0.5 * (1.0 - gx)
        phi_r = 0.5 * (1.0 + gx)
        diag_M[i0 : i0 + n_band] += wq * dens * phi_l * phi_l
        diag_M[i0 + 1 : i0 + n_band + 1] += wq * dens * phi_r * phi_r
        off_M[i0 : i0 + n_band] += wq * dens * phi_l * phi_r

    # Dirichlet at both ends
    return tridiagonal_pencil_max(
        diag_K[1:-1], off_K[1:-1], diag_M[1:-1], off_M[1:-1]
    )
