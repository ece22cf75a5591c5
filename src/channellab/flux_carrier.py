"""Divergence-free flux carrier built from a streamfunction plateau.

The carrier g = (d2 G, -d1 G) pushes the prescribed flux through a band in
the upper half of the channel while vanishing near both walls, with
G = phi * mu(1 + eps*ln((f2-x2)/(x2-fbar))) above the center line and 0
below.  All derivatives are closed-form; the finite-difference oracle in the
tests guards the hand-derived gradient.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import OutOfRange

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
]


def mu(t):
    """Quintic cutoff: mu = 1 for t <= 0, mu = 0 for t >= 1, monotone."""
    tc = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return 1.0 - tc * tc * tc * (10.0 + tc * (-15.0 + 6.0 * tc))


def _on_unit_interval(t, poly):
    """poly(t) on 0 < t < 1, 0 outside."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    out[inside] = poly(t[inside])
    return out


def mup(t):
    """mu'(t): -30 t^2 (1-t)^2 on (0, 1), 0 outside."""
    return _on_unit_interval(t, lambda t: -30.0 * t * t * (1.0 - t) ** 2)


def mupp(t):
    """mu''(t): -60 t (1-t) (1-2t) on (0, 1), 0 outside."""
    return _on_unit_interval(t, lambda t: -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t))


def default_epsilon(phi):
    """Regularization default: small enough for the advective smallness,
    large enough that the carrier band stays resolvable on desk grids."""
    return min(0.5, 1.0 / max(float(phi), 1.0))


@dataclass(frozen=True)
class CarrierParams:
    phi: float
    epsilon: float = None

    def __post_init__(self):
        if not (isinstance(self.phi, numbers.Real) and math.isfinite(self.phi)
                and self.phi >= 0.0):
            raise OutOfRange(f"flux must be a finite number >= 0, got {self.phi}")
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


def _band(x, params, profile, *walls):
    """The carrier band at points x = (x1, x2): the shape of x, the in-band
    mask, s, A and B on it, and each wall function of x1 on it."""
    x1, x2 = _split_point(x)
    A, B, inside, s = _s_and_derivs(x1, x2, params, profile)
    on_band = [np.broadcast_to(np.asarray(w(x1), dtype=float), A.shape)[inside]
               for w in walls]
    return A.shape, inside, s[inside], A[inside], B[inside], on_band


def velocity_g(x, params, profile):
    """Carrier velocity (g1, g2) from the closed-form derivatives of G."""
    eps, phi = params.epsilon, params.phi
    shape, inside, si, Ai, Bi, (f2p, fbp) = _band(
        x, params, profile, profile.f2p, profile.centerp)
    dmu = mup(si)
    out = np.zeros(shape + (2,))
    out[inside, 0] = eps * phi * dmu * (-1.0 / Ai - 1.0 / Bi)
    out[inside, 1] = -eps * phi * dmu * (f2p / Ai + fbp / Bi)
    return out


def grad_g(x, params, profile):
    """Jacobian of g: entry [i, j] = d g_i / d x_j (hand-derived chain rule)."""
    eps, phi = params.epsilon, params.phi
    shape, inside, si, Ai, Bi, (f2p, fbp, f2pp, fbpp) = _band(
        x, params, profile, profile.f2p, profile.centerp, profile.f2pp,
        profile.centerpp)
    dmu = mup(si)
    d2mu = mupp(si)

    s1 = eps * (f2p / Ai + fbp / Bi)              # d s / d x1
    s2 = eps * (-1.0 / Ai - 1.0 / Bi)             # d s / d x2
    s12 = eps * (f2p / Ai**2 - fbp / Bi**2)       # d2 s / dx1 dx2
    s22 = eps * (-1.0 / Ai**2 + 1.0 / Bi**2)      # d2 s / dx2^2
    s11 = eps * (
        f2pp / Ai - f2p**2 / Ai**2 + fbpp / Bi + fbp**2 / Bi**2
    )

    # g1 = phi * mu'(s) * s2 ; g2 = -phi * mu'(s) * s1
    out = np.zeros(shape + (2, 2))
    out[inside, 0, 0] = phi * (d2mu * s1 * s2 + dmu * s12)
    out[inside, 0, 1] = phi * (d2mu * s2 * s2 + dmu * s22)
    out[inside, 1, 0] = -phi * (d2mu * s1 * s1 + dmu * s11)
    out[inside, 1, 1] = -phi * (d2mu * s2 * s1 + dmu * s12)
    return out


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
    tau, rad = geo.gl8_nodes(edges[:-1], edges[1:])
    w = (rad[:, None] * geo.GL8_WEIGHTS).ravel()
    jac = half * np.exp(-tau.ravel())  # = A = f2 - x2
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
    for x1, rad in zip(*geo.gl8_nodes(edges[:-1], edges[1:])):
        x2, w = _band_gauss_nodes(params, profile, x1)
        pts = (np.broadcast_to(x1[:, None], x2.shape), x2)
        g = velocity_g(pts, params, profile)
        J = grad_g(pts, params, profile)
        dens = (J**2).sum(axis=(-2, -1)) + (g**2).sum(axis=-1) ** 2
        total += rad * float(geo.GL8_WEIGHTS @ (dens * w).sum(axis=-1))
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
    wint = geo.weight_integral(profile, a, b, -3.0)

    return CarrierReport(
        n_support_points=checked,
        violations=violations,
        sup_f_g=sup_fg,
        sup_f2_grad_g=sup_f2dg,
        volume_ratio=vol / wint if wint > 0 else math.inf,
    )
