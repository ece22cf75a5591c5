"""Differential-inequality comparison toolkit.

The growth estimates all reduce to one pattern: a nondecreasing energy
z(t) satisfying z <= Psi(t, z') + (1 - delta1)*phi(t) stays below any
majorant phi with phi >= Psi(t, phi')/delta1 and z(T) <= phi(T).  This
module checks those hypotheses on sampled data, builds saturating
majorants phi' = Psi^(-1)(delta1*phi) by integrating s = phi' in
s' = delta1 s / Psi'(s) (Psi independent of t).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize

from .errors import LemmaViolation, NonMonotoneSamples, OutOfRange

__all__ = [
    "PsiSpec",
    "separable_psi",
    "ComparisonProblem",
    "HypothesisReport",
    "Verdict",
    "check_hypotheses",
    "comparison_conclude",
    "solve_majorant",
]


@dataclass(frozen=True)
class PsiSpec:
    """Separable comparison function Psi(t, s) = c1 s + c2 s^m, Psi(t, 0) = 0.

    Psi does not depend on t; the argument keeps the lemma's Psi(t, s)
    signature.  The inverse in s is analytic when one coefficient vanishes
    and a bracketed root, Newton-polished, otherwise.
    """

    c1: float = 0.0
    c2: float = 0.0
    exponent: float = 1.5

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0 or (self.c2 > 0 and self.exponent <= 1):
            raise OutOfRange("separable Psi needs c1, c2 >= 0 and exponent > 1")
        if self.c1 == 0 and self.c2 == 0:
            raise OutOfRange("Psi must be nontrivial")

    def __call__(self, t, s):
        s = np.asarray(s, dtype=float)
        return self.c1 * s + self.c2 * s**self.exponent

    def slope(self, s):
        """Psi'(s) = c1 + c2 m s^(m-1) for one float s > 0."""
        m = float(self.exponent)
        return float(self.c1) + float(self.c2) * m * s ** (m - 1.0)

    def inverse(self, t, y):
        """Solve Psi(t, s) = y for s >= 0."""
        y = float(y)
        if y < 0:
            raise OutOfRange("Psi inverse needs y >= 0")
        if y == 0.0:
            return 0.0
        c1, c2, m = float(self.c1), float(self.c2), float(self.exponent)
        if c2 == 0.0:
            return y / c1
        if c1 == 0.0:
            return (y / c2) ** (1.0 / m)
        resid = lambda s: c1 * s + c2 * s**m - y
        # at the root each term is <= y and one is >= y/2; widened by
        # 1e-12 so rounding cannot put a root-side end on the wrong side
        lo = min(y / (2.0 * c1), (y / (2.0 * c2)) ** (1.0 / m)) * (1.0 - 1e-12)
        hi = min(y / c1, (y / c2) ** (1.0 / m)) * (1.0 + 1e-12)
        root = optimize.brentq(
            resid, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=300
        )
        # Newton polish against the closed form
        for _ in range(2):
            root -= resid(root) / self.slope(root)
        return root


def separable_psi(c1=0.0, c2=0.0, exponent=1.5):
    return PsiSpec(c1=c1, c2=c2, exponent=exponent)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, kept to the shape of the data:
    0 if its sign is not the end secant's, 3 times that secant if the
    secants change sign and it overshoots."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Monotone piecewise cubic Hermite interpolant of samples ``(x, y)``.

    An inner node takes the weighted harmonic mean of its two secants, or
    0 where they differ in sign or one vanishes (Fritsch & Carlson, SIAM J.
    Numer. Anal. 17, 1980); the ends take :func:`_end_slope`, and two
    samples give their line.  Coefficients and evaluation repeat
    ``scipy.interpolate.PchipInterpolator`` operation for operation, so
    both give the same numbers.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.full(y.size, m[0])
        if y.size > 2:
            ml, mr = m[:-1], m[1:]
            mean = (np.sign(ml) == np.sign(mr)) & (ml != 0) & (mr != 0)
            w1, w2 = (2 * h[1:] + h[:-1])[mean], (h[1:] + 2 * h[:-1])[mean]
            d[1:-1] = 0.0
            d[1:-1][mean] = 1.0 / ((w1 / ml[mean] + w2 / mr[mean]) / (w1 + w2))
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        # on interval k, the coefficients of 1, s, s^2, s^3 for s = x - x_k
        self._c = (y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)

    def __call__(self, xq):
        """Values and slopes at ``xq``, each point in the interval ``[x_k,
        x_k+1)`` that holds it (the last one closed, the ends extended)."""
        k = np.clip(np.searchsorted(self.x, xq, side="right") - 1,
                    0, self.x.size - 2)
        s = xq - self.x[k]
        c0, c1, c2, c3 = (c[k] for c in self._c)
        s2 = s * s
        value = c0 + c1 * s + c2 * s2 + c3 * (s2 * s)
        return value, c1 + 2.0 * c2 * s + 3.0 * c3 * s2


# relative slack for decreasing jitter in sampled z
MONOTONE_TOL = 1e-9
# fine grid on which the hypotheses and the conclusion are evaluated
N_FINE = 512


@dataclass
class ComparisonProblem:
    psi: PsiSpec
    delta1: float
    t: np.ndarray
    z: np.ndarray
    phi: np.ndarray  # samples on the same grid

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if not (0.0 < self.delta1 < 1.0):
            raise OutOfRange("delta1 must lie in (0,1)")
        if self.t.ndim != 1 or self.t.size < 4:
            raise OutOfRange("need at least 4 samples")
        if np.any(np.diff(self.t) <= 0):
            raise NonMonotoneSamples("sample grid must be strictly increasing")
        if np.any(self.z < -MONOTONE_TOL * max(1.0, np.abs(self.z).max())):
            raise NonMonotoneSamples("z must be nonnegative")
        scale = max(1.0, float(np.abs(self.z).max()))
        if np.any(np.diff(self.z) < -MONOTONE_TOL * scale):
            raise NonMonotoneSamples("z samples must be nondecreasing")

    # The interpolants are built on first use and kept: the hypotheses and
    # the conclusion evaluate them several times.
    @cached_property
    def _z_interp(self):
        # clip tiny decreasing jitter so the shape-preserving interpolant
        # cannot manufacture negative slopes
        return _Pchip(self.t, np.maximum.accumulate(self.z))

    @cached_property
    def _phi_interp(self):
        return _Pchip(self.t, self.phi)


def _slope_band(t, samples, slope, ts):
    """|centered differences of the samples - slope| on t, interpolated to ts.

    Two independent estimators of a sampled derivative (shape-preserving
    interpolant vs plain centered differences) disagree by the sampling
    error; hypothesis margins give saturated inequalities the benefit of
    that band.
    """
    return np.interp(ts, t, np.abs(np.gradient(samples, t) - slope))


# relative slack for hypothesis margins: saturating majorants sit at exact
# equality and the interpolated derivative of sampled data wobbles O(h^2)
MARGIN_TOL = 1e-6


@dataclass(frozen=True)
class HypothesisReport:
    growth_margin: float       # min over grid of Psi(t,z') + (1-d1)phi - z
    majorant_margin: float     # min over grid of phi - Psi(t,phi')/d1
    endpoint_ok: bool
    endpoint_gap: float        # phi(T) - z(T)


class Verdict(enum.Enum):
    DOMINATED = "dominated"
    HYPOTHESIS_FAILED_GROWTH = "hypothesis_failed_growth"
    HYPOTHESIS_FAILED_MAJORANT = "hypothesis_failed_majorant"
    HYPOTHESIS_FAILED_ENDPOINT = "hypothesis_failed_endpoint"


def check_hypotheses(problem):
    """Evaluate both differential inequalities on a fine grid.

    Margins are normalized by the local scale so they compare across
    problems; small negative margins within MARGIN_TOL on an exactly
    saturated majorant count as holding.
    """
    ts = np.linspace(problem.t[0], problem.t[-1], N_FINE)
    zi, phii = problem._z_interp, problem._phi_interp
    z, zp = zi(ts)
    zp = np.maximum(zp, 0.0)
    phi, phip = phii(ts)
    band = _slope_band(problem.t, problem.phi, phii(problem.t)[1], ts)

    # z' carries the same sampled-derivative ambiguity as phi'
    z_band = _slope_band(problem.t, np.maximum.accumulate(problem.z),
                         zi(problem.t)[1], ts)

    psi_z = problem.psi(ts, zp + z_band)
    lhs_scale = np.maximum(1.0, np.abs(z).max())
    growth_margin = float(
        np.min(psi_z + (1.0 - problem.delta1) * phi - z) / lhs_scale
    )

    psi_phi = problem.psi(ts, np.maximum(phip - band, 0.0))
    maj_scale = np.maximum(1.0, np.abs(phi).max())
    majorant_margin = float(np.min(phi - psi_phi / problem.delta1) / maj_scale)

    gap = float(phi[-1] - z[-1])  # ts ends on t[-1] exactly
    endpoint_ok = bool(gap >= -MARGIN_TOL * maj_scale)
    return HypothesisReport(
        growth_margin=growth_margin,
        majorant_margin=majorant_margin,
        endpoint_ok=endpoint_ok,
        endpoint_gap=gap,
    )


def comparison_conclude(problem, report=None):
    """Conclude z <= phi on the interval when the hypotheses hold.

    The conclusion is a theorem: if the hypotheses pass but z exceeds phi
    anywhere, that is an implementation bug and LemmaViolation is raised.
    """
    if report is None:
        report = check_hypotheses(problem)
    if report.growth_margin < -MARGIN_TOL:
        return Verdict.HYPOTHESIS_FAILED_GROWTH
    if report.majorant_margin < -MARGIN_TOL:
        return Verdict.HYPOTHESIS_FAILED_MAJORANT
    if not report.endpoint_ok:
        return Verdict.HYPOTHESIS_FAILED_ENDPOINT

    ts = np.linspace(problem.t[0], problem.t[-1], N_FINE)
    z, _ = problem._z_interp(ts)
    phi, _ = problem._phi_interp(ts)
    scale = max(1.0, float(np.abs(phi).max()))
    worst = float(np.min(phi - z))
    if worst < -1e-8 * scale:
        raise LemmaViolation(
            f"hypotheses hold but z exceeds phi by {-worst:.3e}"
        )
    return Verdict.DOMINATED


def solve_majorant(psi, delta1, phi0, t0, t1, step=1e-3):
    """Integrate the saturating majorant phi' = Psi^(-1)(delta1 * phi).

    Psi does not depend on t, so s = phi' obeys s' = delta1 s / Psi'(s):
    classic fourth-order Runge-Kutta on s from the one inverse
    s0 = Psi^(-1)(delta1 phi0); returns (t, phi = Psi(s)/delta1) samples
    including both endpoints, with phi[0] = phi0 exactly.
    """
    if phi0 <= 0:
        raise OutOfRange("phi0 must be positive")
    if not (0.0 < delta1 < 1.0):
        raise OutOfRange("delta1 must lie in (0,1)")
    n = max(2, int(math.ceil((t1 - t0) / step)) + 1)
    ts = np.linspace(t0, t1, n)
    h = float(ts[1] - ts[0])
    s = [psi.inverse(t0, delta1 * phi0)]

    def rate(y):
        return delta1 * y / psi.slope(y)

    for _ in range(n - 1):
        y = s[-1]
        k1 = rate(y)
        k2 = rate(y + h * k1 / 2)
        k3 = rate(y + h * k2 / 2)
        k4 = rate(y + h * k3)
        s.append(y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
    phi = psi(ts, s) / delta1
    phi[0] = phi0
    return ts, phi
