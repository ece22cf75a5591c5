"""Differential-inequality comparison toolkit.

The growth estimates all reduce to one pattern: a nondecreasing energy
z(t) satisfying z <= Psi(t, z') + (1 - delta1)*phi(t) stays below any
majorant phi with phi >= Psi(t, phi')/delta1 and z(T) <= phi(T).  This
module checks those hypotheses on sampled data, builds saturating
majorants by integrating phi' = Psi^(-1)(delta1*phi), and classifies
blow-up rates for the pure inequality z <= Psi(z').
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
from scipy import optimize
from scipy.interpolate import PchipInterpolator

from .errors import (
    InsufficientTail,
    LemmaViolation,
    NonMonotoneSamples,
    OutOfRange,
)

__all__ = [
    "PsiSpec",
    "separable_psi",
    "ComparisonProblem",
    "HypothesisReport",
    "Verdict",
    "check_hypotheses",
    "comparison_conclude",
    "solve_majorant",
    "blowup_rate",
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
            root -= resid(root) / (c1 + c2 * m * root ** (m - 1.0))
        return root


def separable_psi(c1=0.0, c2=0.0, exponent=1.5):
    return PsiSpec(c1=c1, c2=c2, exponent=exponent)


FunctionLike = Union[Callable, np.ndarray]

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
    phi: FunctionLike  # callable phi(t) or samples on the same grid

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
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
        return PchipInterpolator(self.t, np.maximum.accumulate(self.z))

    @cached_property
    def _phi_interp(self):
        return PchipInterpolator(self.t, np.asarray(self.phi, dtype=float))

    @cached_property
    def _phi_slope(self):
        return self._phi_interp.derivative()

    def phi_values(self, ts):
        if callable(self.phi):
            return np.asarray(self.phi(ts), dtype=float)
        return self._phi_interp(ts)

    def phi_derivative(self, ts):
        if callable(self.phi):
            h = 1e-6 * max(1.0, float(self.t[-1] - self.t[0]))
            return (self.phi_values(ts + h) - self.phi_values(ts - h)) / (2 * h)
        return self._phi_slope(ts)

    def phi_derivative_band(self, ts):
        """Derivative reconstruction ambiguity of sampled phi.

        Two independent estimators (shape-preserving interpolant vs plain
        centered differences) disagree by the sampling error; hypothesis
        margins give saturated inequalities the benefit of that band.
        """
        if callable(self.phi):
            return np.zeros_like(np.asarray(ts, dtype=float))
        samples = np.asarray(self.phi, dtype=float)
        alt = np.gradient(samples, self.t)
        main = self._phi_slope(self.t)
        band = np.abs(alt - main)
        return np.interp(ts, self.t, band)


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
    zi = problem._z_interp
    dzi = zi.derivative()
    z = zi(ts)
    zp = np.maximum(dzi(ts), 0.0)
    phi = problem.phi_values(ts)
    phip = problem.phi_derivative(ts)
    band = problem.phi_derivative_band(ts)

    # z' carries the same sampled-derivative ambiguity as phi'
    z_samples = np.maximum.accumulate(problem.z)
    z_band = np.interp(
        ts, problem.t,
        np.abs(np.gradient(z_samples, problem.t) - dzi(problem.t)),
    )

    psi_z = problem.psi(ts, zp + z_band)
    lhs_scale = np.maximum(1.0, np.abs(z).max())
    growth_margin = float(
        np.min(psi_z + (1.0 - problem.delta1) * phi - z) / lhs_scale
    )

    psi_phi = problem.psi(ts, np.maximum(phip - band, 0.0))
    maj_scale = np.maximum(1.0, np.abs(phi).max())
    majorant_margin = float(np.min(phi - psi_phi / problem.delta1) / maj_scale)

    gap = float(problem.phi_values(problem.t[-1]) - zi(problem.t[-1]))
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
    z = problem._z_interp(ts)
    phi = problem.phi_values(ts)
    scale = max(1.0, float(np.abs(phi).max()))
    worst = float(np.min(phi - z))
    if worst < -1e-8 * scale:
        raise LemmaViolation(
            f"hypotheses hold but z exceeds phi by {-worst:.3e}"
        )
    return Verdict.DOMINATED


def solve_majorant(psi, delta1, phi0, t0, t1, step=1e-3):
    """Integrate the saturating majorant phi' = Psi^(-1)(delta1 * phi).

    Classic fourth-order Runge-Kutta with the monotone inverse at each
    stage; returns (t, phi) samples including both endpoints.
    """
    if phi0 <= 0:
        raise OutOfRange("phi0 must be positive")
    if not (0.0 < delta1 < 1.0):
        raise OutOfRange("delta1 must lie in (0,1)")
    n = max(2, int(math.ceil((t1 - t0) / step)) + 1)
    ts = np.linspace(t0, t1, n)
    h = ts[1] - ts[0]
    phi = np.empty(n)
    phi[0] = phi0

    def rate(t, y):
        return psi.inverse(t, delta1 * max(y, 0.0))

    for k in range(n - 1):
        t, y = ts[k], phi[k]
        k1 = rate(t, y)
        k2 = rate(t + h / 2, y + h * k1 / 2)
        k3 = rate(t + h / 2, y + h * k2 / 2)
        k4 = rate(t + h, y + h * k3)
        phi[k + 1] = y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return ts, phi


@dataclass(frozen=True)
class BlowupReport:
    exponent: float
    critical_exponent: float
    hypothesis_holds: bool
    worst_hypothesis_margin: float
    passes: bool


BLOWUP_TAIL_FRACTION = 0.1  # the tail is the final decade of t
BLOWUP_SLOPE_TOL = 0.05
BLOWUP_HYP_TOL = 0.02


def blowup_rate(t, z, psi):
    """Fit the tail growth exponent of z and compare with m/(m-1).

    m is the exponent of the separable psi.  The hypothesis z <= Psi(z') is
    evaluated on the tail; when it holds, the comparison lemma forces
    liminf t^(-m/(m-1)) z > 0, so the fitted log-log slope must reach
    m/(m-1) - BLOWUP_SLOPE_TOL.  Needs at least 10 samples in the final
    decade of t.  BLOWUP_HYP_TOL is the relative slack for the hypothesis
    margin: exact saturators sit at equality and interpolation of the
    sampled derivative wobbles around it.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    m = psi.exponent
    if m <= 1:
        raise OutOfRange("need m > 1")
    tail = t >= t[-1] * BLOWUP_TAIL_FRACTION
    if np.count_nonzero(tail) < 10:
        raise InsufficientTail(
            f"only {np.count_nonzero(tail)} samples in the final decade"
        )
    tt, zz = t[tail], z[tail]
    if np.any(zz <= 0):
        raise OutOfRange("tail samples must be positive for a log-log fit")
    interp = PchipInterpolator(tt, zz)
    zp = np.maximum(interp.derivative()(tt), 0.0)
    margin = float(np.min((psi(tt, zp) - zz) / np.maximum(zz, 1e-300)))
    holds = margin >= -BLOWUP_HYP_TOL

    slope = float(np.polyfit(np.log(tt), np.log(zz), 1)[0])
    critical = m / (m - 1.0)
    return BlowupReport(
        exponent=slope,
        critical_exponent=critical,
        hypothesis_holds=holds,
        worst_hypothesis_margin=margin,
        passes=bool((not holds) or slope >= critical - BLOWUP_SLOPE_TOL),
    )
