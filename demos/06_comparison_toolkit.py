"""The differential-inequality comparison toolkit, stand-alone.

The growth estimates all reduce to: a nondecreasing z with
z <= Psi(z') + (1-d1) phi stays below any phi with phi >= Psi(phi')/d1
once it is below at the right endpoint.  This script walks the linear
case and builds the cubic saturating majorant for Psi(s) = s^(3/2).

Run:  python demos/06_comparison_toolkit.py
"""

import numpy as np

from channellab import comparison_lemmas as cl
from channellab.cli_io import write_svg_plot

OUT = "demos/output"


def main():
    print("== linear comparison: z = e^t against phi = 4 e^(t/2) ==")
    psi = cl.separable_psi(c1=1.0)
    t = np.linspace(0.0, 2.0, 80)
    prob = cl.ComparisonProblem(psi, 0.5, t, np.exp(t), 4.0 * np.exp(t / 2.0))
    rep = cl.check_hypotheses(prob)
    print(f"  growth margin {rep.growth_margin:+.3f}, "
          f"majorant margin {rep.majorant_margin:+.1e}, "
          f"endpoint gap {rep.endpoint_gap:.3f}")
    print(f"  verdict: {cl.comparison_conclude(prob, rep).value}")
    print("  ... and on [0, 3] the endpoint fails (e^3 > 4 e^1.5):")
    t3 = np.linspace(0.0, 3.0, 120)
    prob3 = cl.ComparisonProblem(psi, 0.5, t3, np.exp(t3), 4.0 * np.exp(t3 / 2.0))
    print(f"  verdict: {cl.comparison_conclude(prob3).value}")

    print("\n== cubic saturator for Psi(s) = s^(3/2) ==")
    psi32 = cl.separable_psi(c2=1.0, exponent=1.5)
    ts, phi = cl.solve_majorant(psi32, 0.5, 2.0, 6.0, 18.0, step=1e-3)
    exact = ts**3 / 108.0
    print(f"  integrator vs t^3/108: rel err "
          f"{np.abs(phi - exact).max()/exact.max():.2e}")
    write_svg_plot(
        f"{OUT}/majorant.svg",
        [("integrated majorant", ts[::40], phi[::40]),
         ("t^3/108", ts[::40], exact[::40])],
        title="Saturating majorant of the 3/2-power inequality",
        xlabel="t", ylabel="phi",
    )

    print(f"\nwrote {OUT}/majorant.svg")


if __name__ == "__main__":
    main()
