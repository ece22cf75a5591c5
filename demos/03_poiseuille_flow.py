"""Steady flow in a straight channel: the parabolic benchmark.

With flux 1 through the strip |x2| < 1, the steady flow far from the
truncation ends is the parabola u1 = (3/4)(1 - x2^2), the streamfunction
is an exact cubic, the dissipation is 3/2 per unit length, and the flux
through every cross-section is 1.  The solver reproduces all of them to
discretization accuracy.

Run:  python demos/03_poiseuille_flow.py
"""

import numpy as np

from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns
from channellab.cli_io import write_svg_plot

OUT = "demos/output"


def main():
    profile = geo.straight(d0=1.0)
    params = fc.CarrierParams(1.0, 0.5)
    print("solving on [-12, 12] at 385 x 49 ...")
    state = ns.solve_steady(profile, params, -12, 12, 385, 49,
                            ns.SolverConfig(tol=1e-10))
    # one chord loop; its history starts with the Stokes state at step 0
    print(f"  converged in {state.residual_history[-1][0]} steps, "
          f"residual {state.residual_history[-1][1]:.2e}")

    grid = state.grid
    window = np.abs(grid.xi) <= 8.0
    exact = 0.75 * (1.0 - grid.x2**2)
    err = np.abs(state.u1 - exact)[window, :].max()
    print(f"  max |u1 - parabola| on [-8, 8]: {err:.2e}")

    energy = ns.dirichlet_energy(state, 0.0, 8.0)
    print(f"  dissipation on [0, 8]: {energy:.5f}  (exact 12 = 3/2 * 8)")

    flux = ns.slice_flux_profile(state)
    inner = np.abs(grid.xi) <= 9.0
    print(f"  slice-flux drift: {np.abs(flux[inner] - 1).max():.2e}")

    jmid = grid.nx // 2
    write_svg_plot(
        f"{OUT}/poiseuille_profile.svg",
        [
            ("computed u1", grid.x2[jmid], state.u1[jmid]),
            ("parabola", grid.x2[jmid], exact[jmid]),
        ],
        title="Velocity profile at mid-channel",
        xlabel="x2",
        ylabel="u1",
    )
    print(f"\nwrote {OUT}/poiseuille_profile.svg")


if __name__ == "__main__":
    main()
