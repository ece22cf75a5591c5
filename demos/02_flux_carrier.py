"""The flux carrier: a divergence-free field that transports the flux.

The carrier g = (d2 G, -d1 G) comes from a streamfunction that climbs from
0 to the flux inside a band hugging the upper half of the channel, so g
vanishes near both walls, carries exactly the prescribed flux through
every cross-section, and has closed-form derivatives.  Every solver run
starts from it, and the size of |grad g|^2 + |g|^4 controls the energy of
the computed flow.

Run:  python demos/02_flux_carrier.py
"""

import numpy as np

from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab.cli_io import write_svg_plot

OUT = "demos/output"


def main():
    profile = geo.power_law(d0=1.0, alpha=0.5)
    params = fc.CarrierParams(phi=1.0, epsilon=0.5)

    print("== flux through random cross-sections ==")
    rng = np.random.default_rng(1)
    worst = 0.0
    for x1 in rng.uniform(-15, 15, size=8):
        flux = fc.slice_flux(params, profile, x1)
        worst = max(worst, abs(flux - params.phi))
        print(f"  x1 = {x1:7.3f}: flux = {flux:.12f}")
    print(f"  worst deviation from 1: {worst:.2e}")

    print("\n== support band at x1 = 0 ==")
    x2 = np.linspace(-1.0, 1.0, 801)
    g = fc.velocity_g((np.zeros_like(x2), x2), params, profile)
    speed = np.hypot(g[:, 0], g[:, 1])
    on = speed > 0
    print(f"  carrier lives in x2 in [{x2[on].min():.3f}, {x2[on].max():.3f}]"
          f"  (width 2, upper wall at 1)")
    write_svg_plot(
        f"{OUT}/carrier_profile.svg",
        [("g1(x2) at x1=0", x2, g[:, 0])],
        title="Carrier horizontal velocity across the section",
        xlabel="x2",
        ylabel="g1",
    )

    print("\n== size report on [-10, 10] ==")
    rep = fc.support_and_bounds_report(params, profile, (-10, 10))
    print(f"  support samples checked: {rep.n_support_points}, "
          f"violations: {rep.violations}")
    print(f"  sup f |g|       = {rep.sup_f_g:.3f}")
    print(f"  sup f^2 |grad g| = {rep.sup_f2_grad_g:.3f}")
    print(f"  volume integral / weight integral = {rep.volume_ratio:.1f}")

    print(f"\nwrote {OUT}/carrier_profile.svg")


if __name__ == "__main__":
    main()
