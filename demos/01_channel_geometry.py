"""Tour of the channel geometry layer.

A channel is the region between two walls f1(x1) < x2 < f2(x1).  This
script builds a few wall families, checks the standing assumptions
(positive width, bounded slope, bounded f''*f), classifies how fast the
width may grow before the weight integrals converge, and shows the window
reparameterization that the energy estimates ride on.

Run:  python demos/01_channel_geometry.py
"""

import numpy as np

from channellab import geometry as geo
from channellab.cli_io import write_svg_plot

OUT = "demos/output"


def main():
    profiles = {
        "straight": geo.straight(d0=1.0),
        "power alpha=0.5": geo.power_law(d0=1.0, alpha=0.5),
        "power alpha=0.7": geo.power_law(d0=1.0, alpha=0.7),
        "linear widen": geo.linear_widen(d0=1.0, slope=0.25),
        "custom sqrt": geo.custom("-(1+abs(x))^0.5", "(1+abs(x))^0.5"),
    }

    print("== standing assumptions on [-40, 40] ==")
    for name, p in profiles.items():
        m = geo.validate(p, (-40, 40))
        print(
            f"  {name:16s} inf f = {m.d_lower:6.3f}  sup|f'| = {m.beta:5.3f}  "
            f"sup|f''f| = {m.gamma:5.3f}  window scale beta* = {m.beta_star:5.3f}"
        )

    print("\n== tail classification: does int f^(-5/3) diverge? ==")
    print("   (divergent tails admit the window reparameterization;")
    print("    the uniqueness conditions need slow widening, roughly")
    print("    slower than t^(3/5) for power-law walls)")
    for name, p in profiles.items():
        rep = geo.classify(p)
        unique = rep.condition_16 or rep.condition_17
        print(f"  {name:16s} case = {rep.case.value:14s} "
              f"uniqueness hypotheses met = {unique}")

    print("\n== window reparameterization for the widening channel ==")
    p = profiles["power alpha=0.5"]
    m = geo.validate(p, (-100, 100))
    ts = np.linspace(0.2, 2.2, 9)
    hs, hls, hrs = [], [], []
    for t in ts:
        h_m, h, h_l, h_r = geo.h_window(p, t, m.beta_star)
        hs.append(h)
        hls.append(h_l)
        hrs.append(h_r)
        print(f"  t = {t:4.2f}: window [{h_l:7.3f}, {h_r:7.3f}] inside "
              f"[{h_m:7.3f}, {h:7.3f}]")
    write_svg_plot(
        f"{OUT}/geometry_windows.svg",
        [("h(t)", ts, hs), ("h_R(t)", ts, hrs), ("h_L(t)", ts, hls)],
        title="Window edges under the k/h reparameterization",
        xlabel="t",
        ylabel="x1",
    )
    print(f"\nwrote {OUT}/geometry_windows.svg")


if __name__ == "__main__":
    main()
