"""Energy growth and velocity decay in a widening channel.

For walls +-(1+|x1|)^(1/2) the dissipation D(t) over |x1| < t stays
pinched between multiples of the weight integral I(t) = int f^(-3), the
per-slice product f * sup|u| stays bounded, and the zeta-hat weighted
energy obeys a differential inequality whose comparison majorant it never
crosses.  One converged solve feeds all three diagnostics, which read the
wall from its grid and the flux from that solve.

Run:  python demos/04_growth_and_decay.py
"""

from channellab import estimate_harness as eh
from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab.cli_io import write_svg_plot

OUT = "demos/output"


def main():
    profile = geo.power_law(d0=1.0, alpha=0.5)
    params = fc.CarrierParams(1.0, 0.5)

    print("solving once on the padded truncation ...")
    state = eh.padded_solve(profile, params, 16.0, target_hx=0.125, ny=33)
    print(f"  grid {state.grid.nx} x {state.grid.ny} on "
          f"[{state.grid.a:.1f}, {state.grid.b:.1f}]")

    rep = eh.growth_scan(state, [2, 4, 8, 16])
    print("\n== growth of the Dirichlet energy ==")
    for t, d, i, lo in zip(rep.t, rep.dirichlet, rep.weight, rep.lower_ratio):
        print(f"  t = {t:4.1f}: D = {d:7.4f}  I = {i:6.4f}  D/(phi^2 I) = {lo:6.2f}")
    for v in rep.verdicts:
        print(f"  {v}")
    write_svg_plot(
        f"{OUT}/growth.svg",
        [("D(t)", rep.t, rep.dirichlet),
         ("1 + I(t)", rep.t, [1 + v for v in rep.weight])],
        title="Energy growth vs weight integral",
        xlabel="t", ylabel="energy",
    )

    drep = eh.decay_scan(state, (4, 16))
    print("\n== pointwise decay products ==")
    for v in drep.verdicts:  # the spreads of f * sup|u| and of energy * f^2
        print(f"  {v}")
    write_svg_plot(
        f"{OUT}/decay.svg",
        [("f * sup|u|", drep.slice_x, drep.slice_sup)],
        title="Decay product per cross-section",
        xlabel="x1", ylabel="f * sup|u|",
    )

    hrep = eh.hat_energy_inequality(state, 12.0)
    print("\n== weighted-energy comparison ==")
    print(f"  fitted inequality constants: C11 = {hrep.c11:.3g}, "
          f"C12 = {hrep.c12:.3g}")
    for v in hrep.verdicts:  # hat_dominated: the majorant dominates
        print(f"  {v}")
    print(f"\nwrote {OUT}/growth.svg and {OUT}/decay.svg")


if __name__ == "__main__":
    main()
