"""Numerical values of the supporting inequality constants.

Four constants feed the channel estimates.  The slicewise Poincare
constant is universal (1/pi for any width); the domain constant scales
with the max width (2/pi times the half-width for strips); the L4
embedding constant scales with the square root of the domain size; the
divergence-problem constant settles under grid refinement.

Run:  python demos/05_functional_constants.py
"""

import math

from channellab import functional_inequalities as fi
from channellab import geometry as geo


def main():
    strip = geo.straight(d0=1.0)
    widening = geo.power_law(d0=1.0, alpha=0.5)

    print("== slicewise Poincare constant (universal) ==")
    for name, p in [("strip", strip), ("widening", widening)]:
        est = fi.poincare_m0(p, -5, 5)
        print(f"  {name:9s}: {est.value:.6f}   (1/pi = {1/math.pi:.6f})")

    print("\n== domain Poincare constant (scales with width) ==")
    for d0 in (1.0, 2.0):
        p = geo.straight(d0=d0)
        est = fi.poincare_m1(p, 0, 2 * d0, resolution=(97, 97))
        print(f"  width {2*d0:.0f}: {est.value:.6f}   "
              f"(2 d0/pi = {2*d0/math.pi:.6f})")

    print("\n== L4 embedding constant (scales like sqrt of size) ==")
    small = fi.sobolev_m4(geo.straight(d0=0.5), 0, 2, resolution=(49, 25))
    large = fi.sobolev_m4(geo.straight(d0=1.0), 0, 4, resolution=(49, 25))
    print(f"  2x1 strip: {small.value:.5f}")
    print(f"  4x2 strip: {large.value:.5f}  "
          f"(ratio {large.value/small.value:.4f}, sqrt(2) = {math.sqrt(2):.4f})")

    print("\n== divergence-problem constant ==")
    square = geo.straight(c1=0.0, c2=1.0)
    for res in ((25, 25), (49, 49)):
        est = fi.bogovskii_m5(square, 0, 1, resolution=res)
        print(f"  unit square at {res[0]}x{res[1]}: {est.value:.4f}")


if __name__ == "__main__":
    main()
