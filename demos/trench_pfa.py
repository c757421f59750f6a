"""Proximity-force decomposition over the trench grating.

The additive approximation splits one period into plateau, floor, and
two slanted-wall ramps; the plateau and floor carry ~97% of the force
for the reference geometry.
"""

import numpy as np

from casigrat import (
    GratingProfile,
    flat_pressure_law,
    get_material,
    pfa_corrugated,
    pfa_share_topbottom,
    reference_trench_profile,
)


def main() -> None:
    profile = reference_trench_profile()
    print("= reference trench profile =")
    print(f"  period       {profile.period * 1e9:7.1f} nm")
    print(f"  plateau      {profile.top_width * 1e9:7.1f} nm  "
          f"(fraction p1 = {profile.p1:.4f})")
    print(f"  floor        {profile.floor_width * 1e9:7.1f} nm  "
          f"(fraction p2 = {profile.p2:.4f})")
    print(f"  depth        {profile.depth * 1e9:7.1f} nm")
    print(f"  wall angle   {profile.sidewall_angle_deg:7.1f} deg  "
          f"(each ramp p3 = {profile.p3:.4f})")

    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    law = flat_pressure_law(gold, si, 100e-9, 300e-9 + profile.depth)

    print("\n= additive force and the top+floor share =")
    radius = 50e-6
    z_grid = np.array([100e-9, 150e-9, 200e-9, 300e-9])
    pressures = pfa_corrugated(law, profile, z_grid)
    shares = pfa_share_topbottom(law, profile, z_grid)
    for z, p, share in zip(z_grid, pressures, shares):
        grad = 2.0 * np.pi * radius * abs(p)
        print(f"  z = {z * 1e9:5.0f} nm   P = {p:+.4e} Pa   "
              f"F' = {grad:.4e} N/m   top+floor {share:.2%}")

    print("\n= the ramps are small but not nothing =")
    no_walls = GratingProfile(profile.period,
                              profile.period - profile.floor_width,
                              profile.floor_width, profile.depth, 90.0)
    z_grid = np.array([100e-9, 300e-9])
    for z, full, widened in zip(z_grid, pfa_corrugated(law, profile, z_grid),
                                pfa_corrugated(law, no_walls, z_grid)):
        print(f"  z = {z * 1e9:5.0f} nm   with ramps {full:+.5e} Pa   "
              f"ramps absorbed into plateau {widened:+.5e} Pa   "
              f"shift {widened / full - 1:+.3%}")
    print("  (folding each ramp into the plateau over-counts the close "
          "surface; the split keeps the error budget honest)")


if __name__ == "__main__":
    main()
