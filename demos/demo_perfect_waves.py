"""Build the perfect plasmon waves and verify every defining property.

Each kernel matrix generates a piecewise field: regular growth inside the
shell radius, decay outside, continuous across the interface, and with the
c-weighted traction matching exactly.  Families 2 and 3 carry slaved
corrections two degrees away.
"""

from elastoplasmon import (
    LameParams,
    kernel_basis,
    perfect_wave,
    plasmon_constants,
    verify_perfect_wave,
)

params = LameParams(-0.5, 1.0)  # strongly convex with negative lambda
R = 1.3

print("family  k   continuity   transmission   lame(int/ext)")
for n in (2, 3):
    zetas = plasmon_constants(params, n)
    for fam, c in enumerate(zetas.as_tuple(), start=1):
        kers = kernel_basis(params, n, fam, None)
        for k, K in enumerate(kers, start=1):
            wave = perfect_wave(K, fam, n, R, params, None)
            rep = verify_perfect_wave(wave, params, None)
            print(
                f"n={n} f{fam}  {k:2d}   {rep['continuity']:.2e}     {rep['transmission']:.2e}"
                f"      {rep['lame_interior']:.1e}/{rep['lame_exterior']:.1e}"
            )
        print(f"        ({len(kers)} independent waves at c = {c:.4f})")
