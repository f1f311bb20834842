"""Cross-validate the plasmon constants through the boundary operator.

The single layer of a density in one total-angular-momentum sector is the
sector's radial-profile field that is continuous across the sphere and
whose traction jumps by the density, so the conormal traces on both sides
are scalars in closed form.  Their average is the Neumann-Poincare
operator; a shell multiplier c admits a nontrivial transmission field
exactly when (c+1)/(2(c-1)) sits in its spectrum.
"""

import numpy as np

from elastoplasmon import (
    LameParams,
    np_eigenvalue_map,
    np_galerkin_spectrum,
    plasmon_constants,
)

params = LameParams(1.0, 1.0)
n_max = 5
spec = np_galerkin_spectrum(params, n_max)
eigs = np.array([e for e, _ in spec])

print(f"Galerkin spectrum on vector harmonics up to degree {n_max}: {len(eigs)} eigenvalues")
print(f"range: [{eigs.min():+.4f}, {eigs.max():+.4f}]  (inside +-1/2; the top value 1/2 belongs to")
print("the three degree-1 densities whose single layer is a rigid rotation inside)\n")

print(" n  family   c          mapped target   closest eigenvalue   gap")
for n in (2, 3):
    for fam, c in enumerate(plasmon_constants(params, n).as_tuple(), start=1):
        target = np_eigenvalue_map(c)
        hit = eigs[np.argmin(np.abs(eigs - target))]
        print(f" {n}   {fam}     {c:+.5f}   {target:+.6f}      {hit:+.6f}        {abs(hit - target):.1e}")
