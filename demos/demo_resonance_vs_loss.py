"""Resonance and non-resonance as the loss vanishes: two fixed devices.

Device A keeps a unit core inside the negative shell: dissipation and its
primal upper bound both fall linearly with the loss, no blowup.  Device B
removes the core and tunes the multiplier to the degree-2 constant: the
dissipation and its dual lower bound both grow like 1/loss.
"""

import numpy as np

from elastoplasmon import (
    LameParams,
    SourceSpec,
    fixed_configuration,
    plasmon_constants,
    sweep,
)

params = LameParams(1.0, 1.0)
deltas = [10.0 ** (-e) for e in np.arange(2.0, 5.01, 0.5)]
src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})

print("Device A: core radius 1, shell radius 2, c = -4, source at q = 3")
res = sweep(fixed_configuration(params, 2.0, -4.0, src, core_radius=1.0), deltas)
print("  delta        E            I_upper")
for row in res.rows:
    print(f"  {row.delta:.2e}   {row.E_delta:.4e}   {row.I_upper:.4e}")
print(f"  verdict: {res.verdict}, growth exponent {res.growth_exponent:+.3f}\n")

z1 = plasmon_constants(params, 2).zeta1
print(f"Device B: no core, shell radius 2, c = zeta1(2) = {z1}, same source")
res = sweep(fixed_configuration(params, 2.0, z1, src), deltas)
print("  delta        E            J_lower")
for row in res.rows:
    print(f"  {row.delta:.2e}   {row.E_delta:.4e}   {row.J_lower:.4e}")
print(f"  verdict: {res.verdict}, growth exponent {res.growth_exponent:+.3f}")
