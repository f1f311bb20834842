"""Where does the core-free sphere admit nontrivial transmission fields?

Sweep the shell multiplier c over the negative axis and watch the loss-free
transmission system of the degree-n sectors, one per family: the largest
condition number peaks at the plasmon constants (inf where the system is
exactly singular; the bar stops at 16 decades, 1 / eps).  The family-3 sector
(total angular momentum n + 1) also holds the degree-(n + 2) shape, so its
system peaks at zeta2(n + 2) too (-130/59 for n = 2).  The kernels at the
three constants have dimensions 2n+1, 2n-1, 2n+3 and split by the two
divergence conditions t1 and t3.
"""

import numpy as np

from elastoplasmon import LameParams, LayeredMedium, kernel_basis, plasmon_constants
from elastoplasmon.transmission import sector_conditions
from elastoplasmon.waves import kernel_family

params = LameParams(1.0, 1.0)
n, R, q = 2, 1.0, 2.0


def conditions(c: float) -> dict[int, float]:
    """Condition number of each family's loss-free degree-n system, source sphere at q."""
    return sector_conditions(LayeredMedium(shell_radius=R, c=c, delta=0.0, base=params), n, q)


zetas = plasmon_constants(params, n)
print(f"degree n = {n}, (lambda, mu) = (1, 1)")
print(f"closed forms: zeta1 = {zetas.zeta1}, zeta2 = {zetas.zeta2}, zeta3 = {zetas.zeta3}\n")

print(" c        largest condition number (family)")
for c in np.linspace(-6.0, -0.2, 30):
    conds = conditions(float(c))
    fam = max(conds, key=conds.get)
    print(f"{c:+.3f}   {conds[fam]:9.3e} ({fam})  {'#' * int(min(np.log10(conds[fam]), 16))}")

print("\nkernels at the three constants:")
for fam, c in enumerate(zetas.as_tuple(), start=1):
    kers = kernel_basis(params, n, fam)
    fams = {kernel_family(K) for K in kers}
    print(f"  family {fam}: c = {c:.6f}, condition {conditions(c)[fam]:.1e}, dimension {len(kers)}, "
          f"t-pattern class {fams}")
