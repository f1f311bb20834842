"""The critical source radius of the cored scheduled device.

With a unit core, shell radius R = 2, and the multiplier following the loss
schedule c = zeta1(n_delta), a single-mode source re-injected at the
scheduled degree drives the dissipation like (R^3/q^2)^{n_delta} / n_delta:
unbounded growth for q below R^{3/2} = 2.828, decay above it.
"""

import numpy as np

from elastoplasmon import LameParams, scheduled_configuration, sweep

params = LameParams(1.0, 1.0)
R = 2.0
deltas = [10.0 ** (-e) for e in np.arange(2.0, 8.01, 0.5)]

print(f"critical radius R^(3/2) = {R**1.5:.4f}\n")
for q in (2.3, 2.5, 3.2, 3.6):
    conf = scheduled_configuration(params, R, q=q, core_radius=1.0)
    res = sweep(conf, deltas, with_witnesses=False)
    side = "inside " if q < R**1.5 else "outside"
    first, last = res.rows[0].E_delta, res.rows[-1].E_delta
    print(
        f"q = {q} ({side} the critical radius): E goes {first:.3e} -> {last:.3e}, "
        f"fitted growth exponent {res.growth_exponent:+.3f}, verdict {res.verdict}"
    )
print(
    "\nnote: at q = 2.5 the dissipation still grows without bound, but at the"
    "\nrate delta^-(3 - 2 ln q / ln R) = delta^-0.36, below the 0.5 slope gate"
    "\nused by the verdict convention."
)
