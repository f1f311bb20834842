"""The output-hash harness ``bench/outputs.py``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GATED = ("sched_q2.3", "sched_q3.6", "nocore_zeta3_3", "cored_zeta2_4")
PARTS = ("sweep", "meta", "rows", "exponent", "solve", "witness")
REFUSED = ("far_source", "sched_q2.3_gamma1e200", "detuned_nocore")  # each sweep refuses: its error is hashed
EXTRA = ("np-spectrum:64", "np-spectrum:20:lambda2:mu0.5", "waves-check:3:R1.3", "constants:5", "kernels:4",
         "np-spectrum:refused")


def test_outputs_of_this_tree_against_itself_agree_on_every_command():
    # one seed, this tree against itself: every gated configuration's six
    # outputs, the four of each configuration whose sweep refuses and the six
    # other commands are hashed, in order, and none differs
    r = subprocess.run([sys.executable, str(ROOT / "bench" / "outputs.py"), "--seeds", "1", "--against", str(ROOT)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    *hashed, total, summary = r.stdout.splitlines()
    assert [line.split()[0] for line in hashed] == ([f"{ref}@1:{part}" for ref in GATED for part in PARTS]
                                                    + [f"{ref}:{part}" for ref in REFUSED
                                                       for part in ("sweep", "refused", "solve", "witness")]
                                                    + list(EXTRA))
    assert all(len(line.split()) == 2 for line in hashed)
    assert total.startswith("total ") and total.endswith("(42 outputs)")
    assert summary == f"0 of 42 outputs differ from {ROOT}"
