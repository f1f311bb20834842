"""Property test of the configuration contract.

Any JSON-shaped mutation of a valid configuration is either accepted by
``validate_config`` or rejected with ``ValueError``; a rejected one, run
through the command line, ends with exit 2 and one JSON line on stderr.
Only rejected configurations reach ``cli.main``, and rejection happens
before any table, kernel or solve is built.
"""

import contextlib
import copy
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from elastoplasmon import cli

VALID = (
    {
        "schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0, "shell_radius": 2.0, "q": 3.0,
        "c_mode": {"fixed": -4.0}, "source_modes": [[2, 1, 1, 1.0, 0.0]],
        "delta_list": [1e-2, 1e-3, 1e-4, 1e-5], "n_max": 12, "quadrature_exactness": 20,
    },
    {
        "schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0, "shell_radius": 2.0, "q": 2.3,
        "c_mode": {"schedule": 1}, "source_modes": [[None, 1, 3, 0.6, 0.8]],
        "delta_list": [1e-2, 1e-4, 1e-6], "n_max": 12,
    },
    {
        "schema": 1, "lambda": 1.0, "mu": 1.0, "shell_radius": 2.0, "q": 2.6, "n_max": 12,
        "c_mode": {"fixed": -25.0 / 38.0}, "source_modes": [[3, 3, 1, 1.0, 0.0]],
        "delta_list": [1e-2, 1e-3, 1e-4, 1e-5],
    },
)

# JSON documents: what json.load can hand to validate_config
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, value):
    """``value`` with one JSON-shaped change somewhere inside it."""
    if isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        action = draw(st.sampled_from(("delete", "descend", "replace")))
        out = dict(value)
        if action == "delete":
            del out[key]
        elif action == "descend":
            out[key] = draw(mutated(value[key]))
        else:
            out[key] = draw(json_values)
        return out
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        action = draw(st.sampled_from(("delete", "descend", "append")))
        out = list(value)
        if action == "delete":
            del out[i]
        elif action == "descend":
            out[i] = draw(mutated(value[i]))
        else:
            out.append(draw(json_values))
        return out
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < 1e300 and draw(st.booleans()):
        # numeric edges: scaled, negated, zero, huge or non-finite
        return draw(st.sampled_from((0, -value, 2 * value, value / 1e300, 10 ** 400, math.inf, math.nan, 5e-324)))
    return draw(json_values)


@st.composite
def configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        cfg = draw(mutated(cfg))
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(cfg=configs())
@example(cfg=dict(VALID[0], core_radius=10 ** 400))  # beyond the float range
@example(cfg=dict(VALID[1], delta_list=[3e-323, 2e-323, 1e-323]))  # 1/delta overflows
def test_mutated_configs_are_accepted_or_rejected_cleanly(cfg, tmp_path):
    try:
        cli.validate_config(copy.deepcopy(cfg))
        return
    except ValueError:
        pass
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--config", str(path), "--csv", str(tmp_path / "x.csv")])
    lines = err.getvalue().splitlines()
    assert code == 2, (cfg, err.getvalue())
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 2
    assert "Traceback" not in err.getvalue() + out.getvalue()
