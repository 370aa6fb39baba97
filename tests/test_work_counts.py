"""Work pinned by exact call counts on the README commands and on verify.

A change that should do the same work in less time (a leaner step loop,
cheaper index evaluations) must leave every count here unchanged; a change
that does less work moves a count on purpose, and its pin moves with it.
The counts do not depend on the machine or its clock.
"""

import contextlib
import io
from collections import Counter

import pytest

from test_output_digests import DATA, README_CFG, README_SCAN_CFG
from varitrace import Bathymetry, SoundSpeedField, cli, oracle, propagation
from varitrace.cli import main

# Module functions counted where their callers look them up.
FUNCTIONS = (
    (propagation, "_rk4_step"),
    (propagation, "_find_crossing"),
    (propagation, "_land"),
    (propagation, "kappa_matrix"),
    (cli, "kappa_matrix"),
    (cli, "identity_checks"),
    (oracle, "trace_from_pulse"),
)
METHODS = ((SoundSpeedField, "index_at"), (Bathymetry, "depth_at"), (Bathymetry, "bottom_at"))

# A command's config is its text, or the path of a shipped file beside its data.
COMMANDS = {
    "trace": (README_CFG, ["trace"]),
    "fan": (README_CFG, ["fan"]),  # the README's 5 angles, -14 to 14 degrees
    # 11 rays, -25 to 25 degrees, through a 1D gridded profile over a spline bottom
    "fan-gridded": (DATA / "shallow_fan" / "fan.cfg", ["fan"]),
    "kappa-scan": (README_SCAN_CFG, ["kappa-scan"]),
    "verify": ("[verify]\npreset = all\n", ["verify", "--seed", "1"]),
}

# The README trace has 1,503 samples and 3 bounces; each bounce lands with
# one _land call.  "q_advance" counts the _rk4_step calls that carry q:
# every call of a full trace, the landing search's trial steps included,
# and none of a ray-only trace.  verify makes 68 oracle traces (4 presets
# x 1 central and 16 ray-only perturbed rays) and 2,000 structure-sweep kappa_matrix
# calls beside the 68 bounces' own; identity_checks is one call per block
# of draws.  "rows" sums the rows the oracle traces keep: every row of the
# 4 central traces and the launch and final rows of each ray-only one.
# _find_crossing runs only for the steps the trace loop's screen does not
# clear: every step over a bottom with no depth floor (verify's two arc
# presets), else only steps near the surface or the floor.
EXPECTED = {
    "trace": {"_rk4_step": 1505, "q_advance": 1505, "_find_crossing": 77, "_land": 3,
              "kappa_matrix": 3, "index_at": 6019, "depth_at": 171, "bottom_at": 3},
    "fan": {"_rk4_step": 7533, "q_advance": 7533, "_find_crossing": 225, "_land": 16,
            "kappa_matrix": 16, "index_at": 30117, "depth_at": 497, "bottom_at": 10},
    "fan-gridded": {"_rk4_step": 5712, "q_advance": 5712, "_find_crossing": 371,
                    "_land": 90, "kappa_matrix": 90, "index_at": 22704, "depth_at": 910,
                    "bottom_at": 46},
    "kappa-scan": {"kappa_matrix": 1086},
    "verify": {"_rk4_step": 52156, "q_advance": 3068, "_find_crossing": 11006,
               "_land": 68, "kappa_matrix": 2068, "index_at": 208628, "depth_at": 22418,
               "bottom_at": 68, "trace_from_pulse": 68, "rows": 3196, "identity_checks": 13},
}


@pytest.fixture
def calls(monkeypatch):
    """Counter of the calls made to each name in FUNCTIONS and METHODS, of
    the ``_rk4_step`` calls that advance q ("q_advance") and of the rows the
    oracle's traces keep ("rows")."""
    counts = Counter()

    def counting(original, name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    step = propagation._rk4_step

    def counted_step(index_at, r, z, p, sample, h, q):
        if q is not None:
            counts["q_advance"] += 1
        return step(index_at, r, z, p, sample, h, q)

    monkeypatch.setattr(propagation, "_rk4_step", counted_step)

    trace = oracle.trace_from_pulse

    def counted_trace(*args, **kwargs):
        result = trace(*args, **kwargs)
        counts["rows"] += len(result.packed_n)
        return result

    monkeypatch.setattr(oracle, "trace_from_pulse", counted_trace)

    for module, name in FUNCTIONS:
        monkeypatch.setattr(module, name, counting(getattr(module, name), name))
    for base, name in METHODS:
        for cls in (base, *base.__subclasses__()):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counting(vars(cls)[name], name))
    return counts


@pytest.mark.parametrize("command", COMMANDS)
def test_call_counts(tmp_path, calls, command):
    cfg, argv = COMMANDS[command]
    if isinstance(cfg, str):
        (tmp_path / "run.cfg").write_text(cfg)
        cfg = tmp_path / "run.cfg"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert dict(calls) == EXPECTED[command]
