"""Work pinned by exact call counts on the README commands and on verify.

A change that should do the same work in less time (a leaner step loop,
cheaper index evaluations) must leave every count here unchanged; a change
that does less work moves a count on purpose, and its pin moves with it.
The counts do not depend on the machine or its clock.
"""

import contextlib
import io
import mmap
import os

import pytest

from test_output_digests import DATA, README_CFG, README_SCAN_CFG
from varitrace import Bathymetry, SoundSpeedField, cli, oracle, propagation
from varitrace.cli import main

# Module functions counted where their callers look them up.
FUNCTIONS = (
    (propagation, "_rk4_step"),
    (propagation, "_seed"),
    (propagation, "_land"),
    (propagation, "kappa_matrix"),
    (cli, "kappa_matrix"),
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
# x 1 central and 16 ray-only perturbed rays), and its bounce-map sweep
# calls kappa_matrix once per draw, 3,693 draws for 2,000 accepted hits,
# beside the 68 bounces' own.  "rows" sums the rows the oracle traces
# keep: every row of the 4 central traces and the launch and final rows
# of each ray-only one.
# The trace loop brackets each boundary its screen does not clear (every
# step over a bottom with no depth floor, as verify's two arc presets, else
# only steps near the surface or the floor) and seeds a landing (_seed, then
# _land) only for a bracket, so each runs once per bracket: once per bounce
# while no bracket is dropped and no step brackets both boundaries.
EXPECTED = {
    "trace": {"_rk4_step": 1505, "q_advance": 1505, "_seed": 3, "_land": 3,
              "kappa_matrix": 3, "index_at": 6019, "depth_at": 171, "bottom_at": 3},
    "fan": {"_rk4_step": 7533, "q_advance": 7533, "_seed": 16, "_land": 16,
            "kappa_matrix": 16, "index_at": 30117, "depth_at": 497, "bottom_at": 10},
    "fan-gridded": {"_rk4_step": 5712, "q_advance": 5712, "_seed": 90,
                    "_land": 90, "kappa_matrix": 90, "index_at": 22704, "depth_at": 910,
                    "bottom_at": 46},
    "kappa-scan": {"kappa_matrix": 1086},
    "verify": {"_rk4_step": 52156, "q_advance": 3068, "_seed": 68,
               "_land": 68, "kappa_matrix": 3761, "index_at": 208628, "depth_at": 22418,
               "bottom_at": 68, "trace_from_pulse": 68, "rows": 3196},
}


# Every name the fixture counts, in the order of its table's columns.
COUNTED = (*(name for _, name in FUNCTIONS), *(name for _, name in METHODS), "q_advance", "rows")
# Rows of the table: this process and the forked children of a fan or of verify.
PROCESSES = 64


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls made to each name in FUNCTIONS and METHODS, of
    the ``_rk4_step`` calls that advance q ("q_advance") and of the rows the
    oracle's traces keep ("rows"), as a function returning the non-zero ones.

    The counts live in an anonymous shared mmap, one row per process, so
    calls a fan or the oracle makes in its forked children count too: ``os.fork`` is
    wrapped to give each child the next free row, taken before it forks."""
    table = mmap.mmap(-1, 8 * PROCESSES * len(COUNTED))
    cells = memoryview(table).cast("q")
    column = {name: i for i, name in enumerate(COUNTED)}
    row = [0]  # this process's row; a child's is set in the child
    rows = [1]  # rows taken
    fork = os.fork

    def counted_fork():
        assert rows[0] < PROCESSES, "more forked children than table rows"
        rows[0] += 1
        pid = fork()
        if pid == 0:
            row[0] = rows[0] - 1
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def count(name, n=1):
        cells[row[0] * len(COUNTED) + column[name]] += n

    def counting(original, name):
        def counted(*args, **kwargs):
            count(name)
            return original(*args, **kwargs)
        return counted

    step = propagation._rk4_step

    def counted_step(index_at, r, z, p, sample, h, q):
        if q is not None:
            count("q_advance")
        return step(index_at, r, z, p, sample, h, q)

    monkeypatch.setattr(propagation, "_rk4_step", counted_step)

    trace = oracle.trace_from_pulse

    def counted_trace(*args, **kwargs):
        result = trace(*args, **kwargs)
        count("rows", len(result.packed_n))
        return result

    monkeypatch.setattr(oracle, "trace_from_pulse", counted_trace)

    for module, name in FUNCTIONS:
        monkeypatch.setattr(module, name, counting(getattr(module, name), name))
    for base, name in METHODS:
        for cls in (base, *base.__subclasses__()):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counting(vars(cls)[name], name))

    def totals():
        sums = {name: sum(cells[r * len(COUNTED) + i] for r in range(rows[0]))
                for name, i in column.items()}
        return {name: total for name, total in sums.items() if total}

    yield totals
    cells.release()
    table.close()


@pytest.mark.parametrize("command", COMMANDS)
def test_call_counts(tmp_path, calls, command):
    cfg, argv = COMMANDS[command]
    if isinstance(cfg, str):
        (tmp_path / "run.cfg").write_text(cfg)
        cfg = tmp_path / "run.cfg"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
    counts = calls()
    assert counts == EXPECTED[command]
    assert counts.get("_seed") == counts.get("_land"), "a seeded bracket with no landing search"
