"""Smoke run of the benchmark harness, so it cannot rot unnoticed.

Each workload runs once on tiny inputs with every output check on and
tracing on.  Only correctness and work counters are asserted, never
times.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deep-trace", "shallow-fan", "verify-all")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_counts_work(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    metrics = summary["metrics"]
    assert metrics["propagation.samples"]["value"] > 0
    assert metrics["environment.index_at.calls"]["value"] > 0
    if workload in ("deep-trace", "verify-all"):
        # steps above the bottom's depth floor make no bottom query
        assert (metrics["environment.depth_at.calls"]["value"]
                < metrics["propagation.samples"]["value"])
    if workload == "verify-all":
        # one preset: the central ray, 4 perturbed traces at the default
        # offsets (one Richardson level) and 12 for the study
        assert metrics["oracle.traces"]["value"] == 17
