"""varitrace benchmark: seeded CLI workloads, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload deep-trace --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate traced run.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.  A fuller record (git SHA, versions, CPU count, sample
counts and quartiles of every metric) goes to
``.perfbench_work/records/``, the traced run's spans to
``.perfbench_work/spans/``.

Extra modes: ``--smoke`` uses tiny inputs with every check on, and
``--self-check`` makes two traced runs with one seed and fails unless
their counters and output hashes are identical.

Each measurement runs in a fresh single-threaded process (``worker.py``);
see ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170.0   # a run must end within 180 s
# Set-up-only processes per run; with the measured process itself they give
# five set-up samples, whose median is setup_s.
SETUP_PROCESSES = 4
# Counters that must repeat exactly across runs with one seed.
EXACT_SUFFIXES = (".calls", ".samples", ".bounces", ".rhs_per_sample", ".traces",
                  ".bytes_written")


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _end_to_end(setups: list[dict], run: dict) -> tuple[dict, dict]:
    """End-to-end metric values and, for each, the quartiles it came from.

    Times come from the worker already scaled to the reference machine
    speed (reference.py).  Latencies are medians over the run's samples;
    rates divide a pass's commands or rays by the sum of each command's
    median time.  The rates' quartiles are those of the passes.
    """
    setup = [s["setup_s"] for s in setups] + [run["setup_s"]]
    lat_ms = [1000.0 * x for x in run["latencies_s"]]
    # The loop made whole passes, so sample k is of command k % commands.
    commands, rays = run["commands"], run["rays"]
    per_command_s = [statistics.median(run["latencies_s"][i::commands])
                     for i in range(commands)]
    pass_s = [sum(run["latencies_s"][k:k + commands])
              for k in range(0, len(lat_ms), commands)]
    verified = run["verified_s"]
    values = {
        "setup_s": statistics.median(setup),
        "trace_ms_p50": statistics.median(lat_ms),
        "traces_per_s": commands / sum(per_command_s),
        "rays_per_s": rays / sum(per_command_s),
        "verify_s": statistics.median(verified),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    spread = {"setup_s": _quartiles(setup), "trace_ms_p50": _quartiles(lat_ms),
              "traces_per_s": _quartiles([commands / x for x in pass_s]),
              "rays_per_s": _quartiles([rays / x for x in pass_s]),
              "verify_s": _quartiles(verified)}
    return values, spread


def _unscaled(setups: list[dict], run: dict) -> dict:
    """Median set-up and command wall times as measured, before scaling."""
    return {"setup_s": statistics.median([s["raw_setup_s"] for s in setups]
                                         + [run["raw_setup_s"]]),
            "trace_ms_p50": 1000.0 * statistics.median(run["raw_latencies_s"]),
            "reference_kernel_s": run["reference_s"]}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_sha": _git_sha(), "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _self_check(base: list[str], deadline: float) -> int:
    a, b = (_worker(base + ["--mode", "traced"], deadline) for _ in range(2))
    diffs = [] if a["output_sha256"] == b["output_sha256"] else ["output hashes differ"]
    diffs += [f"{name}: {value} vs {b['layers'][name]}" for name, value in a["layers"].items()
              if name.endswith(EXACT_SUFFIXES) and b["layers"][name] != value]
    failed = a["failed"] + b["failed"]
    for line in diffs + a["problems"] + b["problems"]:
        print(line)
    print(json.dumps({"steady": not diffs, "attempted": a["attempted"] + b["attempted"],
                      "failed": failed}))
    return 0 if not diffs and not failed else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="varitrace benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, every check on")
    ap.add_argument("--self-check", action="store_true",
                    help="two traced runs with one seed must agree exactly")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "varitrace" / "cli.py").is_file():
        print(f"no varitrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    base = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(inputs),
            "--seconds", repr(args.seconds)] + (["--smoke"] if args.smoke else [])
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    try:
        if args.self_check:
            return _self_check(base, deadline)
        units = _declared(bool(args.trace))
        if args.trace:
            (WORK / "spans").mkdir(exist_ok=True)
            spans = WORK / "spans" / f"{tag}.jsonl"
            run = _worker(base + ["--mode", "traced", "--spans", str(spans)], deadline)
            # The p90 latency did not repeat within a tenth between runs
            # with tracing off, so it is reported here, from the untraced pass.
            untraced_ms = [1000.0 * x for x in run["untraced_latencies_s"]]
            setups, values = [], {**run["layers"], "trace_ms_p90": _p90(untraced_ms)}
            spread = {"trace_ms_p90": _quartiles(untraced_ms)}
        else:
            setups = [_worker(base + ["--mode", "setup"], deadline)
                      for _ in range(SETUP_PROCESSES)]
            run = _worker(base + ["--mode", "run"], deadline)
            values, spread = _end_to_end(setups, run)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if set(values) != set(units):
        print(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    attempted, failed, problems = run["attempted"], run["failed"], list(run["problems"])
    for setup in setups:
        differs = setup["warmup_sha256"] != run["warmup_sha256"]
        attempted += setup["attempted"]
        failed += max(setup["failed"], differs)
        problems += setup["problems"] + (["warm-up output differs between processes"]
                                         if differs else [])
    timed = run.get("latencies_s") or run["untraced_latencies_s"]
    samples = {"setup": len(setups) + (0 if args.trace else 1), "commands": len(timed),
               "passes": len(timed) // run.get("commands", len(timed))}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, **_environment(),
              "samples": samples, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "problems": problems,
              "output_sha256": run["output_sha256"], "metrics": values, "quartiles": spread,
              "unscaled": None if args.trace else _unscaled(setups, run)}
    (WORK / "records").mkdir(exist_ok=True)
    record_path = WORK / "records" / f"{tag}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {samples['commands']} commands "
          f"in {samples['passes']} passes, "
          f"{samples['setup']} set-up samples, {attempted} operations checked, "
          f"{failed} failed (failed_frac {failed / attempted:g})")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    for name, value in values.items():
        q = spread.get(name)
        extra = f"   (quartiles {q[0]:.6g} {q[1]:.6g} {q[2]:.6g})" if q else ""
        print(f"  {name:36s} {value:>14.6g} {units[name]}{extra}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
