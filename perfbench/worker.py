"""One fresh benchmark process: set up, run a workload's commands, check them.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--mode setup`` only sets up (import plus one warm-up command) and
reports the set-up time.  ``--mode run`` then runs the closed loop with
tracing off: whole passes over the workload's operations, as many as fit
in ``--seconds``.  Set-up and command times are scaled to a fixed machine
speed with the reference kernel of ``reference.py``.  ``--mode traced``
instead makes one untraced and one traced pass over the workload's
operations, so every counter depends on the seed alone.

Every command is ``varitrace.cli.main`` called in-process on the
generated inputs, writing its output to a file, which is then read back
and checked.  Check time is kept out of the command latencies and out of
the loop wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check
from inputs import Op, generate
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Reference kernel samples, about 0.3 s of them, that gauge the machine's
# speed for set-up.
SETUP_REFERENCE_SAMPLES = 250


class Runner:
    """Runs commands in this process, checks them and keeps the tallies."""

    def __init__(self, cli, directory: Path):
        self.cli = cli
        self.dir = directory
        self.out = directory / "out.txt"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.reference = None   # a reference.Reference while its timer runs

    def run(self, op: Op) -> tuple[float, bytes]:
        """Run one command; return its wall time (s) and its output bytes.

        Time the reference timer spent in its kernel during the command is
        left out of the wall time.
        """
        argv = [op.command, "--config", str(self.dir / op.config), "--output", str(self.out)]
        if op.seed is not None:
            argv += ["--seed", str(op.seed)]
        stderr = io.StringIO()
        paused = self.reference.paused_s if self.reference else 0.0
        start = time.perf_counter()
        with contextlib.redirect_stderr(stderr):
            code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        if self.reference:
            elapsed -= self.reference.paused_s - paused
        data = self.out.read_bytes()
        self.check(op, code, data)
        return elapsed, data

    def check(self, op: Op, code: int, data: bytes) -> None:
        """Check one result; a repeated command must give identical bytes."""
        self.attempted += 1
        problems = check(op, code, data.decode())
        key = (op.command, op.config, op.seed)
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            problems.append("output differs from an earlier run of the same command")
        if problems:
            self.failed += 1
            self.problems.append(f"{op.command} {op.config}: {'; '.join(problems)}")

    def output_hash(self) -> str:
        """Hash over every distinct command's output, for cross-run comparison."""
        h = hashlib.sha256()
        for key in sorted(self.digests, key=repr):
            h.update(f"{key!r}={self.digests[key]}\n".encode())
        return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    # Set-up: importing the program plus one warm-up command, which the
    # latency metrics leave out.  Writing the inputs is not timed.
    workload = generate(args.workload, args.seed, args.inputs, smoke=args.smoke)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import varitrace.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"varitrace imported from {cli.__file__}, not from {ROOT / 'src'}")
    runner = Runner(cli, args.inputs)
    warm_s, warm_output = runner.run(workload.warmup)
    # The reference kernel needs numpy and scipy, which the timed import
    # loads, so it is imported and the speed for set-up gauged only now.
    from reference import Reference
    speed = Reference()
    for _ in range(SETUP_REFERENCE_SAMPLES):
        speed.sample()
    result = {"setup_s": (import_s + warm_s) * speed.factor(0),
              "raw_setup_s": import_s + warm_s,
              "warmup_sha256": hashlib.sha256(warm_output).hexdigest()}

    if args.mode == "run":
        # Whole passes over the ops, as many as fit in --seconds (at least
        # one).  Each command's times are scaled by the reference kernel's
        # speed over the span from the sample before it to the sample after.
        ops = workload.ops
        latencies, verified, raw = [], [], []
        with Reference() as ref:
            runner.reference = ref
            ref.sample()
            loop_start = previous = time.perf_counter()
            pass_s = 0.0
            while previous == loop_start or previous - loop_start + pass_s <= args.seconds:
                for op in ops:
                    first, paused = len(ref.samples) - 1, ref.paused_s
                    start = time.perf_counter()
                    elapsed, _ = runner.run(op)
                    # Wall time to a checked result, without the timer's kernel.
                    checked = time.perf_counter() - start - (ref.paused_s - paused)
                    ref.sample()
                    factor = ref.factor(first)
                    latencies.append(elapsed * factor)
                    verified.append(checked * factor)
                    raw.append(elapsed)
                now = time.perf_counter()
                pass_s, previous = now - previous, now
            runner.reference = None
        result.update(latencies_s=latencies, verified_s=verified, raw_latencies_s=raw,
                      commands=len(ops), rays=sum(op.rays for op in ops),
                      reference_s=statistics.median(ref.samples))
    elif args.mode == "traced":
        untraced = [runner.run(op)[0] for op in workload.ops]
        tracer = Tracer()
        tracer.install()
        traced, bytes_written = [], 0
        try:
            for op_id, op in enumerate(workload.ops):
                tracer.op_id = op_id
                elapsed, data = runner.run(op)
                traced.append(elapsed)
                bytes_written += len(data)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        layers["cli.bytes_written"] = bytes_written
        layers["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        result.update(untraced_latencies_s=untraced, layers=layers)
        if args.spans is not None:
            tracer.write_spans(args.spans)

    if args.mode != "setup":
        # The repeated command: the warm-up again, byte-identical or failed.
        runner.run(workload.warmup)
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems,
                  output_sha256=runner.output_hash(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
