"""Output checks: every operation's result is checked independently of the program.

A check returns a list of problems; an empty list means the operation
passed.  The parsers read the documented output formats (README "Command-
line interface"): ``#`` metadata lines they do not know are skipped, and
columns are found by header name, so added metadata or columns do not
break them.
"""

from __future__ import annotations

import re

from inputs import ORACLE_TRACES_PER_PRESET, Op

DET_Q_TOL = 1e-6      # README guidance for |det q - 1|
R_END_TOL = 1e-9      # final range, as the oracle's own endpoint check
VERIFY_TOL = 1e-3     # tolerance written into the verify config
ORDER_TARGET, ORDER_TOL = 2.0, 0.3

_RAY_LINE = re.compile(r"# ray (\d+): theta0_deg=\S+ status=(\S+)")
_ERR_LINE = re.compile(r"\[(\S+)\] default-h max rel err (\S+) \(tol \S+\) (PASS|FAIL)")
_ORDER_LINE = re.compile(r"\[(\S+)\] convergence order (\S+) \(target")


class _Ray:
    __slots__ = ("status", "last_r", "det_dev")

    def __init__(self, status: str | None):
        self.status = status
        self.last_r = None
        self.det_dev = 0.0


def _parse_csv(text: str) -> tuple[dict[int, _Ray], list[str]]:
    """Rays keyed by ray id (0 for ``trace``) with their status, last r and det q."""
    rays: dict[int, _Ray] = {}
    problems: list[str] = []
    col_r = col_det = col_id = None
    trace_status = None
    for line in text.splitlines():
        if line.startswith("#"):
            if line.startswith("# status: "):
                trace_status = line[len("# status: "):]
            else:
                m = _RAY_LINE.match(line)
                if m:
                    rays[int(m.group(1))] = _Ray(m.group(2))
            continue
        if col_r is None:
            header = line.split(",")
            if "r" not in header or "det_q" not in header:
                return rays, [f"no CSV header before data: {line[:60]!r}"]
            col_r, col_det = header.index("r"), header.index("det_q")
            col_id = header.index("ray_id") if "ray_id" in header else None
            if col_id is None:
                rays[0] = _Ray(trace_status)
            continue
        fields = line.split(",")
        ray = rays.get(0 if col_id is None else int(fields[col_id]))
        if ray is None:
            problems.append(f"row for a ray without a '# ray' line: {line[:60]!r}")
            continue
        ray.last_r = float(fields[col_r])
        ray.det_dev = max(ray.det_dev, abs(float(fields[col_det]) - 1.0))
    return rays, problems


def check_rays(op: Op, text: str) -> list[str]:
    """Problems in a trace/fan CSV."""
    try:
        rays, problems = _parse_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"malformed CSV: {exc}"]
    if len(rays) != op.rays:
        problems.append(f"{len(rays)} rays in the output, expected {op.rays}")
    for ray_id, ray in sorted(rays.items()):
        if ray.status != "completed":
            problems.append(f"ray {ray_id}: status {ray.status}")
        if ray.last_r is None or abs(ray.last_r - op.r_end) > R_END_TOL:
            problems.append(f"ray {ray_id}: final r = {ray.last_r}, expected {op.r_end!r}")
        if ray.det_dev > DET_Q_TOL:
            problems.append(f"ray {ray_id}: max |det q - 1| = {ray.det_dev:.3e}")
    return problems


def check_verify(op: Op, text: str) -> list[str]:
    """Problems in a ``verify`` report, rechecked line by line."""
    problems = []
    lines = text.splitlines()
    if not lines or lines[-1] != "OVERALL PASS":
        problems.append(f"last line {lines[-1] if lines else ''!r}, expected 'OVERALL PASS'")
    errs = {m.group(1): float(m.group(2)) for m in map(_ERR_LINE.match, lines) if m}
    orders = {m.group(1): float(m.group(2)) for m in map(_ORDER_LINE.match, lines) if m}
    expected_presets = op.rays // ORACLE_TRACES_PER_PRESET
    if len(errs) != expected_presets or set(errs) != set(orders):
        problems.append(f"{len(errs)} preset error lines and {len(orders)} order lines, "
                        f"expected {expected_presets} of each")
    for name, err in errs.items():
        if not err < VERIFY_TOL:
            problems.append(f"[{name}] max rel err {err:.3e} not below {VERIFY_TOL:g}")
    for name, order in orders.items():
        if abs(order - ORDER_TARGET) > ORDER_TOL:
            problems.append(f"[{name}] convergence order {order:.2f} outside "
                            f"{ORDER_TARGET} +/- {ORDER_TOL}")
    return problems


def check(op: Op, exit_code: int, text: str) -> list[str]:
    """All problems with one operation's result."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if op.command == "verify":
        return problems + check_verify(op, text)
    return problems + check_rays(op, text)
