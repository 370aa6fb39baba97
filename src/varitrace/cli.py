"""Command-line interface: trace, fan, kappa-scan and verify.

All numeric output is CSV with '#'-prefixed metadata lines, written with
17 significant digits so results round-trip exactly; identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .environment import IndexSample, NormalFrame
from .errors import ConfigError, GeometryError, VaritraceError
from .oracle import BeamPerturbation, verify_kappa
from .presets import PRESET_NAMES, STUDY_PERTURBATION, VerificationScenario, preset
from .propagation import TraceResult, TraceStatus, trace_fan, trace_ray
from .reflection import SINGULAR_TOL, ReflectionContext, identity_checks, kappa_matrix

DEFAULT_SCAN_THETAS = [-90.0 + 10.0 * k for k in range(1, 18)]  # -80 .. 80


def _fmt(x: float) -> str:
    return format(x, ".17g")


class _OutputFile:
    """Text file opened for writing at its first write, so a command that
    fails while building or tracing leaves an existing file as it was."""

    def __init__(self, path: str):
        self._path = path
        self._file = None

    def write(self, text: str) -> int:
        if self._file is None:
            try:
                self._file = open(self._path, "w")
            except OSError as exc:
                raise ConfigError(f"cannot write output file {self._path}: {exc.strerror}")
        return self._file.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._file is not None:
            self._file.close()


def _open_output(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return _OutputFile(path)


def _metadata(run: RunConfig, command: str, seed: int | None) -> list[str]:
    lines = [
        f"# varitrace {__version__}",
        f"# command: {command}",
        f"# config: {run.path.name} sha256={run.sha256}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    return lines


# ---------------------------------------------------------------------------
# trace / fan
# ---------------------------------------------------------------------------

_TRACE_HEADER = "r,z,p,theta_deg,q11,q12,q21,q22,det_q,bounce"
_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"


def _trace_rows(result: TraceResult):
    # Bounce samples carry exactly the float range stored in the record.
    bounce_at = {b.r: b.boundary for b in result.bounces}
    for (r, z, p, q11, q12, q21, q22), n in zip(result.samples.tolist(), result.n.tolist()):
        theta = math.degrees(math.asin(max(-1.0, min(1.0, p / n))))
        yield _ROW % (r, z, p, theta, q11, q12, q21, q22, q11 * q22 - q12 * q21,
                      bounce_at.pop(r, ""))


def _write_rows(out, rows, prefix: str = "") -> None:
    out.write("".join([f"{prefix}{row}\n" for row in rows]))


def cmd_trace(run: RunConfig, out, seed: int | None) -> int:
    field = run.build_field()
    bath = run.build_bathymetry()
    cfg = run.build_trace_config()
    result = trace_ray(field, bath, cfg)
    for line in _metadata(run, "trace", seed):
        print(line, file=out)
    print(f"# status: {result.status.value}", file=out)
    print(_TRACE_HEADER, file=out)
    _write_rows(out, _trace_rows(result))
    if result.status is not TraceStatus.COMPLETED:
        print(f"varitrace trace: ray ended with status {result.status.value}",
              file=sys.stderr)
    return 0


def _fan_angles(run: RunConfig) -> list[float]:
    sec = run.section("fan")
    sec.check_keys({"angles_deg", "theta_min_deg", "theta_max_deg", "count"})
    angles = sec.get_float_list("angles_deg")
    if angles is None:
        lo = sec.get_float("theta_min_deg")
        hi = sec.get_float("theta_max_deg")
        count = sec.get_int("count")
        if lo is None or hi is None or count is None:
            raise ConfigError("[fan] needs angles_deg or theta_min_deg/theta_max_deg/count")
        if count < 1:
            raise ConfigError("[fan] count must be at least 1")
        angles = list(np.linspace(lo, hi, count))
    if not angles:
        raise ConfigError("[fan] angle list is empty")
    return angles


def cmd_fan(run: RunConfig, out, seed: int | None) -> int:
    field = run.build_field()
    bath = run.build_bathymetry()
    cfg = run.build_trace_config()
    angles = _fan_angles(run)
    results = trace_fan(field, bath, cfg, [math.radians(a) for a in angles])
    for line in _metadata(run, "fan", seed):
        print(line, file=out)
    print("ray_id," + _TRACE_HEADER, file=out)
    for ray_id, (angle, result) in enumerate(zip(angles, results)):
        print(f"# ray {ray_id}: theta0_deg={_fmt(angle)} status={result.status.value}",
              file=out)
        _write_rows(out, _trace_rows(result), f"{ray_id},")
        if result.status is not TraceStatus.COMPLETED:
            print(f"varitrace fan: ray {ray_id} ended with status {result.status.value}",
                  file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# kappa-scan
# ---------------------------------------------------------------------------


def scan_kappa(theta_deg: float, alpha_deg: float, curvature: float,
               n: float, n_z: float, n_r: float):
    """Jump-matrix entries for one (incident angle, normal angle) pair.

    Returns (k11, k12, k22), or None where the bounce is invalid as the
    tracer would judge it (vertical incident or reflected ray, tangential
    geometry, backward reflection).  The jump matrix is invariant under
    flipping the normal together with the curvature sign, so pairs
    describing the mirrored normal are evaluated through that equivalence.
    """
    theta = math.radians(theta_deg)
    alpha = math.radians(alpha_deg)
    t = np.array([math.cos(theta), math.sin(theta)])
    nr, nz = math.cos(alpha), math.sin(alpha)
    if t[0] * nr + t[1] * nz > 0.0:
        nr, nz, curvature = -nr, -nz, -curvature
    frame = NormalFrame(nr=nr, nz=nz, curvature=curvature)
    sample = IndexSample(n=n, n_r=n_r, n_z=n_z, n_zz=0.0)
    try:
        ctx = ReflectionContext(t=t, frame=frame, sample=sample)
        if not ctx.forward:
            return None
        kappa = kappa_matrix(ctx)
    except GeometryError:
        return None
    return kappa.k11, kappa.k12, kappa.k22


def cmd_kappa_scan(run: RunConfig, out, seed: int | None) -> int:
    sec = run.section("kappa_scan", required=False)
    sec.check_keys({"theta_deg", "alpha_min_deg", "alpha_max_deg", "alpha_step_deg",
                    "curvature", "n", "n_z", "n_r"})
    thetas = sec.get_float_list("theta_deg") or DEFAULT_SCAN_THETAS
    alpha_min = sec.get_float("alpha_min_deg", 0.0)
    alpha_max = sec.get_float("alpha_max_deg", 180.0)
    alpha_step = sec.get_float("alpha_step_deg", 1.0)
    if alpha_step <= 0.0 or alpha_max < alpha_min:
        raise ConfigError("[kappa_scan] needs alpha_max_deg >= alpha_min_deg and a positive step")
    curvature = sec.get_float("curvature", 0.02)
    n = sec.get_float("n", 1.0)
    n_z = sec.get_float("n_z", 0.01)
    n_r = sec.get_float("n_r", 0.0)

    count = int(round((alpha_max - alpha_min) / alpha_step)) + 1
    alphas = [alpha_min + i * alpha_step for i in range(count)]

    for line in _metadata(run, "kappa-scan", seed):
        print(line, file=out)
    print(f"# curvature={_fmt(curvature)} n={_fmt(n)} n_z={_fmt(n_z)} n_r={_fmt(n_r)}",
          file=out)
    print("theta_deg,alpha_deg,kappa11,kappa12,kappa22,valid_flag", file=out)
    for theta in thetas:
        for alpha in alphas:
            entries = scan_kappa(theta, alpha, curvature, n, n_z, n_r)
            if entries is None:
                print(f"{_fmt(theta)},{_fmt(alpha)},,,,0", file=out)
            else:
                k11, k12, k22 = entries
                print(f"{_fmt(theta)},{_fmt(alpha)},{_fmt(k11)},{_fmt(k12)},{_fmt(k22)},1",
                      file=out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_scenario(scenario: VerificationScenario, tolerance: float, out) -> bool:
    """Default-offset error (one Richardson level, 4 perturbed traces) and
    order study (12), both about one central trace: 17 traces."""
    ok = True
    v, study = verify_kappa(scenario.field, scenario.bath, scenario.cfg,
                            (BeamPerturbation(richardson_levels=1), STUDY_PERTURBATION),
                            scenario.r_after_bounce)
    passed = v.max_rel_err < tolerance
    ok &= passed
    print(f"[{scenario.name}] default-h max rel err {v.max_rel_err:.3e} "
          f"(tol {tolerance:.1e}) {'PASS' if passed else 'FAIL'}", file=out)

    errs = study.level_errs
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = sum(orders) / len(orders)
    passed = abs(order - 2.0) <= 0.3
    ok &= passed
    errs_txt = " ".join(f"{e:.3e}" for e in errs)
    print(f"[{scenario.name}] convergence order {order:.2f} "
          f"(target 2.0 +/- 0.3) {'PASS' if passed else 'FAIL'}  errs: {errs_txt}",
          file=out)
    return ok


def _verify_identities(rng: np.random.Generator, out) -> bool:
    """Both tangent-ratio identities over random valid pairs, each held to
    1e-10 relative to max(1, |lhs|, |rhs|): near a vertical reflected ray
    the sides reach about 1e6, where 1e-10 absolute is below one ulp.

    Each block of draws drops the pairs reflect_direction or identity_checks
    would reject (<t, N>, written out, above -SINGULAR_TOL, a margin no
    rounding of it can cross, or |tr| or |t1r| below SINGULAR_TOL), then
    makes one array call of identity_checks.
    """
    worst = 0.0
    checked = 0
    while checked < 10_000:
        # no more rows than pairs still needed: no draw a per-pair loop would skip
        theta, alpha = rng.uniform(-math.pi, math.pi, size=(10_000 - checked, 2)).T.tolist()
        # cos and sin from math, value by value: numpy's differ in the last bit
        t = np.array([list(map(math.cos, theta)), list(map(math.sin, theta))])
        n_vec = np.array([list(map(math.cos, alpha)), list(map(math.sin, alpha))])
        (tr, tz), (nr, nz) = t, n_vec
        n_t = tr * nr + tz * nz
        valid = ((n_t <= -SINGULAR_TOL) & (np.abs(tr) >= SINGULAR_TOL)
                 & (np.abs(tr - 2.0 * nr * n_t) >= SINGULAR_TOL))
        pair = identity_checks(t[:, valid], n_vec[:, valid])
        for lhs, rhs in ((pair.lhs1, pair.rhs1), (pair.lhs2, pair.rhs2)):
            scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
            worst = float(np.max(np.abs(lhs - rhs) / scale, initial=worst))
        checked += int(np.count_nonzero(valid))
    passed = worst <= 1e-10
    print(f"identities: max |lhs - rhs| / max(1, |lhs|, |rhs|) {worst:.3e} over "
          f"{checked} pairs (tol 1e-10) {'PASS' if passed else 'FAIL'}", file=out)
    return passed


def _verify_structure(rng: np.random.Generator, out) -> bool:
    """det kappa = 1 and kappa21 = 0 over random valid reflection contexts,
    drawn in blocks as in _verify_identities.  A draw with tr nr + tz nz >
    -SINGULAR_TOL, which ReflectionContext or kappa_matrix would reject, is
    dropped before any object is built; those two judge every other draw."""
    worst_det = 0.0
    worst_k21 = 0.0
    checked = 0
    while checked < 2_000:
        draws = rng.uniform((-math.pi, -math.pi, -0.05, 0.9, -0.01, -0.02),
                            (math.pi, math.pi, 0.05, 1.1, 0.01, 0.02), size=(2_000 - checked, 6))
        for theta, alpha, curvature, n, n_r, n_z in draws.tolist():
            tr, tz = math.cos(theta), math.sin(theta)
            nr, nz = math.cos(alpha), math.sin(alpha)
            if tr * nr + tz * nz > -SINGULAR_TOL:
                continue
            frame = NormalFrame(nr=nr, nz=nz, curvature=curvature)
            sample = IndexSample(n=n, n_r=n_r, n_z=n_z, n_zz=0.0)
            try:
                kappa = kappa_matrix(ReflectionContext(t=np.array([tr, tz]), frame=frame,
                                                       sample=sample))
            except GeometryError:
                continue
            worst_det = max(worst_det, abs(kappa.det() - 1.0))
            worst_k21 = max(worst_k21, abs(kappa.k21))
            checked += 1
    passed = worst_det < 1e-12 and worst_k21 == 0.0
    print(f"kappa structure: max |det - 1| {worst_det:.3e}, max |kappa21| "
          f"{worst_k21:.3e} over {checked} contexts (tol 1e-12) "
          f"{'PASS' if passed else 'FAIL'}", file=out)
    return passed


def cmd_verify(run: RunConfig, out, seed: int | None) -> int:
    sec = run.section("verify", required=False)
    sec.check_keys({"preset", "tolerance", "r_after_bounce"})
    which = sec.get_str("preset", "all")
    tolerance = sec.get_float("tolerance", 1e-3)
    if which == "all":
        scenarios = [preset(name) for name in PRESET_NAMES]
    elif which in PRESET_NAMES:
        scenarios = [preset(which)]
    elif which == "custom":
        # single-bounce scenario taken from the environment/bathymetry/
        # trace sections of this config
        scenarios = [VerificationScenario(
            name="custom",
            field=run.build_field(),
            bath=run.build_bathymetry(),
            cfg=run.build_trace_config(),
            r_after_bounce=sec.get_float("r_after_bounce", required=True),
        )]
    else:
        raise ConfigError(
            f"[verify] preset = {which!r}; expected 'all', 'custom' or one of "
            f"{', '.join(PRESET_NAMES)}")

    rng = np.random.default_rng(0 if seed is None else seed)
    ok = True
    for scenario in scenarios:
        ok &= _verify_scenario(scenario, tolerance, out)
    ok &= _verify_identities(rng, out)
    ok &= _verify_structure(rng, out)
    print(f"OVERALL {'PASS' if ok else 'FAIL'}", file=out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # built once per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varitrace",
        description="Waveguide ray tracing with variation matrices and "
                    "curvature-aware boundary reflection jumps.")
    parser.add_argument("--version", action="version", version=f"varitrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("trace", "trace a single ray and emit its trajectory as CSV"),
        ("fan", "trace a fan of rays, one CSV block per launch angle"),
        ("kappa-scan", "sweep the reflection jump matrix over incidence "
                       "and normal angles"),
        ("verify", "run the finite-difference verification gate"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--output", default="-", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized verification sweeps")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = load_config(args.config)
        with _open_output(args.output) as out:
            if args.command == "trace":
                return cmd_trace(run, out, args.seed)
            if args.command == "fan":
                return cmd_fan(run, out, args.seed)
            if args.command == "kappa-scan":
                return cmd_kappa_scan(run, out, args.seed)
            return cmd_verify(run, out, args.seed)
    except (VaritraceError, ValueError) as exc:
        # config-derived values that fail validation (launch outside the
        # water column, angles past the cutoff, a custom verify scenario
        # that does not bounce exactly once, ...) are usage errors too
        print(f"varitrace: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
