"""Command-line interface: trace, fan, kappa-scan and verify.

All numeric output is CSV with '#'-prefixed metadata lines, written with
17 significant digits so results round-trip exactly; identical inputs
produce byte-identical output.  A fan traces and formats its rays on
every usable core, in this process and in one forked child per other
core (``propagation._fork_map``), and writes them in ray order once all
are done; verify's oracle traces its perturbed rays the same way.  So no
command's bytes depend on how many cores there are.  A command writes
into an in-memory sink, and ``main`` writes what it holds in one go once
the command returns: to stdout, or to the ``--output`` file, so a command
that fails leaves that file as it was.  Exit codes: 0 success, 1
verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

from . import __version__
from .config import RunConfig, load_config
from .environment import NormalFrame, _bottom_frame
from .errors import ConfigError, GeometryError, VaritraceError
from .oracle import (PRESET_NAMES, PRESETS, STUDY_PERTURBATION, BeamPerturbation,
                     VerificationScenario, preset, verify_kappa)
from .propagation import (_SURFACE_HIT, MAX_BASE_STEPS, TraceResult, TraceStatus, _fork_map,
                          trace_ray)
from .reflection import kappa_matrix

DEFAULT_SCAN_THETAS = tuple(-90.0 + 10.0 * k for k in range(1, 18))  # -80 .. 80


def _fmt(x: float) -> str:
    return format(x, ".17g")


class _Sink(list):
    """The pieces of text a command writes, kept in order until it returns."""

    write = list.append


def _write_metadata(run: RunConfig, command: str, seed: int | None, out) -> None:
    print(f"# varitrace {__version__}", file=out)
    print(f"# command: {command}", file=out)
    print(f"# config: {run.path.name} sha256={run.sha256}", file=out)
    if seed is not None:
        print(f"# seed: {seed}", file=out)


# ---------------------------------------------------------------------------
# trace / fan
# ---------------------------------------------------------------------------

_TRACE_HEADER = "r,z,p,theta_deg,q11,q12,q21,q22,det_q,bounce"
_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"


def _trace_rows(result: TraceResult):
    # Bounce samples carry exactly the float (r, z) stored in the record.
    bounce_at = {(b.r, b.z): b.boundary for b in result.bounces}
    asin, degrees = math.asin, math.degrees
    values = iter(result.packed_samples.tolist())  # seven at a time, one sample per row
    for n, r, z, p, q11, q12, q21, q22 in zip(result.packed_n.tolist(), *[values] * 7):
        t = p / n
        # max(-1.0, min(1.0, t)), NaN included: min(1.0, nan) is 1.0
        theta = degrees(asin(t if -1.0 <= t < 1.0 else -1.0 if t < -1.0 else 1.0))
        yield _ROW % (r, z, p, theta, q11, q12, q21, q22, q11 * q22 - q12 * q21,
                      bounce_at.pop((r, z), ""))


def _rows_text(result: TraceResult, prefix: str = "") -> str:
    # Every trace has its launch row, so the text is never empty.
    return prefix + ("\n" + prefix).join(_trace_rows(result)) + "\n"


def _warn_unconverged(unconverged: int, bounces: int, who: str) -> None:
    if unconverged:
        print(f"varitrace {who}: {unconverged} of {bounces} "
              "bounce landings stopped above bisect_tol", file=sys.stderr)


def cmd_trace(run: RunConfig, out, seed: int | None) -> int:
    result = trace_ray(*run.build())
    _write_metadata(run, "trace", seed, out)
    print(f"# status: {result.status.value}", file=out)
    print(_TRACE_HEADER, file=out)
    out.write(_rows_text(result))
    if result.status is not TraceStatus.COMPLETED:
        print(f"varitrace trace: ray ended with status {result.status.value}",
              file=sys.stderr)
    _warn_unconverged(result.unconverged_bounces, len(result.bounces), "trace")
    return 0


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """The values of ``np.linspace(lo, hi, count)``, bit for bit."""
    if count == 1:
        return [0.0 * (hi - lo) + lo]
    div, delta = count - 1, hi - lo
    step = delta / div
    # numpy scales by i / div * delta where the step underflows to zero
    return [(i / div * delta if step == 0.0 else i * step) + lo for i in range(div)] + [hi]


def _fan_angles(run: RunConfig) -> list[float]:
    sec = run.section("fan")
    sec.check_keys({"angles_deg", "theta_min_deg", "theta_max_deg", "count"})
    angles = sec.get_float_list("angles_deg")
    mixed = sorted({"theta_min_deg", "theta_max_deg", "count"} & set(sec.raw))
    if angles is not None and mixed:
        raise ConfigError(f"[fan] angles_deg with {', '.join(mixed)}: give one or the other")
    if angles is None:
        lo = sec.get_float("theta_min_deg")
        hi = sec.get_float("theta_max_deg")
        count = sec.get_int("count")
        if lo is None or hi is None or count is None:
            raise ConfigError("[fan] needs angles_deg or theta_min_deg/theta_max_deg/count")
        if count < 1:
            raise ConfigError("[fan] count must be at least 1")
        if count > MAX_BASE_STEPS:
            raise ConfigError(f"[fan] count = {count} is over {MAX_BASE_STEPS:,} rays")
        angles = _linspace(lo, hi, count)
    if not angles:
        raise ConfigError("[fan] angle list is empty")
    return angles


def _fan_ray(field, bath, cfg, ray: tuple[int, float]) -> tuple[str, str, int, int]:
    """One fan ray's CSV block (its ``# ray`` line and its rows), status,
    unconverged landings and bounces."""
    ray_id, angle = ray
    result = trace_ray(field, bath, replace(cfg, theta0=math.radians(angle)))
    status = result.status.value
    block = (f"# ray {ray_id}: theta0_deg={_fmt(angle)} status={status}\n"
             + _rows_text(result, f"{ray_id},"))
    return block, status, result.unconverged_bounces, len(result.bounces)


def cmd_fan(run: RunConfig, out, seed: int | None) -> int:
    field, bath, cfg = run.build()
    rays = list(enumerate(_fan_angles(run)))
    # The rays share nothing, so they are traced and formatted on every usable core;
    # the output is written in ray order once every ray is done.
    blocks = _fork_map(functools.partial(_fan_ray, field, bath, cfg), rays)
    _write_metadata(run, "fan", seed, out)
    print("ray_id," + _TRACE_HEADER, file=out)
    for ray_id, (block, status, unconverged, bounces) in enumerate(blocks):
        out.write(block)
        if status != TraceStatus.COMPLETED.value:
            print(f"varitrace fan: ray {ray_id} ended with status {status}", file=sys.stderr)
        _warn_unconverged(unconverged, bounces, f"fan: ray {ray_id}")
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
    tr, tz = math.cos(theta), math.sin(theta)
    nr, nz = math.cos(alpha), math.sin(alpha)
    if tr * nr + tz * nz > 0.0:
        nr, nz, curvature = -nr, -nz, -curvature
    frame = NormalFrame(nr=nr, nz=nz, curvature=curvature)
    try:
        t1, kappa = kappa_matrix((tr, tz), frame, (n, n_r, n_z, 0.0))
    except GeometryError:
        return None
    return None if t1 is None else (kappa.k11, kappa.k12, kappa.k22)


def cmd_kappa_scan(run: RunConfig, out, seed: int | None) -> int:
    sec = run.section("kappa_scan", required=False)
    sec.check_keys({"theta_deg", "alpha_min_deg", "alpha_max_deg", "alpha_step_deg",
                    "curvature", "n", "n_z", "n_r"})
    thetas = sec.get_float_list("theta_deg")
    if thetas is None:
        thetas = DEFAULT_SCAN_THETAS
    elif not thetas:
        raise ConfigError("[kappa_scan] theta_deg list is empty")
    alpha_min = sec.get_float("alpha_min_deg", 0.0)
    alpha_max = sec.get_float("alpha_max_deg", 180.0)
    alpha_step = sec.get_float("alpha_step_deg", 1.0)
    if alpha_step <= 0.0 or alpha_max < alpha_min:
        raise ConfigError("[kappa_scan] needs alpha_max_deg >= alpha_min_deg and a positive step")
    # A step that rounds away at the largest angle would list alphas forever.
    span = max(abs(alpha_min), abs(alpha_max))
    if alpha_max > alpha_min and span + alpha_step == span:
        raise ConfigError(f"[kappa_scan] alpha_step_deg = {alpha_step:g} is below the angle "
                          f"resolution at {span:g} degrees")
    rows = len(thetas) * (alpha_max - alpha_min) / alpha_step  # inf where the span overflows
    if not rows <= MAX_BASE_STEPS:
        raise ConfigError(f"[kappa_scan] alpha_step_deg = {alpha_step:g} takes over "
                          f"{MAX_BASE_STEPS:,} rows")
    curvature = sec.get_float("curvature", 0.02)
    n = sec.get_float("n", 1.0)
    if n <= 0.0:
        raise ConfigError(f"[kappa_scan] n = {n:g} must be positive")
    n_z = sec.get_float("n_z", 0.01)
    n_r = sec.get_float("n_r", 0.0)

    # Up to the last alpha_min + i * step within 1e-9 of a step past alpha_max.
    count = math.floor((alpha_max - alpha_min) / alpha_step + 1e-9) + 1
    alphas = [alpha_min + i * alpha_step for i in range(count)]

    _write_metadata(run, "kappa-scan", seed, out)
    print(f"# curvature={_fmt(curvature)} n={_fmt(n)} n_z={_fmt(n_z)} n_r={_fmt(n_r)}",
          file=out)
    print("theta_deg,alpha_deg,kappa11,kappa12,kappa22,valid_flag", file=out)
    for theta in thetas:  # one sink piece per theta, not print's two per row
        rows = []
        for alpha in alphas:
            entries = scan_kappa(theta, alpha, curvature, n, n_z, n_r)
            if entries is None:
                rows.append(f"{_fmt(theta)},{_fmt(alpha)},,,,0\n")
            else:
                k11, k12, k22 = entries
                rows.append(f"{_fmt(theta)},{_fmt(alpha)},{_fmt(k11)},{_fmt(k12)},{_fmt(k22)},1\n")
        out.write("".join(rows))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_scenario(scenario: VerificationScenario, tolerance: float, out) -> bool:
    """Default-offset error (one Richardson level, 4 perturbed traces) and
    order study (12), both about one central trace: 17 traces."""
    ok = True
    (err,), errs = verify_kappa(scenario.field, scenario.bath, scenario.cfg,
                                (BeamPerturbation(richardson_levels=1), STUDY_PERTURBATION))
    passed = err < tolerance
    ok &= passed
    print(f"[{scenario.name}] default-h max rel err {err:.3e} "
          f"(tol {tolerance:.1e}) {'PASS' if passed else 'FAIL'}", file=out)

    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = sum(orders) / len(orders)
    passed = abs(order - 2.0) <= 0.3
    ok &= passed
    errs_txt = " ".join(f"{e:.3e}" for e in errs)
    print(f"[{scenario.name}] convergence order {order:.2f} "
          f"(target 2.0 +/- 0.3) {'PASS' if passed else 'FAIL'}  errs: {errs_txt}",
          file=out)
    return ok


def _bounce_map(tr0, tz0, n, n_r, n_z, sigma, psi, dp, dz):
    """(p, z) at the hit range r_b just after a bounce, to first order, of the
    ray that reaches r_b with (n tz0 + dp, dz), on a boundary of slope sigma
    and z_b'' psi where the index is n, n_r, n_z.  From the ray equations
    dz/dr = p / w, dp/dr = n n_z / w (w = n tr) and the mirror law alone, in
    plain arithmetic that numpy arrays and a complex step pass through; its
    Jacobian in (dp, dz) at 0 is kappa.  At 0 each real part is the float
    kappa_matrix forms, <t0, N0> and t1r included, so near singular hits the
    two share the rounding of those cancellations."""
    # 1-2: the incident branch z = dz + u tz0 / tr0 meets the boundary z = sigma u at
    # u = dz tr0 / (sigma tr0 - tz0) = dz tr0 / (norm <t0, N0>), N0 = (sigma, -1) / norm.
    norm = (1.0 + sigma * sigma) ** 0.5
    nr0, nz0 = sigma / norm, -1.0 / norm
    u = dz * tr0 / (norm * (tr0 * nr0 + tz0 * nz0))
    # 3: there the index is n + dn and tz = (n tz0 + dp + u n_z / tr0) / (n + dn).
    dn = (n_r + sigma * n_z) * u
    tz = tz0 + (dp + u * n_z / tr0 - tz0 * dn) / (n + dn)
    tr = (tr0 * tr0 + (tz0 - tz) * (tz0 + tz)) ** 0.5
    # 4: the mirror law at the moved normal, N0 + psi u (1, sigma) / norm^3.
    bend = psi * u / (norm * norm * norm)
    nr, nz = nr0 + bend, nz0 + sigma * bend
    n_t = tr * nr + tz * nz
    t1r, t1z = tr - 2.0 * nr * n_t, tz - 2.0 * nz * n_t
    # 5: the reflected branch back to r_b: z = sigma u - u t1z / t1r = -u norm <t, N> / t1r.
    return (n + dn) * t1z - u * n_z / t1r, -u * norm * n_t / t1r


def _verify_bounce_map(rng, out) -> bool:
    """kappa.apply on the identity against the complex-step Jacobian of
    _bounce_map (a step of 1e-30 in dp, then in dz) at 2,000 random hits
    that kappa_matrix accepts with t1 advancing, drawn in blocks of the hits
    still needed, a quarter of them upward rays at the surface.  k11, k12
    and k22 must agree to 1e-10 relative to max(1, |derived|), and k21 must
    be exactly 0, applied and derived."""
    import numpy as np

    hits, applied = [], []
    while len(hits) < 2_000:
        draws = rng.uniform((-1.3, -1.0, -0.05, 0.9, -0.01, -0.02, 0.0),
                            (1.3, 1.0, 0.05, 1.1, 0.01, 0.02, 1.0), size=(2_000 - len(hits), 7))
        for theta, slope, d2, n, n_r, n_z, at in draws.tolist():
            if at < 0.25:  # an upward ray at the surface
                theta, slope, d2 = -abs(theta), 0.0, 0.0
            frame = _SURFACE_HIT[1] if at < 0.25 else _bottom_frame(slope, d2)
            tr, tz = math.cos(theta), math.sin(theta)
            try:
                t1, kappa = kappa_matrix((tr, tz), frame, (n, n_r, n_z, 0.0))
            except GeometryError:
                continue
            if t1 is not None:
                hits.append((tr, tz, n, n_r, n_z, slope, d2))
                applied.append(kappa.apply((1.0, 0.0, 0.0, 1.0)))
    k11, k12, k21, k22 = np.array(applied).T
    (p_dp, z_dp), (p_dz, z_dz) = (_bounce_map(*np.array(hits).T, *step)
                                  for step in ((1e-30j, 0.0), (0.0, 1e-30j)))
    derived = np.array((p_dp.imag, p_dz.imag, z_dz.imag)) / 1e-30
    worst = float(np.max(np.abs(np.array((k11, k12, k22)) - derived)
                         / np.maximum(1.0, np.abs(derived))))
    worst_k21 = float(np.max(np.abs((k21, z_dp.imag / 1e-30))))
    passed = worst <= 1e-10 and worst_k21 == 0.0
    print(f"kappa vs bounce map: max rel err {worst:.3e}, max |kappa21| {worst_k21:.3e} "
          f"over {len(hits)} hits (tol 1e-10) {'PASS' if passed else 'FAIL'}", file=out)
    return passed


def cmd_verify(run: RunConfig, out, seed: int | None) -> int:
    sec = run.section("verify", required=False)
    sec.check_keys({"preset", "tolerance"})
    which = sec.get_str("preset", "all")
    tolerance = sec.get_float("tolerance", 1e-3)
    if tolerance <= 0.0:
        raise ConfigError(f"[verify] tolerance = {tolerance:g} must be positive")
    if which == "all":
        scenarios = PRESETS
    elif which in PRESET_NAMES:
        scenarios = [preset(which)]
    elif which == "custom":
        # single-bounce scenario taken from the environment/bathymetry/
        # trace sections of this config
        scenarios = [VerificationScenario("custom", *run.build())]
    else:
        raise ConfigError(
            f"[verify] preset = {which!r}; expected 'all', 'custom' or one of "
            f"{', '.join(PRESET_NAMES)}")

    ok = True
    for scenario in scenarios:
        ok &= _verify_scenario(scenario, tolerance, out)
    # numpy is loaded only now, so the oracle's forked children start without it.
    import numpy as np

    ok &= _verify_bounce_map(np.random.default_rng(0 if seed is None else seed), out)
    print(f"OVERALL {'PASS' if ok else 'FAIL'}", file=out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# Each subcommand's handler and help text.
_COMMANDS = {
    "trace": (cmd_trace, "trace a single ray and emit its trajectory as CSV"),
    "fan": (cmd_fan, "trace a fan of rays, one CSV block per launch angle"),
    "kappa-scan": (cmd_kappa_scan, "sweep the reflection jump matrix over incidence "
                                   "and normal angles"),
    "verify": (cmd_verify, "run the finite-difference verification gate"),
}


@functools.cache  # built once per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varitrace",
        description="Waveguide ray tracing with variation matrices and "
                    "curvature-aware boundary reflection jumps.")
    parser.add_argument("--version", action="version", version=f"varitrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
        out = _Sink()
        code = _COMMANDS[args.command][0](run, out, args.seed)
        if args.output == "-":
            sys.stdout.writelines(out)
            return code
        try:
            with open(args.output, "w") as file:
                file.writelines(out)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.output}: {exc.strerror}")
        return code
    except (VaritraceError, ValueError) as exc:
        # config-derived values that fail validation (launch outside the
        # water column, angles past the cutoff, a custom verify scenario
        # that does not bounce exactly once, ...) are usage errors too
        print(f"varitrace: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
