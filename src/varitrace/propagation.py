"""Range marching of rays and their variation matrices.

Integrates (z, p, q) with a classical fixed-step RK4 scheme, in two parts
over one set of stages.  ``_ray_step`` advances (z, p): stages 2-4 each
make one ``index_at`` call (stage 1 reuses the sample the trace loop holds
for the step start), each stage writes out the ray right-hand side
w = sqrt(n^2 - p^2), dz = p / w, dp = n n_z / w on the plain index tuple,
and it returns the four stage points.  The ray never reads q, so
``_variation_step`` then advances q from those stage points with
``variation_rhs``, giving the bits one joint six-component step gives.  It
runs only where q is read: once per accepted step and once per landed
bounce, never in the landing search's trial steps, and not at all in a
ray-only trace (``variations=False``, the oracle's perturbed rays).

Each step's own stage derivatives give a cubic dense output of depth (the
continuous extension of RK4, Hairer, Norsett & Wanner, Solving ODEs I,
II.6) at no extra right-hand-side evaluation.  A boundary crossing is
bracketed by the sign of the boundary gap (-z at the surface,
z - depth_at(r) at the bottom) at the step end or, when both ends are
inside, at the interpolated step midpoint (a shallow double crossing).  Both
depth queries are skipped when both points lie above the bottom's ``floor``
over a span holding the step: the same decision, which certifies nothing
between the points.  A step with no bracket ends there; a search is set up
only for a bracketed boundary.  There an Illinois search on the interpolated
gap seeds a safeguarded secant search on the exact RK4 map from the step
start, so the landing state is an RK4 state whose boundary residual is below
``bisect_tol``.  The reflection jump is applied there and marching resumes.
All abnormal endings are reported as statuses, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .environment import Bathymetry, SoundSpeedField, surface_frame
from .errors import DomainError, GeometryError, SteepRayError
from .ray_core import variation_rhs
from .reflection import KappaMatrix, ReflectionContext, kappa_matrix

__all__ = [
    "TraceConfig",
    "TraceStatus",
    "BounceRecord",
    "TraceResult",
    "SpreadingFactor",
    "trace_ray",
    "trace_from_pulse",
    "trace_fan",
    "spreading_at",
]

SURFACE = "surface"
BOTTOM = "bottom"


class TraceStatus(Enum):
    COMPLETED = "completed"
    BACKSCATTERED = "backscattered"
    STEEP_RAY = "steep_ray"
    MAX_BOUNCES = "max_bounces"
    DOMAIN_EXIT = "domain_exit"


@dataclass(frozen=True)
class TraceConfig:
    """Launch point, angle and step control for one trace.

    ``dr`` is the base range step (m), ``bisect_tol`` the landing
    residual (m): a bounce is located where the boundary gap of the exact
    RK4 state is below it.  ``steep_cutoff`` is the grazing-angle limit
    (rad) beyond which marching in range is abandoned.
    """

    r_start: float
    r_end: float
    z0: float
    theta0: float
    dr: float = 10.0
    bisect_tol: float = 1e-9
    steep_cutoff: float = math.radians(89.5)
    max_bounces: int = 10_000

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r_start, self.r_end, self.z0, self.theta0,
                                       self.dr, self.bisect_tol, self.steep_cutoff))):
            raise ValueError("trace parameters must be finite")
        if self.r_end < self.r_start:
            raise ValueError("r_end must not precede r_start")
        if self.dr <= 0.0:
            raise ValueError("base step dr must be positive")
        if self.bisect_tol <= 0.0:
            raise ValueError("bisection tolerance must be positive")
        if not 0.0 < self.steep_cutoff < math.pi / 2.0:
            raise ValueError("steep-angle cutoff must lie in (0, pi/2)")
        if abs(self.theta0) >= self.steep_cutoff:
            raise ValueError(
                f"launch angle {self.theta0:g} rad exceeds the steep cutoff")
        if self.max_bounces < 0:
            raise ValueError("max_bounces must be non-negative")


@dataclass(frozen=True)
class BounceRecord:
    """One boundary hit: location, incident grazing angle and jump matrix."""

    r: float
    z: float
    boundary: str  # SURFACE or BOTTOM
    theta_incident: float
    kappa: KappaMatrix


@dataclass
class TraceResult:
    """Sampled trajectory (columns r, z, p, q11, q12, q21, q22) plus bounces.

    The q columns are NaN in a ray-only trace (``variations=False``).
    ``n`` holds the refractive index at each sample, as the integrator
    evaluated it there.  ``unconverged_bounces`` counts bounces whose
    location search stopped at its iteration cap before the boundary
    residual fell below ``bisect_tol``.
    """

    samples: np.ndarray
    n: np.ndarray
    bounces: list[BounceRecord]
    status: TraceStatus
    unconverged_bounces: int = 0

    @property
    def r(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def z(self) -> np.ndarray:
        return self.samples[:, 1]

    @property
    def p(self) -> np.ndarray:
        return self.samples[:, 2]

    @property
    def q(self) -> np.ndarray:
        """Variation matrices, shape (n_samples, 2, 2)."""
        return self.samples[:, 3:7].reshape(-1, 2, 2)

    @property
    def det_q(self) -> np.ndarray:
        s = self.samples
        return s[:, 3] * s[:, 6] - s[:, 4] * s[:, 5]

    @property
    def det_q_residual(self) -> np.ndarray:
        """``|det q - 1| / (|q11 q22| + |q12 q21|)`` at each sample.

        The raw ``|det q - 1|`` cancels two products that grow with the
        entries of ``q``, so its rounding grows with them; this residual is
        relative to those products and stays at rounding level while the
        flow is symplectic, however large ``q`` becomes.
        """
        s = self.samples
        diag = s[:, 3] * s[:, 6]
        off = s[:, 4] * s[:, 5]
        return np.abs(diag - off - 1.0) / (np.abs(diag) + np.abs(off))


@dataclass(frozen=True)
class SpreadingFactor:
    """Geometric spreading |dz/dp0| (m) at a query range; 0 only at caustics."""

    r: float
    value: float


# ---------------------------------------------------------------------------
# RK4 core
# ---------------------------------------------------------------------------


def _raise_vertical(n: float, p: float):
    """Raise for a stage whose w^2 = n^2 - p^2 is not positive."""
    raise SteepRayError(f"|p| = {abs(p):g} >= n = {n:g}; ray turned vertical")


def _ray_step(field_: SoundSpeedField, r: float, z: float, p: float, sample: tuple,
              h: float):
    """One RK4 step of the ray alone: the new (z, p) and the four stages.

    Each stage is (sample, p, w, dz): the index tuple and pulse it was
    evaluated at, with w = sqrt(n^2 - p^2) and dz = p / w, which
    ``variation_rhs`` and the dense output read; dp = n n_z / w.  A stage
    with w^2 <= 0 (a vertical ray) raises SteepRayError.  ``sample`` is
    the index at the start (r, z), so only stages 2-4 call ``index_at``.
    """
    index_at = field_.index_at
    hh = 0.5 * h
    n, _, n_z, _ = sample
    ww = n * n - p * p
    w1 = _raise_vertical(n, p) if ww <= 0.0 else math.sqrt(ww)
    z1, p1 = p / w1, n * n_z / w1
    rm = r + hh
    s2, pp2 = index_at(rm, z + hh * z1), p + hh * p1
    n, _, n_z, _ = s2
    ww = n * n - pp2 * pp2
    w2 = _raise_vertical(n, pp2) if ww <= 0.0 else math.sqrt(ww)
    z2, p2 = pp2 / w2, n * n_z / w2
    s3, pp3 = index_at(rm, z + hh * z2), p + hh * p2
    n, _, n_z, _ = s3
    ww = n * n - pp3 * pp3
    w3 = _raise_vertical(n, pp3) if ww <= 0.0 else math.sqrt(ww)
    z3, p3 = pp3 / w3, n * n_z / w3
    s4, pp4 = index_at(r + h, z + h * z3), p + h * p3
    n, _, n_z, _ = s4
    ww = n * n - pp4 * pp4
    w4 = _raise_vertical(n, pp4) if ww <= 0.0 else math.sqrt(ww)
    z4, p4 = pp4 / w4, n * n_z / w4
    h6 = h / 6.0
    return (
        z + h6 * (z1 + 2.0 * z2 + 2.0 * z3 + z4),
        p + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
        ((sample, p, w1, z1), (s2, pp2, w2, z2), (s3, pp3, w3, z3), (s4, pp4, w4, z4)),
    )


def _variation_step(stages, q: tuple, h: float) -> tuple:
    """The RK4 step of q = (q11, q12, q21, q22) over the ray step that
    produced ``stages`` (of length ``h``): the stage points of the ray do
    not depend on q, so q is advanced from them afterwards."""
    a, b, c, d = q
    hh = 0.5 * h
    (s1, p1, w1, _), (s2, p2, w2, _), (s3, p3, w3, _), (s4, p4, w4, _) = stages
    a1, b1, c1, d1 = variation_rhs(s1, p1, w1, a, b, c, d)
    a2, b2, c2, d2 = variation_rhs(s2, p2, w2, a + hh * a1, b + hh * b1,
                                   c + hh * c1, d + hh * d1)
    a3, b3, c3, d3 = variation_rhs(s3, p3, w3, a + hh * a2, b + hh * b2,
                                   c + hh * c2, d + hh * d2)
    a4, b4, c4, d4 = variation_rhs(s4, p4, w4, a + h * a3, b + h * b3,
                                   c + h * c3, d + h * d3)
    h6 = h / 6.0
    return (
        a + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        b + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
        c + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
        d + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4),
    )


# ---------------------------------------------------------------------------
# Boundary events
# ---------------------------------------------------------------------------

# Iteration caps of the interpolant search and of the exact landing search.
_SEED_MAX_ITER = 100
_LAND_MAX_ITER = 60


def _gap(bath: Bathymetry, boundary: str, r: float, z: float) -> float:
    # Negative inside the water column, positive past the boundary.
    if boundary == SURFACE:
        return -z
    return z - bath.depth_at(r)


def _seed(gap, hi: float, g_lo: float, g_hi: float, tol: float):
    """Illinois search for the crossing of ``gap`` in [0, hi].

    ``g_lo = gap(0) <= 0 < g_hi = gap(hi)``.  A start exactly on a boundary
    (the step after a bounce) is the departure, not the crossing, so the
    bracket is bisected until its lower end leaves it.  Returns the root
    estimate and the gap slope from the last two iterates.
    """
    lo = 0.0
    s_prev, g_prev = hi, g_hi
    slope = (g_hi - g_lo) / hi
    side = 0
    for _ in range(_SEED_MAX_ITER):
        if g_lo == 0.0:
            s = 0.5 * (lo + hi)
        else:
            s = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        g = gap(s)
        if s != s_prev and g != g_prev:
            slope = (g - g_prev) / (s - s_prev)
        s_prev, g_prev = s, g
        if abs(g) < tol or not lo < s < hi:
            break
        if g > 0.0:
            hi, g_hi = s, g
            if side > 0:
                g_lo *= 0.5
            side = 1
        else:
            lo, g_lo = s, g
            if side < 0:
                g_hi *= 0.5
            side = -1
    return s, slope


def _land(field_, bath, boundary, r0, z0, p0, sample0, hi, s, slope, tol):
    """Exact RK4 ray state on the boundary, by a secant search on the true map.

    G(s) = gap(r0 + s, RK4(r0, (z0, p0), s).z) is searched from the
    interpolant's root ``s`` and slope; proposals outside the bracket
    (0, hi), tightened by every evaluation, fall back to bisection.  Trial
    steps march (z, p) alone.  Returns (s, p, stages, converged) of the
    landed step; at the iteration cap, or once the bracket has collapsed to
    adjacent floats so that no new point lies strictly inside it, of the
    last evaluated step.
    """
    lo = 0.0
    g_prev = None
    for _ in range(_LAND_MAX_ITER):
        z, p, stages = _ray_step(field_, r0, z0, p0, sample0, s)
        g = _gap(bath, boundary, r0 + s, z)
        if abs(g) < tol:
            return s, p, stages, True
        if g > 0.0:
            hi = s
        else:
            lo = s
        if g_prev is not None and g != g_prev:
            slope = (g - g_prev) / (s - s_prev)
        s_prev, g_prev = s, g
        s = s - g / slope if slope != 0.0 else lo
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
            if not lo < s < hi:
                break
    return s_prev, p, stages, False


def _find_crossing(field_, bath, r0, z0, p0, sample0, h, z_end, stages, tol):
    """First boundary crossing within a step, or None.

    A crossing is bracketed by the gap at the step end or, when that is
    inside, at the midpoint of the step's dense output (a shallow double
    crossing).  A step with neither bracketed returns None before any
    search is set up; only a bracketed boundary is searched, from the gap
    already computed at its bracket end.  Returns (step_length, boundary,
    p, stages, converged) of the landed step.
    """
    # Depth on the RK4 continuous extension, expanded in powers of s = t h:
    # b1 = t - 3t^2/2 + 2t^3/3, b2 = b3 = t^2 - 2t^3/3, b4 = -t^2/2 + 2t^3/3.
    d1, d2, d3, d4 = stages[0][3], stages[1][3], stages[2][3], stages[3][3]
    c2 = (-1.5 * d1 + d2 + d3 - 0.5 * d4) / h
    c3 = (2.0 / 3.0) * (d1 - d2 - d3 + d4) / (h * h)
    hh = 0.5 * h
    z_mid = z0 + hh * (d1 + hh * (c2 + hh * c3))

    # The step starts inside or, after a bounce, exactly on a boundary, so
    # only the far end and the midpoint need checking: (bracket end, gap).
    hi_top, g_top = h, -z_end
    if g_top <= 0.0:
        hi_top, g_top = hh, -z_mid
    # Above the bottom's floor over a span holding the step: no gap is positive.
    z_floor, r_lo, r_hi = bath.floor
    hi_bot, g_bot = h, 0.0
    if not (z_end < z_floor and z_mid < z_floor and r_lo <= r0 and r0 + h <= r_hi):
        g_bot = z_end - bath.depth_at(r0 + h)
        if g_bot <= 0.0:
            hi_bot, g_bot = hh, z_mid - bath.depth_at(r0 + hh)
    if g_top <= 0.0 and g_bot <= 0.0:
        return None

    hits = []
    for boundary, hi, g_hi in ((SURFACE, hi_top, g_top), (BOTTOM, hi_bot, g_bot)):
        if g_hi <= 0.0:
            continue

        def gap(s, boundary=boundary):
            return _gap(bath, boundary, r0 + s, z0 + s * (d1 + s * (c2 + s * c3)))

        s, slope = _seed(gap, hi, _gap(bath, boundary, r0, z0), g_hi, tol)
        s, p_hit, stages_hit, converged = _land(field_, bath, boundary, r0, z0, p0,
                                                sample0, hi, s, slope, tol)
        hits.append((s, boundary, p_hit, stages_hit, converged))
    return min(hits, key=lambda item: item[0])


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def trace_ray(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig) -> TraceResult:
    """Trace one ray launched at grazing angle cfg.theta0 from (r_start, z0).

    The initial pulse is n(r_start, z0) * sin(theta0) and the variation
    matrix starts as the identity.
    """
    n0 = field_.index_at(cfg.r_start, cfg.z0)[0]
    return trace_from_pulse(field_, bath, cfg, cfg.z0, n0 * math.sin(cfg.theta0))


def trace_from_pulse(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
                     z0: float, p0: float, *, variations: bool = True) -> TraceResult:
    """Trace from explicit initial (z0, p0); used by the FD oracle.

    With ``variations=False`` only (z, p) is integrated: the q columns of
    the result are NaN and no jump is applied to them, while statuses and
    bounces (each still checked and given its jump matrix) are those of the
    full trace, and r, z and p equal its values bit for bit.
    """
    s = field_.index_at(cfg.r_start, z0)
    cutoff_sin = math.sin(cfg.steep_cutoff)
    if abs(p0) >= s[0] * cutoff_sin:
        raise ValueError(f"initial pulse {p0:g} exceeds the steep-ray cutoff")
    z_bottom = bath.depth_at(cfg.r_start)
    if not 0.0 <= z0 <= z_bottom:
        raise ValueError(f"source depth {z0:g} outside the water column")
    # Launching exactly on a boundary requires the ray to move into the water.
    if z0 == 0.0 and p0 <= 0.0:
        raise ValueError("source on the free surface must launch downward")
    if z0 == z_bottom:
        tz0 = p0 / s[0]
        frame = bath.bottom_at(cfg.r_start).frame
        if math.sqrt(max(0.0, 1.0 - tz0 * tz0)) * frame.nr + tz0 * frame.nz <= 0.0:
            raise ValueError("source on the bottom must launch into the water")

    # s is always the index tuple at (r, z), the next step's k1 sample.
    r, z, p = cfg.r_start, z0, p0
    q = (1.0, 0.0, 0.0, 1.0) if variations else (math.nan,) * 4
    rows = [(r, z, p, *q)]
    ns = [s[0]]
    bounces: list[BounceRecord] = []
    status = TraceStatus.COMPLETED
    unconverged = 0

    while r < cfg.r_end - 1e-12:
        h = min(cfg.dr, cfg.r_end - r)
        try:
            z_end, p_end, stages = _ray_step(field_, r, z, p, s, h)
            hit = _find_crossing(field_, bath, r, z, p, s, h, z_end, stages,
                                 cfg.bisect_tol)
        except SteepRayError:
            status = TraceStatus.STEEP_RAY
            break
        except DomainError:
            status = TraceStatus.DOMAIN_EXIT
            break

        if hit is None:
            if variations:
                q = _variation_step(stages, q, h)
            r += h
            z, p = z_end, p_end
            s = field_.index_at(r, z)
        else:
            h_hit, boundary, p, stages, converged = hit
            if variations:
                q = _variation_step(stages, q, h_hit)
            unconverged += not converged
            r += h_hit
            try:
                if boundary == SURFACE:
                    frame, z = surface_frame(), 0.0
                else:
                    bottom = bath.bottom_at(r)
                    frame, z = bottom.frame, bottom.z_b
                s = field_.index_at(r, z)
            except DomainError:
                status = TraceStatus.DOMAIN_EXIT
                break
            tz = p / s[0]
            if abs(tz) >= 1.0:
                status = TraceStatus.STEEP_RAY
            else:
                tr = math.sqrt(1.0 - tz * tz)
                try:
                    ctx = ReflectionContext(t=(tr, tz), frame=frame, sample=s)
                    if not ctx.forward:
                        status = TraceStatus.BACKSCATTERED
                    elif len(bounces) >= cfg.max_bounces:
                        status = TraceStatus.MAX_BOUNCES
                    else:
                        kappa = kappa_matrix(ctx)
                except GeometryError:
                    # A non-incoming ray, or a SingularReflectionError such
                    # as a tangential contact: the jump matrix diverges and
                    # the range-marching picture ends here.
                    status = TraceStatus.BACKSCATTERED
            # A bounce that ends the trace keeps its incident p and q in the last row.
            if status is TraceStatus.COMPLETED:
                bounces.append(BounceRecord(r=r, z=z, boundary=boundary,
                                            theta_incident=math.atan2(tz, tr), kappa=kappa))
                p = s[0] * ctx.t1[1]
                if variations:
                    q11, q12, q21, q22 = q
                    q = (
                        kappa.k11 * q11 + kappa.k12 * q21,
                        kappa.k11 * q12 + kappa.k12 * q22,
                        kappa.k22 * q21,
                        kappa.k22 * q22,
                    )

        rows.append((r, z, p, *q))
        ns.append(s[0])
        if status is not TraceStatus.COMPLETED:
            break
        if abs(p) >= s[0] * cutoff_sin:
            status = TraceStatus.STEEP_RAY
            break

    return TraceResult(samples=np.array(rows, dtype=float), n=np.array(ns),
                       bounces=bounces, status=status,
                       unconverged_bounces=unconverged)


def trace_fan(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
              angles) -> list[TraceResult]:
    """Trace one independent ray per launch angle (radians)."""
    return [trace_ray(field_, bath, replace(cfg, theta0=float(a))) for a in angles]


def spreading_at(result: TraceResult, r: float) -> SpreadingFactor:
    """Geometric spreading |q21| linearly interpolated at range r.

    Raises ValueError outside the sampled range and where q21 is NaN, as in
    a ray-only trace (``variations=False``), which carries no q.
    """
    rs = result.r
    if not rs[0] <= r <= rs[-1]:
        raise ValueError(f"query range {r:g} outside the sampled trace "
                         f"[{rs[0]:g}, {rs[-1]:g}]")
    value = float(np.interp(r, rs, np.abs(result.samples[:, 5])))
    if math.isnan(value):
        raise ValueError(f"q21 is NaN at r = {r:g}: a ray-only trace "
                         "(variations=False) carries no variation matrix")
    return SpreadingFactor(r=r, value=value)
