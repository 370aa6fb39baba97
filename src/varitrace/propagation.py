"""Range marching of rays and their variation matrices.

Integrates (z, p, q) jointly with a classical fixed-step RK4 scheme,
written out over the six state components: each stage makes one call of
the closed form ``ray_variation_rhs``, and stages 2-4 one ``index_at``
call; stage 1 reuses the sample the trace loop holds for the step start.
Each step's own stage derivatives give a cubic dense output of depth (the
continuous extension of RK4, Hairer, Norsett & Wanner, Solving ODEs I,
II.6) at no extra right-hand-side evaluation.  A boundary crossing is
bracketed by the sign of the boundary gap at the step end or, when both
ends are inside, at the interpolated step midpoint (a shallow double
crossing).  An Illinois search on the interpolated gap seeds a safeguarded
secant search on the exact RK4 map from the step start, so the landing
state is an RK4 state whose boundary residual is below ``bisect_tol``.
The reflection jump is applied there and marching resumes.  All abnormal
endings are reported as statuses, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .environment import Bathymetry, IndexSample, SoundSpeedField, surface_frame
from .errors import DomainError, GeometryError, SteepRayError
from .ray_core import ray_variation_rhs
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


def _rk4_step(field_: SoundSpeedField, r: float, y: tuple, sample: IndexSample,
              h: float):
    """One RK4 step: the new state and the stage derivatives k1..k4.

    Written out over the six components (z, p, q11, q12, q21, q22), with
    one ``ray_variation_rhs`` call per stage; ``sample`` is the index at
    the start (r, z), so only stages 2-4 call ``index_at``.
    """
    index_at = field_.index_at
    z, p, a, b, c, d = y
    hh = 0.5 * h
    k1 = z1, p1, a1, b1, c1, d1 = ray_variation_rhs(sample, p, a, b, c, d)
    rm = r + hh
    k2 = z2, p2, a2, b2, c2, d2 = ray_variation_rhs(
        index_at(rm, z + hh * z1), p + hh * p1,
        a + hh * a1, b + hh * b1, c + hh * c1, d + hh * d1)
    k3 = z3, p3, a3, b3, c3, d3 = ray_variation_rhs(
        index_at(rm, z + hh * z2), p + hh * p2,
        a + hh * a2, b + hh * b2, c + hh * c2, d + hh * d2)
    k4 = z4, p4, a4, b4, c4, d4 = ray_variation_rhs(
        index_at(r + h, z + h * z3), p + h * p3,
        a + h * a3, b + h * b3, c + h * c3, d + h * d3)
    h6 = h / 6.0
    y_new = (
        z + h6 * (z1 + 2.0 * z2 + 2.0 * z3 + z4),
        p + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
        a + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        b + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
        c + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
        d + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4),
    )
    return y_new, (k1, k2, k3, k4)


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


def _land(field_, bath, boundary, r0, y0, sample0, hi, s, slope, tol):
    """Exact RK4 state on the boundary, by a secant search on the true map.

    G(s) = gap(r0 + s, RK4(r0, y0, s).z) is searched from the interpolant's
    root ``s`` and slope; proposals outside the bracket (0, hi), tightened
    by every evaluation, fall back to bisection.  Returns (s, state,
    converged); at the iteration cap, or once the bracket has collapsed
    to adjacent floats so that no new point lies strictly inside it, the
    last evaluated state.
    """
    lo = 0.0
    g_prev = None
    for _ in range(_LAND_MAX_ITER):
        y = _rk4_step(field_, r0, y0, sample0, s)[0]
        g = _gap(bath, boundary, r0 + s, y[0])
        if abs(g) < tol:
            return s, y, True
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
    return s_prev, y, False


def _find_crossing(field_, bath, r0, y0, sample0, h, y_end, stages, tol):
    """First boundary crossing within a step, or None.

    A crossing is bracketed by the gap at the step end or, when that is
    inside, at the midpoint of the step's dense output (a shallow double
    crossing).  Returns (step_length, boundary, state_at_hit, converged).
    """
    # Depth on the RK4 continuous extension, expanded in powers of s = t h:
    # b1 = t - 3t^2/2 + 2t^3/3, b2 = b3 = t^2 - 2t^3/3, b4 = -t^2/2 + 2t^3/3.
    z0 = y0[0]
    d1, d2, d3, d4 = (k[0] for k in stages)
    c2 = (-1.5 * d1 + d2 + d3 - 0.5 * d4) / h
    c3 = (2.0 / 3.0) * (d1 - d2 - d3 + d4) / (h * h)

    hits = []
    for boundary in (SURFACE, BOTTOM):
        def gap(s, boundary=boundary):
            return _gap(bath, boundary, r0 + s, z0 + s * (d1 + s * (c2 + s * c3)))

        # The step starts inside or, after a bounce, exactly on a boundary,
        # so only the far end and the midpoint need checking.
        hi = h
        g_hi = _gap(bath, boundary, r0 + h, y_end[0])
        if g_hi <= 0.0:
            hi = 0.5 * h
            g_hi = gap(hi)
            if g_hi <= 0.0:
                continue
        s, slope = _seed(gap, hi, _gap(bath, boundary, r0, z0), g_hi, tol)
        s, y_hit, converged = _land(field_, bath, boundary, r0, y0, sample0,
                                    hi, s, slope, tol)
        hits.append((s, boundary, y_hit, converged))
    if not hits:
        return None
    return min(hits, key=lambda item: item[0])


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def trace_ray(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig) -> TraceResult:
    """Trace one ray launched at grazing angle cfg.theta0 from (r_start, z0).

    The initial pulse is n(r_start, z0) * sin(theta0) and the variation
    matrix starts as the identity.
    """
    n0 = field_.index_at(cfg.r_start, cfg.z0).n
    return trace_from_pulse(field_, bath, cfg, cfg.z0, n0 * math.sin(cfg.theta0))


def trace_from_pulse(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
                     z0: float, p0: float) -> TraceResult:
    """Trace from explicit initial (z0, p0); used by the FD oracle."""
    s = field_.index_at(cfg.r_start, z0)
    cutoff_sin = math.sin(cfg.steep_cutoff)
    if abs(p0) >= s.n * cutoff_sin:
        raise ValueError(f"initial pulse {p0:g} exceeds the steep-ray cutoff")
    z_bottom = bath.depth_at(cfg.r_start)
    if not 0.0 <= z0 <= z_bottom:
        raise ValueError(f"source depth {z0:g} outside the water column")
    # Launching exactly on a boundary requires the ray to move into the water.
    if z0 == 0.0 and p0 <= 0.0:
        raise ValueError("source on the free surface must launch downward")
    if z0 == z_bottom:
        tz0 = p0 / s.n
        t0 = np.array([math.sqrt(max(0.0, 1.0 - tz0 * tz0)), tz0])
        if float(t0 @ bath.bottom_at(cfg.r_start).frame.as_array()) <= 0.0:
            raise ValueError("source on the bottom must launch into the water")

    # s is always the index sample at (r, y[0]), the next step's k1 sample.
    r = cfg.r_start
    y = (z0, p0, 1.0, 0.0, 0.0, 1.0)
    rows = [(r, *y)]
    ns = [s.n]
    bounces: list[BounceRecord] = []
    status = TraceStatus.COMPLETED
    unconverged = 0

    while r < cfg.r_end - 1e-12:
        h = min(cfg.dr, cfg.r_end - r)
        try:
            y_end, stages = _rk4_step(field_, r, y, s, h)
            hit = _find_crossing(field_, bath, r, y, s, h, y_end, stages,
                                 cfg.bisect_tol)
        except SteepRayError:
            status = TraceStatus.STEEP_RAY
            break
        except DomainError:
            status = TraceStatus.DOMAIN_EXIT
            break

        if hit is None:
            r += h
            y = y_end
            s = field_.index_at(r, y[0])
            rows.append((r, *y))
            ns.append(s.n)
            if abs(y[1]) >= s.n * cutoff_sin:
                status = TraceStatus.STEEP_RAY
                break
            continue

        h_hit, boundary, y_hit, converged = hit
        unconverged += not converged
        r_hit = r + h_hit
        try:
            if boundary == SURFACE:
                frame = surface_frame()
                z_hit = 0.0
            else:
                bottom = bath.bottom_at(r_hit)
                frame = bottom.frame
                z_hit = bottom.z_b
            s = field_.index_at(r_hit, z_hit)
        except DomainError:
            status = TraceStatus.DOMAIN_EXIT
            break

        p_hit = y_hit[1]
        tz = p_hit / s.n
        if abs(tz) >= 1.0:
            status = TraceStatus.STEEP_RAY
        else:
            t = np.array([math.sqrt(1.0 - tz * tz), tz])
            try:
                ctx = ReflectionContext(t=t, frame=frame, sample=s)
                if not ctx.forward:
                    status = TraceStatus.BACKSCATTERED
                elif len(bounces) >= cfg.max_bounces:
                    status = TraceStatus.MAX_BOUNCES
                else:
                    kappa = kappa_matrix(ctx)
            except GeometryError:
                # A non-incoming ray, or a SingularReflectionError such as
                # a tangential contact: the jump matrix diverges and the
                # range-marching picture ends here.
                status = TraceStatus.BACKSCATTERED
        if status is not TraceStatus.COMPLETED:
            rows.append((r_hit, z_hit, *y_hit[1:]))
            ns.append(s.n)
            break

        p1 = s.n * float(ctx.t1[1])
        theta_inc = math.atan2(tz, float(t[0]))
        bounces.append(BounceRecord(r=r_hit, z=z_hit, boundary=boundary,
                                    theta_incident=theta_inc, kappa=kappa))

        q11, q12, q21, q22 = y_hit[2:]
        y = (
            z_hit,
            p1,
            kappa.k11 * q11 + kappa.k12 * q21,
            kappa.k11 * q12 + kappa.k12 * q22,
            kappa.k22 * q21,
            kappa.k22 * q22,
        )
        r = r_hit
        rows.append((r, *y))
        ns.append(s.n)
        if abs(p1) >= s.n * cutoff_sin:
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
    """Geometric spreading |q21| linearly interpolated at range r."""
    rs = result.r
    if not rs[0] <= r <= rs[-1]:
        raise ValueError(f"query range {r:g} outside the sampled trace "
                         f"[{rs[0]:g}, {rs[-1]:g}]")
    value = float(np.interp(r, rs, np.abs(result.samples[:, 5])))
    return SpreadingFactor(r=r, value=value)
