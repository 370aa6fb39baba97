"""Range marching of rays and their variation matrices.

The ray Hamiltonian is H(z, p; r) = -sqrt(n(r, z)^2 - p^2) where the pulse
p = n sin(theta) is conjugate to depth and theta is the grazing angle.
Rays obey dz/dr = dH/dp = p / w and dp/dr = -dH/dz = n n_z / w, with
w = sqrt(n^2 - p^2).  The 2x2 variation matrix q = d(p, z)/d(p0, z0)
obeys dq/dr = K q with K built from the second derivatives of H.  The
tests check both right-hand sides against finite differences of an
independently written H, so they validate the formulas the integrator runs.

Integrates (z, p, q) with a classical fixed-step RK4 scheme in one kernel,
``_rk4_step``.  Stages 2-4 each make one ``index_at`` call (stage 1 reuses
the sample the trace loop holds for the step start), and each stage writes
out the ray right-hand side above on the plain index tuple, in locals.  The
ray never reads q, so the kernel then advances q from the same stage locals,
K q written out per stage, giving the bits one joint six-component step
gives.  Every step advances q, the landing search's trial steps included,
except in a ray-only trace (``variations=False``, the oracle's perturbed
rays), which carries q = None and computes no K term.

Each step's own stage derivatives give a cubic dense output of depth (the
continuous extension of RK4, Hairer, Norsett & Wanner, Solving ODEs I, II.6)
at no extra right-hand-side evaluation.  Each boundary is one record
(name, gap, hit): the gap is -z at the surface and z - depth_at(r) at the
bottom, and the hit gives (z, frame) on the boundary at a range.  The trace
loop screens each step in line, the surface by whether a point lies above
it and the bottom by whether both lie above its ``floor`` over a span
holding the step, and passes ``_find_crossing`` the records it did not
clear, so depths are queried only for the bottom's.  That is the decision
the queries would give, and it certifies nothing between the points.  Each
record's crossing is bracketed by the sign of its gap at the step end or,
when that is inside, at the interpolated step midpoint (a shallow double
crossing), and only a bracketed one is searched.  There an Illinois search
on the interpolated gap seeds a safeguarded secant search on the exact RK4
map from the step start, so the landing state is an RK4 state whose
boundary residual is below ``bisect_tol``.  The reflection jump is applied
there, in the frame of the landed record's hit, and marching resumes.  A
plain step and a landed bounce share one advance, so once launched a trace
reports every abnormal ending as a status, never an exception.

Each sample is written, as it is made, into two stdlib ``array('d')``: its
seven columns in one ``fromlist`` call, row after row, and the index.  The
CLI writes its rows from those, so no trace, fan or kappa scan loads numpy;
a result's array attributes import it at their first read.  A ray-only
trace, whose reader needs only its end, keeps two rows: its launch row and
its final row, the full trace's last.  The loop's state changes only once
an advance is past every call that can raise, so on any ending it is the
last row a full trace wrote.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from .environment import Bathymetry, NormalFrame, SoundSpeedField
from .errors import DomainError, GeometryError, SteepRayError
from .reflection import KappaMatrix, kappa_matrix

__all__ = [
    "TraceConfig",
    "TraceStatus",
    "BounceRecord",
    "TraceResult",
    "trace_ray",
    "trace_from_pulse",
    "trace_fan",
    "spreading_at",
]

_NO_Q = (math.nan,) * 4  # the q columns of a ray-only trace


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
        # A step that rounds away at the largest range would never advance r.
        span = max(abs(self.r_start), abs(self.r_end))
        if self.r_end > self.r_start and span + self.dr == span:
            raise ValueError(f"base step dr = {self.dr:g} is below the range "
                             f"resolution at r = {span:g}")
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
    boundary: str  # "surface" or "bottom"
    theta_incident: float
    kappa: KappaMatrix


@dataclass
class TraceResult:
    """Sampled trajectory (columns r, z, p, q11, q12, q21, q22) plus bounces.

    ``packed_samples`` holds each sample's seven columns in turn and
    ``packed_n`` the refractive index the integrator evaluated there, both
    as float64 ``array('d')``; ``samples`` (shape (n_samples, 7)), ``n``
    and the views below are numpy arrays on them, made at first read.  A
    ray-only trace (``variations=False``) keeps two rows, its launch and
    its final row, with NaN q columns.
    ``unconverged_bounces`` counts bounces whose location search stopped at
    its iteration cap before the boundary residual fell below ``bisect_tol``.
    """

    packed_samples: array = field(repr=False)
    packed_n: array = field(repr=False)
    bounces: list[BounceRecord]
    status: TraceStatus
    unconverged_bounces: int = 0

    @cached_property
    def samples(self):
        import numpy as np

        return np.frombuffer(self.packed_samples).reshape(-1, 7)

    @cached_property
    def n(self):
        import numpy as np

        return np.frombuffer(self.packed_n)

    @property
    def r(self):
        return self.samples[:, 0]

    @property
    def z(self):
        return self.samples[:, 1]

    @property
    def p(self):
        return self.samples[:, 2]

    @property
    def q(self):
        """Variation matrices, shape (n_samples, 2, 2)."""
        return self.samples[:, 3:7].reshape(-1, 2, 2)

    @property
    def det_q(self):
        s = self.samples
        return s[:, 3] * s[:, 6] - s[:, 4] * s[:, 5]

    @property
    def det_q_residual(self):
        """``|det q - 1| / (|q11 q22| + |q12 q21|)`` at each sample.

        The raw ``|det q - 1|`` cancels two products that grow with the
        entries of ``q``, so its rounding grows with them; this residual is
        relative to those products and stays at rounding level while the
        flow is symplectic, however large ``q`` becomes.
        """
        s = self.samples
        diag = s[:, 3] * s[:, 6]
        off = s[:, 4] * s[:, 5]
        return abs(diag - off - 1.0) / (abs(diag) + abs(off))


# ---------------------------------------------------------------------------
# RK4 core
# ---------------------------------------------------------------------------


def _raise_vertical(n: float, p: float):
    """Raise for a stage whose w^2 = n^2 - p^2 is not positive."""
    raise SteepRayError(f"|p| = {abs(p):g} >= n = {n:g}; ray turned vertical")


def _rk4_step(index_at, r: float, z: float, p: float, sample: tuple, h: float, q):
    """One RK4 step of the ray and, unless ``q`` is None, of q.

    Returns (z, p, q) at r + h (q stays None) and the step's dense output of
    depth, z(r + s) = z + s (d1 + s (c2 + s c3)), as (d1, c2, c3).  Each
    stage writes out dz = p / w and dp = n n_z / w, w = sqrt(n^2 - p^2), on
    the index tuple (n, n_r, n_z, n_zz); w^2 <= 0 (a vertical ray) raises
    SteepRayError.  ``sample`` is the index at the start (r, z), so only
    stages 2-4 call ``index_at``, the field's bound method.  The ray never
    reads q = (q11, q12, q21, q22), so q is advanced afterwards from the
    same stage locals with dq = K q: k11 = p n n_z / w^3, k12 = (n_z^2 +
    n n_zz) / w - (n n_z)^2 / w^3, k21 = n^2 / w^3 and k22 = -k11, whose
    products are subtracted (x - y is x + (-y) bit for bit).
    """
    hh = 0.5 * h
    n1, _, g1, gg1 = sample
    ww = n1 * n1 - p * p
    w1 = _raise_vertical(n1, p) if ww <= 0.0 else math.sqrt(ww)
    z1, p1 = p / w1, n1 * g1 / w1
    rm = r + hh
    n2, _, g2, gg2 = index_at(rm, z + hh * z1)
    pp2 = p + hh * p1
    ww = n2 * n2 - pp2 * pp2
    w2 = _raise_vertical(n2, pp2) if ww <= 0.0 else math.sqrt(ww)
    z2, p2 = pp2 / w2, n2 * g2 / w2
    n3, _, g3, gg3 = index_at(rm, z + hh * z2)
    pp3 = p + hh * p2
    ww = n3 * n3 - pp3 * pp3
    w3 = _raise_vertical(n3, pp3) if ww <= 0.0 else math.sqrt(ww)
    z3, p3 = pp3 / w3, n3 * g3 / w3
    n4, _, g4, gg4 = index_at(r + h, z + h * z3)
    pp4 = p + h * p3
    ww = n4 * n4 - pp4 * pp4
    w4 = _raise_vertical(n4, pp4) if ww <= 0.0 else math.sqrt(ww)
    z4, p4 = pp4 / w4, n4 * g4 / w4
    h6 = h / 6.0
    if q is not None:
        a, b, c, d = q
        t = w1 * w1 * w1
        k11, k21 = p * n1 * g1 / t, n1 * n1 / t
        k12 = (g1 * g1 + n1 * gg1) / w1 - (n1 * g1) ** 2 / t
        a1, b1 = k11 * a + k12 * c, k11 * b + k12 * d
        c1, d1 = k21 * a - k11 * c, k21 * b - k11 * d
        qa, qb, qc, qd = a + hh * a1, b + hh * b1, c + hh * c1, d + hh * d1
        t = w2 * w2 * w2
        k11, k21 = pp2 * n2 * g2 / t, n2 * n2 / t
        k12 = (g2 * g2 + n2 * gg2) / w2 - (n2 * g2) ** 2 / t
        a2, b2 = k11 * qa + k12 * qc, k11 * qb + k12 * qd
        c2, d2 = k21 * qa - k11 * qc, k21 * qb - k11 * qd
        qa, qb, qc, qd = a + hh * a2, b + hh * b2, c + hh * c2, d + hh * d2
        t = w3 * w3 * w3
        k11, k21 = pp3 * n3 * g3 / t, n3 * n3 / t
        k12 = (g3 * g3 + n3 * gg3) / w3 - (n3 * g3) ** 2 / t
        a3, b3 = k11 * qa + k12 * qc, k11 * qb + k12 * qd
        c3, d3 = k21 * qa - k11 * qc, k21 * qb - k11 * qd
        qa, qb, qc, qd = a + h * a3, b + h * b3, c + h * c3, d + h * d3
        t = w4 * w4 * w4
        k11, k21 = pp4 * n4 * g4 / t, n4 * n4 / t
        k12 = (g4 * g4 + n4 * gg4) / w4 - (n4 * g4) ** 2 / t
        a4, b4 = k11 * qa + k12 * qc, k11 * qb + k12 * qd
        c4, d4 = k21 * qa - k11 * qc, k21 * qb - k11 * qd
        q = (a + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4), b + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
             c + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4), d + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
    # Dense output in powers of s = t h: b1 = t - 3t^2/2 + 2t^3/3, b2 = b3 = t^2 - 2t^3/3,
    # b4 = -t^2/2 + 2t^3/3.
    return (z + h6 * (z1 + 2.0 * z2 + 2.0 * z3 + z4), p + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
            q, z1, (-1.5 * z1 + z2 + z3 - 0.5 * z4) / h,
            (2.0 / 3.0) * (z1 - z2 - z3 + z4) / (h * h))


# ---------------------------------------------------------------------------
# Boundary events
# ---------------------------------------------------------------------------

# Iteration caps of the interpolant search and of the exact landing search.
_SEED_MAX_ITER = 100
_LAND_MAX_ITER = 60


# A boundary: its BounceRecord name, its gap (r, z), negative inside the water
# and positive past it, and its hit r -> (z, frame with the normal into the water).
_Boundary = namedtuple("_Boundary", "name gap hit")
_SURFACE_HIT = (0.0, NormalFrame(nr=0.0, nz=1.0, curvature=0.0))
_SURFACE = _Boundary("surface", lambda r, z: -z, lambda r: _SURFACE_HIT)


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


def _land(index_at, gap, r0, z0, p0, sample0, q0, hi, s, slope, tol):
    """Exact RK4 ray state on the boundary, by a secant search on the true map.

    G(s) = gap(r0 + s, RK4(r0, (z0, p0), s).z) is searched from the
    interpolant's root ``s`` and slope; proposals outside the bracket
    (0, hi), tightened by every evaluation, fall back to bisection.  Each
    trial step advances q0 with the ray.  Returns (s, p, q, converged) of
    the landed step; at the iteration cap, or once the bracket has collapsed
    to adjacent floats so that no new point lies strictly inside it, of the
    last evaluated step.
    """
    lo = 0.0
    g_prev = None
    for _ in range(_LAND_MAX_ITER):
        z, p, q, _, _, _ = _rk4_step(index_at, r0, z0, p0, sample0, s, q0)
        g = gap(r0 + s, z)
        if abs(g) < tol:
            return s, p, q, True
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
    return s_prev, p, q, False


def _find_crossing(index_at, r0, z0, p0, sample0, q0, h, z_end, dense, boundaries, tol):
    """First crossing within a step of one of ``boundaries``, the records
    the trace loop's screen did not clear, surface first; or None.

    ``dense`` is the step's (d1, c2, c3, z_mid).  Each record's crossing is
    bracketed by its gap at the step end or, when that is inside, at the
    midpoint (a shallow double crossing).  Every record is bracketed before
    any is searched, and a step with none bracketed returns None before any
    search is set up; a bracketed record is searched from the gap already
    computed at its bracket end.  Returns (step_length, boundary, p, q,
    converged) of the earliest landed step, ``boundary`` being its record.
    """
    d1, c2, c3, z_mid = dense
    hh = 0.5 * h
    # The step starts inside or, after a bounce, exactly on a boundary, so
    # only the far end and the midpoint need checking: (record, bracket end, gap).
    brackets = []
    for boundary in boundaries:
        gap = boundary.gap
        hi, g_hi = h, gap(r0 + h, z_end)
        if g_hi <= 0.0:
            hi, g_hi = hh, gap(r0 + hh, z_mid)
        if not g_hi <= 0.0:
            brackets.append((boundary, hi, g_hi))
    if not brackets:
        return None

    hits = []
    for boundary, hi, g_hi in brackets:
        gap = boundary.gap
        s, slope = _seed(lambda u: gap(r0 + u, z0 + u * (d1 + u * (c2 + u * c3))),
                         hi, gap(r0, z0), g_hi, tol)
        s, p_hit, q_hit, converged = _land(index_at, gap, r0, z0, p0, sample0, q0, hi, s,
                                           slope, tol)
        hits.append((s, boundary, p_hit, q_hit, converged))
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

    With ``variations=False`` only (z, p) is integrated and only two rows
    are kept: the launch row and the final row, which equal the full
    trace's first and last in r, z, p and n bit for bit, with NaN q
    columns.  No jump is applied to q, while statuses and bounces (each
    still checked and given its jump matrix) are those of the full trace.
    """
    s = field_.index_at(cfg.r_start, z0)
    depth_at = bath.depth_at
    boundaries = surface, bottom = (
        _SURFACE, _Boundary("bottom", lambda r, z: z - depth_at(r), bath.bottom_at))
    gaps = [boundary.gap(cfg.r_start, z0) for boundary in boundaries]  # every depth query first
    tz0 = p0 / s[0]
    for boundary, gap in zip(boundaries, gaps):
        if not gap <= 0.0:  # NaN included
            raise ValueError(f"source depth {z0:g} outside the water column")
        # Launching exactly on a boundary requires the ray to move into the water.
        if gap == 0.0:
            _, frame = boundary.hit(cfg.r_start)
            if not math.sqrt(max(0.0, 1.0 - tz0 * tz0)) * frame.nr + tz0 * frame.nz > 0.0:
                raise ValueError(f"source on the {boundary.name} must launch into the water")
    cutoff_sin = math.sin(cfg.steep_cutoff)
    if not abs(p0) < s[0] * cutoff_sin:  # NaN included
        raise ValueError(f"initial pulse {p0:g} exceeds the steep-ray cutoff")

    # s is always the index tuple at (r, z), the next step's k1 sample.
    r, z, p = cfg.r_start, z0, p0
    q = (1.0, 0.0, 0.0, 1.0) if variations else None
    samples, ns = array("d", (r, z, p, *(q or _NO_Q))), array("d", (s[0],))
    bounces: list[BounceRecord] = []
    status = completed = TraceStatus.COMPLETED
    unconverged = 0
    dr, r_end, tol, index_at = cfg.dr, cfg.r_end, cfg.bisect_tol, field_.index_at
    z_floor, r_lo, r_hi = bath.floor

    while r < r_end - 1e-12:
        h = r_end - r if r_end - r < dr else dr  # min(dr, r_end - r), ties included
        # One advance, step or landed bounce; one that raises appends no row.
        try:
            z_end, p_end, q_end, d1, c2, c3 = _rk4_step(index_at, r, z, p, s, h, q)
            # The step screen, on the dense-output depth at the midpoint.
            hh = 0.5 * h
            z_mid = z + hh * (d1 + hh * (c2 + hh * c3))
            # Above the bottom's floor over a span holding the step: no bottom gap is positive.
            above = z_end < z_floor and z_mid < z_floor and r_lo <= r and r + h <= r_hi
            boundary = None
            if z_end < 0.0 or z_mid < 0.0 or not above:
                # Only the boundaries the screen did not clear, surface first.
                uncleared = ((bottom,) if z_end >= 0.0 and z_mid >= 0.0
                             else (surface,) if above else boundaries)
                hit = _find_crossing(index_at, r, z, p, s, q, h, z_end,
                                     (d1, c2, c3, z_mid), uncleared, tol)
                if hit is not None:
                    h, boundary, p_end, q_end, converged = hit
                    unconverged += not converged
            r_next = r + h
            if boundary is not None:
                z_end, frame = boundary.hit(r_next)
            s = index_at(r_next, z_end)
        except SteepRayError:
            status = TraceStatus.STEEP_RAY
            break
        except DomainError:
            status = TraceStatus.DOMAIN_EXIT
            break
        # Past every call that can raise, so an advance that raises leaves
        # (r, z, p, q, s) at the last row a full trace wrote.
        r, z, p, q = r_next, z_end, p_end, q_end

        if boundary is not None:
            tz = p / s[0]
            if abs(tz) >= 1.0:
                status = TraceStatus.STEEP_RAY
            else:
                tr = math.sqrt(1.0 - tz * tz)
                try:
                    t1, kappa = kappa_matrix((tr, tz), frame, s)
                except GeometryError:
                    # A non-incoming ray, or a SingularReflectionError such
                    # as a tangential contact: the jump matrix diverges.
                    t1 = None
                if t1 is None:
                    # no reflected ray advancing in range: the
                    # range-marching picture ends here
                    status = TraceStatus.BACKSCATTERED
                elif len(bounces) >= cfg.max_bounces:
                    status = TraceStatus.MAX_BOUNCES
            # A bounce that ends the trace keeps its incident p and q in the last row.
            if status is completed:
                bounces.append(BounceRecord(r=r, z=z, boundary=boundary.name,
                                            theta_incident=math.atan2(tz, tr), kappa=kappa))
                p = s[0] * t1[1]
                if q is not None:
                    q = kappa.apply(q)

        if variations:
            samples.fromlist([r, z, p, *q])
            ns.append(s[0])
        if status is not completed:
            break
        if abs(p) >= s[0] * cutoff_sin:
            status = TraceStatus.STEEP_RAY
            break

    if not variations:  # a ray-only trace keeps its launch row and its final row
        samples.fromlist([r, z, p, *_NO_Q])
        ns.append(s[0])
    return TraceResult(packed_samples=samples, packed_n=ns, bounces=bounces, status=status,
                       unconverged_bounces=unconverged)


def trace_fan(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
              angles) -> list[TraceResult]:
    """Trace one independent ray per launch angle (radians)."""
    return [trace_ray(field_, bath, replace(cfg, theta0=float(a))) for a in angles]


def spreading_at(result: TraceResult, r: float) -> float:
    """Geometric spreading |dz/dp0| = |q21|, in meters, linearly
    interpolated at range r; 0 only at caustics.

    Raises ValueError outside the sampled range and where q21 is NaN, as in
    a ray-only trace (``variations=False``), which carries no q.
    """
    import numpy as np

    rs = result.r
    if not rs[0] <= r <= rs[-1]:
        raise ValueError(f"query range {r:g} outside the sampled trace "
                         f"[{rs[0]:g}, {rs[-1]:g}]")
    value = float(np.interp(r, rs, np.abs(result.samples[:, 5])))
    if math.isnan(value):
        raise ValueError(f"q21 is NaN at r = {r:g}: a ray-only trace "
                         "(variations=False) carries no variation matrix")
    return value
