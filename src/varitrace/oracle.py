"""Independent finite-difference verification of the analytic machinery.

The variation matrix is, by definition, the Jacobian of the flow map
(p0, z0) -> (p(r), z(r)).  Everything in here estimates that Jacobian by
rerunning whole traces with perturbed initial data and centered
differences.  The perturbed rays, and ``fd_jacobian``'s central ray,
march (z, p) alone: they never evaluate the variation right-hand side
(the K-matrix code) and never apply a jump matrix to q, so the estimate
does not go through the code it checks.  Each of their bounces is still
judged by the tracer's own reflection checks, which build the jump
matrix, so a perturbed ray ends or bounces exactly where the full trace
would.  Only a ray's final row, status and bounce sequence are read, and
a ray-only trace keeps just its launch and final rows.  ``verify_kappa``
is the decisive test of the boundary jump: it compares the analytically
propagated q (with the jump applied) against the numerically
differentiated bounce map.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .environment import Bathymetry, SoundSpeedField, _finite
from .errors import DomainError, GeometryError, PerturbationTooLargeError
from .propagation import TraceConfig, TraceResult, TraceStatus, trace_from_pulse

__all__ = [
    "BeamPerturbation",
    "fd_jacobian",
    "verify_kappa",
]

# Retries with halved perturbations before giving up on a bounce-sequence
# mismatch between the central and perturbed rays.
MAX_HALVINGS = 5


@dataclass(frozen=True)
class BeamPerturbation:
    """Initial-condition offsets for the narrow comparison beam.

    ``h_p`` perturbs the launch pulse (dimensionless), ``h_z`` the launch
    depth (m); both must be small against the problem scales.
    ``richardson_levels`` >= 1 offset sizes, each half the one before,
    are traced (four rays each).
    """

    h_p: float = 1e-6
    h_z: float = 1e-4
    richardson_levels: int = 2

    def __post_init__(self):
        _finite("h_p", self.h_p, positive=True)
        _finite("h_z", self.h_z, positive=True)
        if self.richardson_levels < 1:
            raise ValueError("need at least 1 Richardson level")


def _bounce_signature(result: TraceResult) -> tuple:
    return tuple(b.boundary for b in result.bounces)


def _endpoint(result: TraceResult, r_query: float) -> tuple[float, float]:
    r_final = result.samples[-1, 0]
    if result.status is not TraceStatus.COMPLETED or abs(r_final - r_query) > 1e-9:
        raise PerturbationTooLargeError(
            f"perturbed trace ended at r = {r_final:g} with status "
            f"{result.status.value}, expected to reach {r_query:g}")
    return float(result.samples[-1, 2]), float(result.samples[-1, 1])


def _centered_jacobian(field_, bath, cfg, z0, p0, h_p, h_z, signature):
    import numpy as np

    cols = []
    for dp0, dz0 in ((h_p, 0.0), (0.0, h_z)):
        try:
            plus = trace_from_pulse(field_, bath, cfg, z0 + dz0, p0 + dp0,
                                    variations=False)
            minus = trace_from_pulse(field_, bath, cfg, z0 - dz0, p0 - dp0,
                                     variations=False)
        except (ValueError, DomainError) as exc:
            # perturbed launch left the water column or the field, or went steep
            raise PerturbationTooLargeError(str(exc))
        for res in (plus, minus):
            if _bounce_signature(res) != signature:
                raise PerturbationTooLargeError(
                    "perturbed ray bounce sequence differs from the central ray")
        p_plus, z_plus = _endpoint(plus, cfg.r_end)
        p_minus, z_minus = _endpoint(minus, cfg.r_end)
        denom = 2.0 * (dp0 + dz0)
        cols.append(((p_plus - p_minus) / denom, (z_plus - z_minus) / denom))
    return np.array(cols).T  # rows (p, z), columns (p0, z0)


def _central_trace(field_, bath, cfg, r_query, *, variations: bool):
    """Query config, launch pulse and central trace up to r_query; the
    trace integrates q only with ``variations``."""
    if not cfg.r_start <= r_query <= cfg.r_end:
        raise ValueError(f"r_query = {r_query:g} outside the trace range")
    cfg_q = replace(cfg, r_end=r_query)
    n0 = field_.index_at(cfg.r_start, cfg.z0)[0]
    p0 = n0 * math.sin(cfg.theta0)
    return cfg_q, p0, trace_from_pulse(field_, bath, cfg_q, cfg.z0, p0,
                                       variations=variations)


def _fd_levels(field_, bath, cfg_q, p0, central, pert):
    """FD Jacobians about an already traced central ray, one per Richardson
    level (see fd_jacobian); returns them with the perturbation used."""
    _endpoint(central, cfg_q.r_end)
    signature = _bounce_signature(central)

    last_error: Exception | None = None
    for _ in range(MAX_HALVINGS + 1):
        try:
            return pert, [
                _centered_jacobian(field_, bath, cfg_q, cfg_q.z0, p0,
                                   pert.h_p / 2**i, pert.h_z / 2**i, signature)
                for i in range(pert.richardson_levels)
            ]
        except PerturbationTooLargeError as exc:
            last_error = exc
            pert = replace(pert, h_p=0.5 * pert.h_p, h_z=0.5 * pert.h_z)
    raise PerturbationTooLargeError(
        f"bounce sequences still differ after {MAX_HALVINGS} halvings: {last_error}")


def fd_jacobian(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
                pert: BeamPerturbation, r_query: float) -> tuple[BeamPerturbation, list]:
    """Numerical flow-map Jacobian at r_query via centered differences.

    Runs four perturbed traces per Richardson level plus the central one;
    all must reach r_query with the central ray's bounce sequence.  Only
    endpoints and bounce sequences are read, so every trace, the central
    one included, is ray-only.  On a sequence mismatch every level's
    perturbations are halved together, up to five times, before failing
    with PerturbationTooLargeError.  Returns (pert after any halving, one
    2x2 array per Richardson level); a non-finite level raises ValueError.
    """
    cfg_q, p0, central = _central_trace(field_, bath, cfg, r_query, variations=False)
    pert, levels = _fd_levels(field_, bath, cfg_q, p0, central, pert)
    if not all(map(math.isfinite, (x for level in levels for x in level.flat))):
        raise ValueError("finite-difference Jacobian is not finite")
    return pert, levels


def _relative_errors(a, b, floor: float = 1e-12):
    import numpy as np

    scale = np.maximum(np.abs(a), np.abs(b))
    return np.where(scale > floor, np.abs(a - b) / np.maximum(scale, floor),
                    np.abs(a - b))


def verify_kappa(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
                 perts: Sequence[BeamPerturbation],
                 r_after_bounce: float) -> tuple[tuple[float, ...], ...]:
    """Compare analytic q (jump applied) with FD Jacobians after one bounce.

    The central trace must bounce exactly once before ``r_after_bounce``.
    It is traced once and shared by every perturbation in ``perts``, which
    give one tuple each, in order: the max relative error at each of that
    perturbation's Richardson levels.  Each level is compared, entrywise,
    with max(|analytic|, |numeric|) as the scale, falling back to absolute
    differences for near-zero entries.
    One call traces 1 + 4 * (total Richardson levels of ``perts``) rays.
    """
    # Analytic side: an ordinary trace, which integrates dq/dr = Kq and
    # applies the jump matrix at the bounce.  The same trace is the
    # central ray of the numeric side.
    cfg_q, p0, central = _central_trace(field_, bath, cfg, r_after_bounce, variations=True)
    if central.status is not TraceStatus.COMPLETED:
        raise GeometryError(
            f"central ray did not reach {r_after_bounce:g}: {central.status.value}")
    if len(central.bounces) != 1:
        raise GeometryError(
            f"expected exactly one bounce before r = {r_after_bounce:g}, "
            f"got {len(central.bounces)}")
    analytic = central.q[-1]

    results = []
    for pert in perts:
        _, levels = _fd_levels(field_, bath, cfg_q, p0, central, pert)
        results.append(tuple(float(_relative_errors(analytic, numeric).max())
                             for numeric in levels))
    return tuple(results)
