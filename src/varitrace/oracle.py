"""Independent finite-difference verification of the analytic machinery.

The variation matrix is, by definition, the Jacobian of the flow map
(p0, z0) -> (p(r), z(r)).  Everything in here estimates that Jacobian at
the trace config's ``r_end`` by rerunning whole traces with perturbed
initial data and centered differences.  The perturbed rays, and
``fd_jacobian``'s central ray, march (z, p) alone: they never evaluate
the variation right-hand side (the K-matrix code) and never apply a jump
matrix to q, so the estimate does not go through the code it checks.
Each of their bounces is still judged by the tracer's own reflection
checks, which build the jump matrix, so a perturbed ray ends or bounces
exactly where the full trace would.  Only a ray's final row, status and
bounce sequence are read, and a ray-only trace keeps just its launch and
final rows.  The perturbed rays share nothing, so each round of them, all
perturbations' Richardson levels together, is traced on every usable core
(``propagation._fork_map``), with the same results on any number of cores.
``verify_kappa`` is the decisive test of the boundary jump:
it compares the analytically propagated q (with the jump applied)
against the numerically differentiated bounce map.  ``PRESETS`` holds
the scenarios the ``verify`` command checks.  The module holds plain
values and never imports numpy: a Jacobian level is a 2x2 tuple of rows.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .environment import (
    ArcBottom,
    Bathymetry,
    ConstantField,
    FlatBottom,
    LinearGradientField,
    MunkField,
    SinusoidalBottom,
    SoundSpeedField,
    _finite,
)
from .errors import DomainError, GeometryError, PerturbationTooLargeError
from .propagation import (TraceConfig, TraceResult, TraceStatus, _fork_map, _launch_index,
                          trace_from_pulse)

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


def _offsets(pert: BeamPerturbation) -> list[tuple[float, float]]:
    """(dp0, dz0) of each FD column, level by level: the p0 column, then the z0 one."""
    return [offset for i in range(pert.richardson_levels)
            for offset in ((pert.h_p / 2**i, 0.0), (0.0, pert.h_z / 2**i))]


def _perturbed_endpoint(field_, bath, cfg, signature, launch):
    """(p, z) at cfg.r_end of the ray-only trace from ``launch`` = (z0, p0).

    A ray that leaves the water column or the field at launch, goes steep,
    bounces otherwise than ``signature`` or ends elsewhere gives a
    PerturbationTooLargeError, returned, not raised, so that the rays
    mapped beside it are still traced.
    """
    try:
        result = trace_from_pulse(field_, bath, cfg, *launch, variations=False)
    except (ValueError, DomainError) as exc:
        # perturbed launch left the water column or the field, or went steep
        return PerturbationTooLargeError(str(exc))
    if _bounce_signature(result) != signature:
        return PerturbationTooLargeError(
            "perturbed ray bounce sequence differs from the central ray")
    r_final, z, p = result.packed_samples[-7:-4]  # the final row's (r, z, p)
    if result.status is not TraceStatus.COMPLETED or abs(r_final - cfg.r_end) > 1e-9:
        return PerturbationTooLargeError(
            f"perturbed trace ended at r = {r_final:g} with status "
            f"{result.status.value}, expected to reach {cfg.r_end:g}")
    return p, z


def _central_trace(field_, bath, cfg, *, variations: bool):
    """Launch pulse and central trace to cfg.r_end, which it must reach;
    the trace integrates q only with ``variations``."""
    n0 = _launch_index(field_, cfg.r_start, cfg.z0)[0]
    p0 = n0 * math.sin(cfg.theta0)
    central = trace_from_pulse(field_, bath, cfg, cfg.z0, p0, variations=variations)
    if central.status is not TraceStatus.COMPLETED:
        raise GeometryError(
            f"central ray did not reach {cfg.r_end:g}: {central.status.value}")
    return p0, central


def _fd_levels(field_, bath, cfg, p0, central, perts):
    """FD Jacobians about an already traced central ray (see fd_jacobian):
    for each perturbation in ``perts``, in order, the perturbation used and
    its levels, one 2x2 tuple of rows each.

    Each round maps every perturbed ray still needed, a plus and a minus
    ray per column, through one ``_fork_map`` call.  Only the
    perturbations with a failed ray are halved and mapped again, up to
    MAX_HALVINGS times; then the first failure in ray order is raised.
    """
    work = functools.partial(_perturbed_endpoint, field_, bath, cfg, _bounce_signature(central))
    done = [None] * len(perts)
    todo = dict(enumerate(perts))
    for _ in range(MAX_HALVINGS + 1):
        launches = [launch for pert in todo.values() for dp0, dz0 in _offsets(pert)
                    for launch in ((cfg.z0 + dz0, p0 + dp0), (cfg.z0 - dz0, p0 - dp0))]
        ends = iter(_fork_map(work, launches))
        failed = {}
        for k, pert in todo.items():
            mine = [next(ends) for _ in range(4 * pert.richardson_levels)]
            failure = next((e for e in mine if isinstance(e, PerturbationTooLargeError)), None)
            if failure is not None:
                failed[k] = failure
                continue
            cols = []
            for (dp0, dz0), (p_plus, z_plus), (p_minus, z_minus) in zip(
                    _offsets(pert), mine[::2], mine[1::2]):
                denom = 2.0 * (dp0 + dz0)
                cols.append(((p_plus - p_minus) / denom, (z_plus - z_minus) / denom))
            # rows (p, z), columns (p0, z0)
            done[k] = pert, [tuple(zip(*cols[i:i + 2])) for i in range(0, len(cols), 2)]
        if not failed:
            return done
        todo = {k: replace(todo[k], h_p=0.5 * todo[k].h_p, h_z=0.5 * todo[k].h_z)
                for k in failed}
    raise PerturbationTooLargeError(f"bounce sequences still differ after {MAX_HALVINGS} "
                                    f"halvings: {next(iter(failed.values()))}")


def fd_jacobian(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
                pert: BeamPerturbation) -> tuple[BeamPerturbation, list]:
    """Numerical flow-map Jacobian at cfg.r_end via centered differences.

    Runs four perturbed traces per Richardson level plus the central one;
    all must reach cfg.r_end with the central ray's bounce sequence (a
    central ray that ends early raises GeometryError).  Only endpoints and
    bounce sequences are read, so every trace, the central one included,
    is ray-only.  On a sequence mismatch every level's perturbations are
    halved together, up to five times, before failing with
    PerturbationTooLargeError.  Returns (pert after any halving, one 2x2
    tuple of rows per Richardson level); a non-finite level raises
    ValueError.
    """
    p0, central = _central_trace(field_, bath, cfg, variations=False)
    ((pert, levels),) = _fd_levels(field_, bath, cfg, p0, central, (pert,))
    if not all(map(math.isfinite, (x for level in levels for row in level for x in row))):
        raise ValueError("finite-difference Jacobian is not finite")
    return pert, levels


def _max_relative_error(analytic, level, floor: float = 1e-12) -> float:
    """Max over the four entries of |a - b| / max(|a|, |b|), or of |a - b|
    where that scale is at most ``floor``; NaN if any entry is NaN."""
    errs = []
    for a, b in zip(analytic, (x for row in level for x in row)):
        scale = max(abs(a), abs(b))
        errs.append(abs(a - b) / scale if scale > floor else abs(a - b))
    return max(errs, key=lambda e: (math.isnan(e), e))


def verify_kappa(field_: SoundSpeedField, bath: Bathymetry, cfg: TraceConfig,
                 perts: Sequence[BeamPerturbation]) -> tuple[tuple[float, ...], ...]:
    """Compare analytic q (jump applied) with FD Jacobians after one bounce.

    The central trace must reach cfg.r_end after exactly one bounce.  It
    is traced once and shared by every perturbation in ``perts``, which
    give one tuple each, in order: the max relative error at each of that
    perturbation's Richardson levels.  Each level is compared, entrywise,
    with max(|analytic|, |numeric|) as the scale, falling back to absolute
    differences for near-zero entries.
    One call traces 1 + 4 * (total Richardson levels of ``perts``) rays.
    """
    # Analytic side: an ordinary trace, which integrates dq/dr = Kq and
    # applies the jump matrix at the bounce.  The same trace is the
    # central ray of the numeric side.
    p0, central = _central_trace(field_, bath, cfg, variations=True)
    if len(central.bounces) != 1:
        raise GeometryError(
            f"expected exactly one bounce before r = {cfg.r_end:g}, "
            f"got {len(central.bounces)}")
    analytic = central.packed_samples[-4:]  # the final (q11, q12, q21, q22)

    return tuple(tuple(_max_relative_error(analytic, level) for level in levels)
                 for _, levels in _fd_levels(field_, bath, cfg, p0, central, perts))


# Convergence study: one perturbation at offsets h, h/2 and h/4 (its three
# Richardson levels).  The defaults of BeamPerturbation sit at the
# event-location noise floor; the study needs a truncation-dominated
# starting point to exhibit the h^2 decay.
STUDY_PERTURBATION = BeamPerturbation(h_p=1e-3, h_z=1.0, richardson_levels=3)


@dataclass(frozen=True)
class VerificationScenario:
    """One single-bounce scenario, compared analytic vs numeric at cfg.r_end."""

    name: str
    field: SoundSpeedField
    bath: Bathymetry
    cfg: TraceConfig


PRESETS = (
    # Depth-linear index over a flat bottom: exercises the n_z term alone.
    VerificationScenario(
        name="flat-linear",
        field=LinearGradientField(c_surface=1500.0, gradient=1e-3),
        bath=FlatBottom(200.0),
        cfg=TraceConfig(r_start=0.0, r_end=350.0, z0=50.0,
                        theta0=math.radians(35.0), dr=0.5),
    ),
    # Homogeneous water over a circular basin (curvature +0.02 1/m):
    # exercises the curvature term alone.
    VerificationScenario(
        name="arc-homogeneous",
        field=ConstantField(c0=1500.0),
        bath=ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down"),
        cfg=TraceConfig(r_start=70.0, r_end=140.0, z0=60.0,
                        theta0=math.radians(20.0), dr=0.25),
    ),
    # Curvature and index gradient together; the range gradient gives the
    # jump's horizontal-gradient (n_r) term a value the gate can see.
    VerificationScenario(
        name="arc-linear",
        field=LinearGradientField(c_surface=1500.0, gradient=5e-4, range_gradient=1e-3),
        bath=ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down"),
        cfg=TraceConfig(r_start=70.0, r_end=140.0, z0=60.0,
                        theta0=math.radians(20.0), dr=0.25),
    ),
    # Canonical channel profile over a corrugated bottom; the ray dives
    # through the channel axis and bounces once off a curved section.
    VerificationScenario(
        name="sinusoidal-munk",
        field=MunkField(),
        bath=SinusoidalBottom(mean_depth=2500.0, amplitude=40.0,
                              wavenumber=2.0 * math.pi / 1500.0),
        cfg=TraceConfig(r_start=0.0, r_end=3600.0, z0=800.0,
                        theta0=math.radians(30.0), dr=2.0),
    ),
)

PRESET_NAMES = tuple(sc.name for sc in PRESETS)


def preset(name: str) -> VerificationScenario:
    """Look up a verification scenario by name."""
    for scenario in PRESETS:
        if scenario.name == name:
            return scenario
    raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
