"""Verification scenario matrix used by the CLI gate and the test suite.

Each scenario traces a single bounce off a specific boundary/profile
combination and is tuned so the finite-difference comparison stays in its
second-order convergence regime at the study perturbation sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .environment import (
    ArcBottom,
    Bathymetry,
    ConstantField,
    FlatBottom,
    LinearGradientField,
    MunkField,
    SinusoidalBottom,
    SoundSpeedField,
)
from .oracle import BeamPerturbation
from .propagation import TraceConfig

__all__ = ["VerificationScenario", "PRESET_NAMES", "preset"]

# Convergence study: one perturbation at offsets h, h/2 and h/4 (its three
# Richardson levels).  The defaults of BeamPerturbation sit at the
# event-location noise floor; the study needs a truncation-dominated
# starting point to exhibit the h^2 decay.
STUDY_PERTURBATION = BeamPerturbation(h_p=1e-3, h_z=1.0, richardson_levels=3)


@dataclass(frozen=True)
class VerificationScenario:
    """One single-bounce scenario for the analytic-vs-numeric comparison."""

    name: str
    field: SoundSpeedField
    bath: Bathymetry
    cfg: TraceConfig
    r_after_bounce: float


def _flat_linear() -> VerificationScenario:
    # Depth-linear index over a flat bottom: exercises the n_z term alone.
    return VerificationScenario(
        name="flat-linear",
        field=LinearGradientField(c_surface=1500.0, gradient=1e-3),
        bath=FlatBottom(200.0),
        cfg=TraceConfig(r_start=0.0, r_end=350.0, z0=50.0,
                        theta0=math.radians(35.0), dr=0.5),
        r_after_bounce=350.0,
    )


def _arc_homogeneous() -> VerificationScenario:
    # Homogeneous water over a circular basin (curvature +0.02 1/m):
    # exercises the curvature term alone.
    return VerificationScenario(
        name="arc-homogeneous",
        field=ConstantField(c0=1500.0),
        bath=ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down"),
        cfg=TraceConfig(r_start=70.0, r_end=140.0, z0=60.0,
                        theta0=math.radians(20.0), dr=0.25),
        r_after_bounce=140.0,
    )


def _arc_linear() -> VerificationScenario:
    # Curvature and index gradient together.
    return VerificationScenario(
        name="arc-linear",
        field=LinearGradientField(c_surface=1500.0, gradient=5e-4),
        bath=ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down"),
        cfg=TraceConfig(r_start=70.0, r_end=140.0, z0=60.0,
                        theta0=math.radians(20.0), dr=0.25),
        r_after_bounce=140.0,
    )


def _sinusoidal_munk() -> VerificationScenario:
    # Canonical channel profile over a corrugated bottom; the ray dives
    # through the channel axis and bounces once off a curved section.
    return VerificationScenario(
        name="sinusoidal-munk",
        field=MunkField(),
        bath=SinusoidalBottom(mean_depth=2500.0, amplitude=40.0,
                              wavenumber=2.0 * math.pi / 1500.0),
        cfg=TraceConfig(r_start=0.0, r_end=3600.0, z0=800.0,
                        theta0=math.radians(30.0), dr=2.0),
        r_after_bounce=3600.0,
    )


_BUILDERS = {
    "flat-linear": _flat_linear,
    "arc-homogeneous": _arc_homogeneous,
    "arc-linear": _arc_linear,
    "sinusoidal-munk": _sinusoidal_munk,
}

PRESET_NAMES = tuple(_BUILDERS)


def preset(name: str) -> VerificationScenario:
    """Look up a verification scenario by name."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
