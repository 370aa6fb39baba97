"""Verification scenario matrix used by the CLI gate and the test suite.

Each ``PRESETS`` scenario traces one bounce off a specific boundary/profile
combination, compared at its trace's own ``r_end``, and is tuned so the
finite-difference comparison stays in its second-order convergence regime
at the study perturbation sizes.
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

__all__ = ["VerificationScenario", "PRESETS", "PRESET_NAMES", "preset"]

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
