"""Ray tracing for 2D refractive waveguides with variation matrices.

Traces acoustic rays through a range-dependent index field between the
free surface and a curved bottom, propagating the 2x2 variation matrix
alongside each ray and applying the curvature-aware jump transformation at
every boundary reflection.  A finite-difference oracle independently
validates the analytic formulas.

Depth increases downward; the free surface is z = 0 and the bottom is
z = z_b(r) > 0 (see :mod:`varitrace.environment`).
"""

__version__ = "0.1.0"

from .environment import (
    ArcBottom,
    Bathymetry,
    BottomSample,
    ConstantField,
    FlatBottom,
    GriddedField,
    IndexSample,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    NormalFrame,
    PiecewiseBottom,
    SinusoidalBottom,
    SoundSpeedField,
    surface_frame,
)
from .errors import (
    ConfigError,
    DomainError,
    GeometryError,
    PerturbationTooLargeError,
    SingularReflectionError,
    SteepRayError,
    VaritraceError,
)
from .oracle import (
    BeamPerturbation,
    JacobianEstimate,
    KappaVerification,
    fd_jacobian,
    verify_kappa,
)
from .propagation import (
    BounceRecord,
    SpreadingFactor,
    TraceConfig,
    TraceResult,
    TraceStatus,
    spreading_at,
    trace_fan,
    trace_from_pulse,
    trace_ray,
)
from .ray_core import KMatrix, hamiltonian, k_matrix, ray_rhs
from .reflection import (
    IdentityPair,
    KappaMatrix,
    ReflectionContext,
    identity_checks,
    kappa_matrix,
    reflect_direction,
)
