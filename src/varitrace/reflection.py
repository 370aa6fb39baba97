"""Boundary reflection: mirror law, pulse jump and the variation-matrix jump.

When a ray hits the surface or the bottom, its direction t flips
specularly to t1 = t - 2 N <t, N>, the pulse becomes n * t1_z, and the
variation matrix picks up a left factor q -> kappa q.  The jump matrix
kappa is upper triangular with unit determinant; its off-diagonal entry
collects three effects at the hit point: boundary curvature, the vertical
index gradient and the horizontal index gradient.

The off-diagonal entry implemented here is

    kappa12 = (-curv * n * t1r * tr
               + Nz * ((tr^2 + t1r^2) / (2 tr t1r) - Nr^2) * n_z
               + Nr * Nz^2 * n_r) * 2 / <t, N>

which is what the narrow-beam limit gives; the finite-difference oracle
tests reproduce every term, including the curvature one, entry by entry.

Whether a bounce is valid is decided here and nowhere else.
``ReflectionContext`` derives t1 and <t, N> and rejects a ray that is not
incoming; its ``forward`` test says whether the reflected ray still
advances in range (t1r > SINGULAR_TOL); ``kappa_matrix`` raises on the
remaining singular geometries.  The tracer and the kappa scan ask these
and keep no incidence test of their own; the verify sweeps drop, before
asking, only draws these would reject.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import IndexSample, NormalFrame
from .errors import GeometryError, SingularReflectionError

__all__ = [
    "ReflectionContext",
    "KappaMatrix",
    "IdentityPair",
    "reflect_direction",
    "kappa_matrix",
    "identity_checks",
]

# Entries of kappa blow up near vertical rays and tangential hits; below
# this scale they are reported as singular instead of returned huge.
SINGULAR_TOL = 1e-6


def reflect_direction(t, n_vec) -> np.ndarray:
    """Specular mirror law t1 = t - 2 N <t, N> for unit vectors t, N."""
    t = np.asarray(t, dtype=float)
    n_vec = np.asarray(n_vec, dtype=float)
    if abs(t[0] ** 2 + t[1] ** 2 - 1.0) > 1e-9:
        raise GeometryError(f"incident direction is not unit length: {t}")
    if abs(n_vec[0] ** 2 + n_vec[1] ** 2 - 1.0) > 1e-9:
        raise GeometryError(f"normal is not unit length: {n_vec}")
    n_t = float(t @ n_vec)
    if n_t >= 0.0:
        raise GeometryError(f"ray is not incoming: <t, N> = {n_t:g} >= 0")
    return t - 2.0 * n_t * n_vec


@dataclass(frozen=True)
class ReflectionContext:
    """Everything kappa needs at one bounce point.

    ``t`` is the incident unit tangent (cos theta, sin theta), ``frame``
    the boundary normal frame and ``sample`` the local index sample.  The
    reflected tangent and <t, N> are derived on construction; a
    non-incoming ray (<t, N> >= 0) is rejected.  ``forward`` is the one
    test of whether the reflected ray still advances in range.
    """

    t: np.ndarray
    frame: NormalFrame
    sample: IndexSample

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        # reflect_direction re-validates unit length and incidence
        object.__setattr__(self, "t1", reflect_direction(t, self.frame.as_array()))
        object.__setattr__(self, "n_t", float(t[0] * self.frame.nr + t[1] * self.frame.nz))

    @property
    def forward(self) -> bool:
        """Whether the reflected ray keeps advancing in range."""
        return float(self.t1[0]) > SINGULAR_TOL


@dataclass(frozen=True)
class KappaMatrix:
    """Upper-triangular jump applied to q at a bounce (k21 = 0, det = 1)."""

    k11: float
    k12: float
    k22: float
    k21: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([[self.k11, self.k12], [self.k21, self.k22]])

    def det(self) -> float:
        return self.k11 * self.k22 - self.k12 * self.k21


def kappa_matrix(ctx: ReflectionContext) -> KappaMatrix:
    """Variation-matrix jump at a boundary hit.

    Diagonal entries are the tangent-component ratios -t1r/tr and -tr/t1r;
    the off-diagonal entry combines curvature and index-gradient terms as
    described in the module docstring.  Vertical incident or reflected
    rays and tangential hits are genuine singularities and raise.
    """
    tr = float(ctx.t[0])
    t1r = float(ctx.t1[0])
    n_t = ctx.n_t
    if abs(tr) < SINGULAR_TOL:
        raise SingularReflectionError(f"incident ray is vertical (tr = {tr:g})")
    if abs(t1r) < SINGULAR_TOL:
        raise SingularReflectionError(f"reflected ray is vertical (t1r = {t1r:g})")
    if abs(n_t) < SINGULAR_TOL:
        raise SingularReflectionError(f"tangential boundary hit (<t, N> = {n_t:g})")
    nr, nz = ctx.frame.nr, ctx.frame.nz
    curv = ctx.frame.curvature
    s = ctx.sample
    k12 = (-curv * s.n * t1r * tr
           + nz * ((tr * tr + t1r * t1r) / (2.0 * tr * t1r) - nr * nr) * s.n_z
           + nr * nz * nz * s.n_r) * 2.0 / n_t
    return KappaMatrix(k11=-t1r / tr, k12=k12, k22=-tr / t1r)


@dataclass(frozen=True)
class IdentityPair:
    """Both sides of the two tangent-ratio identities used in the derivation:
    floats for one pair, N-arrays for N stacked pairs."""

    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float


def identity_checks(t, n_vec) -> IdentityPair:
    """Evaluate 1 - 2Nz^2 + 2NzNr tz/tr == -t1r/tr and its companion.

    The second identity is 1 + (tr Nz / <t,N>) (t1z/t1r - tz/tr) == -tr/t1r.
    Both hold for any unit t, N with tr, t1r and <t, N> nonzero.

    ``t`` and ``n_vec`` may also be (2, N) arrays of N stacked pairs: each
    side is then an N-array, bit for bit the scalar result per column, and
    any singular column raises.
    """
    (tr, tz), (nr, nz) = np.asarray(t, dtype=float), np.asarray(n_vec, dtype=float)
    n_t = tr * nr + tz * nz
    t1r = tr - 2.0 * nr * n_t
    t1z = tz - 2.0 * nz * n_t
    if np.any((np.abs(tr) < SINGULAR_TOL) | (np.abs(t1r) < SINGULAR_TOL)
              | (np.abs(n_t) < SINGULAR_TOL)):
        raise SingularReflectionError("identity expressions are singular for this geometry")
    lhs1 = 1.0 - 2.0 * nz * nz + 2.0 * nz * nr * tz / tr
    rhs1 = -t1r / tr
    lhs2 = 1.0 + (tr * nz / n_t) * (t1z / t1r - tz / tr)
    rhs2 = -tr / t1r
    return IdentityPair(lhs1=lhs1, rhs1=rhs1, lhs2=lhs2, rhs2=rhs2)
