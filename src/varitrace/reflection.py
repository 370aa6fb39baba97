"""Boundary reflection: mirror law, pulse jump and the variation-matrix jump.

When a ray hits the surface or the bottom, its direction t flips
specularly to t1 = t - 2 N <t, N>, the pulse becomes n * t1_z, and the
variation matrix picks up a left factor, KappaMatrix.apply: q -> kappa q.
kappa is upper triangular with unit determinant, so KappaMatrix keeps
k11, k12 and k22; k12 collects three effects at the hit point: boundary
curvature, the vertical index gradient and the horizontal index gradient.

The off-diagonal entry implemented here is

    kappa12 = (-curv * n * t1r * tr
               + Nz * ((tr^2 + t1r^2) / (2 tr t1r) - Nr^2) * n_z
               + Nr * Nz^2 * n_r) * 2 / <t, N>

which is what the narrow-beam limit gives; the finite-difference oracle
tests reproduce every term, including the curvature one, entry by entry.

Whether a bounce is valid is decided here and nowhere else.
``kappa_matrix`` rejects a ray that is not incoming, raises on the
singular geometries and returns t1 = None when the reflected ray does not
advance in range (t1r <= SINGULAR_TOL).  The tracer and the kappa scan
ask it and keep no incidence test of their own.

The mirror law is written out in plain floats, with one <t, N> = tr nr +
tz nz, never handed to a BLAS dot product, whose last bit depends on the
kernel picked for the CPU, so bounce results do not depend on the BLAS
build.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environment import NormalFrame
from .errors import GeometryError, SingularReflectionError

__all__ = ["KappaMatrix", "kappa_matrix"]

# Entries of kappa blow up near vertical rays and tangential hits; below
# this scale they are reported as singular instead of returned huge.
SINGULAR_TOL = 1e-6


def _mirror(tr, tz, nr, nz):
    """The unchecked mirror law: (<t, N>, t1r, t1z), on floats or
    elementwise on numpy arrays."""
    n_t = tr * nr + tz * nz
    return n_t, tr - 2.0 * nr * n_t, tz - 2.0 * nz * n_t


@dataclass(frozen=True)
class KappaMatrix:
    """Upper-triangular jump [[k11, k12], [0, k22]] applied to q at a bounce."""

    k11: float
    k12: float
    k22: float

    def apply(self, q: tuple) -> tuple:
        """kappa q for q = (q11, q12, q21, q22), in the same layout."""
        q11, q12, q21, q22 = q
        return (self.k11 * q11 + self.k12 * q21, self.k11 * q12 + self.k12 * q22,
                self.k22 * q21, self.k22 * q22)


def kappa_matrix(t, frame: NormalFrame, sample: tuple) -> tuple[tuple | None, KappaMatrix]:
    """Reflected direction and variation-matrix jump at a boundary hit.

    ``t`` is the incident unit tangent (cos theta, sin theta), ``frame``
    the boundary normal frame and ``sample`` the local index tuple
    (n, n_r, n_z, n_zz).  Returns (t1, kappa): t1 = (t1r, t1z) by the
    mirror law, or None when the reflected ray does not advance in range
    (t1r <= SINGULAR_TOL).  Diagonal entries of kappa are the
    tangent-component ratios -t1r/tr and -tr/t1r; the off-diagonal entry
    combines curvature and index-gradient terms as described in the module
    docstring.  A non-unit t or a ray that is not incoming raises
    GeometryError; vertical incident or reflected rays and tangential hits
    are genuine singularities and raise SingularReflectionError.
    """
    tr, tz = t
    if abs(tr * tr + tz * tz - 1.0) > 1e-9:
        raise GeometryError(f"incident direction is not unit length: ({tr!r}, {tz!r})")
    nr, nz = frame.nr, frame.nz
    n_t, t1r, t1z = _mirror(tr, tz, nr, nz)
    if n_t >= 0.0:
        raise GeometryError(f"ray is not incoming: <t, N> = {n_t:g} >= 0")
    if abs(tr) < SINGULAR_TOL:
        raise SingularReflectionError(f"incident ray is vertical (tr = {tr:g})")
    if abs(t1r) < SINGULAR_TOL:
        raise SingularReflectionError(f"reflected ray is vertical (t1r = {t1r:g})")
    if abs(n_t) < SINGULAR_TOL:
        raise SingularReflectionError(f"tangential boundary hit (<t, N> = {n_t:g})")
    n, n_r, n_z, _ = sample
    k12 = (-frame.curvature * n * t1r * tr
           + nz * ((tr * tr + t1r * t1r) / (2.0 * tr * t1r) - nr * nr) * n_z
           + nr * nz * nz * n_r) * 2.0 / n_t
    kappa = KappaMatrix(k11=-t1r / tr, k12=k12, k22=-tr / t1r)
    return ((t1r, t1z) if t1r > SINGULAR_TOL else None), kappa
