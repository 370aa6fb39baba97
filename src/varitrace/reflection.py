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

The mirror law is written out in plain floats, with one <t, N> = tr nr +
tz nz, never handed to a BLAS dot product, whose last bit depends on the
kernel picked for the CPU, so bounce results do not depend on the BLAS
build.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environment import NormalFrame
from .errors import GeometryError, SingularReflectionError

__all__ = [
    "ReflectionContext",
    "KappaMatrix",
    "kappa_matrix",
    "identity_checks",
]

# Entries of kappa blow up near vertical rays and tangential hits; below
# this scale they are reported as singular instead of returned huge.
SINGULAR_TOL = 1e-6


def _mirror(tr: float, tz: float, nr: float, nz: float) -> tuple[float, tuple]:
    """The checked mirror law: (<t, N>, (t1r, t1z)) for a unit incident t."""
    if abs(tr * tr + tz * tz - 1.0) > 1e-9:
        raise GeometryError(f"incident direction is not unit length: ({tr!r}, {tz!r})")
    n_t = tr * nr + tz * nz
    if n_t >= 0.0:
        raise GeometryError(f"ray is not incoming: <t, N> = {n_t:g} >= 0")
    return n_t, (tr - 2.0 * n_t * nr, tz - 2.0 * n_t * nz)


@dataclass(frozen=True)
class ReflectionContext:
    """Everything kappa needs at one bounce point.

    ``t`` is the incident unit tangent (cos theta, sin theta), ``frame``
    the boundary normal frame and ``sample`` the local index tuple
    (n, n_r, n_z, n_zz).  The
    reflected tangent ``t1`` and ``n_t`` = <t, N> are derived on
    construction, as floats; a non-incoming ray (<t, N> >= 0) is rejected.
    ``forward`` is the one test of whether the reflected ray still
    advances in range.
    """

    t: tuple[float, float]
    frame: NormalFrame
    sample: tuple

    def __post_init__(self):
        tr, tz = map(float, self.t)
        n_t, t1 = _mirror(tr, tz, self.frame.nr, self.frame.nz)
        object.__setattr__(self, "t", (tr, tz))
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "n_t", n_t)

    @property
    def forward(self) -> bool:
        """Whether the reflected ray keeps advancing in range."""
        return self.t1[0] > SINGULAR_TOL


@dataclass(frozen=True)
class KappaMatrix:
    """Upper-triangular jump applied to q at a bounce (k21 = 0, det = 1)."""

    k11: float
    k12: float
    k22: float
    k21: float = 0.0

    def det(self) -> float:
        return self.k11 * self.k22 - self.k12 * self.k21


def kappa_matrix(ctx: ReflectionContext) -> KappaMatrix:
    """Variation-matrix jump at a boundary hit.

    Diagonal entries are the tangent-component ratios -t1r/tr and -tr/t1r;
    the off-diagonal entry combines curvature and index-gradient terms as
    described in the module docstring.  Vertical incident or reflected
    rays and tangential hits are genuine singularities and raise.
    """
    tr, t1r, n_t = ctx.t[0], ctx.t1[0], ctx.n_t
    if abs(tr) < SINGULAR_TOL:
        raise SingularReflectionError(f"incident ray is vertical (tr = {tr:g})")
    if abs(t1r) < SINGULAR_TOL:
        raise SingularReflectionError(f"reflected ray is vertical (t1r = {t1r:g})")
    if abs(n_t) < SINGULAR_TOL:
        raise SingularReflectionError(f"tangential boundary hit (<t, N> = {n_t:g})")
    nr, nz = ctx.frame.nr, ctx.frame.nz
    curv = ctx.frame.curvature
    n, n_r, n_z, _ = ctx.sample
    k12 = (-curv * n * t1r * tr
           + nz * ((tr * tr + t1r * t1r) / (2.0 * tr * t1r) - nr * nr) * n_z
           + nr * nz * nz * n_r) * 2.0 / n_t
    return KappaMatrix(k11=-t1r / tr, k12=k12, k22=-tr / t1r)


def identity_checks(t, n_vec) -> tuple[tuple, tuple]:
    """Evaluate 1 - 2Nz^2 + 2NzNr tz/tr == -t1r/tr and its companion.

    The second identity is 1 + (tr Nz / <t,N>) (t1z/t1r - tz/tr) == -tr/t1r.
    Both hold for any unit t, N with tr, t1r and <t, N> nonzero.  Returns
    both sides of each, ((lhs1, rhs1), (lhs2, rhs2)), as numpy floats.

    ``t`` and ``n_vec`` may also be (2, N) arrays of N stacked pairs: each
    side is then an N-array, bit for bit the scalar result per column, and
    any singular column raises.
    """
    import numpy as np

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
    return (lhs1, rhs1), (lhs2, rhs2)
