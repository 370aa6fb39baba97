"""Sound speed fields and bottom geometry for 2D waveguide ray tracing.

Coordinate conventions used throughout the package:

* ``r`` is horizontal range in meters, ``z`` is depth in meters and
  **increases downward**.
* The free surface is the line ``z = 0``; the bottom is the curve
  ``z = z_b(r)`` with ``z_b(r) > 0``, so the water column is
  ``0 <= z <= z_b(r)``.
* Internal (into-the-water) unit normals therefore have ``nz < 0`` on the
  bottom and ``nz > 0`` on the surface.
* The refractive index is ``n(r, z) = c0 / c(r, z)`` for a reference sound
  speed ``c0``.
* The signed bottom curvature is ``-z_b'' / (1 + z_b'^2)^(3/2)``:
  positive where the bottom is concave up (a focusing basin; a
  circular-arc basin of radius R has curvature ``+1/R`` everywhere) and
  negative on a convex bump.  This sign is the one that makes the
  analytic reflection jump agree with the finite-difference calibration
  tests in the oracle module.

Sampled profiles (a ``GriddedField`` and a ``PiecewiseBottom``) are
fitted once with a natural cubic spline in plain Python, repeating scipy
``CubicSpline``'s arithmetic so the coefficients equal scipy's bit for
bit; a 2D grid takes two passes of it.  A 1D grid sums the row of that
coefficient table in line; a ``PiecewiseBottom`` and a 2D grid's range
splines call the table, which returns value, slope and second derivative
in one call.  Both sum in scipy ``PPoly``'s own order.

All field and bathymetry objects are immutable after construction and all
queries are pure functions, so they can be shared freely between
concurrent ray traces.  Each bathymetry's ``floor = (min_depth, r_lo,
r_hi)`` promises that, for ``r_lo <= r <= r_hi``, ``depth_at(r)`` raises
nothing and returns at least ``min_depth``.  The tracer skips the bottom
query where a ray lies above ``min_depth``, so the default ``(-inf, -inf,
inf)`` promises nothing.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "NormalFrame",
    "SoundSpeedField",
    "ConstantField",
    "LinearGradientField",
    "MunkField",
    "GriddedField",
    "Bathymetry",
    "FlatBottom",
    "LinearSlopeBottom",
    "SinusoidalBottom",
    "ArcBottom",
    "PiecewiseBottom",
]


def _finite(name: str, value, positive: bool = False) -> float:
    """``value`` as a float; a ValueError naming ``name`` unless it is finite
    and, with ``positive``, above 0.  NaN fails every comparison, so a
    ``<= 0.0`` test alone lets it through."""
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0.0):
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class NormalFrame:
    """Unit internal normal ``(nr, nz)``, pointing into the water column,
    and the signed boundary curvature in 1/m."""

    nr: float
    nz: float
    curvature: float

    def __post_init__(self):
        norm = math.hypot(self.nr, self.nz)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"normal (nr, nz) must be unit length, got |N| = {norm!r}")
        _finite("curvature", self.curvature)


def _bottom_frame(slope: float, d2: float) -> NormalFrame:
    # Into-water normal of the graph z = z_b(r): (slope, -1) normalized.
    # The curvature sign (positive = concave up, toward the water) is the
    # one the finite-difference calibration of the reflection jump pins.
    norm = math.sqrt(1.0 + slope * slope)
    return NormalFrame(nr=slope / norm, nz=-1.0 / norm, curvature=-d2 / norm**3)


def _read_table(path) -> tuple[list[float], list[float]]:
    """The two columns of a whitespace-separated text table.  ``#`` starts a
    comment and blank lines are skipped; a line that does not hold exactly
    two finite numbers raises ValueError naming the file and the line."""
    first, second = [], []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            fields = line.split("#", 1)[0].split()
            if fields:
                try:
                    x, y = map(float, fields)
                except ValueError:
                    x = y = math.nan
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"{path}, line {number}: expected two finite numbers, "
                                     f"got {line.strip()!r}")
                first.append(x)
                second.append(y)
    return first, second


def _increasing(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of at least 4 strictly increasing finite floats
    (NaN fails no ordering test, so finiteness is checked on its own)."""
    values = tuple(map(float, values))
    if (len(values) < 4 or not all(map(math.isfinite, values))
            or any(b <= a for a, b in zip(values, values[1:]))):
        raise ValueError(f"need at least 4 strictly increasing finite {what}")
    return values


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve a tridiagonal system in place, as LAPACK ``dgtsv`` does for
    one right-hand side: elimination with partial pivoting (row
    interchanges fill ``dl`` with a second superdiagonal), then back
    substitution.  ``dl``/``du`` are the sub- and superdiagonals."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class _CubicTable:
    """Natural cubic spline through samples (x, y), fitted and evaluated in
    plain Python.

    The fit repeats scipy's ``CubicSpline(x, y, bc_type="natural")``
    arithmetic in scipy's order: the same banded system for the knot
    slopes, solved by ``dgtsv``'s algorithm, and ``CubicHermiteSpline``'s
    coefficient formulas, so the coefficients equal scipy's bit for bit.
    A call returns (value, first, second derivative) at one point, summed
    in scipy ``PPoly``'s order, so it equals ``float(spline(v, nu))`` for
    nu = 0, 1, 2 bit for bit.  Callers check the domain first; a point at
    or past the last knot uses the last interval, as ``PPoly`` does.
    """

    __slots__ = ("_x", "_rows")

    def __init__(self, x, y):
        x = [float(v) for v in x]
        y = [float(v) for v in y]
        if len(y) != len(x):
            raise ValueError(f"need one value per sample point, got {len(y)} for {len(x)}")
        if not all(math.isfinite(v) for v in x + y):
            raise ValueError("spline samples must all be finite")
        n = len(x)
        dx = [x[i + 1] - x[i] for i in range(n - 1)]
        slope = [(y[i + 1] - y[i]) / dx[i] for i in range(n - 1)]
        # Knot slopes m from row i: dx[i] m[i-1] + 2 (dx[i-1] + dx[i]) m[i]
        # + dx[i-1] m[i+1] = 3 (dx[i] slope[i-1] + dx[i-1] slope[i]); the end
        # rows are scipy's for a zero second derivative, signed-zero term
        # included.
        d = ([2.0 * dx[0]] + [2.0 * (dx[i - 1] + dx[i]) for i in range(1, n - 1)]
             + [2.0 * dx[-1]])
        b = ([-0.5 * 0.0 * (dx[0] * dx[0]) + 3.0 * (y[1] - y[0])]
             + [3.0 * (dx[i] * slope[i - 1] + dx[i - 1] * slope[i]) for i in range(1, n - 1)]
             + [0.5 * 0.0 * (dx[-1] * dx[-1]) + 3.0 * (y[-1] - y[-2])])
        m = _gtsv(dx[1:] + [dx[-1]], d, [dx[0]] + dx[:-1], b)
        self._x = x
        # Interval i's (x[i], d, c, b, a): d + c s + b s^2 + a s^3 at s = v - x[i].
        self._rows = []
        for i in range(n - 1):
            t = (m[i] + m[i + 1] - 2.0 * slope[i]) / dx[i]
            self._rows.append((x[i], y[i], m[i], (slope[i] - m[i]) / dx[i] - t, t / dx[i]))
        self._rows.append(self._rows[-1])  # at or past the last knot: no clamp in a call

    def __call__(self, v: float) -> tuple[float, float, float]:
        x, d, c, b, a = self._rows[bisect_right(self._x, v) - 1]
        s = v - x
        s2 = s * s
        return (d + c * s + b * s2 + a * (s2 * s),
                c + b * s * 2.0 + a * s2 * 3.0,
                b * 2.0 + a * s * 6.0)

    def lowest(self) -> tuple[float, float, float]:
        """(minimum, where, bound) over [x[0], x[-1]]; ``bound`` is below every value a
        call returns there, by 1e-12 of the summed term sizes (far above rounding)."""
        lowest, bound = (math.inf, math.nan), math.inf
        for (x0, d, c, b, a), x1 in zip(self._rows, self._x[1:]):
            dx, disc = x1 - x0, b * b - 3.0 * a * c
            # Ends, and roots q / 3a, c / q of the slope 3a s^2 + 2b s + c (a = 0: -c / 2b).
            q = -(b + math.copysign(math.sqrt(max(disc, 0.0)), b))
            roots = [q / (3.0 * a) if a else 0.0, c / q if q else 0.0] if disc >= 0.0 else []
            margin = 1e-12 * (abs(d) + dx * (abs(c) + dx * (abs(b) + dx * abs(a))))
            for s in [0.0, dx] + [s for s in roots if 0.0 < s < dx]:
                value = d + c * s + b * s * s + a * s * s * s
                lowest, bound = min(lowest, (value, x0 + s)), min(bound, value - margin)
        return (*lowest, bound)


# ---------------------------------------------------------------------------
# Sound speed fields
# ---------------------------------------------------------------------------


class SoundSpeedField(ABC):
    """Refractive index field n(r, z) = c0/c(r, z) with derivatives.

    Subclasses implement :meth:`index_at`, which returns every derivative
    the variation equation and the boundary jump matrix need.
    """

    def __init__(self, c0: float):
        self.c0 = _finite("c0", c0, positive=True)

    @abstractmethod
    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        """Index n and partials as the plain tuple (n, n_r, n_z, n_zz) at
        (r, z): n is dimensionless, n_r and n_z are in 1/m and n_zz is in
        1/m^2.  Readers unpack or index it."""


class ConstantField(SoundSpeedField):
    """Homogeneous medium, c(r, z) = c."""

    def __init__(self, c0: float = 1500.0, c: float | None = None):
        super().__init__(c0)
        self.c = _finite("c", self.c0 if c is None else c, positive=True)
        self._sample = (self.c0 / self.c, 0.0, 0.0, 0.0)

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        return self._sample


class LinearGradientField(SoundSpeedField):
    """Linear sound speed c(r, z) = c_surface * (1 - gradient * z -
    range_gradient * r).

    The index n = c0 / c then grows with depth for gradient > 0.  The
    range gradient (1/m, default 0, set only through the constructor)
    gives the field an n_r, which the jump's horizontal-gradient term
    reads.  Queries where c would be non-positive raise a domain error.
    """

    def __init__(self, c_surface: float = 1500.0, gradient: float = 0.0,
                 c0: float | None = None, range_gradient: float = 0.0):
        self.c_surface = _finite("c_surface", c_surface, positive=True)
        super().__init__(c0 if c0 is not None else c_surface)
        self.gradient = _finite("gradient", gradient)
        self.range_gradient = _finite("range_gradient", range_gradient)
        self._consts = (self.gradient, self.range_gradient, self.c0 / self.c_surface)

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        g, g_r, n0 = self._consts
        f = 1.0 - g * z - g_r * r
        if f <= 0.0:
            raise DomainError("sound speed not positive at this depth", "z", z)
        f2 = f**2
        n = n0 / f
        n_r = n0 * g_r / f2
        n_z = n0 * g / f2
        n_zz = 2.0 * n0 * g * g / f**3
        return n, n_r, n_z, n_zz


class MunkField(SoundSpeedField):
    """Canonical deep sound channel profile.

    c(z) = c_axis * (1 + epsilon * (eta - 1 + exp(-eta))) with
    eta = 2 (z - z_axis) / scale_depth.  Defaults are the standard
    canonical parameter values; all of them are configurable.
    """

    def __init__(self, c_axis: float = 1500.0, z_axis: float = 1300.0,
                 scale_depth: float = 1300.0, epsilon: float = 0.00737,
                 c0: float | None = None):
        self.c_axis = _finite("c_axis", c_axis, positive=True)
        super().__init__(c0 if c0 is not None else c_axis)
        self.z_axis = _finite("z_axis", z_axis)
        self.scale_depth = _finite("scale_depth", scale_depth, positive=True)
        self.epsilon = _finite("epsilon", epsilon)
        self._consts = (self.z_axis, self.scale_depth, self.c_axis, self.epsilon,
                        2.0 / self.scale_depth, self.c_axis * self.epsilon, self.c0)

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        z_axis, scale_depth, c_axis, epsilon, a, c_eps, c0 = self._consts
        eta = 2.0 * (z - z_axis) / scale_depth
        e = math.exp(-eta)
        c = c_axis * (1.0 + epsilon * (eta - 1.0 + e))
        c_z = c_eps * (1.0 - e) * a
        c_zz = c_eps * e * a * a
        c2 = c**2
        n = c0 / c
        n_z = -c0 * c_z / c2
        n_zz = c0 * (2.0 * c_z * c_z / c**3 - c_zz / c2)
        return n, 0.0, n_z, n_zz


class GriddedField(SoundSpeedField):
    """Sound speed sampled on a rectangular (range x depth) grid.

    A C2 cubic spline interpolates c; index derivatives come from the
    spline.  Linear interpolation is deliberately not offered because the
    variation equation needs a continuous n_zz.  The spline is natural and
    fitted in plain Python like scipy's, in depth along each range row and,
    for a 2D grid, then in range for each depth coefficient; a grid constant
    in range equals its 1D profile (``ranges=None``) bit for bit.

    When tracing against this field, the grid must extend slightly past
    the boundaries the ray can touch (about one step's depth gain beyond
    the surface and the bottom): locating a boundary crossing evaluates
    trial steps that overshoot it before the landing search returns.
    """

    def __init__(self, depths, c_values, ranges=None, c0: float = 1500.0):
        super().__init__(c0)
        self.depths = _increasing(depths, "depth samples")
        self._z_span = (self.depths[0], self.depths[-1])
        self.ranges = None if ranges is None else _increasing(ranges, "range samples")
        try:  # TypeError: a flat list passed with ranges, or a nested one without
            rows = [tuple(map(float, row)) for row in ([c_values] if ranges is None else c_values)]
        except TypeError:
            rows = []
        if len(rows) != (1 if ranges is None else len(self.ranges)):
            raise ValueError("c_values must have shape (len(ranges), len(depths))")
        if not all(math.isfinite(c) for row in rows for c in row):
            raise ValueError("gridded sound speeds must all be finite")
        if any(c <= 0.0 for row in rows for c in row):
            raise ValueError("gridded sound speeds must all be positive")
        self.c_values = rows[0] if ranges is None else tuple(rows)
        # Per depth interval: its top and the coefficients of its 1, s, s^2, s^3 terms,
        # numbers for a 1D grid and, for a 2D grid, range splines of _CubicTable's rows.
        if ranges is None:
            self._rows = _CubicTable(self.depths, rows[0])._rows
        else:
            tables = [_CubicTable(self.depths, row)._rows for row in rows]
            self._rows = [(rows_i[0][0], *(_CubicTable(self.ranges, [row[j] for row in rows_i])
                                           for j in range(1, 5)))
                          for rows_i in zip(*tables)]

    @classmethod
    def from_file(cls, path, c0: float = 1500.0) -> "GriddedField":
        """Load a range-independent profile from a two-column (z, c) text
        table, read as :meth:`PiecewiseBottom.from_file` reads its own."""
        return cls(*_read_table(path), c0=c0)

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        # The grid ends are held as pairs of floats: one unpack per query.
        z_lo, z_hi = self._z_span
        if not (z_lo <= z <= z_hi):
            raise DomainError("depth outside gridded field", "z", z)
        top, d, c, b, a = self._rows[bisect_right(self.depths, z) - 1]
        s = z - top  # the sums of _CubicTable.__call__, in its order
        s2 = s * s
        if self.ranges is None:
            c_r = 0.0
        else:
            if not (self.ranges[0] <= r <= self.ranges[-1]):
                raise DomainError("range outside gridded field", "r", r)
            (d, d_r, _), (c, c_r, _), (b, b_r, _), (a, a_r, _) = d(r), c(r), b(r), a(r)
            c_r = d_r + c_r * s + b_r * s2 + a_r * (s2 * s)
        c, c_z, c_zz = (d + c * s + b * s2 + a * (s2 * s), c + b * s * 2.0 + a * s2 * 3.0,
                        b * 2.0 + a * s * 6.0)
        if c <= 0.0:
            raise DomainError("interpolated sound speed not positive", "z", z)
        c0, c2 = self.c0, c**2
        n = c0 / c
        n_r = -c0 * c_r / c2
        n_z = -c0 * c_z / c2
        n_zz = c0 * (2.0 * c_z * c_z / c**3 - c_zz / c2)
        return n, n_r, n_z, n_zz


# ---------------------------------------------------------------------------
# Bathymetry
# ---------------------------------------------------------------------------


class Bathymetry(ABC):
    """Bottom profile z_b(r) > 0 with its normal frame and curvature.

    A subclass writes one method, :meth:`_profile`; ``depth_at`` and
    ``bottom_at`` read it.  ``floor`` (read-only) makes the module
    docstring's promise, rounding included; a subclass that sets its own
    must keep it."""

    floor: tuple[float, float, float] = (-math.inf, -math.inf, math.inf)

    @abstractmethod
    def _profile(self, r: float) -> tuple[float, float, float]:
        """Return (z_b, z_b', z_b'') at range r."""

    def depth_at(self, r: float) -> float:
        return self._profile(r)[0]

    def bottom_at(self, r: float) -> tuple[float, NormalFrame]:
        """Depth and into-water normal frame at range r, as the plain pair
        ``(z_b, frame)``."""
        z_b, slope, d2 = self._profile(r)
        if z_b <= 0.0:
            raise DomainError("bottom reaches the free surface", "r", r)
        return z_b, _bottom_frame(slope, d2)


class FlatBottom(Bathymetry):
    """Horizontal bottom at constant depth."""

    def __init__(self, depth: float):
        self.depth = _finite("depth", depth, positive=True)
        self.floor = (self.depth, -math.inf, math.inf)

    def _profile(self, r: float) -> tuple[float, float, float]:
        return self.depth, 0.0, 0.0


class LinearSlopeBottom(Bathymetry):
    """Uniformly sloping bottom z_b(r) = depth0 + slope * r."""

    def __init__(self, depth0: float, slope: float):
        self.depth0 = _finite("depth0", depth0, positive=True)
        self.slope = _finite("slope", slope)
        # slope * r >= 0 on the deepening side of r = 0, so depth0 + slope * r >= depth0
        # there, rounding included (rounding is monotonic).
        self.floor = ((self.depth0, 0.0, math.inf) if self.slope >= 0.0
                      else (self.depth0, -math.inf, 0.0))

    def _profile(self, r: float) -> tuple[float, float, float]:
        z_b = self.depth0 + self.slope * r
        if z_b <= 0.0:
            raise DomainError("sloped bottom reaches the surface", "r", r)
        return z_b, self.slope, 0.0


class SinusoidalBottom(Bathymetry):
    """Corrugated bottom z_b(r) = mean_depth + amplitude * sin(k r + phase)."""

    def __init__(self, mean_depth: float, amplitude: float, wavenumber: float,
                 phase: float = 0.0):
        self.mean_depth = _finite("mean_depth", mean_depth)
        self.amplitude = _finite("amplitude", amplitude)
        if self.mean_depth <= abs(self.amplitude):
            raise ValueError("corrugation amplitude must be smaller than the mean depth")
        self.wavenumber = _finite("wavenumber", wavenumber)
        self.phase = _finite("phase", phase)
        # Rounding is monotonic and |sin| <= 1, so no depth lies below this.
        self.floor = (self.mean_depth - abs(self.amplitude), -math.inf, math.inf)

    def _profile(self, r: float) -> tuple[float, float, float]:
        k, a = self.wavenumber, self.amplitude
        arg = k * r + self.phase
        return (self.mean_depth + a * math.sin(arg), a * k * math.cos(arg),
                -a * k * k * math.sin(arg))


class ArcBottom(Bathymetry):
    """Circular-arc bottom, exact |curvature| = 1/radius everywhere.

    ``bulge='down'`` is a basin (lower half of the circle, signed
    curvature +1/radius); ``bulge='up'`` is a bump rising into the water
    (signed curvature -1/radius).  ``bulge`` has no default: either one
    would silently flip the geometry of a caller who forgot it.  Defined
    for |r - r_center| < radius.
    """

    def __init__(self, radius: float, r_center: float, z_center: float, bulge: str):
        self.radius = _finite("radius", radius, positive=True)
        if bulge not in ("up", "down"):
            raise ValueError(f"bulge must be 'up' or 'down', got {bulge!r}")
        self.r_center = _finite("r_center", r_center)
        self.z_center = _finite("z_center", z_center)
        self.bulge = bulge
        self._sign = 1.0 if bulge == "up" else -1.0

    # Kept beside _profile: ~230 ns cheaper, and verify-all asks ~19,000 arc depths per run.
    def depth_at(self, r: float) -> float:
        u = r - self.r_center
        rad2 = self.radius**2 - u * u
        if rad2 <= 0.0:
            raise DomainError("range outside the circular-arc bottom", "r", r)
        return self.z_center - self._sign * math.sqrt(rad2)

    def _profile(self, r: float) -> tuple[float, float, float]:
        u = r - self.r_center
        rad2 = self.radius**2 - u * u
        if rad2 <= 0.0:
            raise DomainError("range outside the circular-arc bottom", "r", r)
        # The sign flips each term exactly, so a basin's depth is z_center + root.
        root, sign = math.sqrt(rad2), self._sign
        return self.z_center - sign * root, sign * u / root, sign * self.radius**2 / root**3


class PiecewiseBottom(Bathymetry):
    """Bottom interpolated through sampled (r, z_b) points with a C2 spline.

    The natural cubic spline reproduces its knots exactly, so curvature is
    available everywhere in the sampled range; it must not reach the surface.
    """

    def __init__(self, r_points, z_points):
        self.r_points = _increasing(r_points, "bathymetry ranges")
        self.z_points = tuple(map(float, z_points))
        if any(z <= 0.0 for z in self.z_points):
            raise ValueError("bathymetry depths must all be positive")
        self._r_span = (self.r_points[0], self.r_points[-1])
        self._table = _CubicTable(self.r_points, self.z_points)
        lowest, where, bound = self._table.lowest()
        if lowest <= 0.0:
            raise ValueError(f"bottom spline reaches the surface: {lowest:.4g} m at r = {where:g}")
        self.floor = (bound, *self._r_span)

    @classmethod
    def from_file(cls, path) -> "PiecewiseBottom":
        """Load a two-column (r, z_b) whitespace-separated text file.

        '#' starts a comment and blank lines are skipped; ranges must be
        strictly increasing, both columns in meters.
        """
        return cls(*_read_table(path))

    def _profile(self, r: float) -> tuple[float, float, float]:
        r_lo, r_hi = self._r_span
        if not (r_lo <= r <= r_hi):
            raise DomainError("range outside piecewise bathymetry", "r", r)
        return self._table(r)
