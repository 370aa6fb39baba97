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

Sampled 1D profiles (a range-independent ``GriddedField`` and a
``PiecewiseBottom``) are fitted once with a natural cubic spline in plain
Python, repeating scipy ``CubicSpline``'s arithmetic so the coefficients
equal scipy's bit for bit.  Queries read that coefficient table, which
returns value, slope and second derivative in one call (or the value
alone) and sums in scipy ``PPoly``'s own order.  scipy is imported only to
fit a range-dependent 2D ``GriddedField`` (and by the tests, which compare
the fit with it); every other field and bottom never loads it.

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
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "IndexSample",
    "NormalFrame",
    "BottomSample",
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
    "surface_frame",
]


class IndexSample(NamedTuple):
    """Refractive index and its partial derivatives at one point.

    ``n`` is dimensionless, ``n_r`` and ``n_z`` are 1/m, ``n_zz`` is 1/m^2.
    The named form of the plain tuple :meth:`SoundSpeedField.index_at`
    returns; every reader unpacks or indexes a sample, so either may pass.
    """

    n: float
    n_r: float
    n_z: float
    n_zz: float


@dataclass(frozen=True)
class NormalFrame:
    """Unit internal normal ``(nr, nz)``, pointing into the water column,
    and the signed boundary curvature in 1/m."""

    nr: float
    nz: float
    curvature: float

    def __post_init__(self):
        norm = math.hypot(self.nr, self.nz)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"normal must be unit length, got |N| = {norm!r}")


@dataclass(frozen=True)
class BottomSample:
    """Bottom depth and normal frame at one range."""

    z_b: float
    frame: NormalFrame


def surface_frame() -> NormalFrame:
    """Frame of the flat free surface z = 0 (normal points down, into water)."""
    return NormalFrame(nr=0.0, nz=1.0, curvature=0.0)


def _bottom_frame(slope: float, d2: float) -> NormalFrame:
    # Into-water normal of the graph z = z_b(r): (slope, -1) normalized.
    # The curvature sign (positive = concave up, toward the water) is the
    # one the finite-difference calibration of the reflection jump pins.
    norm = math.sqrt(1.0 + slope * slope)
    return NormalFrame(nr=slope / norm, nz=-1.0 / norm, curvature=-d2 / norm**3)


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

    __slots__ = ("_x", "_a", "_b", "_c", "_d", "_last")

    def __init__(self, x, y):
        x = [float(v) for v in x]
        y = [float(v) for v in y]
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
        # Coefficients of s^3, s^2, s and 1 on each interval, s = v - x[i].
        self._a, self._b = [], []
        for i in range(n - 1):
            t = (m[i] + m[i + 1] - 2.0 * slope[i]) / dx[i]
            self._a.append(t / dx[i])
            self._b.append((slope[i] - m[i]) / dx[i] - t)
        self._c = m[:-1]
        self._d = y[:-1]
        self._last = n - 2

    def __call__(self, v: float) -> tuple[float, float, float]:
        i = bisect_right(self._x, v) - 1
        if i > self._last:
            i = self._last
        s = v - self._x[i]
        a, b, c = self._a[i], self._b[i], self._c[i]
        s2 = s * s
        return (self._d[i] + c * s + b * s2 + a * (s2 * s),
                c + b * s * 2.0 + a * s2 * 3.0,
                b * 2.0 + a * s * 6.0)

    def value(self, v: float) -> float:
        """The value alone: the first entry of a call, bit for bit."""
        i = min(bisect_right(self._x, v) - 1, self._last)
        s = v - self._x[i]
        return self._d[i] + self._c[i] * s + self._b[i] * (s * s) + self._a[i] * (s * s * s)

    def lowest(self) -> tuple[float, float, float]:
        """(minimum, where, bound) over [x[0], x[-1]]; ``bound`` is below every value a
        call returns there, by 1e-12 of the summed term sizes (far above rounding)."""
        lowest, bound = (math.inf, math.nan), math.inf
        for x0, x1, a, b, c, d in zip(self._x, self._x[1:], self._a, self._b, self._c, self._d):
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

    Subclasses implement :meth:`sound_speed` and :meth:`index_at`; the
    latter returns every derivative the variation equation and the
    boundary jump matrix need.
    """

    kind: str = "abstract"

    def __init__(self, c0: float):
        if c0 <= 0.0:
            raise ValueError(f"reference sound speed must be positive, got {c0}")
        self.c0 = float(c0)

    @abstractmethod
    def sound_speed(self, r: float, z: float) -> float:
        """Sound speed c(r, z) in m/s."""

    @abstractmethod
    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        """Index n and partials as the plain tuple (n, n_r, n_z, n_zz) at
        (r, z): built at every RK4 stage, where an :class:`IndexSample`
        costs about ten times as much.  Readers unpack or index it."""


class ConstantField(SoundSpeedField):
    """Homogeneous medium, c(r, z) = c."""

    kind = "constant"

    def __init__(self, c0: float = 1500.0, c: float | None = None):
        super().__init__(c0)
        self.c = float(c) if c is not None else self.c0
        if self.c <= 0.0:
            raise ValueError(f"sound speed must be positive, got {self.c}")
        self._n = self.c0 / self.c

    def sound_speed(self, r: float, z: float) -> float:
        return self.c

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        return self._n, 0.0, 0.0, 0.0


class LinearGradientField(SoundSpeedField):
    """Linear sound speed c(r, z) = c_surface * (1 - gradient * z -
    range_gradient * r).

    The index n = c0 / c then grows with depth for gradient > 0.  The
    range gradient (1/m, default 0, set only through the constructor)
    gives the field an n_r, which the jump's horizontal-gradient term
    reads.  Queries where c would be non-positive raise a domain error.
    """

    kind = "linear-gradient"

    def __init__(self, c_surface: float = 1500.0, gradient: float = 0.0,
                 c0: float | None = None, range_gradient: float = 0.0):
        super().__init__(c0 if c0 is not None else c_surface)
        if c_surface <= 0.0:
            raise ValueError(f"surface sound speed must be positive, got {c_surface}")
        self.c_surface = float(c_surface)
        self.gradient = float(gradient)
        self.range_gradient = float(range_gradient)
        self._n0 = self.c0 / self.c_surface

    def sound_speed(self, r: float, z: float) -> float:
        f = 1.0 - self.gradient * z - self.range_gradient * r
        if f <= 0.0:
            raise DomainError("sound speed not positive at this depth", "z", z)
        return self.c_surface * f

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        g = self.gradient
        f = 1.0 - g * z - self.range_gradient * r
        if f <= 0.0:
            raise DomainError("sound speed not positive at this depth", "z", z)
        n0, f2 = self._n0, f**2
        n = n0 / f
        n_r = n0 * self.range_gradient / f2
        n_z = n0 * g / f2
        n_zz = 2.0 * n0 * g * g / f**3
        return n, n_r, n_z, n_zz


class MunkField(SoundSpeedField):
    """Canonical deep sound channel profile.

    c(z) = c_axis * (1 + epsilon * (eta - 1 + exp(-eta))) with
    eta = 2 (z - z_axis) / scale_depth.  Defaults are the standard
    canonical parameter values; all of them are configurable.
    """

    kind = "munk"

    def __init__(self, c_axis: float = 1500.0, z_axis: float = 1300.0,
                 scale_depth: float = 1300.0, epsilon: float = 0.00737,
                 c0: float | None = None):
        super().__init__(c0 if c0 is not None else c_axis)
        if scale_depth <= 0.0:
            raise ValueError(f"scale depth must be positive, got {scale_depth}")
        self.c_axis = float(c_axis)
        self.z_axis = float(z_axis)
        self.scale_depth = float(scale_depth)
        self.epsilon = float(epsilon)
        self._a, self._c_eps = 2.0 / self.scale_depth, self.c_axis * self.epsilon

    def sound_speed(self, r: float, z: float) -> float:
        eta = 2.0 * (z - self.z_axis) / self.scale_depth
        return self.c_axis * (1.0 + self.epsilon * (eta - 1.0 + math.exp(-eta)))

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        eta = 2.0 * (z - self.z_axis) / self.scale_depth
        a, c_eps, c0 = self._a, self._c_eps, self.c0
        e = math.exp(-eta)
        c = self.c_axis * (1.0 + self.epsilon * (eta - 1.0 + e))
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
    variation equation needs a continuous n_zz.  Pass ``ranges=None`` for
    a range-independent profile: a natural cubic spline in depth, fitted
    and evaluated in plain Python bit for bit like scipy's.  A 2D grid is
    fitted with scipy's ``RectBivariateSpline``, imported only then.

    When tracing against this field, the grid must extend slightly past
    the boundaries the ray can touch (about one step's depth gain beyond
    the surface and the bottom): locating a boundary crossing evaluates
    trial steps that overshoot it before the landing search returns.
    """

    kind = "gridded"

    def __init__(self, depths, c_values, ranges=None, c0: float = 1500.0):
        super().__init__(c0)
        depths = np.asarray(depths, dtype=float)
        c_values = np.asarray(c_values, dtype=float)
        if depths.ndim != 1 or depths.size < 4:
            raise ValueError("need at least 4 strictly increasing depth samples")
        if np.any(np.diff(depths) <= 0.0):
            raise ValueError("depth samples must be strictly increasing")
        if np.any(c_values <= 0.0):
            raise ValueError("gridded sound speeds must all be positive")
        self.depths = depths
        self._z_span = (float(depths[0]), float(depths[-1]))
        self._r_span = None
        if ranges is None:
            if c_values.shape != depths.shape:
                raise ValueError("c_values must match depths for a 1D profile")
            self.ranges = None
            self._table = _CubicTable(depths, c_values)
        else:
            from scipy.interpolate import RectBivariateSpline

            ranges = np.asarray(ranges, dtype=float)
            if ranges.ndim != 1 or ranges.size < 4:
                raise ValueError("need at least 4 strictly increasing range samples")
            if np.any(np.diff(ranges) <= 0.0):
                raise ValueError("range samples must be strictly increasing")
            if c_values.shape != (ranges.size, depths.size):
                raise ValueError("c_values must have shape (len(ranges), len(depths))")
            self.ranges = ranges
            self._r_span = (float(ranges[0]), float(ranges[-1]))
            self._spline = RectBivariateSpline(ranges, depths, c_values, kx=3, ky=3, s=0)

    def _check_domain(self, r: float, z: float) -> None:
        # The grid ends are held as Python floats: comparing against numpy
        # array elements costs about three times as much per query.
        z_lo, z_hi = self._z_span
        if not (z_lo <= z <= z_hi):
            raise DomainError("depth outside gridded field", "z", z)
        if self._r_span is not None and not (self._r_span[0] <= r <= self._r_span[1]):
            raise DomainError("range outside gridded field", "r", r)

    def sound_speed(self, r: float, z: float) -> float:
        self._check_domain(r, z)
        if self.ranges is None:
            return self._table(z)[0]
        return float(self._spline.ev(r, z))

    def index_at(self, r: float, z: float) -> tuple[float, float, float, float]:
        if self.ranges is None:
            z_lo, z_hi = self._z_span
            if not (z_lo <= z <= z_hi):
                raise DomainError("depth outside gridded field", "z", z)
            (c, c_z, c_zz), c_r = self._table(z), 0.0
        else:
            self._check_domain(r, z)
            c = float(self._spline.ev(r, z))
            c_r = float(self._spline.ev(r, z, dx=1))
            c_z = float(self._spline.ev(r, z, dy=1))
            c_zz = float(self._spline.ev(r, z, dy=2))
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

    ``floor`` (read-only) makes the module docstring's promise, rounding
    included; a subclass that sets its own must keep it."""

    kind: str = "abstract"
    floor: tuple[float, float, float] = (-math.inf, -math.inf, math.inf)

    @abstractmethod
    def _profile(self, r: float) -> tuple[float, float, float]:
        """Return (z_b, z_b', z_b'') at range r."""

    def depth_at(self, r: float) -> float:
        return self._profile(r)[0]

    def bottom_at(self, r: float) -> BottomSample:
        """Depth and into-water normal frame at range r."""
        z_b, slope, d2 = self._profile(r)
        if z_b <= 0.0:
            raise DomainError("bottom reaches the free surface", "r", r)
        return BottomSample(z_b=z_b, frame=_bottom_frame(slope, d2))


class FlatBottom(Bathymetry):
    """Horizontal bottom at constant depth."""

    kind = "flat"

    def __init__(self, depth: float):
        if depth <= 0.0:
            raise ValueError(f"bottom depth must be positive, got {depth}")
        self.depth = float(depth)
        self.floor = (self.depth, -math.inf, math.inf)

    def depth_at(self, r: float) -> float:
        return self.depth

    def _profile(self, r: float) -> tuple[float, float, float]:
        return self.depth, 0.0, 0.0


class LinearSlopeBottom(Bathymetry):
    """Uniformly sloping bottom z_b(r) = depth0 + slope * r."""

    kind = "linear-slope"

    def __init__(self, depth0: float, slope: float):
        if depth0 <= 0.0:
            raise ValueError(f"bottom depth at r=0 must be positive, got {depth0}")
        self.depth0 = float(depth0)
        self.slope = float(slope)

    def depth_at(self, r: float) -> float:
        z_b = self.depth0 + self.slope * r
        if z_b <= 0.0:
            raise DomainError("sloped bottom reaches the surface", "r", r)
        return z_b

    def _profile(self, r: float) -> tuple[float, float, float]:
        return self.depth_at(r), self.slope, 0.0


class SinusoidalBottom(Bathymetry):
    """Corrugated bottom z_b(r) = mean_depth + amplitude * sin(k r + phase)."""

    kind = "sinusoidal"

    def __init__(self, mean_depth: float, amplitude: float, wavenumber: float,
                 phase: float = 0.0):
        if mean_depth <= abs(amplitude):
            raise ValueError("corrugation amplitude must be smaller than the mean depth")
        self.mean_depth = float(mean_depth)
        self.amplitude = float(amplitude)
        self.wavenumber = float(wavenumber)
        self.phase = float(phase)
        # Rounding is monotonic and |sin| <= 1, so no depth lies below this.
        self.floor = (self.mean_depth - abs(self.amplitude), -math.inf, math.inf)

    def depth_at(self, r: float) -> float:
        return self.mean_depth + self.amplitude * math.sin(self.wavenumber * r + self.phase)

    def _profile(self, r: float) -> tuple[float, float, float]:
        k, a = self.wavenumber, self.amplitude
        arg = k * r + self.phase
        return (self.mean_depth + a * math.sin(arg), a * k * math.cos(arg),
                -a * k * k * math.sin(arg))


class ArcBottom(Bathymetry):
    """Circular-arc bottom, exact |curvature| = 1/radius everywhere.

    ``bulge='down'`` is a basin (lower half of the circle, signed
    curvature +1/radius); ``bulge='up'`` is a bump rising into the water
    (signed curvature -1/radius).  Defined for |r - r_center| < radius.
    """

    kind = "arc"

    def __init__(self, radius: float, r_center: float, z_center: float,
                 bulge: str = "up"):
        if radius <= 0.0:
            raise ValueError(f"arc radius must be positive, got {radius}")
        if bulge not in ("up", "down"):
            raise ValueError(f"bulge must be 'up' or 'down', got {bulge!r}")
        self.radius = float(radius)
        self.r_center = float(r_center)
        self.z_center = float(z_center)
        self.bulge = bulge
        self._sign = 1.0 if bulge == "up" else -1.0

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

    kind = "piecewise"

    def __init__(self, r_points, z_points):
        r_points = np.asarray(r_points, dtype=float)
        z_points = np.asarray(z_points, dtype=float)
        if r_points.ndim != 1 or r_points.size < 4:
            raise ValueError("need at least 4 bathymetry samples")
        if np.any(np.diff(r_points) <= 0.0):
            raise ValueError("bathymetry ranges must be strictly increasing")
        if np.any(z_points <= 0.0):
            raise ValueError("bathymetry depths must all be positive")
        self.r_points = r_points
        self.z_points = z_points
        self._r_span = (float(r_points[0]), float(r_points[-1]))
        self._table = _CubicTable(r_points, z_points)
        lowest, where, bound = self._table.lowest()
        if lowest <= 0.0:
            raise ValueError(f"bottom spline reaches the surface: {lowest:.4g} m at r = {where:g}")
        self.floor = (bound, *self._r_span)

    @classmethod
    def from_file(cls, path) -> "PiecewiseBottom":
        """Load a two-column (r, z_b) whitespace-separated text file.

        Lines starting with '#' are comments; ranges must be strictly
        increasing, both columns in meters.
        """
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(f"expected two columns (r, z_b) in {path}")
        return cls(data[:, 0], data[:, 1])

    def _check_domain(self, r: float) -> None:
        r_lo, r_hi = self._r_span
        if not (r_lo <= r <= r_hi):
            raise DomainError("range outside piecewise bathymetry", "r", r)

    def depth_at(self, r: float) -> float:
        self._check_domain(r)
        return self._table.value(r)

    def _profile(self, r: float) -> tuple[float, float, float]:
        self._check_domain(r)
        return self._table(r)
