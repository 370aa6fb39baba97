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

Sampled profiles (a range-independent ``GriddedField`` and a
``PiecewiseBottom``) are fitted once with scipy's natural ``CubicSpline``.
Queries then read a plain-Python table of the spline's piecewise
coefficients, which returns value, slope and second derivative in one
call and sums in scipy ``PPoly``'s own order, so every result equals the
spline's own evaluation bit for bit without a scipy call per query.

All field and bathymetry objects are immutable after construction and all
queries are pure functions, so they can be shared freely between
concurrent ray traces.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

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
    A named tuple: immutable, cheap to build on every right-hand-side
    evaluation, and unpackable as ``n, n_r, n_z, n_zz``.
    """

    n: float
    n_r: float
    n_z: float
    n_zz: float


@dataclass(frozen=True)
class NormalFrame:
    """Unit internal normal, its angle and the signed boundary curvature.

    ``(nr, nz) = (cos(alpha), sin(alpha))`` points into the water column.
    ``curvature`` is in 1/m; ``radius`` is ``1/|curvature|`` (infinite for
    a flat boundary).
    """

    nr: float
    nz: float
    alpha: float
    curvature: float

    def __post_init__(self):
        norm = math.hypot(self.nr, self.nz)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"normal must be unit length, got |N| = {norm!r}")

    @property
    def radius(self) -> float:
        return math.inf if self.curvature == 0.0 else 1.0 / abs(self.curvature)

    def as_array(self) -> np.ndarray:
        return np.array([self.nr, self.nz])


@dataclass(frozen=True)
class BottomSample:
    """Bottom depth, slope and normal frame at one range."""

    z_b: float
    slope: float
    frame: NormalFrame


def surface_frame() -> NormalFrame:
    """Frame of the flat free surface z = 0 (normal points down, into water)."""
    return NormalFrame(nr=0.0, nz=1.0, alpha=math.pi / 2.0, curvature=0.0)


def _bottom_frame(slope: float, d2: float) -> NormalFrame:
    # Into-water normal of the graph z = z_b(r): (slope, -1) normalized.
    # The curvature sign (positive = concave up, toward the water) is the
    # one the finite-difference calibration of the reflection jump pins.
    norm = math.sqrt(1.0 + slope * slope)
    nr = slope / norm
    nz = -1.0 / norm
    curvature = -d2 / norm**3
    return NormalFrame(nr=nr, nz=nz, alpha=math.atan2(nz, nr), curvature=curvature)


class _CubicTable:
    """Scalar evaluation of a fitted 1D ``CubicSpline``.

    Holds the breakpoints and the piecewise coefficients as Python lists
    and returns (value, first, second derivative) at one point.  Each sum
    runs in the order scipy ``PPoly`` uses, so the results equal
    ``float(spline(v, nu))`` for nu = 0, 1, 2 bit for bit.  Callers check
    the domain first; a point at or past the last knot uses the last
    interval, as ``PPoly`` does.
    """

    __slots__ = ("_x", "_a", "_b", "_c", "_d", "_last")

    def __init__(self, spline: CubicSpline):
        self._x = spline.x.tolist()
        # Coefficients of s^3, s^2, s and 1 on each interval, s = v - x[i].
        self._a, self._b, self._c, self._d = spline.c.tolist()
        self._last = len(self._x) - 2

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
    def index_at(self, r: float, z: float) -> IndexSample:
        """Index n and partials (n_r, n_z, n_zz) at (r, z)."""


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

    def index_at(self, r: float, z: float) -> IndexSample:
        return IndexSample(self._n, 0.0, 0.0, 0.0)


class LinearGradientField(SoundSpeedField):
    """Depth-linear sound speed c(z) = c_surface * (1 - gradient * z).

    The index n = c0 / c then grows with depth for gradient > 0.  Queries
    where c(z) would be non-positive raise a domain error.
    """

    kind = "linear-gradient"

    def __init__(self, c_surface: float = 1500.0, gradient: float = 0.0,
                 c0: float | None = None):
        super().__init__(c0 if c0 is not None else c_surface)
        if c_surface <= 0.0:
            raise ValueError(f"surface sound speed must be positive, got {c_surface}")
        self.c_surface = float(c_surface)
        self.gradient = float(gradient)

    def sound_speed(self, r: float, z: float) -> float:
        f = 1.0 - self.gradient * z
        if f <= 0.0:
            raise DomainError("sound speed not positive at this depth", "z", z)
        return self.c_surface * f

    def index_at(self, r: float, z: float) -> IndexSample:
        g = self.gradient
        f = 1.0 - g * z
        if f <= 0.0:
            raise DomainError("sound speed not positive at this depth", "z", z)
        n0 = self.c0 / self.c_surface
        n = n0 / f
        n_z = n0 * g / f**2
        n_zz = 2.0 * n0 * g * g / f**3
        return IndexSample(n, 0.0, n_z, n_zz)


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

    def _eta(self, z: float) -> float:
        return 2.0 * (z - self.z_axis) / self.scale_depth

    def sound_speed(self, r: float, z: float) -> float:
        eta = self._eta(z)
        return self.c_axis * (1.0 + self.epsilon * (eta - 1.0 + math.exp(-eta)))

    def index_at(self, r: float, z: float) -> IndexSample:
        eta = self._eta(z)
        a = 2.0 / self.scale_depth
        e = math.exp(-eta)
        c = self.c_axis * (1.0 + self.epsilon * (eta - 1.0 + e))
        c_z = self.c_axis * self.epsilon * (1.0 - e) * a
        c_zz = self.c_axis * self.epsilon * e * a * a
        n = self.c0 / c
        n_z = -self.c0 * c_z / c**2
        n_zz = self.c0 * (2.0 * c_z * c_z / c**3 - c_zz / c**2)
        return IndexSample(n, 0.0, n_z, n_zz)


class GriddedField(SoundSpeedField):
    """Sound speed sampled on a rectangular (range x depth) grid.

    A C2 cubic spline interpolates c; index derivatives come from the
    spline.  Linear interpolation is deliberately not offered because the
    variation equation needs a continuous n_zz.  Pass ``ranges=None`` for
    a range-independent profile (natural cubic spline in depth, evaluated
    through its coefficient table).

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
            self._table = _CubicTable(CubicSpline(depths, c_values, bc_type="natural"))
        else:
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

    def index_at(self, r: float, z: float) -> IndexSample:
        self._check_domain(r, z)
        if self.ranges is None:
            c, c_z, c_zz = self._table(z)
            c_r = 0.0
        else:
            c = float(self._spline.ev(r, z))
            c_r = float(self._spline.ev(r, z, dx=1))
            c_z = float(self._spline.ev(r, z, dy=1))
            c_zz = float(self._spline.ev(r, z, dy=2))
        if c <= 0.0:
            raise DomainError("interpolated sound speed not positive", "z", z)
        n = self.c0 / c
        n_r = -self.c0 * c_r / c**2
        n_z = -self.c0 * c_z / c**2
        n_zz = self.c0 * (2.0 * c_z * c_z / c**3 - c_zz / c**2)
        return IndexSample(n, n_r, n_z, n_zz)


# ---------------------------------------------------------------------------
# Bathymetry
# ---------------------------------------------------------------------------


class Bathymetry(ABC):
    """Bottom profile z_b(r) > 0 with slope and curvature."""

    kind: str = "abstract"

    @abstractmethod
    def _profile(self, r: float) -> tuple[float, float, float]:
        """Return (z_b, z_b', z_b'') at range r."""

    def depth_at(self, r: float) -> float:
        return self._profile(r)[0]

    def bottom_at(self, r: float) -> BottomSample:
        """Depth, slope and into-water normal frame at range r."""
        z_b, slope, d2 = self._profile(r)
        if z_b <= 0.0:
            raise DomainError("bottom reaches the free surface", "r", r)
        return BottomSample(z_b=z_b, slope=slope, frame=_bottom_frame(slope, d2))


class FlatBottom(Bathymetry):
    """Horizontal bottom at constant depth."""

    kind = "flat"

    def __init__(self, depth: float):
        if depth <= 0.0:
            raise ValueError(f"bottom depth must be positive, got {depth}")
        self.depth = float(depth)

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

    def _profile(self, r: float) -> tuple[float, float, float]:
        z_b = self.depth0 + self.slope * r
        if z_b <= 0.0:
            raise DomainError("sloped bottom reaches the surface", "r", r)
        return z_b, self.slope, 0.0


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

    def _profile(self, r: float) -> tuple[float, float, float]:
        k = self.wavenumber
        arg = k * r + self.phase
        z_b = self.mean_depth + self.amplitude * math.sin(arg)
        slope = self.amplitude * k * math.cos(arg)
        d2 = -self.amplitude * k * k * math.sin(arg)
        return z_b, slope, d2


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

    def _profile(self, r: float) -> tuple[float, float, float]:
        u = r - self.r_center
        rad2 = self.radius**2 - u * u
        if rad2 <= 0.0:
            raise DomainError("range outside the circular-arc bottom", "r", r)
        root = math.sqrt(rad2)
        if self.bulge == "up":
            z_b = self.z_center - root
            slope = u / root
            d2 = self.radius**2 / root**3
        else:
            z_b = self.z_center + root
            slope = -u / root
            d2 = -self.radius**2 / root**3
        return z_b, slope, d2


class PiecewiseBottom(Bathymetry):
    """Bottom interpolated through sampled (r, z_b) points with a C2 spline.

    The natural cubic spline reproduces its knots exactly, so curvature is
    available everywhere in the sampled range.
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
        self._table = _CubicTable(CubicSpline(r_points, z_points, bc_type="natural"))

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

    def _profile(self, r: float) -> tuple[float, float, float]:
        self._check_domain(r)
        return self._table(r)
