"""Reference forms of each built-in field's ``index_at``, for tests.

These are the expressions the fields evaluated before they stored their
constants at construction and squared c (or f) once per call.  Each
reference reads only the field's public parameters: a 1D profile is
refitted with the package's spline table and evaluated through its call,
which ``index_at`` no longer takes, and a 2D grid is refitted with scipy.
So the tests can check that the fields still return these tuples bit for
bit.
"""

import functools
import math
from bisect import bisect_right

from varitrace import ConstantField, GriddedField, LinearGradientField, MunkField
from varitrace.errors import DomainError


def constant_index(field: ConstantField, r: float, z: float):
    return field.c0 / field.c, 0.0, 0.0, 0.0


def linear_gradient_index(field: LinearGradientField, r: float, z: float):
    g = field.gradient
    f = 1.0 - g * z - field.range_gradient * r
    if f <= 0.0:
        raise DomainError("sound speed not positive at this depth", "z", z)
    n0 = field.c0 / field.c_surface
    n = n0 / f
    n_r = n0 * field.range_gradient / f**2
    n_z = n0 * g / f**2
    n_zz = 2.0 * n0 * g * g / f**3
    return n, n_r, n_z, n_zz


def munk_index(field: MunkField, r: float, z: float):
    eta = 2.0 * (z - field.z_axis) / field.scale_depth
    a = 2.0 / field.scale_depth
    e = math.exp(-eta)
    c = field.c_axis * (1.0 + field.epsilon * (eta - 1.0 + e))
    c_z = field.c_axis * field.epsilon * (1.0 - e) * a
    c_zz = field.c_axis * field.epsilon * e * a * a
    n = field.c0 / c
    n_z = -field.c0 * c_z / c**2
    n_zz = field.c0 * (2.0 * c_z * c_z / c**3 - c_zz / c**2)
    return n, 0.0, n_z, n_zz


@functools.cache
def _depth_spline(field: GriddedField):
    """A 1D profile's natural spline, fitted again from its public samples."""
    from varitrace.environment import _CubicTable

    return _CubicTable(field.depths, field.c_values)


@functools.cache
def _range_splines(field: GriddedField):
    """The 2D grid refitted with scipy in the field's two passes: a natural
    ``CubicSpline`` through each range row in depth, then, per depth
    interval, one across the ranges through each of its four coefficients."""
    from scipy.interpolate import CubicSpline

    rows = [CubicSpline(field.depths, row, bc_type="natural").c for row in field.c_values]
    return [[CubicSpline(field.ranges, [c[k, i] for c in rows], bc_type="natural")
             for k in range(4)] for i in range(len(field.depths) - 1)]


def gridded_index(field: GriddedField, r: float, z: float):
    if not (field.depths[0] <= z <= field.depths[-1]):
        raise DomainError("depth outside gridded field", "z", z)
    if field.ranges is None:
        c, c_z, c_zz = _depth_spline(field)(z)
        c_r = 0.0
    else:
        from scipy.interpolate import PPoly

        if not (field.ranges[0] <= r <= field.ranges[-1]):
            raise DomainError("range outside gridded field", "r", r)
        # The depth interval holding z; the last one also holds the bottom knot.
        i = min(bisect_right(field.depths, z), len(field.depths) - 1) - 1
        splines = _range_splines(field)[i]
        ends = field.depths[i:i + 2]
        # The depth polynomial at range r, and its range derivative, summed by scipy.
        at_r = PPoly([[float(spline(r))] for spline in splines], ends)
        d_r = PPoly([[float(spline(r, 1))] for spline in splines], ends)
        c, c_z, c_zz = (float(at_r(z, nu)) for nu in (0, 1, 2))
        c_r = float(d_r(z))
    if c <= 0.0:
        raise DomainError("interpolated sound speed not positive", "z", z)
    n = field.c0 / c
    n_r = -field.c0 * c_r / c**2
    n_z = -field.c0 * c_z / c**2
    n_zz = field.c0 * (2.0 * c_z * c_z / c**3 - c_zz / c**2)
    return n, n_r, n_z, n_zz


REFERENCES = {
    ConstantField: constant_index,
    LinearGradientField: linear_gradient_index,
    MunkField: munk_index,
    GriddedField: gridded_index,
}


def reference_index(field, r: float, z: float):
    """The reference tuple for any built-in field."""
    return REFERENCES[type(field)](field, r, z)
