"""Reference forms of each built-in field's ``index_at``, for tests.

These are the expressions the fields evaluated before they stored their
constants at construction and squared c (or f) once per call.  Each
reference reads only the field's public parameters and its spline, so the
tests can check that the fields still return these tuples bit for bit.
"""

import math

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


def gridded_index(field: GriddedField, r: float, z: float):
    if not (field.depths[0] <= z <= field.depths[-1]):
        raise DomainError("depth outside gridded field", "z", z)
    if field.ranges is None:
        c, c_z, c_zz = field._table(z)
        c_r = 0.0
    else:
        if not (field.ranges[0] <= r <= field.ranges[-1]):
            raise DomainError("range outside gridded field", "r", r)
        c = float(field._spline.ev(r, z))
        c_r = float(field._spline.ev(r, z, dx=1))
        c_z = float(field._spline.ev(r, z, dy=1))
        c_zz = float(field._spline.ev(r, z, dy=2))
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
