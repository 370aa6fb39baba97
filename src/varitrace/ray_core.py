"""Range-parametrized Hamiltonian ray calculus.

The ray Hamiltonian is H(z, p; r) = -sqrt(n(r, z)^2 - p^2) where the pulse
p = n sin(theta) is conjugate to depth and theta is the grazing angle.
Rays obey dz/dr = dH/dp, dp/dr = -dH/dz; the 2x2 variation matrix
q = d(p, z)/d(p0, z0) obeys dq/dr = K q with K built from the second
derivatives of H.  The right-hand side comes in two closed forms:
``ray_rhs`` gives (dz, dp) and w = sqrt(n^2 - p^2) at a point, and
``variation_rhs`` gives dq = K q at that point from the same w, with the
product K q written out.  The ray never reads q, so a trace that does not
need q calls ``ray_rhs`` alone.  The tests check both against finite
differences of an independently written H, so they validate the formulas
the integrator runs.
"""

from __future__ import annotations

import math

from .environment import IndexSample
from .errors import SteepRayError

__all__ = ["ray_rhs", "variation_rhs"]


def ray_rhs(sample: IndexSample, p: float) -> tuple[float, float, float]:
    """Ray right-hand side (dz, dp) and w = sqrt(n^2 - p^2) = n cos(theta).

    dz/dr = p / w and dp/dr = n n_z / w; w vanishes for a vertical ray,
    which raises SteepRayError.
    """
    n, _, n_z, _ = sample
    w2 = n * n - p * p
    if w2 <= 0.0:
        raise SteepRayError(f"|p| = {abs(p):g} >= n = {n:g}; ray turned vertical")
    w = math.sqrt(w2)
    return p / w, n * n_z / w, w


def variation_rhs(sample: IndexSample, p: float, w: float, q11: float, q12: float,
                  q21: float, q22: float) -> tuple[float, float, float, float]:
    """Variation right-hand side (dq11, dq12, dq21, dq22) = K q.

    ``w`` is the value ``ray_rhs`` returned at the same (sample, p).
    k11 = p n n_z / w^3, k12 = (n_z^2 + n n_zz) / w - (n n_z)^2 / w^3,
    k21 = n^2 / w^3 and k22 = -k11.
    """
    n, _, n_z, n_zz = sample
    w3 = w * w * w
    k11 = p * n * n_z / w3
    k12 = (n_z * n_z + n * n_zz) / w - (n * n_z) ** 2 / w3
    k21 = n * n / w3
    k22 = -k11
    return (
        k11 * q11 + k12 * q21,
        k11 * q12 + k12 * q22,
        k21 * q11 + k22 * q21,
        k21 * q12 + k22 * q22,
    )
