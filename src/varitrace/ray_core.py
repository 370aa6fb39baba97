"""Range-parametrized Hamiltonian ray calculus.

The ray Hamiltonian is H(z, p; r) = -sqrt(n(r, z)^2 - p^2) where the pulse
p = n sin(theta) is conjugate to depth and theta is the grazing angle.
Rays obey dz/dr = dH/dp, dp/dr = -dH/dz; the 2x2 variation matrix
q = d(p, z)/d(p0, z0) obeys dq/dr = K q with K built from the second
derivatives of H.  One closed form, ``ray_variation_rhs``, gives the whole
right-hand side (dz, dp, dq) with the product K q written out; it is the
integrator's only call per evaluation.  ``ray_rhs`` and ``k_matrix`` are
views of it at q = I, so the tests that validate them against finite
differences of ``hamiltonian`` and ``ray_rhs`` check the formula the
integrator runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import IndexSample
from .errors import SteepRayError

__all__ = [
    "KMatrix",
    "hamiltonian",
    "ray_rhs",
    "k_matrix",
    "ray_variation_rhs",
]


@dataclass(frozen=True)
class KMatrix:
    """Coefficient matrix of the variation equation dq/dr = K q.

    Arrangement: k11 = -H_zp, k12 = -H_zz, k21 = H_pp, k22 = H_zp, so the
    trace is zero by construction and k21 > 0 for any non-vertical ray.
    """

    k11: float
    k12: float
    k21: float
    k22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.k11, self.k12], [self.k21, self.k22]])


def _w(n: float, p: float) -> float:
    # w = sqrt(n^2 - p^2) = n cos(theta); the vertical-ray singularity.
    w2 = n * n - p * p
    if w2 <= 0.0:
        raise SteepRayError(f"|p| = {abs(p):g} >= n = {n:g}; ray turned vertical")
    return math.sqrt(w2)


def hamiltonian(n: float, p: float) -> float:
    """H = -sqrt(n^2 - p^2) = -n cos(theta); always negative."""
    return -_w(n, p)


def ray_variation_rhs(sample: IndexSample, p: float, q11: float, q12: float,
                      q21: float, q22: float) -> tuple:
    """Right-hand side (dz, dp, dq11, dq12, dq21, dq22) of ray and variation.

    dz/dr = p / w and dp/dr = n n_z / w with w = sqrt(n^2 - p^2), and
    dq/dr = K q with k11 = p n n_z / w^3, k12 = (n_z^2 + n n_zz) / w -
    (n n_z)^2 / w^3, k21 = n^2 / w^3 and k22 = -k11.
    """
    n, _, n_z, n_zz = sample
    w = _w(n, p)
    w3 = w * w * w
    k11 = p * n * n_z / w3
    k12 = (n_z * n_z + n * n_zz) / w - (n * n_z) ** 2 / w3
    k21 = n * n / w3
    k22 = -k11
    return (
        p / w,
        n * n_z / w,
        k11 * q11 + k12 * q21,
        k11 * q12 + k12 * q22,
        k21 * q11 + k22 * q21,
        k21 * q12 + k22 * q22,
    )


def ray_rhs(sample: IndexSample, p: float) -> tuple[float, float]:
    """Right-hand side (dz/dr, dp/dr) of the ray equations."""
    return ray_variation_rhs(sample, p, 1.0, 0.0, 0.0, 1.0)[:2]


def k_matrix(sample: IndexSample, p: float) -> KMatrix:
    """Second-derivative matrix K of the variation equation at one point."""
    return KMatrix(*ray_variation_rhs(sample, p, 1.0, 0.0, 0.0, 1.0)[2:])
