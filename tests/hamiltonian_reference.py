"""Reference forms of the ray Hamiltonian and its derivatives, for tests.

``hamiltonian`` is written independently of the package.  ``ray_rhs`` and
``k_matrix`` read the integrator's one closed form, ``ray_variation_rhs``,
at q = I, so finite differences of ``hamiltonian`` and ``ray_rhs``
validate the formula the integrator runs.
"""

import math

import numpy as np

from varitrace import SteepRayError
from varitrace.ray_core import ray_variation_rhs


def hamiltonian(n, p):
    """H = -sqrt(n^2 - p^2) = -n cos(theta); always negative."""
    w2 = n * n - p * p
    if w2 <= 0.0:
        raise SteepRayError(f"|p| = {abs(p):g} >= n = {n:g}; ray turned vertical")
    return -math.sqrt(w2)


def ray_rhs(sample, p):
    """Right-hand side (dz/dr, dp/dr) of the ray equations."""
    return ray_variation_rhs(sample, p, 1.0, 0.0, 0.0, 1.0)[:2]


def k_matrix(sample, p):
    """Coefficient matrix K of dq/dr = K q, as a 2x2 array: dq at q = I.

    Arrangement: k11 = -H_zp, k12 = -H_zz, k21 = H_pp, k22 = H_zp.
    """
    return np.array(ray_variation_rhs(sample, p, 1.0, 0.0, 0.0, 1.0)[2:]).reshape(2, 2)
