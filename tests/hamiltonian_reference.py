"""Reference forms of the ray Hamiltonian and its derivatives, for tests.

``hamiltonian`` is written independently of the package.  ``ray_rhs`` is
the closed form of the ray right-hand side that the integrator's
``_ray_step`` writes out at each RK4 stage (tests check the stages against
it bit for bit), and ``k_matrix`` reads ``propagation._variation_rhs`` at
q = I, so finite differences of ``hamiltonian`` and ``ray_rhs`` validate
the formulas the integrator runs.
"""

import math

import numpy as np

from varitrace import SteepRayError, propagation


def hamiltonian(n, p):
    """H = -sqrt(n^2 - p^2) = -n cos(theta); always negative."""
    w2 = n * n - p * p
    if w2 <= 0.0:
        raise SteepRayError(f"|p| = {abs(p):g} >= n = {n:g}; ray turned vertical")
    return -math.sqrt(w2)


def ray_rhs(sample, p):
    """Ray right-hand side (dz/dr, dp/dr) and w = sqrt(n^2 - p^2) = n cos(theta).

    dz/dr = p / w and dp/dr = n n_z / w; w vanishes for a vertical ray,
    which raises SteepRayError.
    """
    n, _, n_z, _ = sample
    w2 = n * n - p * p
    if w2 <= 0.0:
        raise SteepRayError(f"|p| = {abs(p):g} >= n = {n:g}; ray turned vertical")
    w = math.sqrt(w2)
    return p / w, n * n_z / w, w


def k_matrix(sample, p):
    """Coefficient matrix K of dq/dr = K q, as a 2x2 array: dq at q = I.

    Arrangement: k11 = -H_zp, k12 = -H_zz, k21 = H_pp, k22 = H_zp.
    """
    w = ray_rhs(sample, p)[2]
    return np.array(propagation._variation_rhs(sample, p, w, 1.0, 0.0, 0.0, 1.0)).reshape(2, 2)
