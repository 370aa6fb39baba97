"""Reference forms of the ray Hamiltonian, its derivatives and one RK4 step,
for tests.

``hamiltonian`` is written independently of the package.  ``ray_rhs`` and
``k_matrix`` are the closed forms of the ray right-hand side and of the
matrix K in dq/dr = K q, and ``rk4_step`` is a classical RK4 step built on
them.  The integrator's ``propagation._rk4_step`` writes the same
expressions out in its own locals; tests check it against ``rk4_step`` bit
for bit, so finite differences of ``hamiltonian`` and ``ray_rhs`` validate
the formulas the integrator runs.
"""

import math

import numpy as np

from varitrace import SteepRayError


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
    """Coefficient matrix K of dq/dr = K q, as a 2x2 array.

    Arrangement: k11 = -H_zp, k12 = -H_zz, k21 = H_pp, k22 = H_zp, i.e.
    k11 = p n n_z / w^3, k12 = (n_z^2 + n n_zz) / w - (n n_z)^2 / w^3,
    k21 = n^2 / w^3 and k22 = -k11.
    """
    n, _, n_z, n_zz = sample
    w = ray_rhs(sample, p)[2]
    w3 = w * w * w
    k11 = p * n * n_z / w3
    k12 = (n_z * n_z + n * n_zz) / w - (n * n_z) ** 2 / w3
    return np.array([[k11, k12], [n * n / w3, -k11]])


def rk4_step(index_at, r, z, p, sample, h, q):
    """One classical RK4 step of (z, p) and, unless ``q`` is None, of
    q = (q11, q12, q21, q22), with the stage slopes from ``ray_rhs`` and
    ``k_matrix``.  ``sample`` is the index at (r, z); stages 2-4 call
    ``index_at``.  Returns (z, p, q, z1, z2, z3, z4) as
    ``propagation._rk4_step`` does: the end state and the four stage slopes
    of depth, from which the trace loop forms its cubic dense output.
    """
    hh = 0.5 * h

    def slopes(sample_k, p_k, q_k):
        dz, dp, _ = ray_rhs(sample_k, p_k)
        if q_k is None:
            return dz, dp, None
        (k11, k12), (k21, k22) = k_matrix(sample_k, p_k).tolist()
        a, b, c, d = q_k
        return dz, dp, (k11 * a + k12 * c, k11 * b + k12 * d,
                        k21 * a + k22 * c, k21 * b + k22 * d)

    def shift(q_k, step, dq):
        return None if q_k is None else tuple(x + step * dx for x, dx in zip(q_k, dq))

    z1, p1, q1 = slopes(sample, p, q)
    z2, p2, q2 = slopes(index_at(r + hh, z + hh * z1), p + hh * p1, shift(q, hh, q1))
    z3, p3, q3 = slopes(index_at(r + hh, z + hh * z2), p + hh * p2, shift(q, hh, q2))
    z4, p4, q4 = slopes(index_at(r + h, z + h * z3), p + h * p3, shift(q, h, q3))
    h6 = h / 6.0
    if q is not None:
        q = tuple(x + h6 * (a + 2.0 * b + 2.0 * c + d)
                  for x, a, b, c, d in zip(q, q1, q2, q3, q4))
    return (z + h6 * (z1 + 2.0 * z2 + 2.0 * z3 + z4), p + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
            q, z1, z2, z3, z4)
