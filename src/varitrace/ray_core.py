"""Range-parametrized Hamiltonian ray calculus.

The ray Hamiltonian is H(z, p; r) = -sqrt(n(r, z)^2 - p^2) where the pulse
p = n sin(theta) is conjugate to depth and theta is the grazing angle.
Rays obey dz/dr = dH/dp = p / w and dp/dr = -dH/dz = n n_z / w, with
w = sqrt(n^2 - p^2); the integrator's ``_ray_step`` evaluates that ray
right-hand side written out at each RK4 stage.  The 2x2 variation matrix
q = d(p, z)/d(p0, z0) obeys dq/dr = K q with K built from the second
derivatives of H; ``variation_rhs`` gives dq = K q at one stage from the
w the ray stage computed there, with the product K q written out.  The
tests check both against finite differences of an independently written
H, so they validate the formulas the integrator runs.
"""

from __future__ import annotations

__all__ = ["variation_rhs"]


def variation_rhs(sample, p: float, w: float, q11: float, q12: float,
                  q21: float, q22: float) -> tuple[float, float, float, float]:
    """Variation right-hand side (dq11, dq12, dq21, dq22) = K q.

    ``sample`` is the index tuple (n, n_r, n_z, n_zz) and ``w`` =
    sqrt(n^2 - p^2) at the same point.
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
