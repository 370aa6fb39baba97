"""Kappa derived from the first-order bounce map, checked at every geometry.

At a boundary hit the tracer maps q to kappa q.  kappa is the Jacobian of
the bounce map: a ray's (p, z) at the hit range r_b just before the bounce,
perturbed by (dp, dz), to its (p, z) at r_b just after.  The map is built
here in sympy from the ray equations dz/dr = p / w, dp/dr = n n_z / w
(w = sqrt(n^2 - p^2)) and the mirror law alone, in six steps; no line
of it reads the reflection module.  Its Jacobian is evaluated with mpmath
at 40 digits at the very floats ``kappa_matrix`` is given, over seeded
bottom and surface geometries, near-grazing hits and near-vertical
reflected rays.  k11, k12 and k22 are held to 1e-10 relative and k21 must
be exactly 0, both derived and as the tracer applies the jump.

Worst relative errors observed (x86-64 Linux), k11 / k12 / k22:

- 2,000 bottom geometries: 7.4e-13 / 7.4e-13 / 7.4e-13;
- 1,000 surface geometries: 1.1e-41 / 1.0e-16 / 2.3e-41;
- 200 near-grazing hits: 1.7e-16 / 1.2e-11 / 1.7e-16;
- 200 near-vertical reflected rays: 6.8e-11 / 6.8e-11 / 6.8e-11.

The last is kappa_matrix's own rounding of t1r = tr - 2 Nr <t, N>, a few
1e-16 against t1r >= 3e-6.  The whole module takes about 3 s.
"""

import ast
import inspect
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from varitrace import Bathymetry, GeometryError, kappa_matrix
from varitrace.propagation import _SURFACE, _rk4_step
from varitrace.reflection import SINGULAR_TOL

TOL = 1e-10

n, n_r, n_z, sigma, psi, tz0, dp, dz = sp.symbols("n n_r n_z sigma psi tz0 dp dz", real=True)
tr0 = sp.Symbol("tr0", positive=True)


def bounce_jacobian():
    """kappa = d(p, z)_after / d(dp, dz) at dp = dz = 0, as sympy entries
    (k11, k12, k21, k22), for a boundary of slope sigma and second
    derivative psi at the hit, an incident direction (tr0, tz0) and the
    index n, n_r, n_z there.  Depths are taken from the unperturbed hit.
    A moved direction's tr is sqrt(tr0^2 + tz0^2 - tz^2), which is tr0 at
    the hit, so entries are read at kappa_matrix's own (tr, tz) without
    rebuilding tr from tz (ill-conditioned near a vertical ray)."""
    p0, w0 = n * tz0, n * tr0
    # 1. The incident branch at r_b carries (p0 + dp, dz); after a range u it
    #    is at dz + u p0 / w0 with pulse p0 + dp + u n n_z / w0 (first order).
    # 2. It meets the boundary sigma u + psi u^2 / 2 where, to first order,
    #    dz + u p0 / w0 = sigma u.
    u = dz / (sigma - p0 / w0)
    p_hit = p0 + dp + u * n * n_z / w0
    # 3. The index at the moved hit point (u, sigma u), through n_r and n_z.
    n_hit = n + (n_r + sigma * n_z) * u
    # 4. Mirror at the normal of the moved hit point, (slope, -1) normalized
    #    as for the bottom (the mirror law ignores the normal's sign, so the
    #    surface is slope 0); the new pulse is n t1z.
    slope = sigma + psi * u
    nr, nz = slope / sp.sqrt(1 + slope**2), -1 / sp.sqrt(1 + slope**2)
    tz = p_hit / n_hit
    tr = sp.sqrt(tr0**2 + tz0**2 - tz**2)
    n_t = tr * nr + tz * nz
    t1r, t1z = tr - 2 * nr * n_t, tz - 2 * nz * n_t
    p1 = n_hit * t1z
    # 5. Carry the reflected branch, of slope t1z / t1r and w = n t1r, from
    #    r_b + u back to r_b.
    p_after = p1 - u * n * n_z / (n * t1r)
    z_after = sigma * u - u * t1z / t1r
    # 6. Differentiate at dp = dz = 0.
    at_hit = {dp: 0, dz: 0}
    return tuple(sp.diff(entry, var).subs(at_hit)
                 for entry in (p_after, z_after) for var in (dp, dz))


@pytest.fixture(scope="module")
def derived():
    """The four entries as mpmath functions of (tr0, tz0, n, n_r, n_z, sigma, psi)."""
    entries = bounce_jacobian()
    return [sp.lambdify((tr0, tz0, n, n_r, n_z, sigma, psi), entry, modules="mpmath")
            for entry in entries]


class _Bottom(Bathymetry):
    """A bottom whose profile at every range is (1000 m, sigma, psi), so its
    normal frame is the tracer's own."""

    def __init__(self, slope, d2):
        self.slope, self.d2 = slope, d2

    def _profile(self, r):
        return 1000.0, self.slope, self.d2


def frame_of(boundary, slope, d2):
    return _SURFACE.hit(0.0)[1] if boundary == "surface" else _Bottom(slope, d2).bottom_at(0.0)[1]


def accepted(theta, boundary, slope, d2, n_):
    """Whether kappa_matrix takes the hit and the reflected ray advances."""
    try:
        t1, _ = kappa_matrix((math.cos(theta), math.sin(theta)), frame_of(boundary, slope, d2),
                             (n_, 0.0, 0.0, 0.0))
    except GeometryError:
        return False
    return t1 is not None


def errors(derived, geometries):
    """Worst relative error of k11, k12 and k22 and worst |k21| (float and
    derived) over (boundary, theta, slope, d2, n, n_r, n_z) geometries."""
    worst = [0.0, 0.0, 0.0]
    k21_seen = 0.0
    with mpmath.workdps(40):
        for boundary, theta, slope, d2, n_, nr_, nz_ in geometries:
            tr_, tz_ = math.cos(theta), math.sin(theta)
            frame = frame_of(boundary, slope, d2)
            _, kappa = kappa_matrix((tr_, tz_), frame, (n_, nr_, nz_, 0.0))
            k11, k12, k21, k22 = kappa.apply((1.0, 0.0, 0.0, 1.0))
            # the slope and z_b'' of the float frame kappa_matrix was given
            slope_ = -mpmath.mpf(frame.nr) / frame.nz
            d2_ = -frame.curvature * (1 + slope_**2) ** mpmath.mpf(1.5)
            args = [mpmath.mpf(v) for v in (tr_, tz_, n_, nr_, nz_)] + [slope_, d2_]
            e11, e12, e21, e22 = (f(*args) for f in derived)
            k21_seen = max(k21_seen, abs(k21), abs(float(e21)))
            for i, (got, want) in enumerate(((k11, e11), (k12, e12), (k22, e22))):
                worst[i] = max(worst[i], float(abs(mpmath.mpf(got) - want) / abs(want)))
    return worst, k21_seen


def draws(seed, count, boundary):
    """``count`` accepted geometries: theta in +-1.3 rad (upward only at the
    surface), slope in +-1 and z_b'' in +-0.05 (bottom only), n in 0.9-1.1,
    n_r in +-0.01, n_z in +-0.02."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(10 * count):
        theta, slope, d2, n_, nr_, nz_ = rng.uniform((-1.3, -1.0, -0.05, 0.9, -0.01, -0.02),
                                                    (1.3, 1.0, 0.05, 1.1, 0.01, 0.02)).tolist()
        if boundary == "surface":
            theta, slope, d2 = -abs(theta), 0.0, 0.0
        if accepted(theta, boundary, slope, d2, n_):
            out.append((boundary, theta, slope, d2, n_, nr_, nz_))
            if len(out) == count:
                return out
    raise AssertionError(f"only {len(out)} of {count} draws accepted")


def near_singular(seed, count, which):
    """Accepted bottom and surface geometries a few SINGULAR_TOL from a
    tangential hit (``which = "grazing"``: <t, N> = -c SINGULAR_TOL) or
    from a vertical reflected ray (``"vertical"``: t1r = +-c SINGULAR_TOL,
    kept where positive), c in 3-10, a quarter of them at the surface.
    Directions are angles from the into-water normal's angle alpha: t at
    alpha +- acos(<t, N>), t1 mirrored from t about the tangent line."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(100 * count):
        c, slope, d2, n_, nr_, nz_, side, at = rng.uniform(
            (3.0, -1.0, -0.05, 0.9, -0.01, -0.02, -1.0, 0.0),
            (10.0, 1.0, 0.05, 1.1, 0.01, 0.02, 1.0, 1.0)).tolist()
        boundary = "surface" if at < 0.25 else "bottom"
        if boundary == "surface":
            slope, d2 = 0.0, 0.0
        frame = frame_of(boundary, slope, d2)
        alpha = math.atan2(frame.nz, frame.nr)
        if which == "grazing":
            theta = alpha + math.copysign(math.acos(-c * SINGULAR_TOL), side)
        else:
            theta = 2.0 * alpha + math.pi - math.copysign(math.acos(c * SINGULAR_TOL), side)
        theta = math.atan2(math.sin(theta), math.cos(theta))
        if accepted(theta, boundary, slope, d2, n_):
            out.append((boundary, theta, slope, d2, n_, nr_, nz_))
            if len(out) == count:
                return out
    raise AssertionError(f"only {len(out)} of {count} draws accepted")


CASES = {
    "bottom": lambda: draws(3, 2000, "bottom"),
    "surface": lambda: draws(4, 1000, "surface"),
    "grazing": lambda: near_singular(5, 200, "grazing"),
    "vertical": lambda: near_singular(6, 200, "vertical"),
}


def test_k21_is_derived_zero():
    """The reflected depth does not depend on dp: k21 is 0 by derivation,
    not by a default."""
    assert bounce_jacobian()[2] == 0


@pytest.mark.parametrize("case", CASES)
def test_kappa_matches_bounce_map(derived, case):
    worst, k21 = errors(derived, CASES[case]())
    assert k21 == 0.0
    assert max(worst) <= TOL, dict(zip(("k11", "k12", "k22"), worst))


def kernel_stage_one_k():
    """k11, k12 and k21 as ``_rk4_step`` forms them at its first stage, by
    running the kernel's own assignments to t, k11, k21 and k12 on sympy
    symbols: n1, g1 and gg1 are n, n_z and n_zz, and w1 = sqrt(n^2 - p^2)."""
    (branch,) = [node for node in ast.walk(ast.parse(inspect.getsource(_rk4_step)))
                 if isinstance(node, ast.If) and ast.unparse(node.test) == "q is not None"]
    p, n_zz = sp.symbols("p n_zz", real=True)
    scope = {"p": p, "n1": n, "g1": n_z, "gg1": n_zz, "w1": sp.sqrt(n**2 - p**2)}
    wanted = {"t", "k11", "k21", "k12"}
    for stmt in branch.body:
        targets = {name.id for name in ast.walk(stmt) if isinstance(name, ast.Name)
                   and isinstance(name.ctx, ast.Store)}
        if targets & wanted:
            exec(compile(ast.Module([stmt], []), "<kernel>", "exec"), {}, scope)
            wanted -= targets
        if not wanted:
            break
    assert not wanted, f"the kernel no longer assigns {wanted}"
    return scope["k11"], scope["k12"], scope["k21"], p, n_zz


def test_k_is_the_linearisation_of_the_hamiltonian():
    """dq/dr = K q linearises dz/dr = H_p, dp/dr = -H_z with
    H = -sqrt(n(z)^2 - p^2) in q = d(p, z)/d(p0, z0): K = [[-H_zp, -H_zz],
    [H_pp, H_pz]].  Derived here with sympy, each entry minus the kernel's
    k11, k12, k21 and -k11 (the kernel applies k22 as -k11) simplifies to
    exactly 0."""
    k11, k12, k21, p, n_zz = kernel_stage_one_k()
    z = sp.Symbol("z", real=True)
    index = sp.Function("n")(z)
    H = -sp.sqrt(index**2 - p**2)
    K = (-sp.diff(H, z, p), -sp.diff(H, z, z), sp.diff(H, p, p), sp.diff(H, p, z))
    # The second derivative first, so no derivative sees a plain n.
    plain = [(sp.Derivative(index, (z, 2)), n_zz), (sp.Derivative(index, z), n_z), (index, n)]
    K = [entry.subs(plain) for entry in K]
    assert [sp.simplify(got - want) for got, want in zip(K, (k11, k12, k21, -k11))] == [0] * 4
