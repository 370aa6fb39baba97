"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from hamiltonian_reference import k_matrix, ray_rhs
from identity_reference import identity_checks
from varitrace import (
    ArcBottom,
    BeamPerturbation,
    ConstantField,
    FlatBottom,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    NormalFrame,
    SingularReflectionError,
    SinusoidalBottom,
    TraceConfig,
    TraceStatus,
    fd_jacobian,
    kappa_matrix,
    trace_ray,
    verify_kappa,
)
from varitrace.cli import main, scan_kappa
from varitrace.oracle import PRESET_NAMES, STUDY_PERTURBATION, preset


def report(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------
# 1. Symplecticity over randomized scenarios
# ---------------------------------------------------------------------------


def _random_scenario(rng):
    depth = rng.uniform(140.0, 300.0)
    theta = math.radians(rng.uniform(16.0, 30.0))
    field = rng.choice([
        ConstantField(c0=1500.0),
        LinearGradientField(c_surface=1500.0, gradient=rng.uniform(1e-5, 2e-4)),
        MunkField(),
    ])
    kind = rng.integers(0, 3)
    if kind == 0:
        bath = FlatBottom(depth)
    elif kind == 1:
        bath = LinearSlopeBottom(depth0=depth, slope=rng.uniform(-3e-3, 3e-3))
    else:
        bath = SinusoidalBottom(depth, amplitude=0.04 * depth,
                                wavenumber=2.0 * math.pi / 2500.0,
                                phase=rng.uniform(0.0, 2.0 * math.pi))
    period = 2.0 * depth / math.tan(theta)
    cfg = TraceConfig(r_start=0.0, r_end=12.5 * period,
                      z0=rng.uniform(0.3, 0.7) * depth, theta0=theta, dr=5.0)
    return field, bath, cfg


def test_criterion_1_symplecticity():
    """>= 20 randomized mixed scenarios with >= 10 bounces keep |det q - 1|
    below 1e-6 at every sample, in under 10 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        field, bath, cfg = _random_scenario(rng)
        res = trace_ray(field, bath, cfg)
        assert res.status is TraceStatus.COMPLETED, f"scenario {i}: {res.status}"
        assert len(res.bounces) >= 10, f"scenario {i}: {len(res.bounces)} bounces"
        dev = float(np.abs(res.det_q - 1.0).max())
        assert dev < 1e-6, f"scenario {i}: det deviation {dev:.3e}"
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"symplecticity suite took {elapsed:.1f} s"
    report(f"ACCEPTANCE 1 (symplecticity): PASS  "
           f"worst |det q - 1| = {worst:.3e} over 20 scenarios, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. Jump-matrix special cases
# ---------------------------------------------------------------------------


def test_criterion_2_kappa_special_cases():
    """Flat boundary with and without gradient, and homogeneous curved
    boundary, reproduce their closed-form jump matrices to 1e-12."""
    bottom_frame = FlatBottom(100.0).bottom_at(0.0)[1]
    homogeneous = (1.0, 0.0, 0.0, 0.0)

    # flat, zero gradient: kappa = -I
    for tz in (0.2, 0.5, 0.75):
        t = np.array([math.sqrt(1.0 - tz * tz), tz])
        k = kappa_matrix(t, bottom_frame, homogeneous)[1]
        assert abs(k.k11 + 1.0) < 1e-12
        assert abs(k.k22 + 1.0) < 1e-12
        assert abs(k.k12) < 1e-12
        assert k.apply((1.0, 0.0, 0.0, 1.0))[2] == 0.0

    # flat, vertical gradient: kappa12 = 2 n_z / t_z
    for tz, n_z in ((0.5, 0.01), (0.35, -0.004), (0.8, 0.02)):
        t = np.array([math.sqrt(1.0 - tz * tz), tz])
        k = kappa_matrix(t, bottom_frame, (1.0, 0.0, n_z, 0.0))[1]
        assert abs(k.k12 - 2.0 * n_z / tz) < 1e-12

    # homogeneous medium, curved boundary: kappa12 = -2 curv n t1r tr / <t,N>
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 500:
        theta = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi)
        t = np.array([math.cos(theta), math.sin(theta)])
        n_vec = np.array([math.cos(alpha), math.sin(alpha)])
        if float(t @ n_vec) >= -1e-2:
            continue
        curv = rng.uniform(-0.05, 0.05)
        n = rng.uniform(0.9, 1.1)
        frame = NormalFrame(nr=float(n_vec[0]), nz=float(n_vec[1]), curvature=curv)
        try:
            k = kappa_matrix(t, frame, (n, 0.0, 0.0, 0.0))[1]
        except SingularReflectionError:
            continue
        n_t = float(t @ n_vec)
        t1r = float(t[0]) - 2.0 * float(n_vec[0]) * n_t
        assert abs(k.k12 - (-2.0 * curv * n * t1r * t[0] / n_t)) < 1e-12
        checked += 1
    report("ACCEPTANCE 2 (kappa special cases): PASS  flat, gradient and "
           "curved forms all within 1e-12")


# ---------------------------------------------------------------------------
# 3. Oracle equivalence on the preset matrix
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_equivalence():
    """Analytic q (jump applied) vs FD Jacobian on all four presets:
    < 1e-3 entrywise at default offsets, order 2.0 +/- 0.3 under halving,
    all inside 30 s."""
    start = time.perf_counter()
    lines = []
    for name in PRESET_NAMES:
        sc = preset(name)
        (err, _), errs = verify_kappa(sc.field, sc.bath, sc.cfg,
                                      (BeamPerturbation(), STUDY_PERTURBATION))
        assert err < 1e-3, f"{name}: default-h error {err:.3e}"
        order = 0.5 * (math.log2(errs[0] / errs[1]) + math.log2(errs[1] / errs[2]))
        assert abs(order - 2.0) <= 0.3, f"{name}: order {order:.2f}"
        lines.append(f"{name} err={err:.1e} order={order:.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f} s"
    report(f"ACCEPTANCE 3 (oracle equivalence): PASS  "
           f"{'; '.join(lines)}; {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 4. Derivation identities
# ---------------------------------------------------------------------------


def test_criterion_4_identities():
    """Both tangent-ratio identities hold to 1e-10 over 1e4 random valid
    pairs, in under 1 s."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 10_000:
        theta = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi)
        t = np.array([math.cos(theta), math.sin(theta)])
        n_vec = np.array([math.cos(alpha), math.sin(alpha)])
        if float(t @ n_vec) >= -1e-6:
            continue
        try:
            (lhs1, rhs1), (lhs2, rhs2) = identity_checks(t, n_vec)
        except SingularReflectionError:
            continue
        worst = max(worst, abs(lhs1 - rhs1), abs(lhs2 - rhs2))
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0, f"identity sweep took {elapsed:.2f} s"
    report(f"ACCEPTANCE 4 (derivation identities): PASS  worst |lhs - rhs| = "
           f"{worst:.3e} over 10000 pairs, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 5. Closed-form homogeneous flow
# ---------------------------------------------------------------------------


def test_criterion_5_closed_form_flow():
    """Bounce-free homogeneous q matches [[1,0],[R n^2/w^3,1]] to 1e-8
    relative; the FD Jacobian agrees to 1e-6 relative."""
    field = ConstantField(c0=1500.0, c=1470.0)
    bath = FlatBottom(6000.0)
    R, theta = 5000.0, math.radians(11.0)
    n = 1500.0 / 1470.0
    w = n * math.cos(theta)
    cfg = TraceConfig(r_start=0.0, r_end=R, z0=2500.0, theta0=theta, dr=10.0)
    expected = np.array([[1.0, 0.0], [R * n * n / w**3, 1.0]])

    res = trace_ray(field, bath, cfg)
    assert res.status is TraceStatus.COMPLETED and not res.bounces
    analytic = res.q[-1]
    scale = np.abs(expected).max()
    assert np.abs(analytic - expected).max() / scale < 1e-8

    _, levels = fd_jacobian(field, bath, cfg, BeamPerturbation())
    assert np.abs(levels[0] - expected).max() / scale < 1e-6
    report("ACCEPTANCE 5 (closed-form flow): PASS  analytic within 1e-8, "
           "FD within 1e-6")


# ---------------------------------------------------------------------------
# 6. K-matrix vs finite differences of the ray RHS
# ---------------------------------------------------------------------------


def _k_fd(field, z, p, h_p, h_z):
    dz_pp, dp_pp, _ = ray_rhs(field.index_at(0.0, z), p + h_p)
    dz_pm, dp_pm, _ = ray_rhs(field.index_at(0.0, z), p - h_p)
    dz_zp, dp_zp, _ = ray_rhs(field.index_at(0.0, z + h_z), p)
    dz_zm, dp_zm, _ = ray_rhs(field.index_at(0.0, z - h_z), p)
    return np.array([
        [(dp_pp - dp_pm) / (2 * h_p), (dp_zp - dp_zm) / (2 * h_z)],
        [(dz_pp - dz_pm) / (2 * h_p), (dz_zp - dz_zm) / (2 * h_z)],
    ])


def test_criterion_6_k_matrix_validation():
    """Analytic K matches the centered FD Jacobian of the ray RHS at 100
    random field points with observed second-order convergence."""
    field = LinearGradientField(c_surface=1500.0, gradient=8e-3)
    rng = np.random.default_rng(123)
    orders = []
    for _ in range(100):
        z = rng.uniform(5.0, 110.0)
        s = field.index_at(0.0, z)
        p = rng.uniform(-0.75, 0.75) * s[0]
        analytic = k_matrix(s, p)
        fine = _k_fd(field, z, p, 1e-6, 1e-3)
        np.testing.assert_allclose(fine, analytic, rtol=2e-5, atol=1e-9)
        e1 = np.abs(_k_fd(field, z, p, 2e-3, 1.0) - analytic).max()
        e2 = np.abs(_k_fd(field, z, p, 1e-3, 0.5) - analytic).max()
        orders.append(math.log2(e1 / e2))
    median_order = float(np.median(orders))
    assert abs(median_order - 2.0) <= 0.3
    report(f"ACCEPTANCE 6 (K-matrix validation): PASS  median FD order "
           f"{median_order:.2f} over 100 points")


# ---------------------------------------------------------------------------
# 7. Reflection-sweep data reproduction
# ---------------------------------------------------------------------------

SWEEP_CURVATURE = 0.02
SWEEP_NZ = 0.01


def _sweep_scenario(theta_deg: float, alpha_deg: float):
    """Build a single-bounce scenario whose bounce hits the reference basin
    exactly at the boundary point with normal angle alpha and incident
    grazing angle theta, in a field with n = 1 and n_z = 0.01 there."""
    radius = 1.0 / SWEEP_CURVATURE
    r_center, z_center = 100.0, 30.0
    bath = ArcBottom(radius=radius, r_center=r_center, z_center=z_center,
                     bulge="down")
    u_star = -radius * math.cos(math.radians(alpha_deg))
    r_star = r_center + u_star
    z_star = z_center + math.sqrt(radius**2 - u_star**2)
    g = SWEEP_NZ / (1.0 + SWEEP_NZ * z_star)
    n0 = 1.0 - g * z_star
    field = LinearGradientField(c_surface=1500.0 / n0, gradient=g, c0=1500.0)

    theta_star = math.radians(theta_deg)
    lever = 15.0
    r_start = r_star - lever
    shoot_bath = FlatBottom(z_star + 200.0)

    def residual(z0, theta0):
        cfg = TraceConfig(r_start=r_start, r_end=r_star, z0=z0, theta0=theta0,
                          dr=0.1)
        res = trace_ray(field, shoot_bath, cfg)
        r, z, p = res.samples[-1, :3]
        n = field.index_at(r, z)[0]
        return np.array([z - z_star, math.asin(p / n) - theta_star])

    # Newton on (z0, theta0) with forward-difference Jacobian
    z0 = z_star - lever * math.tan(theta_star)
    theta0 = theta_star
    for _ in range(30):
        f = residual(z0, theta0)
        if max(abs(f[0]), abs(f[1])) < 1e-11:
            break
        dz, dth = 1e-7, 1e-9
        jac = np.column_stack([(residual(z0 + dz, theta0) - f) / dz,
                               (residual(z0, theta0 + dth) - f) / dth])
        step = np.linalg.solve(jac, -f)
        z0 += step[0]
        theta0 += step[1]
    else:
        raise AssertionError(f"shooting failed for theta={theta_deg}, alpha={alpha_deg}")

    cfg = TraceConfig(r_start=r_start, r_end=r_star + 15.0, z0=z0,
                      theta0=theta0, dr=0.1)
    return field, bath, cfg


def test_criterion_7_sweep_reproduction():
    """The jump-matrix sweep at the reference parameters: at alpha = 90 the
    diagonal equals the flat-boundary values exactly, and sweep ordinates
    at 5 sampled (theta, alpha) pairs agree with the single-bounce oracle
    to 1e-3."""
    # (a) alpha = 90 column of the sweep
    thetas = [-90.0 + 10.0 * k for k in range(1, 18)]
    for theta in thetas:
        entries = scan_kappa(theta, 90.0, SWEEP_CURVATURE, 1.0, SWEEP_NZ, 0.0)
        if theta == 0.0:
            assert entries is None  # tangential gap
            continue
        k11, k12, k22 = entries
        assert abs(k11 + 1.0) < 1e-12
        assert abs(k22 + 1.0) < 1e-12
        # with zero curvature the off-diagonal collapses to the flat form
        flat = scan_kappa(theta, 90.0, 0.0, 1.0, SWEEP_NZ, 0.0)
        tz = math.sin(math.radians(theta))
        assert abs(flat[1] - 2.0 * SWEEP_NZ / tz) < 1e-12

    # (b) oracle cross-validation at 5 sampled pairs
    pairs = [(30.0, -90.0), (45.0, -80.0), (20.0, -100.0),
             (60.0, -75.0), (45.0, -95.0)]
    for theta_deg, alpha_deg in pairs:
        field, bath, cfg = _sweep_scenario(theta_deg, alpha_deg)
        res = trace_ray(field, bath, cfg)
        assert res.status is TraceStatus.COMPLETED
        assert len(res.bounces) == 1
        bounce = res.bounces[0]
        # the bounce landed on the targeted pair
        assert math.degrees(bounce.theta_incident) == pytest.approx(theta_deg,
                                                                    abs=1e-5)
        frame = bath.bottom_at(bounce.r)[1]
        assert math.degrees(math.atan2(frame.nz, frame.nr)) == pytest.approx(alpha_deg, abs=1e-5)

        # sweep ordinate at the grid pair vs the traced bounce jump
        k11, k12, k22 = scan_kappa(theta_deg, alpha_deg, SWEEP_CURVATURE, 1.0,
                                   SWEEP_NZ, 0.0)
        assert k11 == pytest.approx(bounce.kappa.k11, rel=1e-6)
        assert k12 == pytest.approx(bounce.kappa.k12, rel=1e-6)
        assert k22 == pytest.approx(bounce.kappa.k22, rel=1e-6)

        # and the whole analytic q agrees with the FD oracle
        (v,) = verify_kappa(field, bath, cfg, [BeamPerturbation()])
        assert v[0] < 1e-3, f"pair ({theta_deg}, {alpha_deg}): {v[0]:.3e}"
    report("ACCEPTANCE 7 (sweep reproduction): PASS  alpha=90 column exact, "
           "5 sampled pairs oracle-validated to 1e-3")


# ---------------------------------------------------------------------------
# 8. Determinism of the CLI output
# ---------------------------------------------------------------------------

DETERMINISM_CFG = """\
[environment]
kind = munk

[bathymetry]
kind = sinusoidal
mean_depth = 2000.0
amplitude = 60.0
wavenumber = 0.003

[trace]
r_start = 0.0
r_end = 30000.0
z0 = 900.0
theta0_deg = 14.0
dr = 20.0
"""


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(DETERMINISM_CFG)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["trace", "--config", str(cfg_path), "--output", str(out_a),
                 "--seed", "12345"]) == 0
    assert main(["trace", "--config", str(cfg_path), "--output", str(out_b),
                 "--seed", "12345"]) == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    assert len(bytes_a) > 1000

    scan_cfg = tmp_path / "scan.cfg"
    scan_cfg.write_text("[kappa_scan]\nalpha_step_deg = 5.0\n")
    out_c, out_d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(["kappa-scan", "--config", str(scan_cfg), "--output",
                 str(out_c), "--seed", "1"]) == 0
    assert main(["kappa-scan", "--config", str(scan_cfg), "--output",
                 str(out_d), "--seed", "1"]) == 0
    assert out_c.read_bytes() == out_d.read_bytes()
    report("ACCEPTANCE 8 (determinism): PASS  byte-identical CSV across reruns")
