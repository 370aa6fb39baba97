"""FD-oracle tests: flow-map Jacobians vs analytic variation matrices."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from varitrace import (
    BeamPerturbation,
    ConstantField,
    FlatBottom,
    GeometryError,
    IndexSample,
    LinearGradientField,
    LinearSlopeBottom,
    PerturbationTooLargeError,
    SoundSpeedField,
    TraceConfig,
    fd_jacobian,
    verify_kappa,
)
from varitrace.presets import PRESET_NAMES, STUDY_PERTURBATION, preset

HOMOGENEOUS = ConstantField(c0=1500.0)
DEEP = FlatBottom(5000.0)


@dataclass(frozen=True)
class BeamOffsets:
    """Incidence-point offsets (dr, dz) of a neighboring beam ray."""

    dr: float
    dz: float


def beam_geometry_check(t, n_vec, delta_z: float) -> BeamOffsets:
    """Offsets of the neighbor ray's hit point on a locally planar boundary.

    A neighbor displaced by delta_z below the central ray at the central
    hit range strikes the (planar) boundary at
    dr = (tr Nz / <t,N>) delta_z, dz = -(tr Nr / <t,N>) delta_z.
    TestBeamGeometry checks these against an explicit ray/line intersection.
    """
    tr, tz = float(t[0]), float(t[1])
    nr, nz = float(n_vec[0]), float(n_vec[1])
    n_t = tr * nr + tz * nz
    if n_t == 0.0:
        raise GeometryError("tangential geometry: <t, N> = 0")
    return BeamOffsets(dr=tr * nz / n_t * delta_z, dz=-tr * nr / n_t * delta_z)


class TestFdJacobian:
    def test_identity_at_zero_length_flow(self):
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=500.0,
                          theta0=math.radians(5.0), dr=1.0)
        est = fd_jacobian(HOMOGENEOUS, DEEP, cfg, BeamPerturbation(), 0.0)
        np.testing.assert_allclose(est.matrix, np.eye(2), atol=1e-9)

    def test_homogeneous_closed_form(self):
        R = 4000.0
        theta = math.radians(12.0)
        cfg = TraceConfig(r_start=0.0, r_end=R, z0=2000.0, theta0=theta, dr=10.0)
        est = fd_jacobian(HOMOGENEOUS, DEEP, cfg, BeamPerturbation(), R)
        w = math.cos(theta)
        expected = np.array([[1.0, 0.0], [R / w**3, 1.0]])
        np.testing.assert_allclose(est.matrix, expected, rtol=1e-6, atol=1e-6)
        assert np.all(np.isfinite(est.error))

    def test_determinant_close_to_one(self):
        cfg = TraceConfig(r_start=0.0, r_end=3000.0, z0=1000.0,
                          theta0=math.radians(9.0), dr=10.0)
        est = fd_jacobian(LinearGradientField(1500.0, 1e-4), DEEP, cfg,
                          BeamPerturbation(), 3000.0)
        assert np.linalg.det(est.matrix) == pytest.approx(1.0, abs=1e-5)

    def test_single_flat_bounce_matches_analytic_composition(self):
        """One flat homogeneous bounce: J = F2 (-I) F1 with shear factors."""
        theta = math.radians(35.0)
        depth, z0 = 200.0, 50.0
        r_bounce = (depth - z0) / math.tan(theta)
        R = r_bounce + 120.0
        cfg = TraceConfig(r_start=0.0, r_end=R, z0=z0, theta0=theta, dr=0.5)
        est = fd_jacobian(HOMOGENEOUS, FlatBottom(depth), cfg, BeamPerturbation(), R)
        a = 1.0 / math.cos(theta) ** 3
        f1 = np.array([[1.0, 0.0], [r_bounce * a, 1.0]])
        f2 = np.array([[1.0, 0.0], [(R - r_bounce) * a, 1.0]])
        expected = f2 @ (-np.eye(2)) @ f1
        np.testing.assert_allclose(est.matrix, expected, rtol=1e-5, atol=1e-5)

    def test_perturbation_auto_halves_when_launch_leaves_water(self):
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=40.0,
                          theta0=math.radians(5.0), dr=1.0)
        w = math.cos(math.radians(5.0))
        for levels in (2, 3):
            # z0 - h_z < 0 at first try
            pert = BeamPerturbation(h_p=1e-6, h_z=60.0, richardson_levels=levels)
            est = fd_jacobian(HOMOGENEOUS, FlatBottom(500.0), cfg, pert, 100.0)
            assert est.h_z < 60.0
            np.testing.assert_allclose(est.matrix, [[1.0, 0.0], [100.0 / w**3, 1.0]],
                                       rtol=1e-4, atol=1e-4)

    def test_bounce_sequence_mismatch_raises_after_halvings(self):
        theta = math.radians(35.0)
        cfg = TraceConfig(r_start=0.0, r_end=300.0, z0=50.0, theta0=theta, dr=0.5)
        r_bounce = 150.0 / math.tan(theta)
        # query just past the central bounce; even h_z/32 shifts the
        # perturbed bounce past the query range
        with pytest.raises(PerturbationTooLargeError):
            fd_jacobian(HOMOGENEOUS, FlatBottom(200.0), cfg,
                        BeamPerturbation(h_p=1e-9, h_z=40.0), r_bounce + 0.5)

    def test_invalid_query_range(self):
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=50.0,
                          theta0=math.radians(5.0), dr=1.0)
        with pytest.raises(ValueError):
            fd_jacobian(HOMOGENEOUS, DEEP, cfg, BeamPerturbation(), 150.0)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            BeamPerturbation(h_p=0.0)
        with pytest.raises(ValueError):
            BeamPerturbation(richardson_levels=0)
        # one level is a valid beam, but fd_jacobian's error bar needs two
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=50.0,
                          theta0=math.radians(5.0), dr=1.0)
        with pytest.raises(ValueError, match="2 Richardson levels"):
            fd_jacobian(HOMOGENEOUS, DEEP, cfg, BeamPerturbation(richardson_levels=1), 100.0)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_trace_is_ray_only(self, monkeypatch, name):
        """fd_jacobian reads endpoints and bounce sequences only, so its
        central ray is ray-only like the perturbed ones: 1 + 4 * 2 traces
        at the defaults, none integrating q.  The estimate is, bit for bit,
        the one made about a central ray that integrates q."""
        import varitrace.oracle as oracle

        sc = preset(name)
        calls = []
        original = oracle.trace_from_pulse

        def counted(*args, **kwargs):
            calls.append(kwargs["variations"])
            return original(*args, **kwargs)

        def full_central(*args, **kwargs):
            first = not calls
            calls.append(kwargs["variations"])
            return original(*args, **{**kwargs, "variations": kwargs["variations"] or first})

        estimates = []
        for wrapper in (counted, full_central):
            calls.clear()
            monkeypatch.setattr(oracle, "trace_from_pulse", wrapper)
            estimates.append(fd_jacobian(sc.field, sc.bath, sc.cfg, BeamPerturbation(),
                                         sc.r_after_bounce))
            assert calls == [False] * 9
        ray_only, full = estimates
        assert ray_only.matrix.tobytes() == full.matrix.tobytes()
        assert ray_only.error.tobytes() == full.error.tobytes()
        assert (ray_only.h_p, ray_only.h_z) == (full.h_p, full.h_z)


class TestVerifyKappa:
    def test_flat_linear_accuracy_and_convergence(self):
        scenario = preset("flat-linear")
        v, study = verify_kappa(scenario.field, scenario.bath, scenario.cfg,
                                (BeamPerturbation(), STUDY_PERTURBATION),
                                scenario.r_after_bounce)
        assert v.max_rel_err < 1e-3
        errs = study.level_errs
        assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_study_levels_equal_separate_calls(self, name):
        """The one-call study's level errors are, bit for bit, the errors
        of separate calls at h, h/2 and h/4, each with two levels."""
        sc = preset(name)
        (study,) = verify_kappa(sc.field, sc.bath, sc.cfg, [STUDY_PERTURBATION],
                                sc.r_after_bounce)
        reference = []
        for i in range(3):
            pert = BeamPerturbation(h_p=STUDY_PERTURBATION.h_p / 2**i,
                                    h_z=STUDY_PERTURBATION.h_z / 2**i)
            reference.append(verify_kappa(sc.field, sc.bath, sc.cfg, [pert],
                                          sc.r_after_bounce)[0].max_rel_err)
        assert study.level_errs == tuple(reference)
        assert study.max_rel_err == study.level_errs[0]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_default_offsets_reach_the_event_location_floor(self, name):
        """At the default offsets the FD error is set by how exactly each
        perturbed trace lands on the boundary, not by truncation."""
        sc = preset(name)
        v, one = verify_kappa(sc.field, sc.bath, sc.cfg,
                              (BeamPerturbation(), BeamPerturbation(richardson_levels=1)),
                              sc.r_after_bounce)
        assert v.max_rel_err <= 1e-6
        # one level, as verify traces it, gives the same first-level error
        assert one.level_errs == v.level_errs[:1]
        assert one.max_rel_err == v.max_rel_err

    def test_central_ray_traced_once(self, monkeypatch):
        """One call traces the central ray once, whatever the number of
        perturbations, and four perturbed rays per Richardson level: 1 + 4 * 1
        for one level, 1 + 4 * 2 at the defaults, 1 + 4 * 3 for the study and
        1 + 4 * (1 + 3) for verify's pair.  Only the central ray integrates q."""
        import varitrace.oracle as oracle

        calls = []
        original = oracle.trace_from_pulse

        def counted(*args, **kwargs):
            calls.append(kwargs.get("variations", True))
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "trace_from_pulse", counted)
        sc = preset("flat-linear")
        one = BeamPerturbation(richardson_levels=1)
        for perts, traces in (([one], 5), ([BeamPerturbation()], 9),
                              ([STUDY_PERTURBATION], 13), ([one, STUDY_PERTURBATION], 17)):
            calls.clear()
            results = verify_kappa(sc.field, sc.bath, sc.cfg, perts, sc.r_after_bounce)
            assert len(results) == len(perts)
            assert calls == [True] + [False] * (traces - 1)

    def test_arc_homogeneous_curvature_term(self):
        """Numeric jump off a circular basin matches the analytic curvature
        formula -2 curv n t1r tr / <t,N> through the composed q."""
        scenario = preset("arc-homogeneous")
        (v,) = verify_kappa(scenario.field, scenario.bath, scenario.cfg,
                            [BeamPerturbation()], scenario.r_after_bounce)
        assert v.max_rel_err < 1e-3

    def test_requires_exactly_one_bounce(self):
        cfg = TraceConfig(r_start=0.0, r_end=1000.0, z0=500.0,
                          theta0=math.radians(3.0), dr=5.0)
        with pytest.raises(GeometryError):
            verify_kappa(HOMOGENEOUS, DEEP, cfg, [BeamPerturbation()], 1000.0)

    def test_horizontal_gradient_term_regression(self):
        """Pins the n_r coefficient of the jump: a tilted index field over a
        sloped bottom, where the FD oracle distinguishes the implemented
        Nr*Nz^2 coefficient from the Nr*Nz variant (they differ by ~30%
        of kappa12 here)."""

        class TiltedField(SoundSpeedField):
            kind = "tilted"

            def __init__(self):
                super().__init__(1500.0)

            def sound_speed(self, r, z):
                return 1500.0 * (1.0 - 5e-4 * z - 2e-4 * r)

            def index_at(self, r, z):
                f = 1.0 - 5e-4 * z - 2e-4 * r
                return IndexSample(1.0 / f, 2e-4 / f**2, 5e-4 / f**2,
                                   2.0 * 5e-4**2 / f**3)

        field = TiltedField()
        bath = LinearSlopeBottom(depth0=150.0, slope=0.35)
        cfg = TraceConfig(r_start=0.0, r_end=400.0, z0=20.0,
                          theta0=math.radians(40.0), dr=0.5)
        (v,) = verify_kappa(field, bath, cfg, [BeamPerturbation()], 400.0)
        assert v.max_rel_err < 1e-4


class TestGriddedFieldJump:
    def test_verify_kappa_on_2d_gridded_field(self):
        """Spline-sourced index derivatives (n_r included) feed the jump
        matrix correctly on a sloped bottom."""
        import numpy as np
        from varitrace import GriddedField

        ranges = np.linspace(-50.0, 600.0, 40)
        depths = np.linspace(-20.0, 400.0, 50)
        rr, zz = np.meshgrid(ranges, depths, indexing="ij")
        c = 1500.0 * (1.0 - 5e-4 * zz - 2e-4 * rr)
        field = GriddedField(depths=depths, c_values=c, ranges=ranges, c0=1500.0)
        bath = LinearSlopeBottom(depth0=150.0, slope=0.35)
        cfg = TraceConfig(r_start=0.0, r_end=400.0, z0=20.0,
                          theta0=math.radians(40.0), dr=0.5)
        (v,) = verify_kappa(field, bath, cfg, [BeamPerturbation()], 400.0)
        assert v.max_rel_err < 1e-3


class TestBeamGeometry:
    def test_horizontal_bottom(self):
        t = np.array([0.8, 0.6])
        offs = beam_geometry_check(t, [0.0, -1.0], 2.0)
        assert offs.dz == 0.0
        assert offs.dr == pytest.approx((0.8 / 0.6) * 2.0, rel=1e-12)

    def test_vertical_wall(self):
        t = np.array([0.8, 0.6])
        offs = beam_geometry_check(t, [-1.0, 0.0], 2.0)
        assert offs.dr == 0.0

    def test_matches_explicit_planar_intersection(self):
        """Independent oracle: intersect the neighbor ray with the plane
        through the origin orthogonal to N, starting delta_z below."""
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 500:
            theta = rng.uniform(-math.pi, math.pi)
            alpha = rng.uniform(-math.pi, math.pi)
            t = np.array([math.cos(theta), math.sin(theta)])
            n_vec = np.array([math.cos(alpha), math.sin(alpha)])
            if abs(float(t @ n_vec)) < 1e-3:
                continue
            delta_z = rng.uniform(-1.0, 1.0)
            # neighbor passes through (0, -delta_z); hit point x solves
            # <x, N> = 0 with x = (0, -delta_z) + s t
            s = delta_z * n_vec[1] / float(t @ n_vec)
            hit = np.array([0.0, -delta_z]) + s * t
            offs = beam_geometry_check(t, n_vec, delta_z)
            assert offs.dr == pytest.approx(hit[0], rel=1e-12, abs=1e-14)
            assert offs.dz == pytest.approx(hit[1], rel=1e-12, abs=1e-14)
            checked += 1

    def test_tangential_rejected(self):
        with pytest.raises(GeometryError):
            beam_geometry_check([1.0, 0.0], [0.0, -1.0], 1.0)

class TestIdentitiesAtBouncePoints:
    def test_identities_hold_at_every_preset_bounce(self):
        """The tangent-ratio identities hold at the actual bounce geometry
        of every verification scenario."""
        from varitrace import identity_checks, surface_frame, trace_ray
        from varitrace.presets import PRESET_NAMES

        for name in PRESET_NAMES:
            sc = preset(name)
            res = trace_ray(sc.field, sc.bath, sc.cfg)
            assert res.bounces
            for b in res.bounces:
                frame = (sc.bath.bottom_at(b.r).frame if b.boundary == "bottom"
                         else surface_frame())
                t_vec = np.array([math.cos(b.theta_incident),
                                  math.sin(b.theta_incident)])
                pair = identity_checks(t_vec, frame.as_array())
                assert abs(pair.lhs1 - pair.rhs1) < 1e-12
                assert abs(pair.lhs2 - pair.rhs2) < 1e-12
