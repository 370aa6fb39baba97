"""Tracing tests: geometry oracles, closed forms, statuses, convergence."""

import math
import os
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from hamiltonian_reference import hamiltonian
from varitrace import (
    ArcBottom,
    BeamPerturbation,
    ConstantField,
    DomainError,
    FlatBottom,
    GriddedField,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    PiecewiseBottom,
    SingularReflectionError,
    SinusoidalBottom,
    SoundSpeedField,
    TraceConfig,
    TraceStatus,
    fd_jacobian,
    spreading_at,
    kappa_matrix,
    trace_from_pulse,
    trace_ray,
)
from varitrace.propagation import MAX_BASE_STEPS

HOMOGENEOUS = ConstantField(c0=1500.0)


class TestZigZagGeometry:
    """Straight rays in uniform water bounce at elementary-geometry ranges."""

    def test_bounce_ranges_45_degrees(self):
        cfg = TraceConfig(r_start=0.0, r_end=6000.0, z0=0.0,
                          theta0=math.radians(45.0), dr=10.0)
        res = trace_ray(HOMOGENEOUS, FlatBottom(1000.0), cfg)
        assert res.status is TraceStatus.COMPLETED
        expected = [(1000.0, "bottom"), (2000.0, "surface"), (3000.0, "bottom"),
                    (4000.0, "surface"), (5000.0, "bottom")]
        assert len(res.bounces) == len(expected)
        for bounce, (r_exp, boundary) in zip(res.bounces, expected):
            assert bounce.r == pytest.approx(r_exp, abs=1e-6)
            assert bounce.boundary == boundary
            assert abs(bounce.theta_incident) == pytest.approx(math.radians(45.0),
                                                               rel=1e-12)

    def test_boundary_residual_within_tolerance(self):
        bath = SinusoidalBottom(400.0, 60.0, 2e-3)
        cfg = TraceConfig(r_start=0.0, r_end=15_000.0, z0=100.0,
                          theta0=math.radians(22.0), dr=5.0, bisect_tol=1e-9)
        res = trace_ray(HOMOGENEOUS, bath, cfg)
        assert res.status is TraceStatus.COMPLETED
        assert len(res.bounces) >= 4
        for b in res.bounces:
            residual = abs(b.z) if b.boundary == "surface" else abs(b.z - bath.depth_at(b.r))
            assert residual < 1e-9

    def test_samples_strictly_increasing_and_in_water(self):
        bath = FlatBottom(300.0)
        cfg = TraceConfig(r_start=0.0, r_end=8000.0, z0=150.0,
                          theta0=math.radians(30.0), dr=7.0)
        res = trace_ray(HOMOGENEOUS, bath, cfg)
        assert np.all(np.diff(res.r) > 0.0)
        assert np.all(res.z >= -1e-9)
        assert np.all(res.z <= 300.0 + 1e-9)


class TestClosedFormFlow:
    @pytest.mark.parametrize("c,theta_deg", [(1500.0, 10.0), (1450.0, -6.0)])
    def test_homogeneous_variation_matrix(self, c, theta_deg):
        """Bounce-free homogeneous flow: q = [[1, 0], [R n^2/w^3, 1]]."""
        field = ConstantField(c0=1500.0, c=c)
        R = 5000.0
        n = 1500.0 / c
        cfg = TraceConfig(r_start=0.0, r_end=R, z0=2000.0,
                          theta0=math.radians(theta_deg), dr=10.0)
        res = trace_ray(field, FlatBottom(5000.0), cfg)
        assert res.status is TraceStatus.COMPLETED
        assert not res.bounces
        w = n * math.cos(math.radians(theta_deg))
        expected = np.array([[1.0, 0.0], [R * n * n / w**3, 1.0]])
        np.testing.assert_allclose(res.q[-1], expected,
                                   rtol=1e-8, atol=1e-12)

    def test_determinant_stays_near_one_with_bounces(self):
        field = MunkField()
        bath = SinusoidalBottom(350.0, 20.0, 1e-3)
        cfg = TraceConfig(r_start=0.0, r_end=25_000.0, z0=80.0,
                          theta0=math.radians(18.0), dr=5.0)
        res = trace_ray(field, bath, cfg)
        assert res.status is TraceStatus.COMPLETED
        assert len(res.bounces) >= 10
        assert np.abs(res.det_q - 1.0).max() < 1e-6

    def test_scaled_det_residual_on_a_chaotic_rough_bottom(self):
        """Over a 60 m / 2 m corrugation q grows to ~1e10, so the raw
        |det q - 1| reads rounding of huge products; the scaled residual
        stays at rounding level."""
        cfg = TraceConfig(r_start=0.0, r_end=2500.0, z0=50.0,
                          theta0=math.radians(6.0), dr=0.25)
        res = trace_ray(LinearGradientField(gradient=5e-4),
                        SinusoidalBottom(100.0, 2.0, 2.0 * math.pi / 60.0), cfg)
        assert res.status is TraceStatus.COMPLETED
        assert len(res.bounces) >= 10
        assert np.abs(res.det_q - 1.0).max() > 1.0
        assert res.det_q_residual.max() <= 1e-10
        q = res.samples[:, 3:7]
        expected = np.abs(res.det_q - 1.0) / (np.abs(q[:, 0] * q[:, 3]) + np.abs(q[:, 1] * q[:, 2]))
        np.testing.assert_array_equal(res.det_q_residual, expected)

    def test_hamiltonian_conserved_in_range_independent_field(self):
        field = MunkField()
        cfg = TraceConfig(r_start=0.0, r_end=40_000.0, z0=1300.0,
                          theta0=math.radians(10.0), dr=25.0)
        res = trace_ray(field, FlatBottom(5000.0), cfg)
        assert res.status is TraceStatus.COMPLETED
        assert not res.bounces
        h_values = np.array([
            hamiltonian(field.index_at(r, z)[0], p)
            for r, z, p in res.samples[:, :3]
        ])
        assert np.abs(h_values - h_values[0]).max() < 1e-10

    def test_step_halving_fourth_order(self):
        """Final state error drops ~16x per step halving on a smooth arc."""
        field = MunkField()
        bath = FlatBottom(5000.0)

        def final(dr):
            cfg = TraceConfig(r_start=0.0, r_end=20_000.0, z0=900.0,
                              theta0=math.radians(12.0), dr=dr)
            return trace_ray(field, bath, cfg).samples[-1, 1:]

        ref = final(6.25)
        err_h = np.abs(final(50.0) - ref).max()
        err_h2 = np.abs(final(25.0) - ref).max()
        ratio = err_h / err_h2
        assert 8.0 < ratio < 40.0


class TestFan:
    def test_singleton_fan_matches_trace(self):
        """A fan ray, a config replaced at its angle as the fan command
        makes it, traces what a config launched at that angle traces."""
        bath = FlatBottom(500.0)
        cfg = TraceConfig(r_start=0.0, r_end=5000.0, z0=200.0,
                          theta0=math.radians(14.0), dr=10.0)
        single = trace_ray(HOMOGENEOUS, bath, cfg)
        fan_ray = trace_ray(HOMOGENEOUS, bath,
                            replace(replace(cfg, theta0=0.0), theta0=math.radians(14.0)))
        np.testing.assert_array_equal(fan_ray.samples, single.samples)

    def test_deterministic(self):
        bath = SinusoidalBottom(400.0, 30.0, 1.5e-3)
        cfg = TraceConfig(r_start=0.0, r_end=9000.0, z0=120.0,
                          theta0=math.radians(20.0), dr=8.0)
        a = trace_ray(MunkField(), bath, cfg)
        b = trace_ray(MunkField(), bath, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_mirror_symmetry_in_symmetric_waveguide(self):
        """+theta and -theta rays mirror about the source depth when the
        profile is symmetric about it and the bottom sits at twice it."""
        z_src = 250.0
        # grid extends past both boundaries so event location can overshoot
        depths = np.linspace(-50.0, 2 * z_src + 50.0, 121)
        c = 1500.0 * (1.0 + 1e-4 * ((depths - z_src) / z_src) ** 2)
        field = GriddedField(depths=depths, c_values=c, c0=1500.0)
        bath = FlatBottom(2 * z_src)
        cfg = TraceConfig(r_start=0.0, r_end=12_000.0, z0=z_src,
                          theta0=math.radians(15.0), dr=10.0)
        up, down = (trace_ray(field, bath, replace(cfg, theta0=a))
                    for a in (-math.radians(15.0), math.radians(15.0)))
        assert up.status is down.status is TraceStatus.COMPLETED
        assert len(up.samples) == len(down.samples)
        np.testing.assert_allclose(up.r, down.r, atol=1e-7)
        np.testing.assert_allclose(up.z - z_src, -(down.z - z_src), atol=1e-6)
        np.testing.assert_allclose(up.p, -down.p, atol=1e-9)


class TestSpreading:
    def test_zero_at_source(self):
        cfg = TraceConfig(r_start=0.0, r_end=1000.0, z0=100.0,
                          theta0=math.radians(5.0), dr=10.0)
        res = trace_ray(HOMOGENEOUS, FlatBottom(400.0), cfg)
        assert spreading_at(res, 0.0) == 0.0

    def test_matches_closed_form(self):
        R = 3000.0
        cfg = TraceConfig(r_start=0.0, r_end=R, z0=2000.0,
                          theta0=math.radians(8.0), dr=10.0)
        res = trace_ray(HOMOGENEOUS, FlatBottom(4000.0), cfg)
        w = math.cos(math.radians(8.0))
        assert spreading_at(res, R) == pytest.approx(R / w**3, rel=1e-8)
        # linear interpolation lands between samples too
        assert spreading_at(res, 1234.5) == pytest.approx(1234.5 / w**3, rel=1e-4)

    def test_non_negative_everywhere(self):
        cfg = TraceConfig(r_start=0.0, r_end=9000.0, z0=100.0,
                          theta0=math.radians(25.0), dr=5.0)
        res = trace_ray(HOMOGENEOUS, FlatBottom(350.0), cfg)
        for r in np.linspace(0.0, 9000.0, 77):
            assert spreading_at(res, r) >= 0.0

    def test_out_of_range_query(self):
        cfg = TraceConfig(r_start=0.0, r_end=1000.0, z0=100.0,
                          theta0=math.radians(5.0), dr=10.0)
        res = trace_ray(HOMOGENEOUS, FlatBottom(400.0), cfg)
        with pytest.raises(ValueError):
            spreading_at(res, 1500.0)

    def test_ray_only_trace_has_no_spreading(self):
        """A ray-only trace carries NaN q columns; asking it for |q21|
        raises instead of returning NaN."""
        cfg = TraceConfig(r_start=0.0, r_end=2000.0, z0=1000.0,
                          theta0=math.radians(5.0), dr=10.0)
        field = MunkField()
        p0 = field.index_at(0.0, 1000.0)[0] * math.sin(cfg.theta0)
        res = trace_from_pulse(field, FlatBottom(5000.0), cfg, cfg.z0, p0,
                               variations=False)
        assert res.status is TraceStatus.COMPLETED
        with pytest.raises(ValueError, match="ray-only"):
            spreading_at(res, 1000.0)
        full = trace_from_pulse(field, FlatBottom(5000.0), cfg, cfg.z0, p0)
        assert spreading_at(full, 1000.0) > 0.0


# c = 1500 (1 - 1e-3 z) is 0 at z = 1000 m.  Launches whose first plain
# step lands past that depth without crossing the bottom.
ZERO_SPEED_FIELD = LinearGradientField(1500.0, 1e-3)
ZERO_SPEED_LAUNCHES = [
    (995.9256754734123, 11.721352594948826, 3.895472066773521),
    (996.8852471792535, 11.962745847217235, 3.0118173169348545),
    (999.2296106544026, 24.670712014381053, 0.8799346501366535),
]


class TestStatuses:
    def test_steep_ray_in_strong_gradient(self):
        # n grows with depth; a diving ray steepens until |p| -> n
        field = LinearGradientField(c_surface=1500.0, gradient=0.009)
        cfg = TraceConfig(r_start=0.0, r_end=500.0, z0=5.0,
                          theta0=math.radians(65.0), dr=0.5)
        res = trace_ray(field, FlatBottom(105.0), cfg)
        assert res.status is TraceStatus.STEEP_RAY

    def test_backscatter_on_steep_wall(self):
        bath = LinearSlopeBottom(depth0=500.0, slope=-1.5)
        cfg = TraceConfig(r_start=0.0, r_end=1000.0, z0=10.0,
                          theta0=math.radians(45.0), dr=2.0)
        res = trace_ray(HOMOGENEOUS, bath, cfg)
        assert res.status is TraceStatus.BACKSCATTERED
        assert res.samples[-1, 0] < 1000.0

    def test_steep_ray_on_landing(self):
        """A ray that lands on the bottom where |p| >= n has no grazing
        angle (sqrt(1 - tz^2) would raise): the trace ends steep_ray on its
        incident row, with no bounce recorded.  The field is smooth but for
        n = 0.3 exactly at z = 200; the ray must curve, since in a constant
        field the landing's last stage probe lands on 200 and raises inside
        the step instead."""

        class DropAtTheBottom(SoundSpeedField):
            def __init__(self):
                super().__init__(1500.0)

            def index_at(self, r, z):
                return (0.3 if z == 200.0 else 1.0 + 1e-4 * z, 0.0, 1e-4, 0.0)

        cfg = TraceConfig(r_start=0.0, r_end=500.0, z0=50.0,
                          theta0=math.radians(30.0), dr=5.0)
        res = trace_ray(DropAtTheBottom(), FlatBottom(200.0), cfg)
        assert res.status is TraceStatus.STEEP_RAY and not res.bounces
        r, z, p = res.samples[-1, :3]
        assert r == pytest.approx(252.449, abs=1e-3) and z == 200.0
        assert p == pytest.approx(0.5319, abs=1e-4) and res.n[-1] == 0.3

    def test_max_bounces(self):
        cfg = TraceConfig(r_start=0.0, r_end=20_000.0, z0=0.0,
                          theta0=math.radians(45.0), dr=10.0, max_bounces=3)
        res = trace_ray(HOMOGENEOUS, FlatBottom(500.0), cfg)
        assert res.status is TraceStatus.MAX_BOUNCES
        assert len(res.bounces) == 3

    def test_domain_exit_past_arc_edge(self):
        bath = ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down")
        cfg = TraceConfig(r_start=60.0, r_end=400.0, z0=20.0,
                          theta0=math.radians(2.0), dr=1.0)
        res = trace_ray(HOMOGENEOUS, bath, cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT
        assert res.samples[-1, 0] < 160.0

    def test_domain_exit_past_piecewise_end_above_the_floor(self):
        """A ray held near the surface stays above the bottom's floor, where
        the bottom is not queried; the step past the last knot still is, so
        the trace ends there instead of running on off the bathymetry."""
        knots = np.linspace(0.0, 3000.0, 16)
        bath = PiecewiseBottom(knots, 200.0 + 20.0 * np.sin(knots / 300.0))
        cfg = TraceConfig(r_start=0.0, r_end=4000.0, z0=50.0, theta0=0.0, dr=7.0)
        res = trace_ray(LinearGradientField(1500.0, -1e-4), bath, cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT
        assert 3000.0 - 7.0 < res.samples[-1, 0] <= 3000.0
        assert res.samples[:, 1].max() < bath.floor[0]

    @pytest.mark.parametrize("z0, theta0_deg, dr", ZERO_SPEED_LAUNCHES)
    def test_domain_exit_where_the_sound_speed_vanishes(self, z0, theta0_deg, dr):
        """A plain step that ends past the depth where c = 0 (1000 m here)
        ends the trace as ``domain_exit``, with no row for that step, like a
        landed bounce there; it used to raise DomainError from the trace."""
        cfg = TraceConfig(r_start=0.0, r_end=200.0, z0=z0,
                          theta0=math.radians(theta0_deg), dr=dr)
        res = trace_ray(ZERO_SPEED_FIELD, FlatBottom(2000.0), cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT
        assert res.samples[:, 1].max() < 1000.0

    def test_non_finite_step_ends_domain_exit(self):
        """A step whose end is NaN (here a field that is NaN below 700 m)
        brackets no boundary: it ends the trace as ``domain_exit`` on the
        last finite row.  A NaN gap used to count as crossed, so the step
        landed on the surface and ended ``backscattered`` on a NaN row."""

        class NanBelow700(SoundSpeedField):
            def __init__(self):
                super().__init__(1500.0)

            def index_at(self, r, z):
                return (math.nan,) * 4 if z > 700.0 else README_FIELD.index_at(r, z)

        cfg = TraceConfig(r_start=0.0, r_end=10_000.0, z0=600.0,
                          theta0=math.radians(14.0), dr=10.0)
        res = trace_ray(NanBelow700(), FlatBottom(2000.0), cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT and not res.bounces
        assert np.isfinite(res.samples[:, :3]).all()
        assert 600.0 < res.samples[-1, 1] <= 700.0

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    def test_index_arithmetic_error_ends_domain_exit(self, error):
        """An ``index_at`` that overflows or divides by zero (here below
        700 m) ends the trace as ``domain_exit`` on the last finite row, as
        a DomainError there does, and so does the ray-only trace.  The
        error used to escape the trace."""

        class FailsBelow700(SoundSpeedField):
            def __init__(self):
                super().__init__(1500.0)

            def index_at(self, r, z):
                if z > 700.0:
                    raise error("index past its range")
                return README_FIELD.index_at(r, z)

        field, bath = FailsBelow700(), FlatBottom(2000.0)
        cfg = TraceConfig(r_start=0.0, r_end=10_000.0, z0=600.0,
                          theta0=math.radians(14.0), dr=10.0)
        res = trace_ray(field, bath, cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT and not res.bounces
        assert np.isfinite(res.samples).all()
        assert 600.0 < res.samples[-1, 1] <= 700.0
        ray_only = trace_from_pulse(field, bath, cfg, cfg.z0, res.p[0], variations=False)
        assert ray_only.status is TraceStatus.DOMAIN_EXIT
        assert (ray_only.samples[-1, :3] == res.samples[-1, :3]).all()

    def test_zero_index_inside_the_water_ends_domain_exit(self):
        """n = 0 (as c = inf gives) is outside the field's domain, not a
        vertical ray.  Here n = 0 above z = 0: the stage probes of the step
        past r = 110 reach it, and the trace, full and ray-only, ends
        ``domain_exit`` on its row at r = 110.  It used to end
        ``steep_ray``."""

        class ZeroAtAndAbove0(SoundSpeedField):
            def __init__(self):
                super().__init__(1500.0)

            def index_at(self, r, z):
                return (0.0 if z <= 0.0 else 1.0, 0.0, 0.0, 0.0)

        field, bath = ZeroAtAndAbove0(), FlatBottom(100.0)
        cfg = TraceConfig(r_start=0.0, r_end=300.0, z0=10.0, theta0=math.radians(-5.0), dr=10.0)
        res = trace_ray(field, bath, cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT and not res.bounces
        assert res.samples[-1, 0] == 110.0 and res.samples[-1, 1] > 0.0
        ray_only = trace_from_pulse(field, bath, cfg, cfg.z0, res.p[0], variations=False)
        assert ray_only.status is TraceStatus.DOMAIN_EXIT
        assert (ray_only.samples[-1, :3] == res.samples[-1, :3]).all()

    def test_zero_index_at_a_landing_ends_domain_exit(self):
        """n = 0 exactly on the surface: the landed ray has no grazing angle
        (p / n used to raise ZeroDivisionError from the trace), so the trace
        ends ``domain_exit`` on its incident row there, with no bounce.  The
        field curves the ray, as in ``test_steep_ray_on_landing``."""

        class ZeroOnTheSurface(SoundSpeedField):
            def __init__(self):
                super().__init__(1500.0)

            def index_at(self, r, z):
                return (0.0 if z == 0.0 else 1.0 + 1e-4 * z, 0.0, 1e-4, 0.0)

        field, bath = ZeroOnTheSurface(), FlatBottom(200.0)
        cfg = TraceConfig(r_start=0.0, r_end=500.0, z0=50.0,
                          theta0=math.radians(-30.0), dr=5.0)
        res = trace_ray(field, bath, cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT and not res.bounces
        assert res.samples[-1, 1] == 0.0 and res.n[-1] == 0.0
        ray_only = trace_from_pulse(field, bath, cfg, cfg.z0, res.p[0], variations=False)
        assert ray_only.status is TraceStatus.DOMAIN_EXIT
        assert (ray_only.samples[-1, :3] == res.samples[-1, :3]).all()

    def test_zero_index_at_a_step_end_ends_domain_exit(self):
        """n = 0 read only at a plain step's end (the field's 14th call is
        the end of the third step: ``trace_ray`` and ``trace_from_pulse``
        each read the launch index, then each step makes three stage calls
        and one end call) ends the trace ``domain_exit`` on that row, where
        the steep check after the step used to call it ``steep_ray``."""

        class ZeroOnce(SoundSpeedField):
            def __init__(self):
                super().__init__(1500.0)
                self.calls = 0

            def index_at(self, r, z):
                self.calls += 1
                return (0.0 if self.calls == 14 else 1.0, 0.0, 0.0, 0.0)

        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=50.0, theta0=0.0, dr=10.0)
        res = trace_ray(ZeroOnce(), FlatBottom(100.0), cfg)
        assert res.status is TraceStatus.DOMAIN_EXIT
        assert res.samples[-1, 0] == 30.0 and res.n[-1] == 0.0

    def test_completed_has_final_sample_at_r_end(self):
        cfg = TraceConfig(r_start=0.0, r_end=1234.0, z0=100.0,
                          theta0=math.radians(3.0), dr=10.0)
        res = trace_ray(HOMOGENEOUS, FlatBottom(500.0), cfg)
        assert res.status is TraceStatus.COMPLETED
        assert res.samples[-1, 0] == pytest.approx(1234.0, abs=1e-12)


class TestLaunchValidation:
    def test_config_invariants(self):
        with pytest.raises(ValueError):
            TraceConfig(r_start=100.0, r_end=0.0, z0=10.0, theta0=0.1)
        with pytest.raises(ValueError):
            TraceConfig(r_start=0.0, r_end=100.0, z0=10.0, theta0=math.radians(89.9))
        with pytest.raises(ValueError):
            TraceConfig(r_start=0.0, r_end=100.0, z0=10.0, theta0=0.1, dr=-1.0)
        with pytest.raises(ValueError, match="bisection tolerance"):
            TraceConfig(r_start=0.0, r_end=100.0, z0=10.0, theta0=0.1, bisect_tol=0.0)
        for cutoff in (0.0, math.pi / 2.0):
            with pytest.raises(ValueError, match="steep-angle cutoff"):
                TraceConfig(r_start=0.0, r_end=100.0, z0=10.0, theta0=0.1, steep_cutoff=cutoff)
        with pytest.raises(ValueError, match="max_bounces"):
            TraceConfig(r_start=0.0, r_end=100.0, z0=10.0, theta0=0.1, max_bounces=-1)

    def test_step_below_range_resolution_rejected(self):
        """1e6 + 1e-11 == 1e6, so such a step would never advance r and the
        trace would append rows forever.  A step the range resolves, and any
        step over an empty range, are accepted."""
        cfg = dict(r_start=1e6, r_end=1e6 + 100.0, z0=1000.0, theta0=math.radians(5.0))
        for r_start, r_end in ((1e6, 1e6 + 100.0), (-1e6 - 100.0, -1e6), (0.0, 1e6)):
            with pytest.raises(ValueError, match="range resolution"):
                TraceConfig(**{**cfg, "r_start": r_start, "r_end": r_end}, dr=1e-11)
        TraceConfig(**cfg, dr=1e-4)
        TraceConfig(**{**cfg, "r_end": 1e6}, dr=1e-11)

    def test_step_count_bound(self):
        """A step the range resolves but tiny against the span, here 5e11
        base steps, used to pass validation and run until it was killed; at
        most MAX_BASE_STEPS base steps are accepted."""
        cfg = dict(z0=1000.0, theta0=math.radians(5.0))
        with pytest.raises(ValueError, match="over 10,000,000 steps"):
            TraceConfig(r_start=1e6, r_end=1e6 + 100.0, dr=2e-10, **cfg)
        limit = float(MAX_BASE_STEPS)
        TraceConfig(r_start=0.0, r_end=limit, dr=1.0, **cfg)
        with pytest.raises(ValueError, match="over 10,000,000 steps"):
            TraceConfig(r_start=0.0, r_end=limit + 1.0, dr=1.0, **cfg)
        with pytest.raises(ValueError, match="over 10,000,000 steps"):  # the span overflows to inf
            TraceConfig(r_start=-1e308, r_end=1e308, dr=1e300, **cfg)

    @pytest.mark.parametrize("munk", [dict(scale_depth=1.0), dict(c_axis=1e-245),
                                      dict(c_axis=1.7976931348623157e308)])
    def test_index_arithmetic_error_at_launch_is_domain_error(self, munk):
        """A Munk index that overflows (exp(2600)), divides by zero (c^2
        underflows) or is 0 (c overflows to inf) at the launch point is a
        launch outside the field's domain: every launch raises DomainError,
        where an OverflowError or ZeroDivisionError used to escape."""
        field, bath = MunkField(**munk), FlatBottom(2000.0)
        cfg = TraceConfig(r_start=0.0, r_end=1000.0, z0=0.0, theta0=math.radians(5.0), dr=10.0)
        with pytest.raises(DomainError, match="launch point"):
            trace_ray(field, bath, cfg)
        with pytest.raises(DomainError, match="launch point"):
            trace_from_pulse(field, bath, cfg, cfg.z0, 0.0, variations=False)
        with pytest.raises(DomainError, match="launch point"):
            fd_jacobian(field, bath, cfg, BeamPerturbation())

    def test_launch_on_a_bottom_whose_frame_overflows_is_domain_error(self):
        """A slope of 1e140 (amplitude 1e-160, wavenumber 1e300) overflows
        the bottom frame's norm**3 at a launch exactly on the bottom: the
        launch is outside the bottom's domain, where an OverflowError used
        to escape."""
        bath = SinusoidalBottom(10.0, 1e-160, 1e300)
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=10.0, theta0=math.radians(-5.0), dr=10.0)
        with pytest.raises(DomainError, match="bottom frame at the launch range"):
            trace_ray(HOMOGENEOUS, bath, cfg)
        with pytest.raises(DomainError, match="bottom frame at the launch range"):
            trace_from_pulse(HOMOGENEOUS, bath, cfg, cfg.z0, -0.01, variations=False)

    @pytest.mark.parametrize("field", ["r_start", "r_end", "z0", "theta0", "dr",
                                       "bisect_tol", "steep_cutoff"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        """NaN passes every ordering check, and an infinite range never ends."""
        cfg = dict(r_start=0.0, r_end=100.0, z0=10.0, theta0=0.1)
        cfg[field] = value
        with pytest.raises(ValueError, match="finite"):
            TraceConfig(**cfg)

    def test_source_outside_water_rejected(self):
        """Past the bottom, above the surface, or at a NaN depth, which
        every ordering test lets through."""
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=600.0, theta0=0.1)
        for z0 in (600.0, -1.0):
            with pytest.raises(ValueError, match="outside the water column"):
                trace_ray(HOMOGENEOUS, FlatBottom(500.0), replace(cfg, z0=z0))
        for field in (HOMOGENEOUS, MunkField()):  # n(r, nan) is nan in the Munk field
            with pytest.raises(ValueError, match="outside the water column"):
                trace_from_pulse(field, FlatBottom(500.0), cfg, math.nan, 0.1)

    def test_surface_source_must_launch_downward(self):
        """A pulse up or along the surface (p0 = 0) does not enter the water."""
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=0.0, theta0=-0.1)
        for theta0 in (-0.1, 0.0):
            with pytest.raises(ValueError, match="launch into the water"):
                trace_ray(HOMOGENEOUS, FlatBottom(500.0), replace(cfg, theta0=theta0))

    def test_bottom_source_must_launch_upward(self):
        """Into the water as the bottom's own frame judges it: on a bottom
        falling at 0.2 (11.3 degrees), a 5-degree downward pulse enters the
        water and a 15-degree one leaves it."""
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=500.0, theta0=0.1)
        with pytest.raises(ValueError):
            trace_ray(HOMOGENEOUS, FlatBottom(500.0), cfg)
        res = trace_ray(HOMOGENEOUS, FlatBottom(500.0), replace(cfg, theta0=-0.1))
        assert res.status is TraceStatus.COMPLETED
        tilted = LinearSlopeBottom(500.0, 0.2)
        with pytest.raises(ValueError, match="launch into the water"):
            trace_ray(HOMOGENEOUS, tilted, replace(cfg, theta0=math.radians(15.0)))
        res = trace_ray(HOMOGENEOUS, tilted, replace(cfg, theta0=math.radians(5.0)))
        assert res.status is TraceStatus.COMPLETED and not res.bounces

    @pytest.mark.parametrize("z0", [1e-200, 1e-170])
    @pytest.mark.parametrize("theta_deg", [-1.0, -10.0, -45.0])
    def test_launch_just_below_the_surface_lands(self, z0, theta_deg):
        """The first step brackets the surface and the landing's first trial
        step, about z0 / slope, squares to 0 in float64; the step's dense
        output divided by h * h and raised ZeroDivisionError.  The ray lands
        on the surface where a straight ray does and bounces as it does
        from 1e-160 m, which never underflowed."""
        theta = math.radians(theta_deg)
        field, bath = ConstantField(1500.0, 1400.0), FlatBottom(20.0)
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=z0, theta0=theta, dr=0.5)
        res = trace_ray(field, bath, cfg)
        ref = trace_ray(field, bath, replace(cfg, z0=1e-160))
        assert res.status is ref.status is TraceStatus.COMPLETED
        assert res.unconverged_bounces == 0
        assert res.bounces[0].boundary == "surface"
        assert res.bounces[0].r == pytest.approx(-z0 / math.tan(theta), rel=1e-9)
        assert [b.boundary for b in res.bounces] == [b.boundary for b in ref.bounces]

    def test_steep_initial_pulse_rejected(self):
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=100.0, theta0=0.1)
        with pytest.raises(ValueError):
            trace_from_pulse(HOMOGENEOUS, FlatBottom(500.0), cfg, 100.0, 0.99999)

    def test_nan_initial_pulse_rejected(self):
        """A NaN pulse fails every comparison, so it must not pass the
        cutoff test and march on as NaN rows."""
        cfg = TraceConfig(r_start=0.0, r_end=1000.0, z0=50.0, theta0=0.1)
        with pytest.raises(ValueError, match="steep-ray cutoff"):
            trace_from_pulse(MunkField(), FlatBottom(200.0), cfg, 50.0, math.nan)


class TestIndependentIntegrator:
    def test_matches_scipy_solve_ivp(self):
        """The fixed-step march agrees with an independent adaptive
        integrator (solve_ivp) on a bounce-free refracting ray, for the
        trajectory and all four variation entries."""
        from scipy.integrate import solve_ivp

        field = MunkField()

        def rhs(r, y):
            z, p, q11, q12, q21, q22 = y
            n, _, n_z, n_zz = field.index_at(r, z)
            w = math.sqrt(n**2 - p * p)
            k11 = p * n * n_z / w**3
            k12 = (n_z**2 + n * n_zz) / w - (n * n_z) ** 2 / w**3
            k21 = n**2 / w**3
            return [p / w, n * n_z / w,
                    k11 * q11 + k12 * q21, k11 * q12 + k12 * q22,
                    k21 * q11 - k11 * q21, k21 * q12 - k11 * q22]

        theta = math.radians(9.0)
        z0 = 700.0
        p0 = field.index_at(0.0, z0)[0] * math.sin(theta)
        sol = solve_ivp(rhs, (0.0, 30_000.0), [z0, p0, 1.0, 0.0, 0.0, 1.0],
                        rtol=1e-11, atol=1e-11, dense_output=True)
        cfg = TraceConfig(r_start=0.0, r_end=30_000.0, z0=z0, theta0=theta,
                          dr=10.0)
        res = trace_ray(field, FlatBottom(5000.0), cfg)
        assert res.status is TraceStatus.COMPLETED and not res.bounces
        ours = res.samples[-1, 1:]
        theirs = sol.y[:, -1]
        scale = np.maximum(np.abs(theirs), 1.0)
        assert np.abs(ours - theirs).max() / scale.max() < 1e-8
        np.testing.assert_allclose(ours, theirs, rtol=1e-7, atol=1e-8)


class TestFileBackedGeometry:
    def test_trace_through_2d_gridded_field(self):
        """Range-dependent spline field: symplecticity holds while the
        Hamiltonian genuinely drifts (non-autonomous flow)."""
        ranges = np.linspace(-100.0, 12_000.0, 61)
        depths = np.linspace(-50.0, 600.0, 66)
        rr, zz = np.meshgrid(ranges, depths, indexing="ij")
        c = 1500.0 + 0.02 * zz + 3e-3 * rr
        field = GriddedField(depths=depths, c_values=c, ranges=ranges, c0=1500.0)
        cfg = TraceConfig(r_start=0.0, r_end=10_000.0, z0=250.0,
                          theta0=math.radians(18.0), dr=5.0)
        res = trace_ray(field, FlatBottom(500.0), cfg)
        assert res.status is TraceStatus.COMPLETED
        assert len(res.bounces) >= 4
        assert np.abs(res.det_q - 1.0).max() < 1e-6
        h_values = [hamiltonian(field.index_at(r, z)[0], p)
                    for r, z, p in res.samples[::40, :3]]
        assert max(h_values) - min(h_values) > 1e-5  # range dependence is real

    def test_trace_over_piecewise_bottom(self, tmp_path):
        path = tmp_path / "bottom.txt"
        knots_r = np.linspace(0.0, 12_000.0, 25)
        knots_z = 420.0 + 35.0 * np.sin(knots_r / 900.0)
        path.write_text("# r z_b\n" + "\n".join(
            f"{r} {z}" for r, z in zip(knots_r, knots_z)))
        from varitrace import PiecewiseBottom
        bath = PiecewiseBottom.from_file(path)
        cfg = TraceConfig(r_start=0.0, r_end=11_000.0, z0=100.0,
                          theta0=math.radians(20.0), dr=5.0)
        res = trace_ray(HOMOGENEOUS, bath, cfg)
        assert res.status is TraceStatus.COMPLETED
        assert len(res.bounces) >= 5
        assert np.abs(res.det_q - 1.0).max() < 1e-6
        for b in res.bounces:
            if b.boundary == "bottom":
                assert abs(b.z - bath.depth_at(b.r)) < 1e-9


class TestFuzzedScenarios:
    def test_random_scenarios_keep_invariants(self):
        """Seeded sweep over awkward geometry combinations: every trace must
        end in a declared status with ordered, in-water samples; completed
        traces keep det q near 1."""
        rng = np.random.default_rng(777)
        completed = 0
        for _ in range(60):
            depth = rng.uniform(50.0, 800.0)
            field = [
                ConstantField(c0=1500.0),
                LinearGradientField(c_surface=1500.0,
                                    gradient=rng.uniform(-5e-4, 5e-4)),
                MunkField(z_axis=depth / 2.0, scale_depth=depth),
            ][rng.integers(0, 3)]
            bath = [
                FlatBottom(depth),
                LinearSlopeBottom(depth, rng.uniform(-0.3, 0.3)),
                SinusoidalBottom(depth, 0.2 * depth,
                                 rng.uniform(1e-3, 2e-2),
                                 phase=rng.uniform(0.0, 6.28)),
            ][rng.integers(0, 3)]
            theta = math.radians(rng.uniform(-80.0, 80.0))
            z0 = rng.uniform(0.05, 0.6) * depth
            cfg = TraceConfig(r_start=0.0, r_end=rng.uniform(500.0, 8000.0),
                              z0=z0, theta0=theta, dr=rng.uniform(1.0, 20.0))
            res = trace_ray(field, bath, cfg)
            assert isinstance(res.status, TraceStatus)
            assert np.all(np.diff(res.r) > 0.0)
            assert np.all(res.z >= -1e-8)
            for r_i, z_i in zip(res.r, res.z):
                assert z_i <= bath.depth_at(r_i) + 1e-8
            if res.status is TraceStatus.COMPLETED:
                completed += 1
                assert res.r[-1] == pytest.approx(cfg.r_end, abs=1e-9)
                # near-vertical rays on coarse steps legitimately leak
                # determinant error (w^-3 stiffness); only well-resolved
                # traces are held to the tight bound
                if abs(theta) < math.radians(35.0) and cfg.dr <= 8.0:
                    assert np.abs(res.det_q - 1.0).max() < 1e-6
                else:
                    assert np.abs(res.det_q - 1.0).max() < 1e-3
        assert completed >= 20  # the sweep is not all degenerate


class TestShallowGrazingDetection:
    def test_midpoint_probe_catches_double_crossing(self):
        """A ray grazing a corrugation crest dips past the boundary and back
        inside one coarse step; the midpoint probe must still see it."""
        bath = SinusoidalBottom(100.0, 4.0, 2.0 * math.pi / 80.0)
        cfg_fine = TraceConfig(r_start=0.0, r_end=400.0, z0=90.0,
                               theta0=math.radians(3.0), dr=1.0)
        fine = trace_ray(HOMOGENEOUS, bath, cfg_fine)
        cfg_coarse = replace(cfg_fine, dr=35.0)
        coarse = trace_ray(HOMOGENEOUS, bath, cfg_coarse)
        assert fine.bounces and coarse.bounces
        assert coarse.bounces[0].r == pytest.approx(fine.bounces[0].r, abs=1e-6)

    def test_double_crossing_caught_in_refracting_field(self):
        """In a strong channel the step's dense output is not exact; a coarse
        step whose ends both lie in the water still finds the dip past the
        crest, at the bounce the fine step finds."""
        field = MunkField(z_axis=50.0, scale_depth=100.0)
        bath = SinusoidalBottom(100.0, 4.0, 2.0 * math.pi / 80.0)
        cfg_fine = TraceConfig(r_start=0.0, r_end=400.0, z0=90.0,
                               theta0=math.radians(2.0), dr=1.0)
        fine = trace_ray(field, bath, cfg_fine)
        coarse = trace_ray(field, bath, replace(cfg_fine, dr=35.0))
        assert fine.bounces and coarse.bounces
        r_hit = fine.bounces[0].r

        # Premise: without the bottom, the ray is in the water at both ends
        # of the coarse step that holds the hit and below the bottom around
        # its midpoint.
        start = 35.0 * math.floor(r_hit / 35.0)
        free = trace_ray(field, FlatBottom(200.0), replace(cfg_fine, r_end=start + 35.0))
        assert not free.bounces
        gap = {r: z - bath.depth_at(r) for r, z in free.samples[:, :2]}
        assert gap[start] < 0.0 and gap[start + 35.0] < 0.0
        assert gap[start + 17.0] > 0.0 and gap[start + 18.0] > 0.0

        assert coarse.bounces[0].r == pytest.approx(r_hit, abs=1e-5)

    def test_step_bracketing_both_boundaries_lands_the_earliest(self, monkeypatch):
        """In a 0.5 m column a 5 m step can bracket the surface and the
        bottom at once.  Each bracket is searched.  The step-end bracket
        always lands; a midpoint bracket whose exact map never crosses
        lands nowhere and is dropped.  The earliest landing wins: the step
        ends there, on that boundary, with a converged landing.  The case
        has steps of both kinds.  The ray is far under-resolved, so only the
        rule is pinned, not the path."""
        import varitrace.propagation as propagation

        steps = defaultdict(list)  # step start -> (boundary, exact, landing) per bracket
        land = propagation._land

        def spied_land(index_at, gap, r0, *args):
            landed = land(index_at, gap, r0, *args)
            name = "surface" if gap is propagation._SURFACE.gap else "bottom"
            steps[r0].append((name, args[-1], landed))
            return landed

        monkeypatch.setattr(propagation, "_land", spied_land)
        bath = FlatBottom(0.5)
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=0.25,
                          theta0=math.radians(-20.0), dr=5.0)
        res = trace_ray(LinearGradientField(1500.0, -0.2), bath, cfg)
        both = {r0: step for r0, step in steps.items() if len(step) == 2}
        assert both, "no step bracketed both boundaries"
        dropped = 0
        for r0, step in both.items():
            assert [(name, exact) for name, exact, _ in step] == [("surface", True),
                                                                  ("bottom", False)]
            (_, _, first), (_, _, second) = step
            assert first is not None, "a step-end bracket was dropped"
            dropped += second is None
            # the earliest landing, the surface's on a tie
            h, name, converged = min(((landed[0], name, landed[3])
                                      for name, _, landed in step if landed is not None),
                                     key=lambda item: item[0])
            assert converged
            (bounce,) = [b for b in res.bounces if b.r == r0 + h]
            assert bounce.boundary == name
            (row,) = res.samples[res.samples[:, 0] == r0 + h]
            depth = 0.0 if name == "surface" else bath.depth_at(r0 + h)
            assert abs(row[1] - depth) <= cfg.bisect_tol
        assert 0 < dropped < len(both), "the case lands both brackets and drops one"

    def test_midpoint_bracket_the_exact_map_never_crosses_is_dropped(self):
        """A 2 m step brackets the bottom at its dense-output midpoint,
        but the exact RK4 map never reaches the bottom.  That bracket is no
        crossing: the trace keeps bouncing off the surface until the ray
        turns steep, with every landing converged.  It used to collapse the
        bottom landing onto the bracket end, 0.47 m from the RK4 state, win
        over the surface and end backscattered at r = 12.646 with one
        unconverged landing."""
        bath = FlatBottom(0.5)
        cfg = TraceConfig(r_start=0.0, r_end=40.0, z0=0.25,
                          theta0=math.radians(-20.0), dr=2.0)
        res = trace_ray(LinearGradientField(1500.0, -0.5), bath, cfg)
        assert res.status is TraceStatus.STEEP_RAY
        assert res.unconverged_bounces == 0
        assert [b.boundary for b in res.bounces] == ["surface"] * 11
        for bounce in res.bounces:
            (row,) = res.samples[res.samples[:, 0] == bounce.r]
            assert abs(row[1]) <= cfg.bisect_tol


README_FIELD = MunkField()
README_BATH = SinusoidalBottom(mean_depth=2000.0, amplitude=60.0, wavenumber=0.003)
README_CFG = TraceConfig(r_start=0.0, r_end=30_000.0, z0=900.0,
                         theta0=math.radians(14.0), dr=20.0)


@pytest.fixture
def rhs_calls(monkeypatch):
    """Count ray right-hand-side evaluations ([0]) and ``index_at`` calls on
    every field class ([1]).  The ray right-hand side is written out at
    each of ``_rk4_step``'s four stages, so each step call counts 4."""
    import varitrace.propagation as propagation
    from varitrace import SoundSpeedField

    calls = [0, 0]

    def counting(original, slot, weight=1):
        def counted(*args):
            calls[slot] += weight
            return original(*args)
        return counted

    monkeypatch.setattr(propagation, "_rk4_step", counting(propagation._rk4_step, 0, 4))
    for cls in SoundSpeedField.__subclasses__():
        monkeypatch.setattr(cls, "index_at", counting(cls.index_at, 1))
    yield calls
    # A count that never moved means the integrator bypassed the counted name.
    assert calls[0] > 0 and calls[1] > 0


@pytest.fixture
def depth_calls(monkeypatch):
    """Count ``depth_at`` calls on every bathymetry class ([0])."""
    from varitrace import Bathymetry

    calls = [0]

    def counting(original):
        def counted(*args):
            calls[0] += 1
            return original(*args)
        return counted

    for cls in (Bathymetry, *Bathymetry.__subclasses__()):
        if "depth_at" in vars(cls):
            monkeypatch.setattr(cls, "depth_at", counting(vars(cls)["depth_at"]))
    yield calls
    assert calls[0] > 0


class TestEventLocationWork:
    """Work pinned by counting evaluations, never by wall time."""

    def test_rhs_evaluations_per_sample_on_readme_config(self, rhs_calls):
        res = trace_ray(README_FIELD, README_BATH, README_CFG)
        assert res.status is TraceStatus.COMPLETED and res.bounces
        assert rhs_calls[0] / len(res.samples) <= 4.1

    def test_bottom_queries_per_sample_on_readme_config(self, depth_calls):
        """Steps whose end and midpoint lie above the sinusoid's trough
        skip both bottom queries; only steps near the bottom make them."""
        res = trace_ray(README_FIELD, README_BATH, README_CFG)
        assert res.status is TraceStatus.COMPLETED and res.bounces
        assert depth_calls[0] / len(res.samples) <= 0.2

    def test_one_index_evaluation_per_rk4_state(self, rhs_calls):
        """Each step's k1 stage reuses the index sample taken at its start
        state, so index_at runs at most once per RHS evaluation, plus once
        per bounce point and twice at launch."""
        res = trace_ray(README_FIELD, README_BATH, README_CFG)
        assert res.status is TraceStatus.COMPLETED and res.bounces
        assert rhs_calls[1] <= rhs_calls[0] + len(res.bounces) + 2

    @pytest.mark.parametrize("field", [
        HOMOGENEOUS, LinearGradientField(c_surface=1500.0, gradient=2e-4)],
        ids=["homogeneous", "gradient"])
    def test_locator_steps_per_bounce_on_flat_zigzag(self, rhs_calls, field):
        cfg = TraceConfig(r_start=0.0, r_end=8000.0, z0=150.0,
                          theta0=math.radians(30.0), dr=7.0)
        res = trace_ray(field, FlatBottom(300.0), cfg)
        assert res.status is TraceStatus.COMPLETED
        assert len(res.bounces) >= 15
        # Each marching pass takes one 4-evaluation step and adds one sample;
        # the rest is locator work: at most 4 RK4 steps per bounce.
        locator = rhs_calls[0] - 4 * (len(res.samples) - 1)
        assert locator <= 16 * len(res.bounces)


class TestLocatorConvergence:
    def test_unreachable_tolerance_is_counted(self):
        """A residual below rounding cannot always be met; the capped
        landings are counted and the trace still completes."""
        field = LinearGradientField(c_surface=1500.0, gradient=2e-4)
        cfg = TraceConfig(r_start=0.0, r_end=3000.0, z0=100.0,
                          theta0=math.radians(30.0), dr=10.0)
        loose = trace_ray(field, FlatBottom(400.0), cfg)
        tight = trace_ray(field, FlatBottom(400.0), replace(cfg, bisect_tol=1e-300))
        assert loose.unconverged_bounces == 0
        assert tight.status is TraceStatus.COMPLETED
        assert len(tight.bounces) == len(loose.bounces)
        assert 1 <= tight.unconverged_bounces <= len(tight.bounces)
        for a, b in zip(tight.bounces, loose.bounces):
            assert a.r == pytest.approx(b.r, abs=1e-8)

    def test_collapsed_bracket_ends_the_landing(self, rhs_calls):
        """Below rounding, the landing search stops once its bracket holds
        no float strictly inside, instead of running to the cap."""
        field = LinearGradientField(c_surface=1500.0, gradient=2e-4)
        cfg = TraceConfig(r_start=0.0, r_end=3000.0, z0=100.0,
                          theta0=math.radians(30.0), dr=10.0, bisect_tol=1e-300)
        res = trace_ray(field, FlatBottom(400.0), cfg)
        assert res.status is TraceStatus.COMPLETED and res.bounces
        assert res.unconverged_bounces >= 1
        locator = rhs_calls[0] - 4 * (len(res.samples) - 1)
        assert locator <= 16 * len(res.bounces)

    def test_readme_config_and_presets_converge(self):
        from varitrace.oracle import PRESET_NAMES, preset

        runs = [(README_FIELD, README_BATH, README_CFG)]
        runs += [(sc.field, sc.bath, sc.cfg) for sc in map(preset, PRESET_NAMES)]
        for field, bath, cfg in runs:
            res = trace_ray(field, bath, cfg)
            assert res.bounces
            assert res.unconverged_bounces == 0


class TestSnellInvariantDrift:
    """In a range-independent field w = sqrt(n^2 - p^2) is conserved on each
    segment between bounces, and RK4 lets it drift at order 4 in dr.  On the
    README trace the max drift from each segment's first row (the launch
    row and each bounce row) reads 1.48e-10, 9.44e-12 and 5.94e-13 at
    dr = 80, 40 and 20."""

    @staticmethod
    def max_segment_drift(res):
        w = np.sqrt(res.n**2 - res.p**2)
        starts = np.searchsorted(res.r, [b.r for b in res.bounces])
        assert res.r[starts].tolist() == [b.r for b in res.bounces]  # the bounce rows
        segment = np.zeros(len(w), dtype=int)
        segment[starts] = 1
        first = np.r_[0, starts][np.cumsum(segment)]
        return float(np.abs(w - w[first]).max())

    def test_drift_falls_at_order_four(self):
        drifts = []
        for dr in (80.0, 40.0, 20.0):
            res = trace_ray(README_FIELD, README_BATH, replace(README_CFG, dr=dr))
            assert res.status is TraceStatus.COMPLETED and len(res.bounces) == 3
            drifts.append(self.max_segment_drift(res))
        for coarse, fine in zip(drifts, drifts[1:]):
            assert math.log2(coarse / fine) == pytest.approx(4.0, abs=0.3)
        assert drifts[-1] < 1e-12


def _ray_only_cases():
    """(field, bathymetry, config, launch angles in degrees) per case."""
    from varitrace import PiecewiseBottom
    from varitrace.oracle import PRESET_NAMES, preset

    cases = {}
    for name in PRESET_NAMES:
        sc = preset(name)
        cases[name] = (sc.field, sc.bath, sc.cfg, [math.degrees(sc.cfg.theta0)])
    cases["readme"] = (README_FIELD, README_BATH, README_CFG, [14.0])
    depths = np.linspace(-20.0, 260.0, 29)
    knots_r = np.linspace(-100.0, 6_100.0, 32)
    cases["gridded-piecewise-fan"] = (
        GriddedField(depths=depths, c_values=1510.0 - 0.08 * depths + 4e-4 * depths**2),
        PiecewiseBottom(knots_r, 190.0 + 25.0 * np.sin(knots_r / 350.0)),
        TraceConfig(r_start=0.0, r_end=6_000.0, z0=60.0, theta0=0.0, dr=10.0),
        [-12.0, -6.0, 0.5, 6.0, 12.0])
    cases["backscatter-wall"] = (
        HOMOGENEOUS, LinearSlopeBottom(depth0=500.0, slope=-1.5),
        TraceConfig(r_start=0.0, r_end=1000.0, z0=10.0, theta0=0.0, dr=2.0), [45.0])
    cases["steep-ray"] = (
        LinearGradientField(c_surface=1500.0, gradient=0.009), FlatBottom(105.0),
        TraceConfig(r_start=0.0, r_end=500.0, z0=5.0, theta0=0.0, dr=0.5), [65.0])
    cases["domain-exit"] = (
        HOMOGENEOUS, ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down"),
        TraceConfig(r_start=60.0, r_end=400.0, z0=20.0, theta0=0.0, dr=1.0), [2.0])
    # The step end lies past c = 0, so the index call after the advance raises.
    z0, angle, dr = ZERO_SPEED_LAUNCHES[0]
    cases["domain-exit-at-step-end"] = (
        ZERO_SPEED_FIELD, FlatBottom(2000.0),
        TraceConfig(r_start=0.0, r_end=200.0, z0=z0, theta0=0.0, dr=dr), [angle])
    cases["max-bounces"] = (
        HOMOGENEOUS, FlatBottom(500.0),
        TraceConfig(r_start=0.0, r_end=20_000.0, z0=0.0, theta0=0.0, dr=10.0,
                    max_bounces=3), [45.0])
    return cases


RAY_ONLY_CASES = _ray_only_cases()



class TestHitPastTheBounceBudget:
    """A hit past ``max_bounces`` is judged by the reflection first: an
    ordinary one ends ``max_bounces``, a backward or singular one
    ``backscattered``."""

    SURFACE_ZIGZAG = TraceConfig(r_start=0.0, r_end=20_000.0, z0=0.0,
                                 theta0=math.radians(45.0), dr=10.0, max_bounces=1)

    def test_ordinary_hit(self):
        res = trace_ray(HOMOGENEOUS, FlatBottom(500.0), self.SURFACE_ZIGZAG)
        assert res.status is TraceStatus.MAX_BOUNCES
        assert len(res.bounces) == 1

    def test_backward_reflection(self):
        field, bath, cfg, (angle,) = RAY_ONLY_CASES["backscatter-wall"]
        res = trace_ray(field, bath, replace(cfg, theta0=math.radians(angle), max_bounces=0))
        assert res.status is TraceStatus.BACKSCATTERED
        assert res.bounces == []

    def test_singular_hit(self, monkeypatch):
        import varitrace.propagation as propagation

        hits = []

        def singular_second_hit(t, frame, sample):
            hits.append(t)
            if len(hits) == 2:
                raise SingularReflectionError("tangential boundary hit")
            return kappa_matrix(t, frame, sample)

        monkeypatch.setattr(propagation, "kappa_matrix", singular_second_hit)
        res = trace_ray(HOMOGENEOUS, FlatBottom(500.0), self.SURFACE_ZIGZAG)
        assert res.status is TraceStatus.BACKSCATTERED
        assert len(res.bounces) == 1 and len(hits) == 2


@pytest.fixture
def step_calls(monkeypatch):
    """(r, h, z, p, whether q advances) of every ``_rk4_step`` call, in order."""
    import varitrace.propagation as propagation

    calls = []
    step = propagation._rk4_step

    def recorded(index_at, r, z, p, sample, h, q):
        calls.append((r, h, z, p, q is not None))
        return step(index_at, r, z, p, sample, h, q)

    monkeypatch.setattr(propagation, "_rk4_step", recorded)
    return calls


class TestRayOnlyTraces:
    """``variations=False`` marches (z, p) alone: each ``_rk4_step`` call,
    trial steps included, is the full trace's in r, h, z and p bit for bit,
    the status and the bounces are the full trace's, and the trace keeps
    two rows, the full trace's first and last with NaN q columns."""

    @pytest.mark.parametrize("case", RAY_ONLY_CASES)
    def test_same_ray_as_the_full_trace(self, step_calls, case):
        field, bath, cfg, angles = RAY_ONLY_CASES[case]
        statuses = set()
        for angle in angles:
            run = replace(cfg, theta0=math.radians(angle))
            step_calls.clear()
            full = trace_ray(field, bath, run)
            full_steps = np.array([call[:4] for call in step_calls])
            step_calls.clear()
            ray = trace_from_pulse(field, bath, run, run.z0, float(full.p[0]),
                                   variations=False)
            ray_steps = np.array([call[:4] for call in step_calls])
            assert ray_steps.tobytes() == full_steps.tobytes()
            assert len(ray.samples) == 2
            assert ray.samples[:, :3].tobytes() == full.samples[[0, -1], :3].tobytes()
            assert ray.n.tobytes() == full.n[[0, -1]].tobytes()
            assert np.isnan(ray.samples[:, 3:]).all()
            assert not np.isnan(full.samples[:, 3:]).any()
            assert ray.status is full.status
            assert ray.unconverged_bounces == full.unconverged_bounces
            assert ([(b.r, b.z, b.boundary, b.theta_incident) for b in ray.bounces]
                    == [(b.r, b.z, b.boundary, b.theta_incident) for b in full.bounces])
            statuses.add(full.status)
        expected = {"backscatter-wall": TraceStatus.BACKSCATTERED,
                    "steep-ray": TraceStatus.STEEP_RAY,
                    "domain-exit": TraceStatus.DOMAIN_EXIT,
                    "domain-exit-at-step-end": TraceStatus.DOMAIN_EXIT,
                    "max-bounces": TraceStatus.MAX_BOUNCES}.get(case, TraceStatus.COMPLETED)
        assert statuses == {expected}

    def test_variation_updates_only_where_q_is_read(self, monkeypatch, step_calls):
        """A full trace advances q in every ``_rk4_step`` call, the landing
        search's trial steps included; a ray-only trace and the oracle's
        perturbed rays carry q = None and advance it in none."""
        from varitrace import BeamPerturbation, verify_kappa
        from varitrace.oracle import preset

        def counts():
            steps = len(step_calls), sum(call[4] for call in step_calls)
            step_calls.clear()
            return steps

        full = trace_ray(README_FIELD, README_BATH, README_CFG)
        steps, variation = counts()
        assert full.status is TraceStatus.COMPLETED and full.bounces
        rows = len(full.samples) - 1  # every row after the launch: a step or a bounce
        assert variation == steps > rows  # the landing search took trial steps

        ray = trace_from_pulse(README_FIELD, README_BATH, README_CFG, README_CFG.z0,
                               float(full.p[0]), variations=False)
        steps, variation = counts()
        assert variation == 0 and steps > rows
        assert len(ray.samples) == 2

        sc = preset("sinusoidal-munk")
        central = trace_ray(sc.field, sc.bath, sc.cfg)
        central_steps, _ = counts()
        # One usable core, so the perturbed rays are stepped in this process, where they are seen.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        verify_kappa(sc.field, sc.bath, sc.cfg, [BeamPerturbation()])
        steps, variation = counts()
        assert variation == central_steps >= len(central.samples) - 1
        assert steps > 9 * (len(central.samples) - 1)  # 8 perturbed rays, stepped
