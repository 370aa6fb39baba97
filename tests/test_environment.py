"""Tests for sound speed fields and bathymetry, with FD derivative oracles."""

import math

import numpy as np
import pytest

from varitrace import (
    ArcBottom,
    ConstantField,
    DomainError,
    FlatBottom,
    GriddedField,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    NormalFrame,
    PiecewiseBottom,
    SinusoidalBottom,
    surface_frame,
)


def n_of(field, r, z):
    return field.c0 / field.sound_speed(r, z)


def fd_errors(field, r, z, h):
    """Absolute errors of the analytic partials vs centered differences of n."""
    s = field.index_at(r, z)
    n_r_fd = (n_of(field, r + h, z) - n_of(field, r - h, z)) / (2 * h)
    n_z_fd = (n_of(field, r, z + h) - n_of(field, r, z - h)) / (2 * h)
    n_zz_fd = (field.index_at(r, z + h).n_z - field.index_at(r, z - h).n_z) / (2 * h)
    return (abs(s.n_r - n_r_fd), abs(s.n_z - n_z_fd), abs(s.n_zz - n_zz_fd))


class TestSoundSpeedFields:
    def test_constant_field_trivial(self):
        field = ConstantField(c0=1500.0)
        for r, z in [(0.0, 0.0), (1e4, 500.0), (-3.0, 2000.0)]:
            s = field.index_at(r, z)
            assert s == field.index_at(0.0, 0.0)
            assert s.n == 1.0
            assert s.n_r == s.n_z == s.n_zz == 0.0

    def test_constant_field_with_distinct_reference(self):
        field = ConstantField(c0=1500.0, c=1450.0)
        assert field.index_at(0, 0).n == pytest.approx(1500.0 / 1450.0, rel=1e-15)

    def test_linear_gradient_nz_at_surface(self):
        g = 2.5e-4
        field = LinearGradientField(c_surface=1500.0, gradient=g)
        assert field.index_at(0.0, 0.0).n_z == pytest.approx(g, rel=1e-12)

    def test_linear_gradient_positive_speed_enforced(self):
        field = LinearGradientField(c_surface=1500.0, gradient=1e-3)
        with pytest.raises(DomainError):
            field.index_at(0.0, 1500.0)

    @pytest.mark.parametrize("field,point", [
        (LinearGradientField(1500.0, 8e-4), (100.0, 400.0)),
        (MunkField(), (0.0, 700.0)),
        (MunkField(), (0.0, 2400.0)),
    ])
    def test_derivatives_match_fd_with_second_order(self, field, point):
        """Halving h must shrink the FD mismatch about 4x (O(h^2))."""
        r, z = point
        errs_h = fd_errors(field, r, z, 1.0)
        errs_h2 = fd_errors(field, r, z, 0.5)
        errs_h4 = fd_errors(field, r, z, 0.25)
        for e1, e2, e4 in zip(errs_h, errs_h2, errs_h4):
            if e4 < 1e-14:  # derivative exactly captured (e.g. n_r = 0)
                assert e1 < 1e-12
                continue
            assert e1 / e2 == pytest.approx(4.0, rel=0.35)
            assert e2 / e4 == pytest.approx(4.0, rel=0.35)

    def test_gridded_reproduces_munk_derivative(self):
        """Spline n_z vs analytic Munk n_z, 1e-6 relative at interior points."""
        munk = MunkField()
        depths = np.arange(0.0, 4000.1, 5.0)
        c = np.array([munk.sound_speed(0.0, z) for z in depths])
        gridded = GriddedField(depths=depths, c_values=c, c0=munk.c0)
        for z in [300.0, 700.0, 1000.0, 1150.0, 1600.0, 2500.0, 3500.0]:
            exact = munk.index_at(0.0, z)
            approx = gridded.index_at(0.0, z)
            assert approx.n == pytest.approx(exact.n, rel=1e-9)
            assert approx.n_z == pytest.approx(exact.n_z, rel=1e-6)

    def test_gridded_2d_derivatives_match_fd(self):
        ranges = np.linspace(0.0, 10_000.0, 41)
        depths = np.linspace(0.0, 2000.0, 81)
        rr, zz = np.meshgrid(ranges, depths, indexing="ij")
        c = 1500.0 + 0.01 * zz + 2e-4 * rr + 1e-6 * rr * np.sin(zz / 300.0)
        field = GriddedField(depths=depths, c_values=c, ranges=ranges, c0=1500.0)
        r, z = 4321.0, 987.0
        err_r, err_z, err_zz = fd_errors(field, r, z, 0.5)
        assert err_r < 1e-12
        assert err_z < 1e-10
        assert err_zz < 1e-10

    def test_gridded_fd_second_order_within_spline_piece(self):
        """FD offsets small enough to stay inside one polynomial piece see
        clean O(h^2) behavior for the spline-backed field too."""
        munk = MunkField()
        depths = np.arange(0.0, 4000.1, 25.0)
        c = np.array([munk.sound_speed(0.0, z) for z in depths])
        field = GriddedField(depths=depths, c_values=c, c0=munk.c0)
        z = 987.5  # mid-interval: +/- 4 m stays inside the piece
        errs = [fd_errors(field, 0.0, z, h)[1] for h in (4.0, 2.0, 1.0)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_gridded_domain_error_names_coordinate(self):
        field = GriddedField(depths=[0.0, 10.0, 20.0, 30.0],
                             c_values=[1500.0, 1501.0, 1502.0, 1503.0])
        with pytest.raises(DomainError, match="z"):
            field.index_at(0.0, 50.0)

    def test_gridded_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            GriddedField(depths=[0.0, 1.0, 1.0, 2.0], c_values=[1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            GriddedField(depths=[0.0, 1.0, 2.0, 3.0], c_values=[1500.0, -1.0, 1500.0, 1500.0])


class TestBathymetry:
    def test_flat_bottom_trivial(self):
        sample = FlatBottom(1000.0).bottom_at(123.0)
        assert sample.z_b == 1000.0
        assert sample.slope == 0.0
        assert sample.frame.curvature == 0.0
        assert sample.frame.nr == 0.0
        assert sample.frame.nz == -1.0
        assert math.isinf(sample.frame.radius)

    def test_sinusoidal_crest(self):
        B, A, k = 1000.0, 50.0, 2e-3
        bath = SinusoidalBottom(B, A, k)
        crest = (math.pi / 2) / k
        sample = bath.bottom_at(crest)
        assert sample.z_b == pytest.approx(B + A, rel=1e-14)
        assert sample.slope == pytest.approx(0.0, abs=1e-12)
        assert abs(sample.frame.curvature) == pytest.approx(A * k * k, rel=1e-9)
        # deepest point of the corrugation is concave up: positive curvature
        assert sample.frame.curvature > 0.0

    def test_sinusoidal_profile_matches_fd(self):
        bath = SinusoidalBottom(800.0, 30.0, 5e-3, phase=0.7)
        r, h = 1234.5, 0.5

        def slope_fd(h):
            return (bath.depth_at(r + h) - bath.depth_at(r - h)) / (2 * h)

        sample = bath.bottom_at(r)
        e1 = abs(sample.slope - slope_fd(h))
        e2 = abs(sample.slope - slope_fd(h / 2))
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("bulge,sign", [("down", 1.0), ("up", -1.0)])
    def test_arc_curvature_exact(self, bulge, sign):
        R = 75.0
        bath = ArcBottom(radius=R, r_center=0.0, z_center=200.0 if bulge == "up" else 50.0,
                         bulge=bulge)
        for u in [-60.0, -20.0, 0.0, 35.0, 70.0]:
            frame = bath.bottom_at(u).frame
            assert abs(frame.curvature) == pytest.approx(1.0 / R, rel=1e-8)
            assert frame.curvature * sign > 0.0
            assert frame.radius == pytest.approx(R, rel=1e-8)

    def test_arc_domain(self):
        bath = ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down")
        with pytest.raises(DomainError):
            bath.bottom_at(200.0)

    def test_linear_slope(self):
        bath = LinearSlopeBottom(depth0=500.0, slope=0.1)
        sample = bath.bottom_at(1000.0)
        assert sample.z_b == pytest.approx(600.0)
        assert sample.slope == 0.1
        assert sample.frame.curvature == 0.0
        # bottom deepening to the right: into-water normal tilts forward
        assert sample.frame.nr > 0.0

    def test_piecewise_reproduces_knots(self):
        r = np.array([0.0, 100.0, 250.0, 400.0, 600.0])
        z = np.array([1000.0, 1020.0, 985.0, 1010.0, 990.0])
        bath = PiecewiseBottom(r, z)
        for ri, zi in zip(r, z):
            assert bath.depth_at(ri) == pytest.approx(zi, abs=1e-12)

    def test_piecewise_depth_matches_bottom_sample_bitwise(self):
        r = np.array([0.0, 100.0, 250.0, 400.0, 600.0])
        z = np.array([1000.0, 1020.0, 985.0, 1010.0, 990.0])
        bath = PiecewiseBottom(r, z)
        points = np.concatenate([r, 0.5 * (r[:-1] + r[1:])])
        for ri in points:
            assert bath.depth_at(ri) == bath.bottom_at(ri).z_b
        with pytest.raises(DomainError):
            bath.depth_at(600.5)

    def test_piecewise_from_file(self, tmp_path):
        path = tmp_path / "bottom.txt"
        path.write_text(
            "# range depth\n"
            "0.0 1000.0\n"
            "100.0 1010.0\n"
            "200.0 995.0   # a knoll\n"
            "300.0 1002.0\n")
        bath = PiecewiseBottom.from_file(path)
        assert bath.depth_at(200.0) == pytest.approx(995.0, abs=1e-12)
        with pytest.raises(DomainError):
            bath.bottom_at(301.0)

    def test_piecewise_rejects_non_increasing_ranges(self):
        with pytest.raises(ValueError):
            PiecewiseBottom([0.0, 2.0, 1.0, 3.0], [10.0, 10.0, 10.0, 10.0])

    def test_bottom_must_stay_below_surface(self):
        bath = LinearSlopeBottom(depth0=100.0, slope=-0.5)
        with pytest.raises(DomainError):
            bath.bottom_at(300.0)


class TestNormalFrames:
    def test_surface_frame_trivial(self):
        frame = surface_frame()
        assert frame.nr == 0.0
        assert frame.nz == 1.0
        assert frame.curvature == 0.0
        assert frame.nr**2 + frame.nz**2 == pytest.approx(1.0, abs=1e-12)

    def test_frames_are_unit_length(self):
        bath = SinusoidalBottom(500.0, 80.0, 1e-2)
        for r in np.linspace(0.0, 2000.0, 37):
            frame = bath.bottom_at(r).frame
            assert frame.nr**2 + frame.nz**2 == pytest.approx(1.0, abs=1e-12)
            assert frame.nz < 0.0  # bottom normal points up into the water
            assert math.cos(frame.alpha) == pytest.approx(frame.nr, abs=1e-12)
            assert math.sin(frame.alpha) == pytest.approx(frame.nz, abs=1e-12)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            NormalFrame(nr=1.0, nz=1.0, alpha=0.0, curvature=0.0)


class TestSplineTable:
    """The coefficient table that sampled profiles evaluate through returns
    scipy's own spline values, bit for bit."""

    @staticmethod
    def _thermocline():
        z = np.linspace(0.0, 220.0, 45)
        c = 1520.0 - 12.0 * (1.0 + np.tanh((z - 60.0) / 17.5)) / 2.0 + 0.017 * z
        return z, c

    @staticmethod
    def _bathymetry():
        r = np.linspace(0.0, 20_000.0, 41)
        z = 180.0 + 12.0 * np.sin(r / 1700.0) + 4.0 * np.cos(r / 430.0)
        return r, z

    @pytest.mark.parametrize("knots", ["_thermocline", "_bathymetry"])
    def test_matches_scipy_bitwise(self, knots):
        from scipy.interpolate import CubicSpline

        from varitrace.environment import _CubicTable

        x, y = getattr(self, knots)()
        cs = CubicSpline(x, y, bc_type="natural")
        table = _CubicTable(cs)
        rng = np.random.default_rng(20)
        points = np.concatenate([x, 0.5 * (x[:-1] + x[1:]), [x[0], x[-1]],
                                 rng.uniform(x[0], x[-1], 1000)])
        for v in points.tolist():
            expected = (float(cs(v)), float(cs(v, 1)), float(cs(v, 2)))
            assert table(v) == expected, v

    def test_profiles_evaluate_without_scipy_calls(self, monkeypatch):
        from scipy.interpolate import CubicSpline

        field = GriddedField(*self._thermocline())
        bath = PiecewiseBottom(*self._bathymetry())

        def no_call(*args, **kwargs):
            raise AssertionError("spline evaluated through scipy")

        monkeypatch.setattr(CubicSpline, "__call__", no_call)
        assert field.index_at(0.0, 61.3).n_zz != 0.0
        assert field.sound_speed(0.0, 61.3) > 0.0
        assert bath.depth_at(1234.5) == bath.bottom_at(1234.5).z_b
