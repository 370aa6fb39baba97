"""Tests for sound speed fields and bathymetry, with FD derivative oracles."""

import math
from pathlib import Path

import numpy as np
import pytest

from index_reference import reference_index
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
    NormalFrame,
    PiecewiseBottom,
    SinusoidalBottom,
    TraceConfig,
    TraceStatus,
    trace_ray,
)
from varitrace.propagation import _SURFACE


def slope_of(frame):
    """Bottom slope z_b' from the into-water normal (z_b', -1) / norm."""
    return -frame.nr / frame.nz


def radius_of(frame):
    """Radius of curvature 1/|curvature|, infinite for a flat boundary."""
    return math.inf if frame.curvature == 0.0 else 1.0 / abs(frame.curvature)


def n_of(field, r, z):
    return reference_index(field, r, z)[0]


def fd_errors(field, r, z, h):
    """Absolute errors of the analytic partials vs centered differences of n."""
    _, n_r, n_z, n_zz = field.index_at(r, z)
    n_r_fd = (n_of(field, r + h, z) - n_of(field, r - h, z)) / (2 * h)
    n_z_fd = (n_of(field, r, z + h) - n_of(field, r, z - h)) / (2 * h)
    n_zz_fd = (field.index_at(r, z + h)[2] - field.index_at(r, z - h)[2]) / (2 * h)
    return (abs(n_r - n_r_fd), abs(n_z - n_z_fd), abs(n_zz - n_zz_fd))


class TestSoundSpeedFields:
    def test_constant_field_trivial(self):
        field = ConstantField(c0=1500.0)
        for r, z in [(0.0, 0.0), (1e4, 500.0), (-3.0, 2000.0)]:
            s = field.index_at(r, z)
            assert s == field.index_at(0.0, 0.0) == (1.0, 0.0, 0.0, 0.0)

    def test_constant_field_with_distinct_reference(self):
        field = ConstantField(c0=1500.0, c=1450.0)
        assert field.index_at(0, 0)[0] == pytest.approx(1500.0 / 1450.0, rel=1e-15)

    def test_linear_gradient_nz_at_surface(self):
        g = 2.5e-4
        field = LinearGradientField(c_surface=1500.0, gradient=g)
        assert field.index_at(0.0, 0.0)[2] == pytest.approx(g, rel=1e-12)

    def test_linear_gradient_positive_speed_enforced(self):
        field = LinearGradientField(c_surface=1500.0, gradient=1e-3)
        with pytest.raises(DomainError):
            field.index_at(0.0, 1500.0)

    @pytest.mark.parametrize("field,point", [
        (LinearGradientField(1500.0, 8e-4), (100.0, 400.0)),
        (MunkField(), (0.0, 700.0)),
        (MunkField(), (0.0, 2400.0)),
        (LinearGradientField(1500.0, 8e-4, range_gradient=2e-4), (300.0, 400.0)),
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
        c = np.array([munk.c0 / munk.index_at(0.0, z)[0] for z in depths])
        gridded = GriddedField(depths=depths, c_values=c, c0=munk.c0)
        for z in [300.0, 700.0, 1000.0, 1150.0, 1600.0, 2500.0, 3500.0]:
            exact = munk.index_at(0.0, z)
            approx = gridded.index_at(0.0, z)
            assert approx[0] == pytest.approx(exact[0], rel=1e-9)
            assert approx[2] == pytest.approx(exact[2], rel=1e-6)

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
        c = np.array([munk.c0 / munk.index_at(0.0, z)[0] for z in depths])
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
        # the spline through a 1500 -> 5 m/s drop undershoots zero just past it
        drop = GriddedField([0, 1, 2, 3, 4, 5], [1500, 1500, 1500, 5, 5, 5])
        with pytest.raises(DomainError, match=r"sound speed not positive \(z = 3.01\)"):
            drop.index_at(0.0, 3.01)

    def test_gridded_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            GriddedField(depths=[0.0, 1.0, 1.0, 2.0], c_values=[1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            GriddedField(depths=[0.0, 1.0, 2.0, 3.0], c_values=[1500.0, -1.0, 1500.0, 1500.0])
        with pytest.raises(ValueError, match="one value per sample point, got 5 for 4"):
            GriddedField(depths=[0.0, 1.0, 2.0, 3.0], c_values=[1500.0] * 5)
        with pytest.raises(ValueError, match="c_values must have shape"):
            GriddedField(depths=[0.0, 1.0, 2.0, 3.0], c_values=[1500.0] * 4,
                         ranges=[0.0, 1e3, 2e3, 3e3])

    @pytest.mark.parametrize("points", [[0.0, 10.0, math.nan, 30.0], [0.0, 10.0, 20.0, math.inf]],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("axis", ["depths", "ranges", "1d-depths"])
    def test_gridded_rejects_non_finite_grid_points(self, axis, points):
        """NaN fails no ordering test, so (0, 10, nan, 30) used to pass as
        strictly increasing."""
        grid = {"depths": [0.0, 10.0, 20.0, 30.0], "c_values": np.full((4, 4), 1500.0),
                "ranges": [0.0, 1e3, 2e3, 3e3]}
        if axis == "1d-depths":
            grid.update(c_values=[1500.0] * 4, ranges=None)
        grid[axis.removeprefix("1d-")] = points
        with pytest.raises(ValueError, match="strictly increasing finite"):
            GriddedField(**grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("grid", ["1d", "2d"])
    def test_gridded_rejects_non_finite_speeds(self, grid, bad):
        """A NaN speed used to pass a 2D grid, and index_at then returned
        NaNs; a 1D profile and a 2D grid reject one with the same message."""
        c_values, ranges = np.full((4, 5), 1500.0), [0.0, 1e3, 2e3, 3e3]
        c_values[2, 1] = bad
        if grid == "1d":
            c_values, ranges = c_values[2], None
        with pytest.raises(ValueError, match="gridded sound speeds must all be finite"):
            GriddedField(depths=[0.0, 10.0, 20.0, 30.0, 40.0], c_values=c_values, ranges=ranges)

    def test_range_constant_grid_equals_its_profile(self):
        """One spline kind: a 2D grid constant in range is its 1D profile bit
        for bit, with n_r exactly 0."""
        munk = MunkField()
        depths = np.linspace(0.0, 4000.0, 41)
        ranges = np.linspace(0.0, 10_000.0, 11)
        profile = [munk.c0 / munk.index_at(0.0, z)[0] for z in depths]
        flat = GriddedField(depths, profile)
        grid = GriddedField(depths, [profile] * len(ranges), ranges=ranges)
        rng = np.random.default_rng(41)
        points = list(zip(rng.uniform(0.0, 10_000.0, 2_000).tolist(),
                          rng.uniform(0.0, 4000.0, 2_000).tolist()))
        points += [(r, z) for r in (0.0, 10_000.0) for z in depths.tolist()]
        for r, z in points:
            n, n_r, n_z, n_zz = grid.index_at(r, z)
            expected = flat.index_at(r, z)
            assert (n, n_z, n_zz) == (expected[0], expected[2], expected[3]), (r, z)
            assert n_r == 0.0

    def test_2d_grid_returns_its_knots(self):
        """The grid speed comes back exactly at each knot off the last range
        and depth rows (those take the last interval's far end)."""
        ranges = np.linspace(0.0, 10_000.0, 11)
        depths = np.linspace(0.0, 2000.0, 21)
        rr, zz = np.meshgrid(ranges, depths, indexing="ij")
        c = 1500.0 + 0.01 * zz + 2e-4 * rr + 3.0 * np.sin(rr / 2e3) * np.cos(zz / 300.0)
        field = GriddedField(depths=depths, c_values=c, ranges=ranges, c0=1500.0)
        for j, r in enumerate(ranges[:-1].tolist()):
            for k, z in enumerate(depths[:-1].tolist()):
                assert field.index_at(r, z)[0] == 1500.0 / float(c[j, k]), (r, z)


class TestBathymetry:
    def test_flat_bottom_trivial(self):
        z_b, frame = FlatBottom(1000.0).bottom_at(123.0)
        assert z_b == 1000.0
        assert slope_of(frame) == 0.0
        assert frame.curvature == 0.0
        assert frame.nr == 0.0
        assert frame.nz == -1.0
        assert math.isinf(radius_of(frame))

    def test_sinusoidal_crest(self):
        B, A, k = 1000.0, 50.0, 2e-3
        bath = SinusoidalBottom(B, A, k)
        crest = (math.pi / 2) / k
        z_b, frame = bath.bottom_at(crest)
        assert z_b == pytest.approx(B + A, rel=1e-14)
        assert slope_of(frame) == pytest.approx(0.0, abs=1e-12)
        assert abs(frame.curvature) == pytest.approx(A * k * k, rel=1e-9)
        # deepest point of the corrugation is concave up: positive curvature
        assert frame.curvature > 0.0

    def test_sinusoidal_profile_matches_fd(self):
        bath = SinusoidalBottom(800.0, 30.0, 5e-3, phase=0.7)
        r, h = 1234.5, 0.5

        def slope_fd(h):
            return (bath.depth_at(r + h) - bath.depth_at(r - h)) / (2 * h)

        slope = slope_of(bath.bottom_at(r)[1])
        e1 = abs(slope - slope_fd(h))
        e2 = abs(slope - slope_fd(h / 2))
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("bulge,sign", [("down", 1.0), ("up", -1.0)])
    def test_arc_curvature_exact(self, bulge, sign):
        R = 75.0
        bath = ArcBottom(radius=R, r_center=0.0, z_center=200.0 if bulge == "up" else 50.0,
                         bulge=bulge)
        for u in [-60.0, -20.0, 0.0, 35.0, 70.0]:
            frame = bath.bottom_at(u)[1]
            assert abs(frame.curvature) == pytest.approx(1.0 / R, rel=1e-8)
            assert frame.curvature * sign > 0.0
            assert radius_of(frame) == pytest.approx(R, rel=1e-8)

    def test_arc_domain(self):
        bath = ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down")
        with pytest.raises(DomainError):
            bath.bottom_at(200.0)

    def test_linear_slope(self):
        bath = LinearSlopeBottom(depth0=500.0, slope=0.1)
        z_b, frame = bath.bottom_at(1000.0)
        assert z_b == pytest.approx(600.0)
        assert slope_of(frame) == 0.1
        assert frame.curvature == 0.0
        # bottom deepening to the right: into-water normal tilts forward
        assert frame.nr > 0.0

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
            assert bath.depth_at(ri) == bath.bottom_at(ri)[0]
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
        with pytest.raises(ValueError, match="strictly increasing finite"):
            PiecewiseBottom([0.0, 1.0, math.nan, 3.0], [10.0, 10.0, 10.0, 10.0])

    def test_bottom_must_stay_below_surface(self):
        bath = LinearSlopeBottom(depth0=100.0, slope=-0.5)
        with pytest.raises(DomainError):
            bath.bottom_at(300.0)

        # A profile at the surface is caught by bottom_at itself (no
        # shipped bottom returns one: each raises or backscatters first).
        class Touching(FlatBottom):
            def _profile(self, r):
                return 0.0, 0.0, 0.0

        with pytest.raises(DomainError, match=r"bottom reaches the free surface \(r = 5\)"):
            Touching(10.0).bottom_at(5.0)


class TestNormalFrames:
    def test_surface_frame_trivial(self):
        """The surface record's hit: z = 0 at every range, a unit normal
        pointing down into the water and no curvature."""
        for r in (-1.0e3, 0.0, 1.0e6):
            z, frame = _SURFACE.hit(r)
            assert z == 0.0 and _SURFACE.gap(r, z) == 0.0
        assert frame.nr == 0.0
        assert frame.nz == 1.0
        assert frame.curvature == 0.0
        assert frame.nr**2 + frame.nz**2 == pytest.approx(1.0, abs=1e-12)

    def test_frames_are_unit_length(self):
        bath = SinusoidalBottom(500.0, 80.0, 1e-2)
        for r in np.linspace(0.0, 2000.0, 37):
            frame = bath.bottom_at(r)[1]
            assert frame.nr**2 + frame.nz**2 == pytest.approx(1.0, abs=1e-12)
            assert frame.nz < 0.0  # bottom normal points up into the water

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            NormalFrame(nr=1.0, nz=1.0, curvature=0.0)


NAN, INF = math.nan, math.inf
NON_FINITE = {
    "ConstantField(c=nan)": ("c", lambda: ConstantField(c=NAN)),
    "ConstantField(c0=nan)": ("c0", lambda: ConstantField(c0=NAN)),
    "MunkField(epsilon=nan)": ("epsilon", lambda: MunkField(epsilon=NAN)),
    "MunkField(scale_depth=inf)": ("scale_depth", lambda: MunkField(scale_depth=INF)),
    "LinearGradientField(gradient=nan)": ("gradient", lambda: LinearGradientField(gradient=NAN)),
    "LinearGradientField(range_gradient=inf)": (
        "range_gradient", lambda: LinearGradientField(range_gradient=INF)),
    "GriddedField(c0=nan)": (
        "c0", lambda: GriddedField([0.0, 1.0, 2.0, 3.0], [1500.0] * 4, c0=NAN)),
    "FlatBottom(nan)": ("depth", lambda: FlatBottom(NAN)),
    "FlatBottom(inf)": ("depth", lambda: FlatBottom(INF)),
    "LinearSlopeBottom(100, nan)": ("slope", lambda: LinearSlopeBottom(100.0, NAN)),
    "SinusoidalBottom(100, nan, 0.1)": ("amplitude", lambda: SinusoidalBottom(100.0, NAN, 0.1)),
    "SinusoidalBottom(100, 1, inf)": ("wavenumber", lambda: SinusoidalBottom(100.0, 1.0, INF)),
    "ArcBottom(nan, 0, 0)": ("radius", lambda: ArcBottom(NAN, 0.0, 0.0, "up")),
    "ArcBottom(50, 100, nan)": ("z_center", lambda: ArcBottom(50.0, 100.0, NAN, "up")),
    "NormalFrame(nan, 1, 0)": ("nr", lambda: NormalFrame(NAN, 1.0, 0.0)),
    "NormalFrame(0, 1, nan)": ("curvature", lambda: NormalFrame(0.0, 1.0, NAN)),
    "BeamPerturbation(h_p=nan)": ("h_p", lambda: BeamPerturbation(h_p=NAN)),
    "BeamPerturbation(h_z=inf)": ("h_z", lambda: BeamPerturbation(h_z=INF)),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_parameter_rejected(case):
    """NaN fails every comparison, so a ``<= 0`` test alone would accept it;
    each constructor rejects a NaN or infinite parameter by name."""
    name, build = NON_FINITE[case]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        build()


INVALID_GEOMETRY = {
    "SinusoidalBottom(100, 100, 0.1)": (
        "smaller than the mean depth", lambda: SinusoidalBottom(100.0, 100.0, 0.1)),
    "SinusoidalBottom(100, -120, 0.1)": (
        "smaller than the mean depth", lambda: SinusoidalBottom(100.0, -120.0, 0.1)),
    "ArcBottom(bulge=side)": (
        "bulge must be 'up' or 'down'", lambda: ArcBottom(50.0, 100.0, 30.0, "side")),
    "PiecewiseBottom(0 depth)": (
        "depths must all be positive",
        lambda: PiecewiseBottom([0.0, 1.0, 2.0, 3.0], [10.0, 0.0, 10.0, 10.0])),
    "PiecewiseBottom(negative depth)": (
        "depths must all be positive",
        lambda: PiecewiseBottom([0.0, 1.0, 2.0, 3.0], [10.0, 10.0, 10.0, -5.0])),
}


@pytest.mark.parametrize("case", INVALID_GEOMETRY)
def test_invalid_geometry_rejected(case):
    """Finite parameters that still describe no waveguide: a corrugation
    reaching the surface, an arc bulging neither way, a sampled bottom at
    or above the surface."""
    message, build = INVALID_GEOMETRY[case]
    with pytest.raises(ValueError, match=message):
        build()


class TestSplineTable:
    """Sampled profiles are fitted in plain Python to scipy's natural
    ``CubicSpline`` coefficients, and evaluated to its values, bit for bit."""

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

    @staticmethod
    def _uneven():
        """Seeded random uneven grids, n = 4-80; most take a row swap."""
        rng = np.random.default_rng(7)
        grids = []
        for _ in range(200):
            n = int(rng.integers(4, 81))
            x = np.cumsum(rng.exponential(1.0, n) ** 3 + 1e-3) * rng.uniform(0.1, 100.0)
            grids.append((x, rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)))
        return grids

    @staticmethod
    def _interchange():
        # |d| < |dl| on row 1 (3.5 < 48), so dgtsv swaps rows there.
        return np.array([0.0, 1.0, 2.0, 50.0, 51.0]), np.array([1.0, 3.0, 2.0, 5.0, 4.0])

    @pytest.mark.parametrize("knots", ["_thermocline", "_bathymetry"])
    def test_matches_scipy_bitwise(self, knots):
        from scipy.interpolate import CubicSpline

        from varitrace.environment import _CubicTable

        x, y = getattr(self, knots)()
        cs = CubicSpline(x, y, bc_type="natural")
        table = _CubicTable(x, y)
        rng = np.random.default_rng(20)
        points = np.concatenate([x, 0.5 * (x[:-1] + x[1:]), [x[0], x[-1]],
                                 rng.uniform(x[0], x[-1], 1000)])
        for v in points.tolist():
            expected = (float(cs(v)), float(cs(v, 1)), float(cs(v, 2)))
            assert table(v) == expected, v

    @pytest.mark.parametrize("knots", ["_thermocline", "_bathymetry", "_interchange", "_uneven"])
    def test_fit_matches_scipy_coefficients_bitwise(self, knots):
        from scipy.interpolate import CubicSpline

        from varitrace.environment import _CubicTable

        grids = self._uneven() if knots == "_uneven" else [getattr(self, knots)()]
        for x, y in grids:
            table = _CubicTable(x, y)
            expected = CubicSpline(x, y, bc_type="natural").c.tolist()
            # repr tells signed zeros apart, which == does not
            knots, d, c, b, a = map(list, zip(*table._rows[:-1]))
            assert repr([a, b, c, d]) == repr(expected)
            assert table._x == x.tolist() and knots == x.tolist()[:-1]
            assert table._rows[-1] is table._rows[-2]

    def test_interchange_grid_takes_the_row_swap(self, monkeypatch):
        from varitrace import environment

        subdiagonals = []
        solve = environment._gtsv

        def keep_dl(dl, d, du, b):
            subdiagonals.append(dl)
            return solve(dl, d, du, b)

        monkeypatch.setattr(environment, "_gtsv", keep_dl)
        environment._CubicTable(*self._thermocline())
        environment._CubicTable(*self._interchange())
        # Elimination without a swap zeroes dl[i]; a row interchange fills
        # it with the second superdiagonal entry instead.
        even, swapped = subdiagonals
        assert not any(even[:-1])
        assert swapped[:3] == [0.0, 1.0, 0.0]

    def test_non_finite_samples_rejected(self):
        from varitrace.environment import _CubicTable

        x, y = self._bathymetry()
        y[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _CubicTable(x, y)

    def test_profiles_evaluate_without_scipy_calls(self, monkeypatch):
        from scipy.interpolate import CubicSpline

        field = GriddedField(*self._thermocline())
        bath = PiecewiseBottom(*self._bathymetry())

        def no_call(*args, **kwargs):
            raise AssertionError("spline evaluated through scipy")

        monkeypatch.setattr(CubicSpline, "__call__", no_call)
        assert field.index_at(0.0, 61.3)[3] != 0.0
        assert bath.depth_at(1234.5) == bath.bottom_at(1234.5)[0]


def _outcome(query, *args):
    """What a query returns, its floats as repr (the sign of zero counts),
    or the DomainError it raises, with its message and coordinate."""
    try:
        value = query(*args)
    except DomainError as exc:
        return ("DomainError", str(exc), exc.coordinate, repr(exc.value))
    return repr(value) if isinstance(value, float) else tuple(map(repr, value))


def _fields():
    depths = np.linspace(-20.0, 260.0, 29)
    ranges = np.linspace(-100.0, 4_100.0, 8)
    c_2d = (1510.0 - 0.06 * depths[None, :] + 3e-4 * depths[None, :] ** 2
            + 4.0 * np.sin(ranges[:, None] / 900.0) * np.exp(-depths[None, :] / 120.0))
    return {
        "constant": ConstantField(c0=1500.0, c=1480.0),
        "linear-gradient": LinearGradientField(1500.0, 2e-3),
        "range-gradient": LinearGradientField(1500.0, -1e-4, c0=1490.0, range_gradient=5e-6),
        "zero-gradient": LinearGradientField(1500.0, 0.0),
        "munk": MunkField(),
        "munk-shallow": MunkField(z_axis=50.0, scale_depth=100.0, c0=1510.0),
        "gridded-1d": GriddedField(depths, 1510.0 - 0.08 * depths + 4e-4 * depths**2),
        "gridded-2d": GriddedField(depths, c_2d, ranges=ranges),
    }


FIELDS = _fields()


class TestIndexReference:
    """Every built-in field returns the tuple of the reference expressions in
    ``index_reference`` bit for bit, and raises the same DomainError."""

    @pytest.mark.parametrize("name", FIELDS)
    def test_index_tuples_bitwise(self, name):
        field = FIELDS[name]
        rng = np.random.default_rng(31)
        points = list(zip(rng.uniform(-300.0, 4_500.0, 2_000).tolist(),
                          rng.uniform(-40.0, 700.0, 2_000).tolist()))
        points += [(0.0, 0.0), (-0.0, -0.0), (0.0, 260.0), (4_100.0, -20.0), (1e4, 1300.0)]
        if name.startswith("gridded"):
            # Every knot (the last included), interval midpoint, and the float below the last.
            knots = field.depths
            depths = [*knots, *((lo + hi) / 2.0 for lo, hi in zip(knots, knots[1:])),
                      math.nextafter(knots[-1], -math.inf)]
            points += [(r, z) for r in (0.0, 1_000.0, 4_100.0) for z in depths]
        outcomes = set()
        for r, z in points:
            got = _outcome(field.index_at, r, z)
            assert got == _outcome(reference_index, field, r, z), (r, z)
            outcomes.add(got[0] == "DomainError")
        if name.startswith("gridded") or name == "linear-gradient":
            assert outcomes == {True, False}  # both sides of the domain were seen

    def test_1d_grid_sums_its_rows_in_line(self, monkeypatch):
        """A 1D grid's queries read the coefficient rows without calling the
        table, so a ray through it completes with ``_CubicTable.__call__``
        made to raise; the reference above still evaluates through it."""
        from varitrace.environment import _CubicTable

        field = FIELDS["gridded-1d"]

        def no_call(self, v):
            raise AssertionError("_CubicTable called")

        monkeypatch.setattr(_CubicTable, "__call__", no_call)
        result = trace_ray(field, FlatBottom(250.0),
                           TraceConfig(r_start=0.0, r_end=2_000.0, z0=100.0,
                                       theta0=math.radians(12.0), dr=5.0))
        assert result.status is TraceStatus.COMPLETED
        assert {b.boundary for b in result.bounces} == {"surface", "bottom"}


def _bathymetries():
    knots = np.linspace(0.0, 3000.0, 16)
    return {
        "flat": FlatBottom(250.0),
        "linear-slope": LinearSlopeBottom(depth0=300.0, slope=-0.05),
        "linear-slope-deepening": LinearSlopeBottom(depth0=300.0, slope=0.05),
        "sinusoidal": SinusoidalBottom(100.0, 4.0, 2.0 * math.pi / 80.0, phase=0.3),
        "sinusoidal-negative": SinusoidalBottom(2000.0, -60.0, 0.003),
        "arc-up": ArcBottom(radius=1500.0, r_center=1000.0, z_center=1620.0, bulge="up"),
        "arc-down": ArcBottom(radius=1500.0, r_center=1000.0, z_center=-998.0, bulge="down"),
        "piecewise": PiecewiseBottom(knots, 200.0 + 20.0 * np.sin(knots / 300.0)),
        # The spline dips to 14.08 m at r = 250, below its lowest knot.
        "piecewise-dip": PiecewiseBottom(np.arange(0.0, 501.0, 100.0),
                                         [50.0, 50.0, 20.0, 20.0, 50.0, 50.0]),
    }


BATHYMETRIES = _bathymetries()


def _span_points(bath, count=10_000):
    """Knots, interval midpoints, span ends and seeded points within the
    span of the bottom's floor (or within -2 km..8 km where it is unbounded)."""
    _, r_lo, r_hi = bath.floor
    lo, hi = max(r_lo, -2_000.0), min(r_hi, 8_000.0)
    points = np.random.default_rng(41).uniform(lo, hi, count).tolist()
    points += [lo, hi]
    if isinstance(bath, PiecewiseBottom):
        knots = np.asarray(bath.r_points)
        points += knots.tolist() + (0.5 * (knots[:-1] + knots[1:])).tolist()
    if isinstance(bath, SinusoidalBottom):  # the troughs, where sin = -sign(amplitude)
        k, phase = bath.wavenumber, bath.phase
        trough = -0.5 * math.pi if bath.amplitude > 0.0 else 0.5 * math.pi
        points += [(trough + 2.0 * math.pi * j - phase) / k for j in range(-3, 4)]
    if isinstance(bath, LinearSlopeBottom):  # the span's r = 0 end, and far along it
        side = 1.0 if r_hi == math.inf else -1.0
        points += [0.0, -0.0, side * 5e-324, side * 1e-300, side * 1e6, side * 1e300]
    return points


class TestDepthQueries:
    @pytest.mark.parametrize("name", BATHYMETRIES)
    def test_depth_is_the_profile_depth_bitwise(self, name):
        """``depth_at`` computes the depth alone, to the bits of
        ``_profile(r)[0]``, and raises the same DomainError outside the
        bottom's domain."""
        bath = BATHYMETRIES[name]
        points = np.random.default_rng(51).uniform(-3_000.0, 9_000.0, 10_000).tolist()
        points += [0.0, -0.0, 1000.0, 3000.0, 2500.0, -500.0, 6000.0]
        for r in points:
            assert _outcome(bath.depth_at, r) == _outcome(
                lambda v: bath._profile(v)[0], r), r

    @pytest.mark.parametrize("name", BATHYMETRIES)
    def test_floor_bounds_every_depth_in_its_span(self, name):
        bath = BATHYMETRIES[name]
        min_depth, r_lo, r_hi = bath.floor
        assert r_lo <= r_hi
        if min_depth == -math.inf:
            assert bath.floor == (-math.inf, -math.inf, math.inf)  # never skips
            return
        for r in _span_points(bath):
            assert bath.depth_at(r) >= min_depth, r

    def test_floor_values(self):
        assert BATHYMETRIES["flat"].floor == (250.0, -math.inf, math.inf)
        assert BATHYMETRIES["sinusoidal"].floor == (96.0, -math.inf, math.inf)
        assert BATHYMETRIES["sinusoidal-negative"].floor == (1940.0, -math.inf, math.inf)
        assert BATHYMETRIES["linear-slope"].floor == (300.0, -math.inf, 0.0)
        assert BATHYMETRIES["linear-slope-deepening"].floor == (300.0, 0.0, math.inf)
        assert LinearSlopeBottom(300.0, 0.0).floor == (300.0, 0.0, math.inf)
        for name in ("arc-up", "arc-down"):
            assert BATHYMETRIES[name].floor == (-math.inf, -math.inf, math.inf)
        assert BATHYMETRIES["piecewise"].floor[1:] == (0.0, 3000.0)

    def test_piecewise_floor_finds_the_dip_between_knots(self):
        """The spline's minimum lies between knots, 5.9 m below the lowest
        knot; the floor sits just below that minimum, not at a knot."""
        from varitrace.environment import _CubicTable

        bath = BATHYMETRIES["piecewise-dip"]
        lowest, where, bound = _CubicTable(bath.r_points, bath.z_points).lowest()
        dense = [bath.depth_at(r) for r in np.linspace(0.0, 500.0, 20_001).tolist()]
        assert lowest <= min(dense) <= lowest + 1e-9
        assert where == pytest.approx(250.0, abs=1e-6)
        assert bath.floor[0] == bound
        assert lowest - 1e-6 < bound <= lowest < 14.1
        assert bath.depth_at(where) >= bound

    def test_piecewise_spline_reaching_the_surface_rejected(self):
        """Every knot lies below the surface, but the spline through them
        dips to -7.47 m at r = 250."""
        with pytest.raises(ValueError, match="reaches the surface: -7.47"):
            PiecewiseBottom(np.arange(0.0, 501.0, 100.0), [50.0, 50.0, 2.0, 2.0, 50.0, 50.0])


DATA = Path(__file__).resolve().parent / "data" / "shallow_fan"


class TestTableReader:
    """The two-column reader behind both ``from_file`` methods returns the
    columns of ``np.loadtxt(path, comments="#", ndmin=2)`` bit for bit."""

    @staticmethod
    def check(path):
        from varitrace.environment import _read_table

        data = np.loadtxt(path, comments="#", ndmin=2)
        assert data.shape[1] == 2
        for column, expected in zip(_read_table(path), data.T):
            assert [v.hex() for v in column] == [v.hex() for v in expected.tolist()]

    @pytest.mark.parametrize("name", ["ssp.txt", "bottom.txt"])
    def test_shipped_tables(self, name):
        self.check(DATA / name)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_tables(self, tmp_path, seed):
        """repr floats over many magnitudes, signed zeros, tabs, inline and
        full-line comments, blank and whitespace-only lines, CRLF endings."""
        rng = np.random.default_rng(seed)
        lines = ["# header comment"]
        for _ in range(300):
            x, y = (rng.standard_normal(2) * 10.0 ** rng.integers(-12, 13, 2)).tolist()
            if rng.random() < 0.05:
                x = -0.0
            line = str(rng.choice([" ", "\t", "  \t "])).join([repr(x), repr(y)])
            if rng.random() < 0.2:
                line = str(rng.choice(["", " ", "\t"])) + line + "   # note"
            lines.append(line)
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", "   ", "\t", "# full-line comment"])))
        newline = "\r\n" if seed % 2 else "\n"
        path = tmp_path / "table.txt"
        path.write_bytes((newline.join(lines) + newline).encode())
        self.check(path)

    def test_gridded_field_from_file(self):
        """The gridded profile built from a file equals one built from the
        columns, at every query."""
        from varitrace.environment import _read_table

        field = GriddedField.from_file(DATA / "ssp.txt", c0=1490.0)
        depths, c_values = _read_table(DATA / "ssp.txt")
        direct = GriddedField(np.array(depths), np.array(c_values), c0=1490.0)
        assert field.depths == tuple(depths)
        for z in np.linspace(depths[0], depths[-1], 97).tolist():
            assert field.index_at(0.0, z) == direct.index_at(0.0, z)
