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
    IndexSample,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    NormalFrame,
    PiecewiseBottom,
    SinusoidalBottom,
    surface_frame,
)


def slope_of(frame):
    """Bottom slope z_b' from the into-water normal (z_b', -1) / norm."""
    return -frame.nr / frame.nz


def radius_of(frame):
    """Radius of curvature 1/|curvature|, infinite for a flat boundary."""
    return math.inf if frame.curvature == 0.0 else 1.0 / abs(frame.curvature)


def n_of(field, r, z):
    return field.c0 / field.sound_speed(r, z)


def fd_errors(field, r, z, h):
    """Absolute errors of the analytic partials vs centered differences of n."""
    s = IndexSample(*field.index_at(r, z))
    n_r_fd = (n_of(field, r + h, z) - n_of(field, r - h, z)) / (2 * h)
    n_z_fd = (n_of(field, r, z + h) - n_of(field, r, z - h)) / (2 * h)
    n_zz_fd = (field.index_at(r, z + h)[2] - field.index_at(r, z - h)[2]) / (2 * h)
    return (abs(s.n_r - n_r_fd), abs(s.n_z - n_z_fd), abs(s.n_zz - n_zz_fd))


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
        c = np.array([munk.sound_speed(0.0, z) for z in depths])
        gridded = GriddedField(depths=depths, c_values=c, c0=munk.c0)
        for z in [300.0, 700.0, 1000.0, 1150.0, 1600.0, 2500.0, 3500.0]:
            exact = IndexSample(*munk.index_at(0.0, z))
            approx = IndexSample(*gridded.index_at(0.0, z))
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
        assert slope_of(sample.frame) == 0.0
        assert sample.frame.curvature == 0.0
        assert sample.frame.nr == 0.0
        assert sample.frame.nz == -1.0
        assert math.isinf(radius_of(sample.frame))

    def test_sinusoidal_crest(self):
        B, A, k = 1000.0, 50.0, 2e-3
        bath = SinusoidalBottom(B, A, k)
        crest = (math.pi / 2) / k
        sample = bath.bottom_at(crest)
        assert sample.z_b == pytest.approx(B + A, rel=1e-14)
        assert slope_of(sample.frame) == pytest.approx(0.0, abs=1e-12)
        assert abs(sample.frame.curvature) == pytest.approx(A * k * k, rel=1e-9)
        # deepest point of the corrugation is concave up: positive curvature
        assert sample.frame.curvature > 0.0

    def test_sinusoidal_profile_matches_fd(self):
        bath = SinusoidalBottom(800.0, 30.0, 5e-3, phase=0.7)
        r, h = 1234.5, 0.5

        def slope_fd(h):
            return (bath.depth_at(r + h) - bath.depth_at(r - h)) / (2 * h)

        slope = slope_of(bath.bottom_at(r).frame)
        e1 = abs(slope - slope_fd(h))
        e2 = abs(slope - slope_fd(h / 2))
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
            assert radius_of(frame) == pytest.approx(R, rel=1e-8)

    def test_arc_domain(self):
        bath = ArcBottom(radius=50.0, r_center=100.0, z_center=30.0, bulge="down")
        with pytest.raises(DomainError):
            bath.bottom_at(200.0)

    def test_linear_slope(self):
        bath = LinearSlopeBottom(depth0=500.0, slope=0.1)
        sample = bath.bottom_at(1000.0)
        assert sample.z_b == pytest.approx(600.0)
        assert slope_of(sample.frame) == 0.1
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

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            NormalFrame(nr=1.0, nz=1.0, curvature=0.0)


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
            assert repr([table._a, table._b, table._c, table._d]) == repr(expected)
            assert table._x == x.tolist()

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

    @pytest.mark.parametrize("knots", ["_thermocline", "_bathymetry", "_interchange", "_uneven"])
    def test_value_is_the_first_entry_of_a_call(self, knots):
        from varitrace.environment import _CubicTable

        grids = self._uneven() if knots == "_uneven" else [getattr(self, knots)()]
        rng = np.random.default_rng(21)
        for x, y in grids:
            table = _CubicTable(x, y)
            points = np.concatenate([x, 0.5 * (x[:-1] + x[1:]), rng.uniform(x[0], x[-1], 50)])
            for v in points.tolist():
                assert repr(table.value(v)) == repr(table(v)[0]), v

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
        assert field.sound_speed(0.0, 61.3) > 0.0
        assert bath.depth_at(1234.5) == bath.bottom_at(1234.5).z_b


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
        from index_reference import reference_index

        field = FIELDS[name]
        rng = np.random.default_rng(31)
        points = list(zip(rng.uniform(-300.0, 4_500.0, 2_000).tolist(),
                          rng.uniform(-40.0, 700.0, 2_000).tolist()))
        points += [(0.0, 0.0), (-0.0, -0.0), (0.0, 260.0), (4_100.0, -20.0), (1e4, 1300.0)]
        outcomes = set()
        for r, z in points:
            got = _outcome(field.index_at, r, z)
            assert got == _outcome(reference_index, field, r, z), (r, z)
            outcomes.add(got[0] == "DomainError")
        if name.startswith("gridded") or name == "linear-gradient":
            assert outcomes == {True, False}  # both sides of the domain were seen


def _bathymetries():
    knots = np.linspace(0.0, 3000.0, 16)
    return {
        "flat": FlatBottom(250.0),
        "linear-slope": LinearSlopeBottom(depth0=300.0, slope=-0.05),
        "sinusoidal": SinusoidalBottom(100.0, 4.0, 2.0 * math.pi / 80.0, phase=0.3),
        "sinusoidal-negative": SinusoidalBottom(2000.0, -60.0, 0.003),
        "arc-up": ArcBottom(radius=1500.0, r_center=1000.0, z_center=1620.0),
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
        knots = bath.r_points
        points += knots.tolist() + (0.5 * (knots[:-1] + knots[1:])).tolist()
    if isinstance(bath, SinusoidalBottom):  # the troughs, where sin = -sign(amplitude)
        k, phase = bath.wavenumber, bath.phase
        trough = -0.5 * math.pi if bath.amplitude > 0.0 else 0.5 * math.pi
        points += [(trough + 2.0 * math.pi * j - phase) / k for j in range(-3, 4)]
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
        for name in ("linear-slope", "arc-up", "arc-down"):
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
