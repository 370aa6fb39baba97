"""Reflection jump tests: mirror law, pulse jump, kappa and the identities."""

import math

import numpy as np
import pytest

from identity_reference import identity_checks
from varitrace import (
    FlatBottom,
    GeometryError,
    NormalFrame,
    SingularReflectionError,
    kappa_matrix,
)
from varitrace.reflection import _mirror

FLAT_FRAME = FlatBottom(100.0).bottom_at(0.0)[1]
SURFACE_FRAME = NormalFrame(nr=0.0, nz=1.0, curvature=0.0)
HOMOGENEOUS = (1.0, 0.0, 0.0, 0.0)


def reflected_pulse(t, n_vec, n):
    """The tracer's pulse jump p1 = n * t1_z, forward or backward alike."""
    return n * float(_mirror(*t, *n_vec)[2])


def reflect_pulse_quotient(p, t, n_vec):
    """Pulse jump in quotient form, p (1 - 2 Nz (Nr tr/tz + Nz)); needs tz != 0."""
    tr, tz = float(t[0]), float(t[1])
    nr, nz = float(n_vec[0]), float(n_vec[1])
    if tz == 0.0:
        raise GeometryError("quotient form of the pulse jump is undefined at tz = 0")
    return p * (1.0 - 2.0 * nz * (nr * tr / tz + nz))


def random_incoming_pair(rng, min_margin=1e-3):
    """Unit (t, N) with <t, N> < -min_margin."""
    while True:
        theta = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi)
        t = np.array([math.cos(theta), math.sin(theta)])
        n_vec = np.array([math.cos(alpha), math.sin(alpha)])
        if float(t @ n_vec) < -min_margin:
            return t, n_vec


class TestReflectDirection:
    """The mirror law t1 = t - 2 N <t, N>, as the bounce routine derives it."""

    def test_mirror_across_horizontal_bottom(self):
        t1, _ = kappa_matrix([0.8, 0.6], FLAT_FRAME, HOMOGENEOUS)
        np.testing.assert_allclose(t1, [0.8, -0.6], atol=1e-15)

    def test_retro_reflection(self):
        n_vec = np.array([math.cos(2.0), math.sin(2.0)])
        _, *t1 = _mirror(*-n_vec, *n_vec)
        np.testing.assert_allclose(t1, n_vec, atol=1e-15)
        # t1r < 0: the reflected ray runs backward in range
        assert kappa_matrix(-n_vec, NormalFrame(*n_vec, 0.0), HOMOGENEOUS)[0] is None

    def test_specular_property_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            t, n_vec = random_incoming_pair(rng)
            _, *t1 = _mirror(*t, *n_vec)
            t1 = np.array(t1)
            assert np.hypot(*t1) == pytest.approx(1.0, abs=1e-12)
            assert float(t1 @ n_vec) == pytest.approx(-float(t @ n_vec), abs=1e-12)

    def test_outgoing_ray_rejected(self):
        with pytest.raises(GeometryError):
            kappa_matrix([0.8, 0.6], SURFACE_FRAME, HOMOGENEOUS)

    def test_non_unit_inputs_rejected(self):
        with pytest.raises(GeometryError):
            kappa_matrix([1.0, 1.0], FLAT_FRAME, HOMOGENEOUS)
        with pytest.raises(ValueError):
            NormalFrame(0.0, -2.0, 0.0)


class TestMirrorLawBits:
    def test_written_out_bit_for_bit(self):
        """<t, N> and t1 are the written-out scalar expressions, bit for bit,
        and kappa_matrix returns that t1 whenever it advances in range: no
        dot-product kernel, whose rounding varies with the BLAS build, is
        involved."""
        rng = np.random.default_rng(61)
        got, expected = [], []
        forward = 0
        for theta, alpha in rng.uniform(-math.pi, math.pi, size=(20_000, 2)).tolist():
            tr, tz = math.cos(theta), math.sin(theta)
            nr, nz = math.cos(alpha), math.sin(alpha)
            if tr * nr + tz * nz > 0.0:
                nr, nz = -nr, -nz  # the same boundary seen from the incoming side
            n_t = tr * nr + tz * nz
            mirrored = _mirror(tr, tz, nr, nz)
            got.append(mirrored)
            expected.append((n_t, tr - 2.0 * n_t * nr, tz - 2.0 * n_t * nz))
            try:
                t1, _ = kappa_matrix((tr, tz), NormalFrame(nr, nz, 0.0), HOMOGENEOUS)
            except GeometryError:
                continue
            if t1 is not None:
                assert t1 == mirrored[1:]
                forward += 1
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert forward > 9000


class TestReflectPulse:
    """The tracer's reflected pulse n * t1_z against the quotient form."""

    def test_horizontal_bottom_flips_sign(self):
        t = np.array([math.sqrt(1 - 0.25), 0.5])
        assert reflected_pulse(t, [0.0, -1.0], 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_horizontal_ray_on_horizontal_boundary(self):
        # p = 0 ray grazing along a wall: quotient form undefined, direct
        # form gives p1 = 0 after reflecting off a vertical-ish boundary.
        t = np.array([1.0, 0.0])
        assert reflected_pulse(t, [-1.0, 0.0], 1.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(GeometryError):
            reflect_pulse_quotient(0.0, t, [-1.0, 0.0])

    def test_quotient_form_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            t, n_vec = random_incoming_pair(rng)
            if abs(t[1]) < 1e-3:
                continue
            n = rng.uniform(0.9, 1.1)
            p = n * t[1]
            direct = reflected_pulse(t, n_vec, n)
            quotient = reflect_pulse_quotient(p, t, n_vec)
            assert quotient == pytest.approx(direct, abs=1e-10)


class TestKappaMatrix:
    def test_flat_boundary_zero_gradient_is_minus_identity(self):
        for tz in (0.3, 0.6, -0.45):
            t = np.array([math.sqrt(1 - tz * tz), tz])
            frame = FLAT_FRAME if tz > 0 else SURFACE_FRAME
            k = kappa_matrix(t, frame, HOMOGENEOUS)[1]
            assert k.k11 == pytest.approx(-1.0, abs=1e-12)
            assert k.k22 == pytest.approx(-1.0, abs=1e-12)
            assert k.k12 == pytest.approx(0.0, abs=1e-12)
            assert k.apply((1.0, 0.0, 0.0, 1.0))[2] == 0.0

    def test_flat_boundary_with_gradient(self):
        t = np.array([math.sqrt(1 - 0.25), 0.5])
        sample = (1.0, 0.0, 0.01, 0.0)
        k = kappa_matrix(t, FLAT_FRAME, sample)[1]
        assert k.k12 == pytest.approx(0.04, abs=1e-12)  # 2 n_z / t_z
        assert k.k11 == pytest.approx(-1.0, abs=1e-12)
        assert k.k22 == pytest.approx(-1.0, abs=1e-12)

    def test_homogeneous_curved_bottom_formula(self):
        """kappa12 = -2 curv n t1r tr / <t,N> when the index is uniform."""
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 300:
            t, n_vec = random_incoming_pair(rng, min_margin=1e-2)
            curv = rng.uniform(-0.05, 0.05)
            n = rng.uniform(0.9, 1.1)
            frame = NormalFrame(nr=float(n_vec[0]), nz=float(n_vec[1]), curvature=curv)
            sample = (n, 0.0, 0.0, 0.0)
            try:
                k = kappa_matrix(t, frame, sample)[1]
            except SingularReflectionError:
                continue
            n_t = float(t @ n_vec)
            t1 = t - 2 * n_t * n_vec
            expected = -2.0 * curv * n * t1[0] * t[0] / n_t
            assert k.k12 == pytest.approx(expected, abs=1e-12)
            assert k.k11 == pytest.approx(-t1[0] / t[0], rel=1e-12)
            assert k.k22 == pytest.approx(-t[0] / t1[0], rel=1e-12)
            checked += 1

    def test_structure_det_one_and_k21_zero(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 500:
            t, n_vec = random_incoming_pair(rng)
            frame = NormalFrame(nr=float(n_vec[0]), nz=float(n_vec[1]),
                                curvature=rng.uniform(-0.1, 0.1))
            sample = (rng.uniform(0.9, 1.1), rng.uniform(-0.01, 0.01),
                      rng.uniform(-0.02, 0.02), 0.0)
            try:
                k = kappa_matrix(t, frame, sample)[1]
            except SingularReflectionError:
                continue
            a, b, c, d = k.apply((1.0, 0.0, 0.0, 1.0))
            assert a * d - b * c == pytest.approx(1.0, abs=1e-12)
            assert k.k11 * k.k22 == pytest.approx(1.0, abs=1e-12)
            assert c == 0.0
            checked += 1

    def test_normal_flip_invariance(self):
        """kappa(t, N, curv) == kappa(t, -N, -curv): the scan relies on it."""
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            t, n_vec = random_incoming_pair(rng, min_margin=1e-2)
            curv = rng.uniform(-0.05, 0.05)
            sample = (rng.uniform(0.9, 1.1), rng.uniform(-0.01, 0.01),
                      rng.uniform(-0.02, 0.02), 0.0)
            frame = NormalFrame(nr=float(n_vec[0]), nz=float(n_vec[1]), curvature=curv)
            # flipping the internal normal describes the same physical
            # boundary seen from the other side, with opposite curvature;
            # the context requires an incoming ray, so compare the raw
            # formula evaluated on the mirrored inputs
            try:
                k = kappa_matrix(t, frame, sample)[1]
            except SingularReflectionError:
                continue
            tr, tz = t
            nr, nz = -n_vec
            n_t = tr * nr + tz * nz
            t1r = tr - 2 * nr * n_t
            n, n_r, n_z, _ = sample
            k12_flipped = (curv * n * t1r * tr
                           + nz * ((tr**2 + t1r**2) / (2 * tr * t1r) - nr**2) * n_z
                           + nr * nz * nz * n_r) * 2.0 / n_t
            assert k12_flipped == pytest.approx(k.k12, rel=1e-12, abs=1e-14)
            checked += 1

    def test_two_flat_bounces_compose_to_identity(self):
        t = np.array([0.8, 0.6])
        k = kappa_matrix(t, FLAT_FRAME, HOMOGENEOUS)[1]
        composed = k.apply(k.apply((1.0, 0.0, 0.0, 1.0)))
        np.testing.assert_allclose(composed, (1.0, 0.0, 0.0, 1.0), atol=1e-12)

    def test_apply_is_the_upper_triangular_product(self):
        """apply(q) is [[k11, k12], [0, k22]] times q, with q and the
        result laid out as (q11, q12, q21, q22)."""
        rng = np.random.default_rng(37)
        t = np.array([0.8, 0.6])
        k = kappa_matrix(t, FLAT_FRAME, (1.0, 0.003, 0.01, 0.0))[1]
        for q in rng.normal(size=(20, 4)).tolist():
            expected = np.array([[k.k11, k.k12], [0.0, k.k22]]) @ np.reshape(q, (2, 2))
            np.testing.assert_allclose(k.apply(tuple(q)), expected.ravel(),
                                       rtol=1e-15, atol=1e-15)

    def test_vertical_incident_ray_raises(self):
        tr = 1e-8
        t = np.array([tr, -math.sqrt(1.0 - tr * tr)])
        with pytest.raises(SingularReflectionError):
            kappa_matrix(t, SURFACE_FRAME, HOMOGENEOUS)

    def test_tangential_hit_raises(self):
        # t nearly parallel to the boundary: <t, N> tiny but negative
        alpha = -math.pi / 2
        frame = NormalFrame(nr=math.cos(alpha), nz=math.sin(alpha), curvature=0.0)
        eps = 1e-8
        t = np.array([math.cos(eps), math.sin(eps)])  # grazing along the bottom
        with pytest.raises(SingularReflectionError):
            kappa_matrix(t, frame, HOMOGENEOUS)

    def test_non_incoming_is_judged_before_singular(self):
        """A vertical ray leaving the surface is not incoming, which is
        reported before its vertical direction is."""
        with pytest.raises(GeometryError) as exc:
            kappa_matrix([0.0, 1.0], SURFACE_FRAME, HOMOGENEOUS)
        assert type(exc.value) is GeometryError
        with pytest.raises(SingularReflectionError):
            kappa_matrix([0.0, -1.0], SURFACE_FRAME, HOMOGENEOUS)

    def test_vertical_reflected_ray_raises(self):
        # 45-degree wall turns a horizontal-ish ray vertical
        alpha = math.radians(135.0)
        frame = NormalFrame(nr=math.cos(alpha), nz=math.sin(alpha), curvature=0.0)
        t = np.array([1.0, 0.0])
        with pytest.raises(SingularReflectionError):
            kappa_matrix(t, frame, HOMOGENEOUS)


class TestIdentities:
    def test_horizontal_boundary_spot_value(self):
        (lhs1, rhs1), (lhs2, rhs2) = identity_checks([0.8, 0.6], [0.0, -1.0])
        assert lhs1 == pytest.approx(-1.0, abs=1e-15)
        assert rhs1 == pytest.approx(-1.0, abs=1e-15)
        assert lhs2 == pytest.approx(rhs2, abs=1e-15)

    def test_spot_value_45deg_and_100deg(self):
        """The identities hold for any unit t, N: this pair is outgoing."""
        t = np.array([math.cos(math.radians(45.0)), math.sin(math.radians(45.0))])
        n_vec = np.array([math.cos(math.radians(100.0)), math.sin(math.radians(100.0))])
        assert float(t @ n_vec) > 0.0
        for lhs, rhs in identity_checks(t, n_vec):
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_random_sweep(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 1000:
            t, n_vec = random_incoming_pair(rng)
            try:
                pairs = identity_checks(t, n_vec)
            except SingularReflectionError:
                continue
            for lhs, rhs in pairs:
                assert abs(lhs - rhs) < 1e-10
            checked += 1

    def test_singular_raises(self):
        with pytest.raises(SingularReflectionError):
            identity_checks([0.0, 1.0], [0.0, -1.0])

    # (theta, alpha) of the draw of verify seed 1715831031 whose reflected
    # ray is near vertical: t = (-0.99495, 0.10040), N = (0.67067, -0.74175),
    # |t1r| = 1.4e-6 and the second identity's sides about -7.0e5
    NEAR_VERTICAL = (3.041026216555264, -0.8356820892232277)

    def test_stacked_columns_match_scalar_calls(self):
        """On (2, N) arrays every side equals, bit for bit, that of the
        scalar call on its column, incoming and outgoing pairs alike."""
        rng = np.random.default_rng(59)
        angles = rng.uniform(-math.pi, math.pi, size=(2000, 2)).tolist()
        columns, singles = [], []
        for theta, alpha in angles + [self.NEAR_VERTICAL]:
            t = (math.cos(theta), math.sin(theta))
            n_vec = (math.cos(alpha), math.sin(alpha))
            try:
                single = identity_checks(np.array(t), np.array(n_vec))
            except SingularReflectionError:
                continue
            columns.append(t + n_vec)
            singles.append((*single[0], *single[1]))
        tr, tz, nr, nz = np.array(columns).T
        stacked = identity_checks(np.array([tr, tz]), np.array([nr, nz]))
        assert len(singles) > 1900 and abs(singles[-1][2]) > 7e5
        sides = np.array([*stacked[0], *stacked[1]])
        assert sides.T.tobytes() == np.array(singles).tobytes()

    SINGULAR_COLUMNS = [
        ((0.0, 1.0), (0.0, -1.0)),  # vertical incident ray
        ((1.0, 0.0), (0.0, -1.0)),  # tangential hit
        ((0.6, 0.8), (-1.0 / math.sqrt(10.0), -3.0 / math.sqrt(10.0))),  # t1 = (0, -1)
    ]

    @pytest.mark.parametrize("bad", SINGULAR_COLUMNS)
    @pytest.mark.parametrize("where", [0, 3, 7])
    def test_any_singular_column_raises(self, bad, where):
        rng = np.random.default_rng(5)
        columns = [np.concatenate(random_incoming_pair(rng)) for _ in range(8)]
        identity_checks(*np.split(np.array(columns).T, 2))
        columns[where] = np.concatenate(bad)
        with pytest.raises(SingularReflectionError):
            identity_checks(*np.split(np.array(columns).T, 2))
