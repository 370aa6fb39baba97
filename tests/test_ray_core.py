"""Hamiltonian calculus tests: closed forms vs finite differences, and the
RK4 kernel that writes them out."""

import math

import numpy as np
import pytest

from hamiltonian_reference import hamiltonian, k_matrix, ray_rhs, rk4_step
from varitrace import (
    ConstantField,
    GriddedField,
    LinearGradientField,
    MunkField,
    SoundSpeedField,
    SteepRayError,
    propagation,
)


class TestHamiltonian:
    def test_horizontal_ray(self):
        assert hamiltonian(1.0, 0.0) == -1.0

    def test_three_four_five(self):
        assert hamiltonian(1.0, 0.6) == pytest.approx(-0.8, rel=1e-15)

    def test_limit_and_error(self):
        assert -1e-3 < hamiltonian(1.0, 1.0 - 1e-9) < 0.0
        with pytest.raises(SteepRayError):
            hamiltonian(1.0, 1.0)
        with pytest.raises(SteepRayError):
            hamiltonian(1.0, -1.2)


class TestRayRhs:
    def test_straight_ray(self):
        s = (1.0, 0.0, 0.0, 0.0)
        dz, dp, _ = ray_rhs(s, 0.6)
        assert dz == pytest.approx(0.75, rel=1e-15)
        assert dp == 0.0

    def test_horizontal_ray_bends_toward_higher_index(self):
        s = (1.0, 0.0, 0.01, 0.0)
        dz, dp, _ = ray_rhs(s, 0.0)
        assert dz == 0.0
        assert dp == pytest.approx(0.01, rel=1e-15)

    def test_matches_fd_of_hamiltonian(self):
        """dz/dr = dH/dp and dp/dr = -dH/dz, checked at O(h^2)."""
        field = LinearGradientField(c_surface=1480.0, gradient=3e-3, c0=1500.0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            z = rng.uniform(10.0, 250.0)
            s = field.index_at(0.0, z)
            p = rng.uniform(-0.8, 0.8) * s[0]
            dz, dp, _ = ray_rhs(s, p)

            def dH_dp(h):
                return (hamiltonian(s[0], p + h) - hamiltonian(s[0], p - h)) / (2 * h)

            def dH_dz(h):
                n_plus = field.index_at(0.0, z + h)[0]
                n_minus = field.index_at(0.0, z - h)[0]
                return (hamiltonian(n_plus, p) - hamiltonian(n_minus, p)) / (2 * h)

            e1 = abs(dz - dH_dp(1e-4))
            e2 = abs(dz - dH_dp(5e-5))
            if e2 > 1e-13:
                assert e1 / e2 == pytest.approx(4.0, rel=0.5)
            assert dz == pytest.approx(dH_dp(1e-5), abs=1e-9)

            e1 = abs(dp + dH_dz(1e-2))
            e2 = abs(dp + dH_dz(5e-3))
            if e2 > 1e-13:
                assert e1 / e2 == pytest.approx(4.0, rel=0.5)
            assert dp == pytest.approx(-dH_dz(1e-3), abs=1e-9)


def k_fd(field, r, z, p, h_p, h_z):
    """FD Jacobian of (dp/dr, dz/dr) in (p, z): the independent K oracle."""
    dz_pp, dp_pp, _ = ray_rhs(field.index_at(r, z), p + h_p)
    dz_pm, dp_pm, _ = ray_rhs(field.index_at(r, z), p - h_p)
    dz_zp, dp_zp, _ = ray_rhs(field.index_at(r, z + h_z), p)
    dz_zm, dp_zm, _ = ray_rhs(field.index_at(r, z - h_z), p)
    return np.array([
        [(dp_pp - dp_pm) / (2 * h_p), (dp_zp - dp_zm) / (2 * h_z)],
        [(dz_pp - dz_pm) / (2 * h_p), (dz_zp - dz_zm) / (2 * h_z)],
    ])


class TestKMatrix:
    def test_homogeneous_values(self):
        s = (1.0, 0.0, 0.0, 0.0)
        (k11, k12), (k21, k22) = k_matrix(s, 0.6).tolist()
        assert k11 == 0.0
        assert k12 == 0.0
        assert k22 == 0.0
        assert k21 == pytest.approx(1.0 / 0.512, rel=1e-15)  # n^2 / w^3, w = 0.8

    def test_trace_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = (rng.uniform(0.9, 1.2), rng.uniform(-0.01, 0.01),
                 rng.uniform(-0.05, 0.05), rng.uniform(-1e-3, 1e-3))
            p = rng.uniform(-0.95, 0.95) * s[0]
            (k11, _), (k21, k22) = k_matrix(s, p).tolist()
            assert k11 + k22 == 0.0  # same expression negated
            assert k21 > 0.0

    def test_steep_ray_error(self):
        with pytest.raises(SteepRayError):
            k_matrix((1.0, 0.0, 0.0, 0.0), 1.0)

    @pytest.mark.parametrize("field", [
        LinearGradientField(c_surface=1500.0, gradient=8e-3),
        MunkField(),
    ])
    def test_matches_fd_jacobian_of_ray_rhs(self, field):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.uniform(5.0, 110.0) if isinstance(field, LinearGradientField) \
                else rng.uniform(100.0, 3000.0)
            s = field.index_at(0.0, z)
            p = rng.uniform(-0.7, 0.7) * s[0]
            analytic = k_matrix(s, p)
            fd = k_fd(field, 0.0, z, p, 1e-6, 1e-3)
            np.testing.assert_allclose(fd, analytic, rtol=2e-5, atol=1e-10)

    def test_fd_convergence_second_order(self):
        """The strong-gradient field keeps truncation above roundoff."""
        field = LinearGradientField(c_surface=1500.0, gradient=8e-3)
        z, p = 60.0, 0.45
        s = field.index_at(0.0, z)
        analytic = k_matrix(s, p)
        e1 = np.abs(k_fd(field, 0.0, z, p, 2e-3, 1.0) - analytic).max()
        e2 = np.abs(k_fd(field, 0.0, z, p, 1e-3, 0.5) - analytic).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)


class TestSplitKernel:
    """The integrator's one kernel advances (z, p) and q over the same
    stages: its ray part equals the reference RK4 step on ray_rhs bit for
    bit (TestRayStep), the w it divides by is -H bit for bit, and its q
    part equals the reference step's K q slopes, K from k_matrix, bit for
    bit, so the FD checks of ray_rhs and k_matrix above cover what the
    integrator runs."""

    def test_w_is_minus_hamiltonian(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            s = (rng.uniform(0.9, 1.2), 0.0, rng.uniform(-0.02, 0.02), 0.0)
            p = rng.uniform(-0.95, 0.95) * s[0]
            assert ray_rhs(s, p)[2] == -hamiltonian(s[0], p)

    def test_dq_equals_k_times_q(self):
        """Random index tuples at every stage, so every K entry and every
        stage of the q advance is exercised; ray-only steps carry q = None."""
        rng = np.random.default_rng(6)
        for _ in range(500):
            samples = [(rng.uniform(0.9, 1.2), rng.uniform(-0.01, 0.01),
                        rng.uniform(-0.02, 0.02), rng.uniform(-1e-4, 1e-4)) for _ in range(4)]
            samples = [tuple(map(float, s)) for s in samples]
            p = float(rng.uniform(-0.5, 0.5))
            h = float(rng.uniform(0.1, 20.0))
            q = tuple(rng.uniform(-5.0, 5.0, 4).tolist())
            for q0 in (q, None):
                out = propagation._rk4_step(_ScriptedField(samples[1:]).index_at, 0.0, 10.0,
                                            p, samples[0], h, q0)
                ref = rk4_step(_ScriptedField(samples[1:]).index_at, 0.0, 10.0, p,
                               samples[0], h, q0)
                assert out == ref
                assert (out[2] is None) is (q0 is None)


def _builtin_fields():
    """(field, depth range) for every built-in field kind; the gridded
    grids reach past the depths and ranges a test step can touch."""
    depths = np.linspace(-40.0, 340.0, 39)
    ranges = np.linspace(-200.0, 3_200.0, 18)
    c_2d = (1505.0 - 0.05 * depths[None, :] + 2e-4 * depths[None, :] ** 2
            + 3.0 * np.cos(ranges[:, None] / 700.0))
    return {
        "constant": (ConstantField(c0=1500.0, c=1480.0), (0.0, 300.0)),
        "linear-gradient": (LinearGradientField(c_surface=1490.0, gradient=3e-4,
                                                c0=1500.0), (0.0, 300.0)),
        "munk": (MunkField(), (200.0, 3_500.0)),
        "gridded-1d": (GriddedField(depths, 1505.0 - 0.05 * depths + 2e-4 * depths**2),
                       (0.0, 300.0)),
        "gridded-2d": (GriddedField(depths, c_2d, ranges=ranges), (0.0, 300.0)),
    }


BUILTIN_FIELDS = _builtin_fields()


class _ScriptedField(SoundSpeedField):
    """A field whose index tuples at successive ``index_at`` calls are read
    from a list; a bare n stands for (n, 0, 0, 0)."""

    def __init__(self, samples):
        super().__init__(1500.0)
        self._samples = [s if isinstance(s, tuple) else (s, 0.0, 0.0, 0.0) for s in samples]

    def index_at(self, r, z):
        return self._samples.pop(0)


class TestRayStep:
    """``propagation._rk4_step`` writes the ray right-hand side out at each
    stage; the step it gives, its stage slopes of depth and its q advance
    equal the reference RK4 step built on ``ray_rhs`` and ``k_matrix`` bit
    for bit, and its q advance is the Jacobian of its own (p, z) map."""

    @pytest.mark.parametrize("kind", BUILTIN_FIELDS)
    def test_stages_equal_reference_ray_rhs(self, kind):
        field, (z_lo, z_hi) = BUILTIN_FIELDS[kind]
        rng = np.random.default_rng(17)
        for _ in range(60):
            r = float(rng.uniform(0.0, 2_500.0))
            z = float(rng.uniform(z_lo + 20.0, z_hi - 20.0))
            h = float(rng.uniform(0.1, 10.0))
            sample = field.index_at(r, z)
            assert type(sample) is tuple and len(sample) == 4
            p = float(rng.uniform(-0.5, 0.5)) * sample[0]
            q = tuple(rng.uniform(-5.0, 5.0, 4).tolist())
            for q0 in (q, (1.0, 0.0, 0.0, 1.0), None):
                out = propagation._rk4_step(field.index_at, r, z, p, sample, h, q0)
                assert out == rk4_step(field.index_at, r, z, p, sample, h, q0)

    @pytest.mark.parametrize("kind", BUILTIN_FIELDS)
    def test_q_end_is_the_jacobian_of_the_step(self, kind):
        """An RK step of the variational equation is the Jacobian of the RK
        map: a centred FD of the kernel's one-step (p, z) map, the start
        sample re-read at each perturbed depth, equals its q_end at q = I."""
        field, (z_lo, z_hi) = BUILTIN_FIELDS[kind]
        rng = np.random.default_rng(23)
        e_p, e_z = 1e-5, 1e-2  # FD error at most 1.4e-8 on q21 (about 3.6), 2e-15 on q12

        def end(z, p):
            z_end, p_end, *_ = propagation._rk4_step(field.index_at, r, z, p,
                                                     field.index_at(r, z), h, None)
            return np.array([p_end, z_end])

        for _ in range(20):
            r = float(rng.uniform(0.0, 2_500.0))
            z = float(rng.uniform(z_lo + 20.0, z_hi - 20.0))
            h = float(rng.uniform(1.0, 20.0))
            p = float(rng.uniform(-0.4, 0.4)) * field.index_at(r, z)[0]
            q_end = propagation._rk4_step(field.index_at, r, z, p, field.index_at(r, z), h,
                                          (1.0, 0.0, 0.0, 1.0))[2]
            fd = np.column_stack([(end(z, p + e_p) - end(z, p - e_p)) / (2.0 * e_p),
                                  (end(z + e_z, p) - end(z - e_z, p)) / (2.0 * e_z)])
            np.testing.assert_allclose(fd, np.reshape(q_end, (2, 2)), rtol=1e-5, atol=1e-13)

    @pytest.mark.parametrize("stage", range(4))
    def test_vertical_stage_raises(self, stage):
        """w^2 <= 0 at any one stage raises SteepRayError, as ray_rhs does;
        w^2 == 0 exactly (n == |p|) included."""
        p = 0.5
        for n_bad in (p, 0.25):
            ns = [1.0] * 4
            ns[stage] = n_bad
            with pytest.raises(SteepRayError):
                ray_rhs((n_bad, 0.0, 0.0, 0.0), p)
            for q in ((1.0, 0.0, 0.0, 1.0), None):
                field = _ScriptedField(ns[1:])
                with pytest.raises(SteepRayError):
                    propagation._rk4_step(field.index_at, 0.0, 10.0, p, (ns[0], 0.0, 0.0, 0.0),
                                          1.0, q)
