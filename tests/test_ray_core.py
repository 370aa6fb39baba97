"""Hamiltonian calculus tests: closed forms vs finite differences."""

import math

import numpy as np
import pytest

from hamiltonian_reference import hamiltonian, k_matrix, ray_rhs
from varitrace import IndexSample, LinearGradientField, MunkField, SteepRayError
from varitrace import ray_core


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
        s = IndexSample(1.0, 0.0, 0.0, 0.0)
        dz, dp = ray_rhs(s, 0.6)
        assert dz == pytest.approx(0.75, rel=1e-15)
        assert dp == 0.0

    def test_horizontal_ray_bends_toward_higher_index(self):
        s = IndexSample(1.0, 0.0, 0.01, 0.0)
        dz, dp = ray_rhs(s, 0.0)
        assert dz == 0.0
        assert dp == pytest.approx(0.01, rel=1e-15)

    def test_matches_fd_of_hamiltonian(self):
        """dz/dr = dH/dp and dp/dr = -dH/dz, checked at O(h^2)."""
        field = LinearGradientField(c_surface=1480.0, gradient=3e-3, c0=1500.0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            z = rng.uniform(10.0, 250.0)
            s = field.index_at(0.0, z)
            p = rng.uniform(-0.8, 0.8) * s.n
            dz, dp = ray_rhs(s, p)

            def dH_dp(h):
                return (hamiltonian(s.n, p + h) - hamiltonian(s.n, p - h)) / (2 * h)

            def dH_dz(h):
                n_plus = field.index_at(0.0, z + h).n
                n_minus = field.index_at(0.0, z - h).n
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
    dz_pp, dp_pp = ray_rhs(field.index_at(r, z), p + h_p)
    dz_pm, dp_pm = ray_rhs(field.index_at(r, z), p - h_p)
    dz_zp, dp_zp = ray_rhs(field.index_at(r, z + h_z), p)
    dz_zm, dp_zm = ray_rhs(field.index_at(r, z - h_z), p)
    return np.array([
        [(dp_pp - dp_pm) / (2 * h_p), (dp_zp - dp_zm) / (2 * h_z)],
        [(dz_pp - dz_pm) / (2 * h_p), (dz_zp - dz_zm) / (2 * h_z)],
    ])


class TestKMatrix:
    def test_homogeneous_values(self):
        s = IndexSample(1.0, 0.0, 0.0, 0.0)
        (k11, k12), (k21, k22) = k_matrix(s, 0.6).tolist()
        assert k11 == 0.0
        assert k12 == 0.0
        assert k22 == 0.0
        assert k21 == pytest.approx(1.0 / 0.512, rel=1e-15)  # n^2 / w^3, w = 0.8

    def test_trace_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = IndexSample(n=rng.uniform(0.9, 1.2), n_r=rng.uniform(-0.01, 0.01),
                            n_z=rng.uniform(-0.05, 0.05), n_zz=rng.uniform(-1e-3, 1e-3))
            p = rng.uniform(-0.95, 0.95) * s.n
            (k11, _), (k21, k22) = k_matrix(s, p).tolist()
            assert k11 + k22 == 0.0  # same expression negated
            assert k21 > 0.0

    def test_steep_ray_error(self):
        with pytest.raises(SteepRayError):
            k_matrix(IndexSample(1.0, 0.0, 0.0, 0.0), 1.0)

    @pytest.mark.parametrize("field", [
        LinearGradientField(c_surface=1500.0, gradient=8e-3),
        MunkField(),
    ])
    def test_matches_fd_jacobian_of_ray_rhs(self, field):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.uniform(5.0, 110.0) if field.kind == "linear-gradient" \
                else rng.uniform(100.0, 3000.0)
            s = field.index_at(0.0, z)
            p = rng.uniform(-0.7, 0.7) * s.n
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
    """The integrator runs ray_core.ray_rhs and ray_core.variation_rhs; the
    w that ray_rhs hands on is -H bit for bit, and variation_rhs's
    written-out K q product equals K (its value at q = I) times q bit for
    bit, so the FD checks of ray_rhs and k_matrix above cover both."""

    def test_w_is_minus_hamiltonian(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            s = IndexSample(n=rng.uniform(0.9, 1.2), n_r=0.0,
                            n_z=rng.uniform(-0.02, 0.02), n_zz=0.0)
            p = rng.uniform(-0.95, 0.95) * s.n
            assert ray_core.ray_rhs(s, p)[2] == -hamiltonian(s.n, p)

    def test_dq_equals_k_times_q(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            s = IndexSample(n=rng.uniform(0.9, 1.2), n_r=rng.uniform(-0.01, 0.01),
                            n_z=rng.uniform(-0.02, 0.02), n_zz=rng.uniform(-1e-4, 1e-4))
            p = rng.uniform(-0.8, 0.8)
            q11, q12, q21, q22 = rng.uniform(-5.0, 5.0, 4).tolist()
            (k11, k12), (k21, k22) = k_matrix(s, p).tolist()
            w = ray_core.ray_rhs(s, p)[2]
            out = ray_core.variation_rhs(s, p, w, q11, q12, q21, q22)
            assert out == (k11 * q11 + k12 * q21, k11 * q12 + k12 * q22,
                           k21 * q11 + k22 * q21, k21 * q12 + k22 * q22)
