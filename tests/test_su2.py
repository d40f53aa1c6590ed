"""Closed-form SU(2) kernel: examples, error paths, and algebraic properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tfim_dqpt import otoc, su2
from tfim_dqpt.errors import GaplessModeError, InvalidArgumentError

from conftest import expm_oracle

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
bloch = st.tuples(finite, finite, finite)


class TestEvolutionUnitary:
    def test_zero_vector_gives_identity(self):
        u = su2.evolution_unitary(np.zeros(3), 5.0)
        assert np.array_equal(u, np.eye(2))

    def test_full_period_is_minus_identity(self):
        u = su2.evolution_unitary([1.0, 0.0, 0.0], np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("call", [
        lambda t: su2.evolution_unitary([2.0, 0.5, 0.0], t),
        lambda t: otoc.echo_state([2.0, 0.5, 0.0], t, 1.0),
        lambda t: otoc.otoc_general(np.eye(2), np.eye(2), [2.0, 0.5, 0.0], t,
                                    [1.0, 0.0]),
    ], ids=["evolution_unitary", "echo_state", "otoc_general"])
    def test_time_past_the_phase_range_is_refused(self, call):
        # 1e308 is finite, but |d| t is not: the literal oracles return no NaN
        with pytest.raises(InvalidArgumentError,
                           match="t must keep every phase finite"):
            call(1e308)
        assert np.all(np.isfinite(call(1e300)))

    def test_quarter_period_y_axis(self):
        # |d| t = 0.66332 * 2.3680 is within 6e-5 of pi/2
        u = su2.evolution_unitary([0.0, 0.66332, 0.0], 2.3680)
        assert np.allclose(u, -1j * su2.SIGMA_Y, atol=1e-3)
        oracle = expm_oracle(su2.pauli_dot([0.0, 0.66332, 0.0]), 2.3680)
        assert np.max(np.abs(u - oracle)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            su2.evolution_unitary([np.inf, 0.0, 0.0], 1.0)
        with pytest.raises(InvalidArgumentError):
            su2.evolution_unitary([1.0, 0.0, 0.0], np.nan)

    @given(bloch, finite)
    def test_matches_eigendecomposition_oracle(self, d, t):
        u = su2.evolution_unitary(d, t)
        oracle = expm_oracle(su2.pauli_dot(d), t)
        assert np.max(np.abs(u - oracle)) < 1e-12

    @given(bloch, finite)
    def test_inverse_law(self, d, t):
        prod = su2.evolution_unitary(d, t) @ su2.evolution_unitary(d, -t)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12

    @given(bloch, finite, finite)
    def test_group_law(self, d, t1, t2):
        lhs = su2.evolution_unitary(d, t1 + t2)
        rhs = su2.evolution_unitary(d, t1) @ su2.evolution_unitary(d, t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(bloch, finite)
    def test_unitarity(self, d, t):
        assert su2.is_unitary(su2.evolution_unitary(d, t), tol=1e-12)

    @pytest.mark.parametrize("u", [np.ones((2, 3)), np.array([1.0, 0.0]),
                                   np.float64(1.0)],
                             ids=["rectangular", "vector", "scalar"])
    def test_a_non_square_array_is_not_unitary(self, u):
        assert su2.is_unitary(u) is False


class TestRotationX:
    def test_zero_angle(self):
        assert np.array_equal(su2.rotation_x(0.0), np.eye(2))

    def test_double_cover(self):
        assert np.allclose(su2.rotation_x(2 * np.pi), -np.eye(2), atol=1e-12)

    def test_half_turn(self):
        assert np.allclose(su2.rotation_x(np.pi), -1j * su2.SIGMA_X, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            su2.rotation_x(np.nan)

    @given(st.floats(-20.0, 20.0))
    def test_is_x_axis_evolution_at_half_angle(self, phi):
        lhs = su2.rotation_x(phi)
        rhs = su2.evolution_unitary([1.0, 0.0, 0.0], phi / 2.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestGroundState:
    def test_z_axis(self):
        assert np.allclose(su2.ground_state([0.0, 0.0, 1.0]), [0.0, 1.0], atol=1e-12)

    def test_minus_x_axis(self):
        psi = su2.ground_state([-1.0, 0.0, 0.0])
        assert np.allclose(psi, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)

    def test_residual_in_plane(self):
        d = np.array([0.6, 0.8, 0.0])
        psi = su2.ground_state(d)
        residual = su2.pauli_dot(d) @ psi + np.linalg.norm(d) * psi
        assert np.linalg.norm(residual) < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(GaplessModeError):
            su2.ground_state([0.0, 0.0, 0.0])

    def test_phase_convention_first_component_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = rng.normal(size=3)
            psi = su2.ground_state(d)
            lead = psi[np.flatnonzero(np.abs(psi) > 1e-14)[0]]
            assert abs(lead.imag) < 1e-14 and lead.real > 0

    @given(bloch)
    def test_residual_random(self, d):
        d = np.asarray(d)
        mag = np.linalg.norm(d)
        if mag < 1e-6:
            return
        psi = su2.ground_state(d)
        residual = su2.pauli_dot(d) @ psi + mag * psi
        assert np.linalg.norm(residual) < 1e-12 * max(1.0, mag)


class TestObservables:
    def test_fidelity_examples(self):
        up = np.array([1.0, 0.0], dtype=complex)
        down = np.array([0.0, 1.0], dtype=complex)
        assert su2.fidelity(su2.X_PLUS, su2.X_PLUS) == pytest.approx(1.0)
        assert su2.fidelity(up, down) == pytest.approx(0.0)
        assert su2.fidelity(su2.X_PLUS, up) == pytest.approx(0.5)

    def test_expect_sx_examples(self):
        up = np.array([1.0, 0.0], dtype=complex)
        y_plus = np.array([1.0, 1.0j]) / np.sqrt(2)
        assert su2.expect_sx(su2.X_PLUS) == pytest.approx(0.5)
        assert su2.expect_sx(up) == pytest.approx(0.0)
        assert su2.expect_sx(y_plus) == pytest.approx(0.0, abs=1e-15)
