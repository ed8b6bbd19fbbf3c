"""Tests for unitary utilities (random sampling, fidelities, factoring, synthesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates import standard
from repro.gates.parametric import rx, ry, rz, u3
from repro.gates.unitary import (
    allclose_up_to_global_phase,
    average_gate_fidelity,
    embed_unitary,
    fast_allclose,
    hilbert_schmidt_fidelity,
    is_hermitian,
    is_unitary,
    kron_n,
    nearest_kronecker_product,
    process_fidelity_from_hs,
    random_special_unitary,
    random_su4,
    random_unitary,
    remove_global_phase,
    u3_angles_from_unitary,
    unitary_distance,
    zyz_angles,
)

ANGLES = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)


class TestPredicates:
    def test_is_unitary_accepts_unitaries(self):
        assert is_unitary(standard.H)
        assert is_unitary(standard.CZ)
        assert is_unitary(np.eye(8))

    def test_is_unitary_rejects_non_unitaries(self):
        assert not is_unitary(np.array([[1, 0], [0, 2]]))
        assert not is_unitary(np.ones((2, 3)))
        assert not is_unitary(np.ones(4))

    def test_is_hermitian(self):
        assert is_hermitian(standard.X)
        assert is_hermitian(standard.Z)
        assert not is_hermitian(standard.S)


class TestFastAllclose:
    """``fast_allclose`` gives ``np.allclose``'s boolean on every input."""

    @staticmethod
    def assert_agrees(a, b, **tolerances):
        assert fast_allclose(a, b, **tolerances) == bool(np.allclose(a, b, **tolerances))

    def test_random_matrices_around_the_tolerance(self, rng):
        for _ in range(300):
            a = random_unitary(4, rng)
            scale = 10.0 ** rng.uniform(-11, -5)
            b = a + scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            for tolerances in ({}, {"atol": 1e-7}, {"atol": 1e-9, "rtol": 0.0}):
                self.assert_agrees(a, b, **tolerances)
                self.assert_agrees(b.real, a.real, **tolerances)

    @pytest.mark.parametrize("rtol", [0.0, 1e-5])
    def test_atol_boundary(self, rtol):
        atol = 2.0**-20
        zeros = np.zeros((2, 2))
        at_bound = zeros.copy()
        at_bound[1, 0] = atol
        beyond = zeros.copy()
        beyond[1, 0] = np.nextafter(atol, 1.0)
        assert fast_allclose(at_bound, zeros, rtol=rtol, atol=atol)
        assert not fast_allclose(beyond, zeros, rtol=rtol, atol=atol)
        for a in (at_bound, beyond, -beyond, 1j * beyond):
            self.assert_agrees(a, zeros, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("rtol", [0.0, 1e-5])
    def test_non_finite_inputs(self, rtol):
        specials = [np.nan, np.inf, -np.inf, 1.0, complex(np.inf, 0.0), complex(np.nan, 1.0)]
        for left in specials:
            for right in specials:
                a = np.eye(2, dtype=complex)
                b = np.eye(2, dtype=complex)
                a[0, 1] = left
                b[0, 1] = right
                self.assert_agrees(a, b, rtol=rtol)
                self.assert_agrees(a, np.eye(2), rtol=rtol)
                self.assert_agrees(np.eye(2), b, rtol=rtol)


class TestRandomSampling:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_unitary_is_unitary(self, dim, rng):
        assert is_unitary(random_unitary(dim, rng))

    def test_random_special_unitary_has_unit_determinant(self, rng):
        for dim in (2, 4):
            det = np.linalg.det(random_special_unitary(dim, rng))
            assert det == pytest.approx(1.0, abs=1e-9)

    def test_random_su4_shape_and_determinant(self, rng):
        matrix = random_su4(rng)
        assert matrix.shape == (4, 4)
        assert np.linalg.det(matrix) == pytest.approx(1.0, abs=1e-9)

    def test_seeded_sampling_is_deterministic(self):
        a = random_unitary(4, np.random.default_rng(5))
        b = random_unitary(4, np.random.default_rng(5))
        assert np.allclose(a, b)

    def test_haar_spectrum_is_roughly_uniform(self, rng):
        # Eigenvalue phases of Haar unitaries are uniform on the circle;
        # a crude check that the mean phase is near zero over many samples.
        phases = []
        for _ in range(50):
            eigenvalues = np.linalg.eigvals(random_unitary(4, rng))
            phases.extend(np.angle(eigenvalues))
        assert abs(np.mean(phases)) < 0.3


class TestFidelities:
    def test_hs_fidelity_of_identical_unitaries_is_one(self, rng):
        matrix = random_unitary(4, rng)
        assert hilbert_schmidt_fidelity(matrix, matrix) == pytest.approx(1.0)

    def test_hs_fidelity_ignores_global_phase(self, rng):
        matrix = random_unitary(4, rng)
        assert hilbert_schmidt_fidelity(matrix, np.exp(1j * 0.7) * matrix) == pytest.approx(1.0)

    def test_hs_fidelity_of_orthogonal_gates(self):
        assert hilbert_schmidt_fidelity(np.eye(2), standard.X) == pytest.approx(0.0)

    def test_average_gate_fidelity_bounds(self, rng):
        a = random_unitary(4, rng)
        b = random_unitary(4, rng)
        value = average_gate_fidelity(a, b)
        assert 0.0 <= value <= 1.0
        assert average_gate_fidelity(a, a) == pytest.approx(1.0)

    def test_process_fidelity_is_square_of_hs(self):
        assert process_fidelity_from_hs(0.9) == pytest.approx(0.81)

    def test_unitary_distance_complements_fidelity(self, rng):
        matrix = random_unitary(4, rng)
        assert unitary_distance(matrix, matrix) == pytest.approx(0.0, abs=1e-9)


class TestGlobalPhase:
    def test_remove_global_phase_largest_entry_real(self, rng):
        matrix = random_unitary(4, rng) * np.exp(1j * 1.3)
        cleaned = remove_global_phase(matrix)
        index = np.unravel_index(np.argmax(np.abs(cleaned)), cleaned.shape)
        assert cleaned[index].imag == pytest.approx(0.0, abs=1e-9)

    def test_allclose_up_to_global_phase(self, rng):
        matrix = random_unitary(4, rng)
        assert allclose_up_to_global_phase(matrix, np.exp(0.42j) * matrix)
        assert not allclose_up_to_global_phase(matrix, random_unitary(4, rng))

    def test_allclose_shape_mismatch(self):
        assert not allclose_up_to_global_phase(np.eye(2), np.eye(4))


class TestKronAndEmbedding:
    def test_kron_n_matches_numpy(self):
        assert np.allclose(kron_n(standard.X, standard.Z), np.kron(standard.X, standard.Z))
        assert np.allclose(kron_n(standard.H), standard.H)

    def test_embed_single_qubit_gate(self):
        full = embed_unitary(standard.X, [1], 2)
        assert np.allclose(full, np.kron(np.eye(2), standard.X))
        full0 = embed_unitary(standard.X, [0], 2)
        assert np.allclose(full0, np.kron(standard.X, np.eye(2)))

    def test_embed_two_qubit_gate_identity_placement(self):
        assert np.allclose(embed_unitary(standard.CNOT, [0, 1], 2), standard.CNOT)

    def test_embed_reversed_qubits_swaps_control(self):
        reversed_cnot = embed_unitary(standard.CNOT, [1, 0], 2)
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.allclose(reversed_cnot, expected)

    def test_embed_in_three_qubits_is_unitary(self, rng):
        gate = random_su4(rng)
        full = embed_unitary(gate, [2, 0], 3)
        assert is_unitary(full)

    def test_embed_validation_errors(self):
        with pytest.raises(ValueError):
            embed_unitary(standard.CNOT, [0], 2)
        with pytest.raises(ValueError):
            embed_unitary(standard.CNOT, [0, 0], 2)
        with pytest.raises(ValueError):
            embed_unitary(standard.CNOT, [0, 5], 2)


class TestFactoringAndSynthesis:
    def test_nearest_kronecker_product_exact_tensor(self, rng):
        a = random_unitary(2, rng)
        b = random_unitary(2, rng)
        fa, fb, residual = nearest_kronecker_product(np.kron(a, b))
        assert residual == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(np.kron(fa, fb), np.kron(a, b))

    def test_nearest_kronecker_product_entangling_gate_has_residual(self):
        _, _, residual = nearest_kronecker_product(standard.CNOT)
        assert residual > 0.5

    @given(a=ANGLES, b=ANGLES, c=ANGLES)
    @settings(max_examples=30, deadline=None)
    def test_zyz_reconstruction(self, a, b, c):
        matrix = rz(a) @ ry(b) @ rz(c)
        alpha, theta, beta, phase = zyz_angles(matrix)
        rebuilt = np.exp(1j * phase) * rz(alpha) @ ry(theta) @ rz(beta)
        assert np.allclose(rebuilt, matrix, atol=1e-8)

    @given(a=ANGLES, b=ANGLES, c=ANGLES)
    @settings(max_examples=30, deadline=None)
    def test_u3_angles_roundtrip(self, a, b, c):
        target = rz(a) @ ry(b) @ rx(c)
        alpha, beta, lam = u3_angles_from_unitary(target)
        assert allclose_up_to_global_phase(u3(alpha, beta, lam), target, atol=1e-6)

    def test_u3_angles_of_identity(self):
        alpha, beta, lam = u3_angles_from_unitary(np.eye(2))
        assert allclose_up_to_global_phase(u3(alpha, beta, lam), np.eye(2))
