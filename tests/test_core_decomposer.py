"""Tests for the NuOp decomposer (exact, approximate, continuous and cached modes)."""

import numpy as np
import pytest

from repro.circuits.gate import named_gate
from repro.core import decomposer as decomposer_module
from repro.core.decomposer import (
    EXACT_FIDELITY_THRESHOLD,
    NuOpDecomposer,
    decompose_local_unitary,
    profile_cache_stats,
)
from repro.core.gate_types import google_gate_type
from repro.gates.kak import min_cz_count
from repro.gates.parametric import cphase, rzz
from repro.gates.standard import CZ, SWAP
from repro.gates.unitary import (
    allclose_up_to_global_phase,
    hilbert_schmidt_fidelity,
    random_su4,
    random_unitary,
)


CZ_GATE = google_gate_type("S3").gate
SYC_GATE = google_gate_type("S1").gate
ISWAP_GATE = google_gate_type("S4").gate
SWAP_GATE = google_gate_type("SWAP").gate


class TestExactDecomposition:
    def test_generic_su4_needs_three_cz_layers(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        decomposition = shared_decomposer.decompose_exact(target, gate=CZ_GATE)
        assert decomposition.num_layers == 3
        assert decomposition.decomposition_fidelity >= EXACT_FIDELITY_THRESHOLD
        assert decomposition.verify() >= EXACT_FIDELITY_THRESHOLD

    def test_generic_su4_with_syc(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        decomposition = shared_decomposer.decompose_exact(target, gate=SYC_GATE)
        assert decomposition.num_layers == 3
        assert decomposition.verify() >= EXACT_FIDELITY_THRESHOLD

    def test_qaoa_unitary_needs_two_cz_layers(self, shared_decomposer):
        decomposition = shared_decomposer.decompose_exact(rzz(0.4), gate=CZ_GATE)
        assert decomposition.num_layers == 2
        assert decomposition.verify() >= EXACT_FIDELITY_THRESHOLD

    def test_swap_needs_three_iswaps_and_one_native_swap(self, shared_decomposer):
        assert shared_decomposer.decompose_exact(SWAP, gate=ISWAP_GATE).num_layers == 3
        assert shared_decomposer.decompose_exact(SWAP, gate=SWAP_GATE).num_layers == 1

    def test_cz_class_target_needs_single_layer(self, shared_decomposer):
        decomposition = shared_decomposer.decompose_exact(CZ, gate=CZ_GATE)
        assert decomposition.num_layers == 1

    def test_local_target_needs_zero_layers(self, shared_decomposer, session_rng):
        local = np.kron(random_unitary(2, session_rng), random_unitary(2, session_rng))
        decomposition = shared_decomposer.decompose_exact(local, gate=CZ_GATE)
        assert decomposition.num_layers == 0
        assert decomposition.verify() >= EXACT_FIDELITY_THRESHOLD

    def test_exact_counts_match_analytic_cz_theory(self, shared_decomposer, session_rng):
        for target in (cphase(np.pi / 2), rzz(1.0), random_su4(session_rng)):
            expected = min_cz_count(target)
            decomposition = shared_decomposer.decompose_exact(target, gate=CZ_GATE)
            assert decomposition.num_layers == expected

    def test_operations_and_circuit_expansion(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        decomposition = shared_decomposer.decompose_exact(target, gate=CZ_GATE)
        operations = decomposition.operations((5, 2))
        assert all(set(op.qubits) <= {5, 2} for op in operations)
        two_qubit_ops = [op for op in operations if op.is_two_qubit]
        assert len(two_qubit_ops) == decomposition.num_layers
        circuit = decomposition.to_circuit()
        assert allclose_up_to_global_phase(circuit.to_unitary(), target, atol=1e-5)

    def test_requires_exactly_one_of_gate_or_family(self, shared_decomposer):
        with pytest.raises(ValueError):
            shared_decomposer.fidelity_profile(CZ)
        with pytest.raises(ValueError):
            shared_decomposer.fidelity_profile(CZ, gate=CZ_GATE, family="fsim")


class TestApproximateDecomposition:
    def test_low_hardware_fidelity_prefers_fewer_layers(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        exact = shared_decomposer.decompose_exact(target, gate=CZ_GATE)
        approximate = shared_decomposer.decompose_approximate(
            target, gate=CZ_GATE, gate_fidelity=0.95
        )
        assert approximate.num_layers <= exact.num_layers
        assert approximate.overall_fidelity >= exact.decomposition_fidelity * 0.95**exact.num_layers - 1e-9

    def test_perfect_hardware_recovers_exact_solution(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        approximate = shared_decomposer.decompose_approximate(
            target, gate=CZ_GATE, gate_fidelity=1.0
        )
        assert approximate.decomposition_fidelity >= EXACT_FIDELITY_THRESHOLD

    def test_hardware_fidelity_recorded(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        decomposition = shared_decomposer.decompose_approximate(
            target, gate=CZ_GATE, gate_fidelity=0.98
        )
        assert decomposition.hardware_fidelity == pytest.approx(
            0.98**decomposition.num_layers
        )
        assert decomposition.overall_fidelity == pytest.approx(
            decomposition.decomposition_fidelity * decomposition.hardware_fidelity
        )

    def test_threshold_variant_matches_approximate(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        a = shared_decomposer.decompose_for_threshold(target, gate=CZ_GATE, hardware_fidelity_target=0.95)
        b = shared_decomposer.decompose_approximate(target, gate=CZ_GATE, gate_fidelity=0.95)
        assert a.num_layers == b.num_layers


class TestContinuousFamilies:
    def test_full_fsim_uses_two_layers_for_su4(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        decomposition = shared_decomposer.decompose_exact(target, family="fsim")
        assert decomposition.num_layers <= 2
        assert decomposition.verify() >= 0.999

    def test_full_fsim_handles_swap_with_one_layer(self, shared_decomposer):
        decomposition = shared_decomposer.decompose_exact(SWAP, family="fsim")
        assert decomposition.num_layers == 1

    def test_full_xy_expresses_zz_with_two_layers(self, shared_decomposer):
        decomposition = shared_decomposer.decompose_exact(rzz(0.8), family="xy")
        assert decomposition.num_layers <= 2
        assert decomposition.verify() >= 0.999

    def test_continuous_gates_carry_optimised_angles(self, shared_decomposer, session_rng):
        target = random_su4(session_rng)
        decomposition = shared_decomposer.decompose_exact(target, family="fsim")
        for gate in decomposition.hardware_gates:
            assert gate.name == "fsim"
            assert len(gate.params) == 2


class TestCachingAndBookkeeping:
    def test_profile_cache_hits(self, session_rng):
        decomposer = NuOpDecomposer(seed=3)
        target = random_su4(session_rng)
        first = decomposer.fidelity_profile(target, gate=CZ_GATE)
        second = decomposer.fidelity_profile(target, gate=CZ_GATE)
        assert first is second
        decomposer.clear_cache()
        third = decomposer.fidelity_profile(target, gate=CZ_GATE)
        assert third is not first

    def test_target_key_canonicalises_sign_flip(self, rng):
        """A global sign (the most common KAK reconstruction ambiguity)
        maps to the same key: IEEE negation is exact, so the pivot
        rotation cancels it bit for bit.  Other phases canonicalise only
        approximately -- a miss there costs a recompute, never
        correctness."""
        decomposer = NuOpDecomposer()
        target = random_su4(rng)
        key = decomposer._target_cache_key(target)
        assert decomposer._target_cache_key(-target) == key

    def test_target_key_has_no_rounding_aliasing(self, rng):
        """Sub-1e-10 perturbations used to collide under decimal rounding."""
        decomposer = NuOpDecomposer()
        target = random_su4(rng)
        perturbed = target.copy()
        perturbed[1, 2] += 1e-11
        assert decomposer._target_cache_key(target) != decomposer._target_cache_key(
            perturbed
        )

    def test_profile_lru_bound(self, rng, monkeypatch):
        monkeypatch.setattr(decomposer_module._PROFILE_CACHE, "max_entries", 4)
        decomposer = NuOpDecomposer(seed=7, max_layers=0)
        for _ in range(6):
            decomposer.fidelity_profile(random_su4(rng), gate=CZ_GATE)
        stats = profile_cache_stats()
        assert stats["entries"] <= 4

    def test_label_propagates(self, shared_decomposer):
        decomposition = shared_decomposer.decompose_exact(rzz(0.4), gate=CZ_GATE, label="S3")
        assert decomposition.gate_type_label == "S3"

    def test_decompose_local_unitary_fast_path(self, session_rng):
        a = random_unitary(2, session_rng)
        b = random_unitary(2, session_rng)
        factors = decompose_local_unitary(np.kron(a, b))
        assert factors is not None
        fa, fb = factors
        assert hilbert_schmidt_fidelity(np.kron(fa, fb), np.kron(a, b)) > 0.999999
        assert decompose_local_unitary(CZ) is None
