"""Tests for the QuantumCircuit IR."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.circuits.circuit import Operation, QuantumCircuit
from repro.circuits.hashing import circuit_fingerprint
from repro.circuits.gate import named_gate, rzz_gate, unitary_gate
from repro.gates import standard
from repro.gates.unitary import allclose_up_to_global_phase, random_su4
from repro.simulators.statevector import simulate_statevector


class TestOperation:
    def test_operation_qubit_count_must_match_gate(self):
        with pytest.raises(ValueError):
            Operation(named_gate("cz"), (0,))

    def test_operation_qubits_must_be_distinct(self):
        with pytest.raises(ValueError):
            Operation(named_gate("cz"), (1, 1))

    def test_operation_qubits_must_be_non_negative(self):
        with pytest.raises(ValueError):
            Operation(named_gate("x"), (-1,))

    def test_is_two_qubit(self):
        assert Operation(named_gate("cz"), (0, 1)).is_two_qubit
        assert not Operation(named_gate("h"), (0,)).is_two_qubit


class TestCircuitConstruction:
    def test_requires_positive_qubits(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_append_and_builder_methods(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cz(1, 2).rz(0.3, 2).swap(0, 2)
        circuit.fsim(0.1, 0.2, 0, 1).xy(0.5, 1, 2).rzz(0.3, 0, 2).cphase(0.2, 0, 1)
        circuit.u3(0.1, 0.2, 0.3, 0).rx(0.4, 1).ry(0.5, 2).x(0)
        assert len(circuit) == 13

    def test_append_rejects_out_of_range_qubits(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.cz(0, 5)

    def test_extend_and_append_operation(self):
        source = QuantumCircuit(2).h(0).cz(0, 1)
        circuit = QuantumCircuit(2)
        circuit.extend(source.operations)
        assert len(circuit) == 2


class TestCircuitInspection:
    def test_count_ops_and_two_qubit_counts(self):
        circuit = QuantumCircuit(3).h(0).cz(0, 1).cz(1, 2).rz(0.1, 0)
        assert circuit.count_ops() == {"h": 1, "cz": 2, "rz": 1}
        assert circuit.num_two_qubit_gates() == 2
        assert circuit.num_single_qubit_gates() == 2
        assert len(circuit.two_qubit_operations()) == 2

    def test_depth(self):
        circuit = QuantumCircuit(3).h(0).h(1).cz(0, 1).cz(1, 2)
        assert circuit.depth() == 3
        assert circuit.two_qubit_depth() == 2
        assert QuantumCircuit(2).depth() == 0

    def test_active_qubits(self):
        circuit = QuantumCircuit(5).cz(1, 3)
        assert circuit.active_qubits() == [1, 3]


class TestCircuitTransformations:
    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2).h(0)
        clone = circuit.copy()
        clone.cz(0, 1)
        assert len(circuit) == 1
        assert len(clone) == 2

    def test_inverse_cancels_circuit(self, rng):
        circuit = QuantumCircuit(2)
        circuit.unitary(random_su4(rng), [0, 1])
        circuit.h(0).rz(0.7, 1)
        combined = circuit.compose(circuit.inverse())
        assert allclose_up_to_global_phase(combined.to_unitary(), np.eye(4))

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(2).cz(0, 1)
        outer = QuantumCircuit(3)
        combined = outer.compose(inner, qubits=[2, 0])
        assert combined.operations[0].qubits == (2, 0)

    def test_compose_validates_mapping(self):
        inner = QuantumCircuit(2).cz(0, 1)
        with pytest.raises(ValueError):
            QuantumCircuit(3).compose(inner, qubits=[0])
        with pytest.raises(ValueError):
            QuantumCircuit(3).compose(inner, qubits=[0, 9])

    def test_remap_qubits(self):
        circuit = QuantumCircuit(2).cz(0, 1)
        remapped = circuit.remap_qubits({0: 3, 1: 1}, num_qubits=4)
        assert remapped.operations[0].qubits == (3, 1)
        assert remapped.num_qubits == 4

    def test_map_operations_substitution(self):
        circuit = QuantumCircuit(2).rzz(0.3, 0, 1).h(0)

        def expand(operation):
            if operation.gate.name == "rzz":
                yield Operation(named_gate("cz"), operation.qubits)
                yield Operation(named_gate("cz"), operation.qubits)
            else:
                yield operation

        expanded = circuit.map_operations(expand)
        assert expanded.count_ops() == {"cz": 2, "h": 1}


class TestCircuitUnitary:
    def test_bell_circuit_unitary_matches_statevector(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        unitary = circuit.to_unitary()
        state = simulate_statevector(circuit)
        assert np.allclose(unitary[:, 0], state)

    def test_unitary_of_rzz_is_diagonal(self):
        circuit = QuantumCircuit(2)
        circuit.append(rzz_gate(0.4), [0, 1])
        unitary = circuit.to_unitary()
        assert np.allclose(unitary, np.diag(np.diagonal(unitary)))

    def test_to_unitary_guards_large_circuits(self):
        with pytest.raises(ValueError):
            QuantumCircuit(11).to_unitary()

    def test_gate_order_matters(self):
        ab = QuantumCircuit(1).x(0).rz(0.5, 0).to_unitary()
        ba = QuantumCircuit(1).rz(0.5, 0).x(0).to_unitary()
        assert not np.allclose(ab, ba)


class TestCircuitRendering:
    def test_to_text_lists_operations(self):
        circuit = QuantumCircuit(2, name="demo").h(0).fsim(0.1, 0.2, 0, 1)
        text = circuit.to_text()
        assert "demo" in text
        assert "fsim" in text
        assert "[0, 1]" in text


# The benchmark's instruction-set study: the paper's four applications at
# their design sizes, one circuit each, and three sets per vendor.
DESIGN_APPS = (("qv", 3), ("qaoa", 4), ("fh", 4), ("qft", 3))
DESIGN_SETS = (("google", ("S1", "G3", "FullfSim")), ("rigetti", ("S3", "R2", "FullXY")))


def _rebuilt(circuit):
    """An identical circuit built from scratch, so it holds no digest memo."""
    return QuantumCircuit(circuit.num_qubits, name=circuit.name).extend(circuit.operations)


def _scratch_digest(circuit):
    return circuit_fingerprint(_rebuilt(circuit))


@pytest.fixture(scope="module")
def design_circuits(shared_decomposer):
    """Every design-suite circuit and every circuit it compiles to."""
    from repro.applications.registry import build_suite
    from repro.core.instruction_sets import google_catalogue, rigetti_catalogue
    from repro.core.pipeline import compile_circuit
    from repro.devices.synthetic import synthetic_device

    catalogues = {"google": google_catalogue(), "rigetti": rigetti_catalogue()}
    circuits = []
    for application, qubits in DESIGN_APPS:
        (circuit,) = build_suite(application, qubits, 1, 2021)
        circuits.append(circuit)
        for vendor, names in DESIGN_SETS:
            device = synthetic_device(qubits, "line", seed=7)
            for name in names:
                compiled = compile_circuit(
                    circuit, device, catalogues[vendor][name], decomposer=shared_decomposer
                )
                circuits.append(compiled.circuit)
    return circuits


class TestCircuitDigestMemo:
    def test_memoised_digest_matches_scratch_digest_on_design_suite(self, design_circuits):
        assert len(design_circuits) == 4 * (1 + 6)
        for circuit in design_circuits:
            first = circuit_fingerprint(circuit)
            assert circuit._digest_memo is not None
            assert circuit_fingerprint(circuit) == first  # served from the memo
            assert first == _scratch_digest(circuit)

    def test_append_after_fingerprint_changes_digest(self):
        circuit = QuantumCircuit(2).h(0).cz(0, 1)
        before = circuit_fingerprint(circuit)
        circuit.rz(0.3, 1)
        after = circuit_fingerprint(circuit)
        assert after != before
        assert after == _scratch_digest(circuit)

    def test_copy_carries_memo_and_diverges_on_append(self):
        circuit = QuantumCircuit(2).h(0).cz(0, 1)
        original = circuit_fingerprint(circuit)
        clone = circuit.copy()
        assert clone._digest_memo == circuit._digest_memo
        clone.x(1)
        assert circuit_fingerprint(clone) != original
        assert circuit_fingerprint(clone) == _scratch_digest(clone)
        assert circuit_fingerprint(circuit) == original
        assert len(circuit) == 2

    def test_pickle_bytes_unchanged_by_fingerprinting(self, design_circuits):
        for circuit in design_circuits + [QuantumCircuit(2).h(0)]:
            clean = pickle.dumps(_rebuilt(circuit))
            circuit_fingerprint(circuit)
            assert pickle.dumps(circuit) == clean
            restored = pickle.loads(clean)
            assert restored._digest_memo is None
            assert circuit_fingerprint(restored) == circuit_fingerprint(circuit)

    def test_concurrent_append_never_returns_stale_digest(self):
        operations = [
            Operation(named_gate("cz") if k % 3 == 0 else rzz_gate(0.01 * k), (k % 3, (k + 1) % 3))
            for k in range(300)
        ]
        prefix_digests = [
            circuit_fingerprint(QuantumCircuit(3).extend(operations[:length]))
            for length in range(len(operations) + 1)
        ]
        circuit = QuantumCircuit(3)
        done = threading.Event()
        bad = []

        def appender():
            for operation in operations:
                circuit.append_operation(operation)
            done.set()

        def hasher():
            while not done.is_set():
                low = len(circuit)
                digest = circuit_fingerprint(circuit)
                high = len(circuit)
                if digest not in prefix_digests[low:high + 1]:
                    bad.append((low, high))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hasher), threading.Thread(target=appender)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not bad
        assert circuit_fingerprint(circuit) == prefix_digests[-1]
