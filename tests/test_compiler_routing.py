"""Tests for SWAP-insertion routing and the one-qubit optimisation passes."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.layout import Layout, choose_layout
from repro.compiler.onequbit import (
    count_single_qubit_layers,
    merge_single_qubit_gates,
    strip_identities,
)
from repro.compiler.routing import route_circuit
from repro.compiler.scheduling import asap_schedule
from repro.devices.device import Device, GateErrorDistribution
from repro.devices.sycamore import sycamore_device
from repro.devices.topology import line_topology
from repro.gates.unitary import allclose_up_to_global_phase, random_su4
from repro.simulators.noise_model import NoiseModel
from repro.simulators.statevector import simulate_statevector
from repro.metrics.distributions import permute_distribution
from repro.simulators.statevector import probabilities


def line_device(num_qubits: int = 4) -> Device:
    device = Device(
        name="line",
        topology=line_topology(num_qubits),
        noise_model=NoiseModel(),
        two_qubit_error_distribution=GateErrorDistribution(kind="fixed", mean=0.01),
        seed=0,
    )
    device.register_gate_type("cz")
    return device


def identity_layout(num_qubits: int) -> Layout:
    return Layout(
        physical_qubits=tuple(range(num_qubits)),
        program_to_slot={q: q for q in range(num_qubits)},
    )


class TestRouting:
    def test_adjacent_operations_pass_through(self):
        device = line_device(3)
        circuit = QuantumCircuit(3).cz(0, 1).cz(1, 2)
        routed = route_circuit(circuit, device, identity_layout(3))
        assert routed.num_swaps == 0
        assert len(routed.circuit) == 2

    def test_distant_operation_requires_swaps(self):
        device = line_device(4)
        circuit = QuantumCircuit(4).cz(0, 3)
        routed = route_circuit(circuit, device, identity_layout(4))
        assert routed.num_swaps >= 2
        # Every emitted two-qubit operation must act on adjacent physical qubits.
        for operation in routed.circuit.two_qubit_operations():
            a, b = operation.qubits
            assert device.topology.are_connected(
                routed.physical_qubits[a], routed.physical_qubits[b]
            )

    def test_final_mapping_tracks_swaps(self):
        device = line_device(3)
        circuit = QuantumCircuit(3).cz(0, 2)
        routed = route_circuit(circuit, device, identity_layout(3))
        assert routed.num_swaps >= 1
        assert sorted(routed.final_mapping.keys()) == [0, 1, 2]
        assert sorted(routed.final_mapping.values()) == [0, 1, 2]

    def test_routed_circuit_equivalent_to_original_after_permutation(self, rng):
        """Routing preserves semantics once the final qubit permutation is undone."""
        device = line_device(4)
        circuit = QuantumCircuit(4)
        circuit.h(0)
        circuit.unitary(random_su4(rng), [0, 3], name="su4")
        circuit.cz(1, 2)
        routed = route_circuit(circuit, device, identity_layout(4))
        original_probs = probabilities(simulate_statevector(circuit))
        routed_probs = probabilities(simulate_statevector(routed.circuit))
        order = [routed.final_mapping[q] for q in range(4)]
        assert np.allclose(permute_distribution(routed_probs, order), original_probs, atol=1e-9)

    def test_slot_permutation_helper(self):
        device = line_device(3)
        circuit = QuantumCircuit(3).cz(0, 2)
        routed = route_circuit(circuit, device, identity_layout(3))
        permutation = routed.slot_permutation()
        assert sorted(permutation) == [0, 1, 2]

    def test_choose_layout_and_route_on_sycamore(self):
        device = sycamore_device()
        device.register_gate_type("syc")
        circuit = QuantumCircuit(5).cz(0, 4).cz(1, 3).cz(0, 2)
        routed = route_circuit(circuit, device, choose_layout(circuit, device, ["syc"]))
        for operation in routed.circuit.two_qubit_operations():
            if operation.gate.name == "swap":
                continue
            a, b = operation.qubits
            assert device.topology.are_connected(
                routed.physical_qubits[a], routed.physical_qubits[b]
            )


class TestSingleQubitOptimisation:
    def test_merge_reduces_gate_count_and_preserves_unitary(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.3, 0).rx(0.2, 0).ry(0.7, 0).cz(0, 1).rz(0.1, 1).rz(0.2, 1)
        merged = merge_single_qubit_gates(circuit)
        assert count_single_qubit_layers(merged) <= 2
        assert allclose_up_to_global_phase(merged.to_unitary(), circuit.to_unitary(), atol=1e-6)

    def test_merge_drops_identity_products(self):
        circuit = QuantumCircuit(1).rz(0.4, 0).rz(-0.4, 0)
        merged = merge_single_qubit_gates(circuit)
        assert len(merged) == 0

    def test_merge_keeps_two_qubit_gates_in_order(self):
        circuit = QuantumCircuit(2).cz(0, 1).rz(0.1, 0).cz(0, 1)
        merged = merge_single_qubit_gates(circuit)
        names = [op.gate.name for op in merged]
        assert names.count("cz") == 2

    def test_strip_identities(self):
        circuit = QuantumCircuit(2).rz(0.0, 0).cz(0, 1)
        stripped = strip_identities(circuit)
        assert [op.gate.name for op in stripped] == ["cz"]


class TestScheduling:
    def test_schedule_times_and_duration(self):
        model = NoiseModel(single_qubit_duration=10.0, two_qubit_duration=100.0)
        circuit = QuantumCircuit(2).h(0).h(1).cz(0, 1).h(0)
        schedule = asap_schedule(circuit, model)
        assert schedule.total_duration == pytest.approx(10 + 100 + 10)
        assert schedule.operations[2].start == pytest.approx(10.0)
        assert schedule.qubit_busy_time(0) == pytest.approx(120.0)
        assert schedule.qubit_idle_time(1) == pytest.approx(10.0)
