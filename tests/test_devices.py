"""Tests for the generic Device model and the Aspen-8 / Sycamore instances."""

from typing import Optional

import numpy as np
import pytest

from repro.devices.aspen8 import (
    CZ_KEY,
    FIRST_RING_CZ_FIDELITY,
    FIRST_RING_XY_FIDELITY,
    XY_PI_KEY,
    aspen8_device,
)
from repro.devices.device import Device, GateErrorDistribution
from repro.devices.sycamore import sycamore_device
from repro.devices.topology import line_topology
from repro.simulators.noise_model import NoiseModel


class TestGateErrorDistribution:
    def test_fixed_distribution(self):
        dist = GateErrorDistribution(kind="fixed", mean=0.01)
        rng = np.random.default_rng(0)
        assert dist.sample(rng) == 0.01
        assert dist.expected() == 0.01

    def test_normal_distribution_clipping(self):
        dist = GateErrorDistribution(kind="normal", mean=0.005, std=0.1, minimum=0.001, maximum=0.02)
        rng = np.random.default_rng(0)
        samples = [dist.sample(rng) for _ in range(50)]
        assert all(0.001 <= s <= 0.02 for s in samples)
        assert dist.expected() == 0.005

    def test_uniform_distribution_range(self):
        dist = GateErrorDistribution(kind="uniform", minimum=0.01, maximum=0.05)
        rng = np.random.default_rng(0)
        samples = [dist.sample(rng) for _ in range(50)]
        assert all(0.01 <= s <= 0.05 for s in samples)
        assert dist.expected() == pytest.approx(0.03)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GateErrorDistribution(kind="exotic").sample(np.random.default_rng(0))
        with pytest.raises(ValueError):
            GateErrorDistribution(kind="exotic").expected()


class TestDevice:
    def build_device(
        self, noise_variation: bool = True, noise_model: Optional[NoiseModel] = None
    ) -> Device:
        return Device(
            name="toy",
            topology=line_topology(4),
            noise_model=noise_model if noise_model is not None else NoiseModel(),
            two_qubit_error_distribution=GateErrorDistribution(
                kind="normal", mean=0.01, std=0.002, minimum=0.001, maximum=0.05
            ),
            noise_variation=noise_variation,
            seed=3,
        )

    def test_register_gate_type_covers_all_edges(self):
        device = self.build_device()
        device.register_gate_type("cz")
        assert "cz" in device.registered_gate_types
        for edge in device.topology.edges:
            assert 0.9 < device.gate_fidelity("cz", edge) < 1.0

    def test_register_with_measured_values(self):
        device = self.build_device()
        device.register_gate_type("cz", error_rates={(0, 1): 0.2})
        assert device.gate_fidelity("cz", (0, 1)) == pytest.approx(0.8)
        assert device.gate_fidelity("cz", (1, 0)) == pytest.approx(0.8)

    def test_no_noise_variation_uses_mean(self):
        device = self.build_device(noise_variation=False)
        device.register_gate_type("cz")
        fidelities = set(round(f, 9) for f in device.edge_fidelities("cz").values())
        assert fidelities == {round(1 - 0.01, 9)}

    def test_noise_variation_differs_across_edges(self):
        device = self.build_device(noise_variation=True)
        device.register_gate_type("cz")
        fidelities = list(device.edge_fidelities("cz").values())
        assert len(set(round(f, 9) for f in fidelities)) > 1

    def test_error_scale(self):
        device = self.build_device(noise_variation=False)
        device.register_gate_type("scaled", scale=2.0)
        assert device.gate_fidelity("scaled", (0, 1)) == pytest.approx(1 - 0.02)

    def test_ensure_gate_types_idempotent(self):
        device = self.build_device()
        device.ensure_gate_types(["a", "b"])
        before = device.edge_fidelities("a")
        device.ensure_gate_types(["a"])
        assert device.edge_fidelities("a") == before

    def test_average_two_qubit_error(self):
        device = self.build_device(noise_variation=False)
        assert device.average_two_qubit_error() == pytest.approx(0.01)
        device.register_gate_type("cz")
        assert device.average_two_qubit_error(["cz"]) == pytest.approx(0.01)

    def test_readout_errors_for(self):
        device = self.build_device(noise_model=NoiseModel(readout_error={2: 0.07}))
        assert device.readout_errors_for([2, 3]) == [0.07, device.noise_model.default_readout_error]


class TestAspen8:
    def test_size_and_registered_types(self):
        device = aspen8_device()
        assert device.topology.num_qubits == 30
        assert CZ_KEY in device.registered_gate_types
        assert XY_PI_KEY in device.registered_gate_types

    def test_first_ring_measured_fidelities(self):
        device = aspen8_device()
        for edge, fidelity in FIRST_RING_CZ_FIDELITY.items():
            assert device.gate_fidelity(CZ_KEY, edge) == pytest.approx(fidelity)
        for edge, fidelity in FIRST_RING_XY_FIDELITY.items():
            assert device.gate_fidelity(XY_PI_KEY, edge) == pytest.approx(fidelity)

    def test_best_gate_varies_across_pairs(self):
        """Figure 3: the better of CZ / XY(pi) differs from edge to edge."""
        device = aspen8_device()
        winners = set()
        for edge in FIRST_RING_CZ_FIDELITY:
            cz = device.gate_fidelity(CZ_KEY, edge)
            xy = device.gate_fidelity(XY_PI_KEY, edge)
            winners.add("cz" if cz >= xy else "xy")
        assert winners == {"cz", "xy"}

    def test_arbitrary_xy_gates_in_95_99_range(self):
        device = aspen8_device()
        device.register_gate_type("xy(1.000000)")
        for fidelity in device.edge_fidelities("xy(1.000000)").values():
            assert 0.95 <= fidelity <= 0.99

    def test_no_variation_mode(self):
        device = aspen8_device(noise_variation=False)
        fidelities = set(round(f, 9) for f in device.edge_fidelities(CZ_KEY).values())
        assert len(fidelities) == 1


class TestSycamore:
    def test_size_and_grid(self):
        device = sycamore_device()
        assert device.topology.num_qubits == 54
        assert len(device.topology.edges) == 93

    def test_error_distribution_parameters(self):
        device = sycamore_device()
        device.register_gate_type("syc")
        rates = [1 - f for f in device.edge_fidelities("syc").values()]
        assert 0.002 < np.mean(rates) < 0.012
        assert np.std(rates) > 0.0

    def test_custom_mean_error_rate(self):
        device = sycamore_device(mean_two_qubit_error=0.02, std_two_qubit_error=0.0)
        device.register_gate_type("syc")
        rates = [1 - f for f in device.edge_fidelities("syc").values()]
        assert np.allclose(rates, 0.02)

    def test_coherence_and_readout_populated(self):
        device = sycamore_device()
        assert device.noise_model.qubit_t1(10) == pytest.approx(15_000.0)
        assert device.noise_model.qubit_readout_error(10) == pytest.approx(0.031)
