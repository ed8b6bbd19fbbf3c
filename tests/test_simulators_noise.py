"""Tests for the Kraus channels and the calibration-driven noise model."""

import itertools

import numpy as np
import pytest

from repro.circuits.circuit import Operation
from repro.circuits.gate import fsim_gate, named_gate, rz_gate
from repro.simulators.noise import (
    KrausChannel,
    amplitude_damping_channel,
    average_channel_fidelity,
    bit_flip_channel,
    compose_channels,
    depolarizing_channel,
    depolarizing_probability_from_error_rate,
    expand_channel,
    pauli_string_matrix,
    phase_damping_channel,
    thermal_relaxation_channel,
)
from repro.simulators.noise_model import CHANNEL_MEMOS, NoiseModel, relaxation_channel


class TestKrausChannels:
    def test_channel_requires_trace_preservation(self):
        with pytest.raises(ValueError):
            KrausChannel("bad", (np.array([[0.5, 0], [0, 0.5]]),))

    def test_channel_requires_operators(self):
        with pytest.raises(ValueError):
            KrausChannel("empty", ())

    @pytest.mark.parametrize("probability", [0.0, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_depolarizing_is_trace_preserving(self, probability, num_qubits):
        channel = depolarizing_channel(probability, num_qubits)
        dim = 2**num_qubits
        total = sum(op.conj().T @ op for op in channel.operators)
        assert np.allclose(total, np.eye(dim))
        assert channel.num_qubits == num_qubits

    def test_depolarizing_probability_conversion(self):
        # 1% average error on a 2-qubit gate -> p = 4/3 %.
        assert depolarizing_probability_from_error_rate(0.01, 2) == pytest.approx(0.01 * 4 / 3)
        assert depolarizing_probability_from_error_rate(0.01, 1) == pytest.approx(0.02)
        with pytest.raises(ValueError):
            depolarizing_probability_from_error_rate(-0.1, 1)

    def test_depolarizing_average_fidelity_matches_error_rate(self):
        for error_rate in (0.001, 0.01, 0.05):
            probability = depolarizing_probability_from_error_rate(error_rate, 2)
            channel = depolarizing_channel(probability, 2)
            assert average_channel_fidelity(channel) == pytest.approx(1 - error_rate, abs=1e-9)

    def test_depolarizing_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            depolarizing_channel(1.5, 1)

    def test_amplitude_damping_decays_excited_state(self):
        channel = amplitude_damping_channel(0.3)
        rho_excited = np.array([[0, 0], [0, 1]], dtype=complex)
        decayed = sum(k @ rho_excited @ k.conj().T for k in channel.operators)
        assert decayed[0, 0] == pytest.approx(0.3)
        assert decayed[1, 1] == pytest.approx(0.7)

    def test_phase_damping_kills_coherence(self):
        channel = phase_damping_channel(1.0)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        dephased = sum(k @ plus @ k.conj().T for k in channel.operators)
        assert dephased[0, 1] == pytest.approx(0.0)
        assert dephased[0, 0] == pytest.approx(0.5)

    def test_bit_flip_channel(self):
        channel = bit_flip_channel(0.25)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        flipped = sum(k @ rho @ k.conj().T for k in channel.operators)
        assert flipped[1, 1] == pytest.approx(0.25)

    def test_thermal_relaxation_zero_duration_is_identity(self):
        channel = thermal_relaxation_channel(0.0, 10_000, 10_000)
        assert channel.is_identity()

    def test_thermal_relaxation_long_duration_decays(self):
        channel = thermal_relaxation_channel(1e9, 10_000, 10_000)
        rho_excited = np.array([[0, 0], [0, 1]], dtype=complex)
        decayed = sum(k @ rho_excited @ k.conj().T for k in channel.operators)
        assert decayed[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_thermal_relaxation_validates_input(self):
        with pytest.raises(ValueError):
            thermal_relaxation_channel(-1.0, 100, 100)
        with pytest.raises(ValueError):
            thermal_relaxation_channel(1.0, 0, 100)

    def test_compose_and_expand_channels(self):
        composed = compose_channels("combo", bit_flip_channel(0.1), phase_damping_channel(0.2))
        total = sum(op.conj().T @ op for op in composed.operators)
        assert np.allclose(total, np.eye(2))
        expanded = expand_channel(bit_flip_channel(0.1), 2)
        assert expanded.num_qubits == 2
        with pytest.raises(ValueError):
            expand_channel(depolarizing_channel(0.1, 2), 2)


class TestNoiseModel:
    def build_model(self) -> NoiseModel:
        model = NoiseModel.uniform(4, two_qubit_error=0.01, single_qubit_error=0.001)
        model.set_two_qubit_error_rate("cz", (0, 1), 0.05)
        model.set_two_qubit_error_rate("xy(3.141593)", (0, 1), 0.02)
        return model

    def test_error_rate_lookup_and_default(self):
        model = self.build_model()
        assert model.two_qubit_error_rate("cz", (0, 1)) == pytest.approx(0.05)
        assert model.two_qubit_error_rate("cz", (1, 0)) == pytest.approx(0.05)
        assert model.two_qubit_error_rate("cz", (2, 3)) == pytest.approx(0.01)
        assert model.single_qubit_error_rate(2) == pytest.approx(0.001)

    def test_wildcard_gate_type(self):
        model = NoiseModel()
        model.two_qubit_error[(0, 1)] = {"*": 0.03}
        assert model.two_qubit_error_rate("anything", (0, 1)) == pytest.approx(0.03)

    def test_operation_fidelity_uses_physical_mapping(self):
        model = self.build_model()
        operation = Operation(named_gate("cz"), (0, 1))
        # Circuit qubits (0, 1) hosted on physical (0, 1) -> measured 5% error.
        assert model.operation_fidelity(operation, [0, 1]) == pytest.approx(0.95)
        # Hosted elsewhere -> default 1% error.
        assert model.operation_fidelity(operation, [2, 3]) == pytest.approx(0.99)

    def test_gate_duration_lookup(self):
        model = self.build_model()
        model.gate_durations["cz"] = 200.0
        assert model.operation_duration(Operation(named_gate("cz"), (0, 1))) == 200.0
        assert model.operation_duration(Operation(rz_gate(0.1), (0,))) == model.single_qubit_duration
        assert (
            model.operation_duration(Operation(fsim_gate(0.1, 0.2), (0, 1)))
            == model.two_qubit_duration
        )

    def test_error_channels_for_operation(self):
        model = self.build_model()
        operation = Operation(named_gate("cz"), (0, 1))
        channels = model.error_channels_for_operation(operation, [0, 1])
        assert len(channels) >= 1
        depolarizing, qubits = channels[0]
        assert qubits == (0, 1)
        assert depolarizing.num_qubits == 2

    def test_idle_channel_disabled_flags(self):
        model = self.build_model()
        model.include_idle_noise = False
        assert model.idle_channel(0, 0, 100.0) is None
        model.include_idle_noise = True
        model.include_thermal_relaxation = False
        assert model.idle_channel(0, 0, 100.0) is None

    def test_idle_channel_zero_duration(self):
        model = self.build_model()
        assert model.idle_channel(0, 0, 0.0) is None

    def test_uniform_constructor_populates_every_qubit(self):
        model = NoiseModel.uniform(3, 0.02, readout_error=0.05)
        assert model.qubit_readout_error(2) == pytest.approx(0.05)
        assert model.qubit_t1(1) > 0


class TestChannelMemos:
    """The channel constructors are memoised on their exact inputs."""

    def test_equal_inputs_share_one_read_only_channel(self):
        first = depolarizing_channel(0.0123, 2)
        assert depolarizing_channel(0.0123, 2) is first
        assert depolarizing_channel(0.0123, 1) is not first
        relaxation = relaxation_channel(32.0, 15_000.0, 12_000.0)
        assert relaxation_channel(32.0, 15_000.0, 12_000.0) is relaxation
        assert relaxation_channel(32.0, 15_000.0, 11_000.0) is not relaxation
        for channel in (first, relaxation):
            for operator in channel.operators:
                assert not operator.flags.writeable
                with pytest.raises(ValueError):
                    operator[0, 0] = 0.0

    def test_memoised_depolarizing_matches_direct_construction(self):
        for probability, num_qubits in ((0.0, 1), (0.02, 1), (0.0133, 2), (1.0, 2)):
            dim = 4**num_qubits
            labels = ["".join(c) for c in itertools.product("IXYZ", repeat=num_qubits)]
            identity_weight = np.sqrt(1.0 - probability + probability / dim)
            pauli_weight = np.sqrt(probability / dim)
            expected = [identity_weight * pauli_string_matrix(labels[0])]
            expected += [pauli_weight * pauli_string_matrix(label) for label in labels[1:]]
            channel = depolarizing_channel(probability, num_qubits)
            assert len(channel.operators) == dim
            for operator, reference in zip(channel.operators, expected):
                assert np.array_equal(operator, reference)

    def test_invalid_inputs_raise_on_every_call(self):
        for _ in range(2):  # failures are never memoised
            with pytest.raises(ValueError):
                depolarizing_channel(1.5)
            with pytest.raises(ValueError):
                thermal_relaxation_channel(-1, 100, 100)
            with pytest.raises(ValueError):
                relaxation_channel(-1, 100, 100)
        with pytest.raises(ValueError, match="not trace preserving"):
            KrausChannel("bad", (np.array([[0.5, 0], [0, 0.5]]),))

    def test_identity_relaxation_is_none(self):
        assert relaxation_channel(0.0, 10_000.0, 10_000.0) is None
        assert relaxation_channel(25.0, 10_000.0, 10_000.0) is not None

    def test_noise_model_shares_channels_between_operations(self):
        model = NoiseModel.uniform(3, two_qubit_error=0.01)
        cz = named_gate("cz")
        first = model.error_channels_for_operation(Operation(cz, (0, 1)), [0, 1, 2])
        second = model.error_channels_for_operation(Operation(cz, (1, 2)), [0, 1, 2])
        assert len(first) == len(second) == 3  # depolarizing + relaxation per qubit
        assert all(a is b for (a, _), (b, _) in zip(first, second))
        assert model.idle_channel(0, 0, 32.0)[0] is first[1][0]

    def test_clear_experiment_caches_empties_the_memos(self):
        from repro.experiments.engine import clear_experiment_caches

        depolarizing_channel(0.05, 1)
        relaxation_channel(25.0, 10_000.0, 10_000.0)
        assert all(memo.cache_info().currsize > 0 for memo in CHANNEL_MEMOS)
        clear_experiment_caches()
        assert all(memo.cache_info().currsize == 0 for memo in CHANNEL_MEMOS)
