"""Tests for the shared experiment runner (compile -> simulate -> score)."""

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.core.pipeline import compile_circuit
from repro.devices.sycamore import sycamore_device
from repro.experiments.runner import (
    InstructionSetResult,
    SimulationOptions,
    StudyResult,
    run_instruction_set_study,
    simulate_compiled,
)
from repro.metrics.hop import heavy_output_probability
from repro.simulators.statevector import ideal_probabilities


@pytest.fixture(scope="module")
def tiny_study(shared_decomposer):
    circuits = [qv_circuit(3, rng=np.random.default_rng(0))]
    instruction_sets = {
        "S1": single_gate_set("S1", vendor="google"),
        "G3": google_instruction_set("G3"),
    }
    return run_instruction_set_study(
        "qv",
        circuits,
        "HOP",
        heavy_output_probability,
        lambda: sycamore_device(),
        instruction_sets,
        decomposer=shared_decomposer,
        options=SimulationOptions(shots=1500, seed=2),
    )


class TestSimulateCompiled:
    def test_measured_distribution_is_normalised(self, shared_decomposer):
        device = sycamore_device()
        circuit = qv_circuit(3, rng=np.random.default_rng(1))
        compiled = compile_circuit(
            circuit, device, single_gate_set("S1"), decomposer=shared_decomposer
        )
        measured = simulate_compiled(compiled, device, SimulationOptions(shots=1000, seed=1))
        assert measured.shape == (8,)
        assert measured.sum() == pytest.approx(1.0)

    def test_measured_distribution_close_to_ideal_at_low_noise(self, shared_decomposer):
        device = sycamore_device(
            noise_variation=False,
            mean_two_qubit_error=1e-4,
            std_two_qubit_error=0.0,
            readout_error=0.0,
        )
        circuit = qv_circuit(3, rng=np.random.default_rng(2))
        compiled = compile_circuit(
            circuit, device, single_gate_set("S3"), decomposer=shared_decomposer
        )
        measured = simulate_compiled(
            compiled, device, SimulationOptions(shots=8000, seed=3, apply_readout_error=False)
        )
        ideal = ideal_probabilities(circuit)
        assert np.abs(measured - ideal).max() < 0.08


class TestStudyResults:
    def test_study_contains_all_sets(self, tiny_study):
        assert set(tiny_study.per_set) == {"S1", "G3"}
        for result in tiny_study.per_set.values():
            assert isinstance(result, InstructionSetResult)
            assert len(result.metric_values) == 1
            assert 0.0 <= result.mean_metric <= 1.0
            assert result.mean_two_qubit_count > 0

    def test_multi_type_set_never_uses_more_gates(self, tiny_study):
        assert (
            tiny_study.per_set["G3"].mean_two_qubit_count
            <= tiny_study.per_set["S1"].mean_two_qubit_count + 1e-9
        )

    def test_rows_and_formatting(self, tiny_study):
        rows = tiny_study.rows()
        assert len(rows) == 2
        assert {row["instruction_set"] for row in rows} == {"S1", "G3"}
        table = tiny_study.format_table()
        assert "HOP" in table and "G3" in table
        assert tiny_study.best_set() in {"S1", "G3"}

    def test_empty_result_is_nan(self):
        result = InstructionSetResult(instruction_set="X", metric_name="m")
        assert np.isnan(result.mean_metric)
        assert result.mean_two_qubit_count == 0.0
        study = StudyResult(application="a", metric_name="m", per_set={"X": result})
        assert "a" in study.format_table()
