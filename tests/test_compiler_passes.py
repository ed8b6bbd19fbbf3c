"""PassManager architecture: pass correctness and pipeline equivalence.

Three families of properties:

* **Per-pass equivalence** -- every individual optimisation pass
  (cancellation, single-qubit merge, Euler rewriting, two-qubit fusion)
  preserves the circuit unitary up to global phase on randomized circuits.
* **Pipeline == monolith** -- the ``default`` pipeline reproduces the
  retained pre-PassManager monolith (:func:`compile_circuit_reference`)
  bit-for-bit: identical operations, mappings, statistics and device
  calibration RNG consumption.
* **Registry semantics** -- named pipelines resolve, override options,
  fingerprint by content and honour the legacy ``merge_single_qubit``
  toggle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import u3_gate, unitary_gate
from repro.compiler.cancellation import (
    cancel_adjacent_inverses,
    merge_adjacent_two_qubit_gates,
)
from repro.compiler.euler import rewrite_single_qubit_gates
from repro.compiler.manager import (
    EulerMergePass,
    PassContext,
    PipelineConfig,
    RoutingPass,
    aggregate_pass_stats,
    available_pipelines,
    build_pass,
    merge_aggregated_pass_stats,
    register_pipeline,
    resolve_pipeline,
)
from repro.compiler.onequbit import merge_single_qubit_gates
from repro.core.instruction_sets import (
    full_fsim_set,
    google_instruction_set,
    rigetti_instruction_set,
)
from repro.core.pipeline import compile_circuit, compile_circuit_reference
from repro.devices.synthetic import synthetic_device
from repro.gates.unitary import allclose_up_to_global_phase, random_su4


def _random_circuit(rng: np.random.Generator, num_qubits: int = 3, depth: int = 14) -> QuantumCircuit:
    """Random circuit mixing 1Q rotations, fixed 2Q gates and inverse pairs.

    Deliberately includes back-to-back self-inverse pairs and runs of
    single-qubit gates so the cleanup passes have real work to do.
    """
    circuit = QuantumCircuit(num_qubits, name="random")
    for _ in range(depth):
        roll = rng.integers(0, 5)
        if roll == 0:
            qubit = int(rng.integers(0, num_qubits))
            circuit.append(u3_gate(*rng.uniform(-np.pi, np.pi, size=3)), [qubit])
        elif roll == 1:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cz(int(a), int(b))
            if rng.integers(0, 2):  # adjacent self-inverse pair
                circuit.cz(int(a), int(b))
        elif roll == 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        elif roll == 3:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(unitary_gate(random_su4(rng), name="su4"), [int(a), int(b)])
        else:
            qubit = int(rng.integers(0, num_qubits))
            for _ in range(int(rng.integers(2, 4))):  # run of 1Q gates
                circuit.append(u3_gate(*rng.uniform(-np.pi, np.pi, size=3)), [qubit])
    return circuit


def _assert_equivalent(original: QuantumCircuit, transformed: QuantumCircuit) -> None:
    assert allclose_up_to_global_phase(
        transformed.to_unitary(), original.to_unitary(), atol=1e-8
    )


class TestPassEquivalence:
    """Each optimisation pass preserves the unitary up to global phase."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cancellation(self, seed):
        circuit = _random_circuit(np.random.default_rng(seed))
        cleaned = cancel_adjacent_inverses(circuit)
        assert len(cleaned) <= len(circuit)
        _assert_equivalent(circuit, cleaned)

    @pytest.mark.parametrize("seed", range(6))
    def test_single_qubit_merge(self, seed):
        circuit = _random_circuit(np.random.default_rng(10 + seed))
        merged = merge_single_qubit_gates(circuit)
        assert merged.num_single_qubit_gates() <= circuit.num_single_qubit_gates()
        _assert_equivalent(circuit, merged)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("basis", ["zyz", "zxz", "u3"])
    def test_euler_merge(self, seed, basis):
        circuit = _random_circuit(np.random.default_rng(20 + seed))
        rewritten = rewrite_single_qubit_gates(circuit, basis=basis)
        _assert_equivalent(circuit, rewritten)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_qubit_fusion(self, seed):
        circuit = _random_circuit(np.random.default_rng(30 + seed))
        fused = merge_adjacent_two_qubit_gates(circuit)
        _assert_equivalent(circuit, fused)

    @pytest.mark.parametrize("seed", range(3))
    def test_pass_composition(self, seed):
        """The full cleanup chain composes without drifting off the unitary."""
        circuit = _random_circuit(np.random.default_rng(40 + seed))
        result = rewrite_single_qubit_gates(
            merge_single_qubit_gates(cancel_adjacent_inverses(circuit)), basis="zxz"
        )
        _assert_equivalent(circuit, result)


def _compiled_bit_identical(a, b) -> None:
    """Assert two CompiledCircuits are bit-identical in every reported field."""
    assert len(a.circuit) == len(b.circuit)
    for left, right in zip(a.circuit, b.circuit):
        assert left.qubits == right.qubits
        assert left.gate.type_key == right.gate.type_key
        assert np.array_equal(left.gate.matrix, right.gate.matrix)
    assert a.physical_qubits == b.physical_qubits
    assert a.initial_mapping == b.initial_mapping
    assert a.final_mapping == b.final_mapping
    assert a.num_swaps == b.num_swaps
    assert a.gate_type_usage == b.gate_type_usage
    assert a.decomposition_fidelities == b.decomposition_fidelities
    assert a.estimated_hardware_fidelity == b.estimated_hardware_fidelity
    assert a.emitted_gate_types == b.emitted_gate_types


class TestDefaultPipelineMatchesMonolith:
    """The acceptance criterion: default pipeline == pre-refactor monolith."""

    @pytest.mark.parametrize(
        "set_factory",
        [
            lambda: google_instruction_set("G3"),
            lambda: rigetti_instruction_set("R1"),
            lambda: full_fsim_set(),
        ],
        ids=["google-G3", "rigetti-R1", "continuous-fsim"],
    )
    def test_bit_identical_including_device_rng(self, set_factory, shared_decomposer):
        circuit = _random_circuit(np.random.default_rng(3), num_qubits=3, depth=8)
        device_reference = synthetic_device(5, "line", seed=13)
        device_pipeline = synthetic_device(5, "line", seed=13)

        reference = compile_circuit_reference(
            circuit, device_reference, set_factory(), decomposer=shared_decomposer
        )
        compiled = compile_circuit(
            circuit, device_pipeline, set_factory(), decomposer=shared_decomposer
        )

        _compiled_bit_identical(reference, compiled)
        # The passes must consume the device calibration RNG exactly as the
        # monolith did -- the property the caches' replay depends on.
        assert (
            device_reference.calibration_fingerprint()
            == device_pipeline.calibration_fingerprint()
        )

    def test_merge_flag_matches_monolith(self, shared_decomposer):
        circuit = _random_circuit(np.random.default_rng(4), num_qubits=3, depth=8)
        device_reference = synthetic_device(5, "line", seed=13)
        device_pipeline = synthetic_device(5, "line", seed=13)
        reference = compile_circuit_reference(
            circuit,
            device_reference,
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            merge_single_qubit=False,
        )
        compiled = compile_circuit(
            circuit,
            device_pipeline,
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            merge_single_qubit=False,
        )
        _compiled_bit_identical(reference, compiled)


class TestPipelineRegistry:
    def test_known_pipelines_present(self):
        names = set(available_pipelines())
        assert {"default", "exact", "no-merge", "optimized", "no-cancellation"} <= names

    def test_unknown_pipeline_raises(self):
        with pytest.raises(KeyError, match="unknown pipeline"):
            resolve_pipeline("definitely-not-registered")

    def test_unknown_pass_raises(self):
        with pytest.raises(KeyError, match="unknown compiler pass"):
            build_pass("definitely-not-a-pass")

    def test_register_rejects_duplicates_and_bad_specs(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pipeline(PipelineConfig(name="default", passes=("layout",)))
        with pytest.raises(KeyError, match="unknown compiler pass"):
            register_pipeline(PipelineConfig(name="broken", passes=("nope",)))
        assert "broken" not in available_pipelines()

    def test_fingerprint_is_content_addressed(self):
        # Content-equal pipelines share a fingerprint (and cache entries)...
        default = resolve_pipeline("default")
        alias = resolve_pipeline("no-cancellation")
        assert default.fingerprint() == alias.fingerprint()
        # ...different passes or overrides split it.
        assert default.fingerprint() != resolve_pipeline("optimized").fingerprint()
        assert default.fingerprint() != resolve_pipeline("exact").fingerprint()

    def test_exact_pipeline_overrides_approximate(self, shared_decomposer):
        circuit = QuantumCircuit(2, name="bell").h(0).cx(0, 1)
        device = synthetic_device(4, "line", seed=11)
        compiled = compile_circuit(
            circuit,
            device,
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            approximate=True,  # the pipeline override must win
            pipeline="exact",
        )
        assert compiled.pipeline_name == "exact"
        assert all(f > 1.0 - 1e-6 for f in compiled.decomposition_fidelities)

    def test_merge_toggle_drops_pass(self):
        manager = resolve_pipeline("default").build(merge_single_qubit=False)
        assert "merge-1q" not in manager.pass_names()
        assert resolve_pipeline("default").build().pass_names() == [
            "layout",
            "routing",
            "nuop",
            "merge-1q",
        ]

    def test_pass_timings_recorded(self, shared_decomposer):
        circuit = QuantumCircuit(2, name="bell").h(0).cx(0, 1)
        device = synthetic_device(4, "line", seed=11)
        compiled = compile_circuit(
            circuit, device, google_instruction_set("G3"), decomposer=shared_decomposer
        )
        assert set(compiled.pass_timings) == {"layout", "routing", "nuop", "merge-1q"}
        assert all(duration >= 0.0 for duration in compiled.pass_timings.values())

    def test_scheduled_pipeline_reports_duration(self, shared_decomposer):
        circuit = QuantumCircuit(2, name="bell").h(0).cx(0, 1)
        device = synthetic_device(4, "line", seed=11)
        compiled = compile_circuit(
            circuit,
            device,
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            pipeline="scheduled",
        )
        assert compiled.schedule_duration is not None
        assert compiled.schedule_duration > 0.0


class TestPassErrorHandling:
    def test_routing_requires_layout(self):
        device = synthetic_device(4, "line", seed=11)
        context = PassContext(
            circuit=QuantumCircuit(2).cz(0, 1),
            device=device,
            instruction_set=google_instruction_set("G3"),
            decomposer=None,
        )
        with pytest.raises(RuntimeError, match="requires a layout"):
            RoutingPass().run(context)

    def test_euler_pass_rejects_unknown_basis(self):
        with pytest.raises(ValueError, match="basis"):
            EulerMergePass(basis="xyzzy")


class TestDeprecations:
    def test_reference_runner_warns(self, shared_decomposer):
        from repro.core.instruction_sets import single_gate_set
        from repro.experiments.runner import (
            SimulationOptions,
            run_instruction_set_study_reference,
        )
        from repro.metrics.hop import heavy_output_probability

        with pytest.warns(DeprecationWarning, match="ground-truth loop"):
            run_instruction_set_study_reference(
                "qv",
                [QuantumCircuit(2, name="bell").h(0).cx(0, 1)],
                "HOP",
                heavy_output_probability,
                lambda: synthetic_device(4, "line", seed=11),
                {"S3": single_gate_set("S3", vendor="google")},
                decomposer=shared_decomposer,
                options=SimulationOptions(shots=200, seed=3),
            )


class TestPassStatistics:
    """PassManager-recorded rewrite counters (gates removed/added, deltas)."""

    def _compiled(self, shared_decomposer, pipeline="optimized"):
        circuit = qaoa_like = QuantumCircuit(3, name="w")
        qaoa_like.h(0).h(1).h(2).cz(0, 1).cz(1, 2).rx(0.3, 0).rx(0.3, 1).cz(0, 1)
        device = synthetic_device(5, "line", seed=11)
        return compile_circuit(
            circuit,
            device,
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            pipeline=pipeline,
        )

    def test_records_follow_execution_order(self, shared_decomposer):
        compiled = self._compiled(shared_decomposer)
        assert [record.pass_name for record in compiled.pass_stats] == [
            "layout",
            "routing",
            "nuop",
            "cancel",
            "merge-1q",
        ]

    def test_snapshots_are_consistent_chains(self, shared_decomposer):
        # Each pass's 'after' snapshot is the next pass's 'before' snapshot,
        # and the last 'after' matches the emitted circuit.
        compiled = self._compiled(shared_decomposer)
        records = compiled.pass_stats
        for previous, current in zip(records, records[1:]):
            assert previous.gates_after == current.gates_before
            assert previous.two_qubit_after == current.two_qubit_before
            assert previous.depth_after == current.depth_before
        assert records[-1].gates_after == len(compiled.circuit)
        assert records[-1].two_qubit_after == compiled.two_qubit_gate_count
        assert records[-1].depth_after == compiled.circuit.depth()

    def test_semantic_counters(self, shared_decomposer):
        compiled = self._compiled(shared_decomposer)
        by_name = {record.pass_name: record for record in compiled.pass_stats}
        # NuOp splices decompositions in: it adds gates, never removes.
        assert by_name["nuop"].gates_added > 0
        assert by_name["nuop"].gates_removed == 0
        # The single-qubit merge can only shrink the circuit, and must not
        # touch the two-qubit budget.
        assert by_name["merge-1q"].gates_added == 0
        assert by_name["merge-1q"].two_qubit_delta == 0
        # Timings agree with the legacy pass_timings mapping.
        for record in compiled.pass_stats:
            assert record.wall_time >= 0.0
            assert record.wall_time <= compiled.pass_timings[record.pass_name] + 1e-9

    def test_aggregation_and_merge(self, shared_decomposer):
        compiled = self._compiled(shared_decomposer)
        totals = aggregate_pass_stats(compiled.pass_stats)
        assert totals["nuop"]["runs"] == 1
        assert totals["nuop"]["gates_added"] > 0
        merged = {}
        merge_aggregated_pass_stats(merged, totals)
        merge_aggregated_pass_stats(merged, totals)
        assert merged["nuop"]["runs"] == 2
        assert merged["nuop"]["gates_added"] == 2 * totals["nuop"]["gates_added"]

    def test_as_row_is_table_ready(self, shared_decomposer):
        compiled = self._compiled(shared_decomposer)
        row = compiled.pass_stats[0].as_row()
        assert row["pass"] == "layout"
        assert set(row) == {
            "pass", "gates", "removed", "added", "2q_delta", "depth_delta", "time_ms",
        }
