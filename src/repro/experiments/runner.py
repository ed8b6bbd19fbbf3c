"""Shared infrastructure for the per-figure experiment drivers.

Every experiment in :mod:`repro.experiments` follows the same pattern:
compile application circuits for a set of candidate instruction sets, run
a noisy simulation on the target device model, post-process the measured
distribution back into program-qubit order and evaluate the paper's
metric.  This module holds that common machinery plus small result
containers that the benchmark harness and the examples print.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.hashing import hash_scalars
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import InstructionSet
from repro.core.pipeline import CompiledCircuit, compile_circuit
from repro.devices.device import Device
from repro.metrics.distributions import permute_distribution
from repro.simulators.backend import SimulatorBackend, resolve_backend
from repro.simulators.density_matrix import (
    MAX_DENSITY_MATRIX_QUBITS,
    DensityMatrixSimulator,
)
from repro.simulators.noise_program import NoiseProgram, noise_program_for
from repro.simulators.sampling import sample_counts
from repro.simulators.statevector import ideal_probabilities
from repro.simulators.trajectory import TrajectorySimulator

MetricFunction = Callable[[np.ndarray, np.ndarray], float]
"""Signature: ``metric(measured_program_order, ideal_program_order) -> float``."""


@dataclass
class SimulationOptions:
    """Knobs controlling the noisy simulation of compiled circuits."""

    shots: int = 3000
    seed: int = 11
    max_density_matrix_qubits: int = 8
    trajectories: int = 30
    apply_readout_error: bool = True
    method: str = "auto"
    """Simulator backend name (see
    :func:`repro.simulators.backend.available_backends`).  ``"auto"``
    reproduces the historical qubit-threshold dispatch; an explicit
    ``backend=`` argument to :func:`simulate_compiled` /
    :func:`repro.experiments.engine.run_study` takes precedence."""
    batch: int = 1
    """Batched-replay group-size cap for the study engine: ``1`` (the
    default) disables batching, ``0`` means "as large as the
    ``REPRO_SIM_BATCH_MAX_BYTES`` memory cap allows", and ``N >= 2`` caps
    groups at ``N`` jobs (still bounded by the memory cap).  Excluded from
    :meth:`fingerprint` for the same reason as ``method``: batching is an
    execution strategy, not part of the measured distribution -- batched
    results land under the same per-job cache keys as sequential ones
    (held to the fused kernel's ``<= 1e-10`` bar), so warm batched runs
    reuse sequential entries and vice versa."""

    def __post_init__(self) -> None:
        if int(self.shots) <= 0:
            raise ValueError(f"SimulationOptions.shots must be positive, got {self.shots}")
        if int(self.trajectories) <= 0:
            raise ValueError(
                f"SimulationOptions.trajectories must be positive, got {self.trajectories}"
            )
        if int(self.max_density_matrix_qubits) < 0:
            raise ValueError(
                "SimulationOptions.max_density_matrix_qubits must be >= 0, got "
                f"{self.max_density_matrix_qubits}"
            )
        if int(self.max_density_matrix_qubits) > MAX_DENSITY_MATRIX_QUBITS:
            raise ValueError(
                "SimulationOptions.max_density_matrix_qubits cannot exceed the "
                f"density-matrix simulator's hard cap of {MAX_DENSITY_MATRIX_QUBITS} "
                f"qubits, got {self.max_density_matrix_qubits}"
            )
        if int(self.batch) < 0:
            raise ValueError(
                "SimulationOptions.batch must be >= 0 (0 = memory-cap bound, "
                f"1 = disabled, N = group-size cap), got {self.batch}"
            )

    def fingerprint(self) -> str:
        """Content digest of every field that shapes a measured distribution.

        One component of the simulation-result cache key
        (:func:`repro.experiments.engine.simulation_cache_key`).
        ``method`` is deliberately excluded: the *resolved* backend's name
        and version are separate key components, so including the
        requested method here would only split cache entries between
        ``backend=`` and ``method=`` spellings of the same run.
        ``batch`` is excluded for the same reason (see its field doc):
        batched and sequential execution produce the same distribution,
        so splitting their cache entries would orphan every warm result
        whenever the knob changed.
        """
        return hash_scalars(
            "simulation-options",
            int(self.shots),
            int(self.seed),
            int(self.max_density_matrix_qubits),
            int(self.trajectories),
            bool(self.apply_readout_error),
        )


def simulate_noise_program(
    program: NoiseProgram,
    options: SimulationOptions,
    backend: SimulatorBackend,
    readout_error: Optional[Sequence[float]] = None,
    program_order: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Measured distribution of a precompiled noise program.

    The backend produces the noisy output distribution over circuit
    slots; shot sampling (with optional readout error) and the final
    permutation back into program-qubit order are backend-independent and
    happen here.  Pure: the only RNG is seeded from ``options``, so this
    is safe to run on worker pools.
    """
    probabilities = backend.run(program, options)
    return finalize_measured_distribution(
        probabilities, options, readout_error, program_order
    )


def finalize_measured_distribution(
    probabilities: np.ndarray,
    options: SimulationOptions,
    readout_error: Optional[Sequence[float]] = None,
    program_order: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Shot-sample a backend distribution and permute it to program order.

    The backend-independent tail of :func:`simulate_noise_program`, split
    out so the engine's batched path can run one vectorised backend pass
    and still finalize each job identically to the sequential path (same
    per-job RNG seeded from ``options``, same readout error, same
    permutation).
    """
    counts = sample_counts(
        probabilities,
        options.shots,
        rng=np.random.default_rng(options.seed),
        readout_error=readout_error,
    )
    measured_slots = counts.to_probability_vector()
    if program_order is None:
        return measured_slots
    return permute_distribution(measured_slots, list(program_order))


def simulate_compiled(
    compiled: CompiledCircuit,
    device: Device,
    options: Optional[SimulationOptions] = None,
    backend: Optional[Union[str, SimulatorBackend]] = None,
) -> np.ndarray:
    """Noisy output distribution of a compiled circuit, in program-qubit order.

    Thin dispatcher over the simulator-backend registry
    (:mod:`repro.simulators.backend`): resolves ``backend`` (default:
    ``options.method``, itself defaulting to ``"auto"``, the historical
    qubit-threshold dispatch), fetches the compiled circuit's precompiled
    noise program from the process-wide cache
    (:func:`repro.simulators.noise_program.noise_program_for`) and runs
    the backend on it.  The backends run the fused superoperator kernels
    by default; under ``REPRO_SIM_KERNEL=reference`` this path is pinned
    bit-identical to :func:`simulate_compiled_reference` by
    ``tests/test_simulator_backends.py``, and the fused default is held
    to ``<= 1e-10`` of it by ``tests/test_superop.py``.
    """
    options = options or SimulationOptions()
    resolved = resolve_backend(backend if backend is not None else options.method)
    program = noise_program_for(compiled, device)
    readout = None
    if options.apply_readout_error:
        readout = device.readout_errors_for(compiled.physical_qubits)
    order = [compiled.final_mapping[q] for q in range(compiled.circuit.num_qubits)]
    return simulate_noise_program(
        program, options, resolved, readout_error=readout, program_order=order
    )


def simulate_compiled_reference(
    compiled: CompiledCircuit,
    device: Device,
    options: Optional[SimulationOptions] = None,
) -> np.ndarray:
    """The pre-backend-registry implementation, kept as ground truth.

    ``tests/test_simulator_backends.py`` asserts the ``auto`` backend
    (and therefore the default :func:`simulate_compiled` path) reproduces
    this function bit-for-bit on both sides of the density-matrix /
    trajectory threshold.  Do not optimise or restructure it; its stasis
    is the point (the same role :func:`repro.core.pipeline.compile_circuit_reference`
    plays for the compiler).
    """
    options = options or SimulationOptions()
    circuit = compiled.circuit
    noise_model = device.noise_model
    if circuit.num_qubits <= options.max_density_matrix_qubits:
        result = DensityMatrixSimulator(noise_model).run(
            circuit, physical_qubits=compiled.physical_qubits
        )
        probabilities = result.probabilities()
    else:
        simulator = TrajectorySimulator(
            noise_model, num_trajectories=options.trajectories, seed=options.seed
        )
        probabilities = simulator.run(circuit, physical_qubits=compiled.physical_qubits)

    readout = None
    if options.apply_readout_error:
        readout = device.readout_errors_for(compiled.physical_qubits)
    counts = sample_counts(
        probabilities,
        options.shots,
        rng=np.random.default_rng(options.seed),
        readout_error=readout,
    )
    measured_slots = counts.to_probability_vector()
    order = [compiled.final_mapping[q] for q in range(circuit.num_qubits)]
    return permute_distribution(measured_slots, order)


@dataclass
class InstructionSetResult:
    """Aggregate metrics of one instruction set over an ensemble of circuits."""

    instruction_set: str
    metric_name: str
    metric_values: List[float] = field(default_factory=list)
    two_qubit_counts: List[int] = field(default_factory=list)
    swap_counts: List[int] = field(default_factory=list)
    gate_type_usage: Dict[str, int] = field(default_factory=dict)
    pass_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    """Aggregated per-pass rewrite statistics (runs, gates removed/added,
    2Q/depth deltas, wall time) across every compile of this set, keyed by
    pass name (see :func:`repro.compiler.manager.aggregate_pass_stats`).
    The frozen legacy reference loop leaves this empty."""
    pipeline_usage: Dict[str, int] = field(default_factory=dict)
    """Compile count per selected pipeline name.  One entry for a fixed
    pipeline; under ``pipeline="auto"`` it records what the autotuner
    picked per circuit."""

    @property
    def mean_metric(self) -> float:
        """Ensemble mean of the reliability metric."""
        return float(np.mean(self.metric_values)) if self.metric_values else float("nan")

    @property
    def mean_two_qubit_count(self) -> float:
        """Ensemble mean hardware two-qubit instruction count."""
        return float(np.mean(self.two_qubit_counts)) if self.two_qubit_counts else 0.0

    def as_row(self) -> Dict[str, object]:
        """Row for tabular reporting (EXPERIMENTS.md / benchmark output)."""
        return {
            "instruction_set": self.instruction_set,
            "metric": self.metric_name,
            "mean_metric": round(self.mean_metric, 4),
            "mean_2q_count": round(self.mean_two_qubit_count, 2),
            "mean_swaps": round(float(np.mean(self.swap_counts)) if self.swap_counts else 0.0, 2),
        }


@dataclass
class StudyResult:
    """Results of one application workload across many instruction sets."""

    application: str
    metric_name: str
    per_set: Dict[str, InstructionSetResult] = field(default_factory=dict)
    #: How the engine actually executed the study ("process", "thread",
    #: "inline" or "batched") and what the resilience layer did along the
    #: way (retries/recoveries/executor_fallbacks, from
    #: ``repro.resilience``).  Metadata only -- deliberately excluded from
    #: rows()/format_table() so reports stay byte-identical across
    #: executor kinds, fallbacks and retry histories (same contract as
    #: the omitted wall times in format_pass_stats()).
    executor_kind: Optional[str] = None
    resilience: Dict[str, int] = field(default_factory=dict)

    def best_set(self) -> str:
        """Instruction set with the highest mean metric."""
        return max(self.per_set, key=lambda name: self.per_set[name].mean_metric)

    def rows(self) -> List[Dict[str, object]]:
        """All rows, in insertion order."""
        return [result.as_row() for result in self.per_set.values()]

    def aggregated_pass_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-pass rewrite statistics folded across every instruction set."""
        from repro.compiler.manager import merge_aggregated_pass_stats

        totals: Dict[str, Dict[str, float]] = {}
        for result in self.per_set.values():
            merge_aggregated_pass_stats(totals, result.pass_stats)
        return totals

    def pipeline_usage(self) -> Dict[str, int]:
        """Compile count per selected pipeline, folded across every set."""
        usage: Dict[str, int] = {}
        for result in self.per_set.values():
            for name, count in result.pipeline_usage.items():
                usage[name] = usage.get(name, 0) + count
        return usage

    def format_pass_stats(self) -> str:
        """Plain-text per-pass rewrite statistics section of the study report.

        Empty string when no pass statistics were recorded (legacy
        reference runs), so callers can append it unconditionally.
        Deliberately omits wall times: the study report must stay
        byte-identical across worker counts and fresh processes (the CI
        warm-start and `--workers` diff checks), and timings are the one
        nondeterministic counter.  Profile with ``repro pipelines
        --stats`` or ``aggregated_pass_stats()`` instead.
        """
        totals = self.aggregated_pass_stats()
        if not totals:
            return ""
        lines = [f"{self.application} pass statistics"]
        lines.append(
            f"{'pass':>10} | {'runs':>5} | {'removed':>7} | {'added':>6} | "
            f"{'2q delta':>8} | {'depth delta':>11}"
        )
        lines.append("-" * 62)
        for pass_name, counters in totals.items():
            lines.append(
                f"{pass_name:>10} | {int(counters['runs']):>5} | "
                f"{int(counters['gates_removed']):>7} | "
                f"{int(counters['gates_added']):>6} | "
                f"{int(counters['two_qubit_delta']):>8} | "
                f"{int(counters['depth_delta']):>11}"
            )
        usage = self.pipeline_usage()
        if usage:
            rendered = ", ".join(
                f"{name} x{count}" for name, count in sorted(usage.items())
            )
            lines.append(f"pipelines used: {rendered}")
        return "\n".join(lines)

    def format_table(self) -> str:
        """Plain-text table matching the paper's bar-chart annotations."""
        lines = [f"{self.application} ({self.metric_name})"]
        lines.append(f"{'set':>10} | {'metric':>8} | {'2Q count':>8} | {'swaps':>6}")
        lines.append("-" * 42)
        for name, result in self.per_set.items():
            lines.append(
                f"{name:>10} | {result.mean_metric:8.4f} | "
                f"{result.mean_two_qubit_count:8.2f} | "
                f"{(np.mean(result.swap_counts) if result.swap_counts else 0):6.2f}"
            )
        return "\n".join(lines)


def run_instruction_set_study(
    application: str,
    circuits: Sequence[QuantumCircuit],
    metric_name: str,
    metric: MetricFunction,
    device_factory: Callable[[], Device],
    instruction_sets: Dict[str, InstructionSet],
    decomposer: Optional[NuOpDecomposer] = None,
    options: Optional[SimulationOptions] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    error_scales: Optional[Dict[str, float]] = None,
    workers: Optional[int] = 1,
    pipeline: str = "default",
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> StudyResult:
    """Compile + simulate + score every circuit under every instruction set.

    Thin compatibility wrapper over the experiment engine
    (:func:`repro.experiments.engine.run_study`): same signature as the
    original serial implementation (retained below as
    :func:`run_instruction_set_study_reference`) plus a ``workers`` knob
    for the simulation worker pool and a ``backend`` selector for the
    simulate nodes.  Results are bit-identical to the reference
    implementation for every worker count (and for ``backend=None`` /
    ``"auto"``, the reference dispatch).

    A single device instance is shared by all instruction sets so that every
    set sees the *same* sampled calibration data (as on a real device), and
    a single decomposer instance is shared so fidelity profiles are reused.
    ``error_scales`` optionally maps instruction-set names to error-rate
    multipliers (used for the scaled FullfSim variants of Figure 10).
    """
    from repro.experiments.engine import run_study

    return run_study(
        application,
        circuits,
        metric_name,
        metric,
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        approximate=approximate,
        use_noise_adaptivity=use_noise_adaptivity,
        error_scales=error_scales,
        workers=workers,
        pipeline=pipeline,
        cache_dir=cache_dir,
        backend=backend,
    )


def run_instruction_set_study_reference(
    application: str,
    circuits: Sequence[QuantumCircuit],
    metric_name: str,
    metric: MetricFunction,
    device_factory: Callable[[], Device],
    instruction_sets: Dict[str, InstructionSet],
    decomposer: Optional[NuOpDecomposer] = None,
    options: Optional[SimulationOptions] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    error_scales: Optional[Dict[str, float]] = None,
    ideal_override: Optional[Callable[[QuantumCircuit], np.ndarray]] = None,
) -> StudyResult:
    """The original serial double loop, kept as the engine's ground truth.

    ``tests/test_engine_determinism.py`` asserts the engine reproduces this
    implementation bit-for-bit (including the device's lazily sampled
    calibration data, which depends on compilation order).  Do not optimise
    this function; its simplicity is the point.

    .. deprecated::
        For anything other than ground-truth comparison, use
        :func:`repro.experiments.engine.run_study` (or this module's
        :func:`run_instruction_set_study` wrapper), which adds worker
        pools, compilation caching and pipeline selection.
    """
    warnings.warn(
        "run_instruction_set_study_reference is the frozen ground-truth loop; "
        "use repro.experiments.engine.run_study (or run_instruction_set_study) "
        "for real studies",
        DeprecationWarning,
        stacklevel=2,
    )
    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    options = options or SimulationOptions()
    error_scales = error_scales or {}
    device = device_factory()
    study = StudyResult(application=application, metric_name=metric_name)

    ideal_cache: Dict[int, np.ndarray] = {}
    for name, instruction_set in instruction_sets.items():
        result = InstructionSetResult(instruction_set=name, metric_name=metric_name)
        for index, circuit in enumerate(circuits):
            if index not in ideal_cache:
                if ideal_override is not None:
                    ideal_cache[index] = ideal_override(circuit)
                else:
                    ideal_cache[index] = ideal_probabilities(circuit)
            compiled = compile_circuit(
                circuit,
                device,
                instruction_set,
                decomposer=decomposer,
                approximate=approximate,
                use_noise_adaptivity=use_noise_adaptivity,
                error_scale=error_scales.get(name, 1.0),
            )
            measured = simulate_compiled_reference(compiled, device, options)
            value = metric(measured, ideal_cache[index])
            result.metric_values.append(float(value))
            result.two_qubit_counts.append(compiled.two_qubit_gate_count)
            result.swap_counts.append(compiled.num_swaps)
            for label, count in compiled.gate_type_usage.items():
                result.gate_type_usage[label] = result.gate_type_usage.get(label, 0) + count
        study.per_set[name] = result
    return study
