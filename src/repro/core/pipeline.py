"""End-to-end compilation pipeline (Figure 1 of the paper).

``compile_circuit`` is a thin driver over the PassManager architecture
(:mod:`repro.compiler.manager`): it resolves a named pipeline (``default``,
``exact``, ``no-cancellation``, ...), runs its passes over a shared
:class:`~repro.compiler.manager.PassContext` and packages the result as a
:class:`CompiledCircuit` carrying the statistics the experiments report --
two-qubit instruction counts, gate-type usage, swap counts, estimated
fidelities and per-pass wall times.

The pre-PassManager monolithic implementation is retained verbatim as
:func:`compile_circuit_reference`; ``tests/test_compiler_passes.py``
asserts the ``default`` pipeline reproduces it bit-for-bit (including the
device calibration RNG consumption order).

Two cache tiers back :func:`compile_circuit_cached`:

* a process-local, LRU-bounded :func:`CompilationCache` (memory tier),
* an optional persistent :class:`~repro.caching.disk.DiskCompilationCache`
  (disk tier, enabled via ``REPRO_CACHE_DIR`` / ``--cache-dir``) that
  warm-starts *fresh processes* -- see :mod:`repro.caching.disk`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.caching.lru import LRUCache, register_cache
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.hashing import (
    circuit_fingerprint,
    hash_scalars,
    instruction_set_fingerprint,
)
from repro.compiler.layout import Layout
from repro.compiler.manager import (
    PassContext,
    PassStatistics,
    PipelineConfig,
    resolve_pipeline,
)
from repro.compiler.onequbit import merge_single_qubit_gates
from repro.compiler.routing import RoutedCircuit
from repro.core import decomposer as decomposer_module
from repro.core import templates
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import InstructionSet
from repro.core.noise_adaptive import decompose_with_instruction_set
from repro.devices.device import Device


@dataclass
class CompiledCircuit:
    """A fully compiled circuit plus bookkeeping for the experiments."""

    circuit: QuantumCircuit
    physical_qubits: Tuple[int, ...]
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    instruction_set_name: str
    num_swaps: int = 0
    gate_type_usage: Dict[str, int] = field(default_factory=dict)
    decomposition_fidelities: List[float] = field(default_factory=list)
    estimated_hardware_fidelity: float = 1.0
    pipeline_name: str = "default"
    pass_timings: Dict[str, float] = field(default_factory=dict)
    """Per-pass wall times of the compilation that *produced* this object;
    cache hits return the producing compile's timings, not the hit's."""
    pass_stats: List[PassStatistics] = field(default_factory=list)
    """Per-pass rewrite statistics (gates removed/added, 2Q and depth
    deltas, wall time) in execution order, recorded by the PassManager.
    Like ``pass_timings``, cache hits carry the producing compile's
    records."""
    emitted_gate_types: List[str] = field(default_factory=list)
    schedule_duration: Optional[float] = None

    @property
    def two_qubit_gate_count(self) -> int:
        """Number of hardware two-qubit instructions in the compiled circuit."""
        return self.circuit.num_two_qubit_gates()

    @property
    def average_decomposition_fidelity(self) -> float:
        """Mean ``F_d`` over the decomposed application operations."""
        if not self.decomposition_fidelities:
            return 1.0
        return float(np.mean(self.decomposition_fidelities))

    def program_qubit_order(self) -> List[int]:
        """``order[i]`` = slot holding program qubit ``i`` at the end of the circuit."""
        return [self.final_mapping[q] for q in sorted(self.final_mapping)]


class NuOpPass:
    """Circuit-level NuOp pass: decompose every two-qubit operation.

    The pass walks a routed circuit (expressed on layout slots), looks up
    the calibrated fidelity of every candidate gate type on the physical
    edge behind each operation, and splices in the decomposition that
    maximises ``F_d * F_h``.
    """

    def __init__(
        self,
        instruction_set: InstructionSet,
        decomposer: Optional[NuOpDecomposer] = None,
        approximate: bool = True,
        use_noise_adaptivity: bool = True,
        max_layers: Optional[int] = None,
    ):
        self.instruction_set = instruction_set
        self.decomposer = decomposer if decomposer is not None else NuOpDecomposer()
        self.approximate = approximate
        self.use_noise_adaptivity = use_noise_adaptivity
        self.max_layers = max_layers

    def _edge_fidelities(
        self, device: Device, physical_pair: Sequence[int]
    ) -> Dict[str, float]:
        if self.instruction_set.is_continuous:
            mean_error = device.two_qubit_error_distribution.expected()
            return {"*": 1.0 - mean_error}
        fidelities = {}
        for gate_type in self.instruction_set.gate_types:
            if self.use_noise_adaptivity:
                fidelity = device.gate_fidelity(gate_type.type_key, physical_pair)
            else:
                fidelity = 1.0 - device.two_qubit_error_distribution.expected()
            fidelities[gate_type.type_key] = fidelity
        return fidelities

    def run(
        self,
        circuit: QuantumCircuit,
        device: Device,
        physical_qubits: Sequence[int],
    ) -> Tuple[QuantumCircuit, Dict[str, int], List[float], float]:
        """Decompose ``circuit`` (on slots) for the instruction set.

        Returns ``(decomposed_circuit, gate_type_usage, decomposition_fidelities,
        estimated_hardware_fidelity)``.
        """
        single_qubit_fidelity = 1.0 - np.mean(
            [device.noise_model.single_qubit_error_rate(q) for q in physical_qubits]
        )
        output = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_{self.instruction_set.name}")
        usage: Dict[str, int] = {}
        fidelities: List[float] = []
        hardware_estimate = 1.0

        for operation in circuit:
            if not operation.is_two_qubit:
                output.append_operation(operation)
                continue
            slot_a, slot_b = operation.qubits
            physical_pair = (physical_qubits[slot_a], physical_qubits[slot_b])
            edge_fidelities = self._edge_fidelities(device, physical_pair)
            decomposition = decompose_with_instruction_set(
                self.decomposer,
                operation.gate.matrix,
                self.instruction_set,
                edge_fidelities=edge_fidelities,
                approximate=self.approximate,
                single_qubit_fidelity=float(single_qubit_fidelity),
                max_layers=self.max_layers,
            )
            label = decomposition.gate_type_label or self.instruction_set.name
            usage[label] = usage.get(label, 0) + decomposition.num_layers
            fidelities.append(decomposition.decomposition_fidelity)
            hardware_estimate *= decomposition.overall_fidelity
            for new_operation in decomposition.operations((slot_a, slot_b)):
                output.append_operation(new_operation)
        return output, usage, fidelities, float(hardware_estimate)


def _is_auto_pipeline(pipeline: object) -> bool:
    """True when the caller asked the autotuner to pick the pipeline."""
    from repro.compiler.autotune import AUTO_PIPELINE

    return isinstance(pipeline, str) and pipeline == AUTO_PIPELINE


def compile_circuit(
    circuit: QuantumCircuit,
    device: Device,
    instruction_set: InstructionSet,
    decomposer: Optional[NuOpDecomposer] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    merge_single_qubit: bool = True,
    layout: Optional[Layout] = None,
    error_scale: float = 1.0,
    max_layers: Optional[int] = None,
    pipeline: Union[str, PipelineConfig] = "default",
) -> CompiledCircuit:
    """Compile an application circuit for a device and instruction set.

    Thin driver over the PassManager architecture: resolves ``pipeline``
    (a registry name or an explicit
    :class:`~repro.compiler.manager.PipelineConfig`), registers calibration
    data for the instruction set's gate types, runs the pipeline's passes
    over a shared context and packages the result.  The ``default``
    pipeline -- layout, routing, NuOp, single-qubit merge -- reproduces
    :func:`compile_circuit_reference` bit-for-bit.

    Pipeline ``overrides`` (e.g. the ``exact`` pipeline's
    ``approximate=False``) take precedence over the corresponding keyword
    arguments; that is what makes selecting a pipeline equivalent to the
    forked code path it replaces.

    ``error_scale`` scales the error rate of any gate type registered
    during this call; the Figure 10a-c "FullfSim at 1.5x/2x/3x error"
    sweeps use it.

    ``pipeline="auto"`` asks the pipeline autotuner
    (:mod:`repro.compiler.autotune`) to pick the candidate pipeline with
    the best predicted compiled fidelity for this exact (circuit, device
    calibration, instruction set) combination before compiling.
    """
    if _is_auto_pipeline(pipeline):
        from repro.compiler.autotune import autotune_pipeline

        verdict = autotune_pipeline(
            circuit,
            device,
            instruction_set,
            decomposer=decomposer,
            approximate=approximate,
            use_noise_adaptivity=use_noise_adaptivity,
            merge_single_qubit=merge_single_qubit,
            layout=layout,
            error_scale=error_scale,
            max_layers=max_layers,
        )
        pipeline = verdict.pipeline
    config = resolve_pipeline(pipeline)
    options = {
        "approximate": approximate,
        "use_noise_adaptivity": use_noise_adaptivity,
        "error_scale": error_scale,
        "max_layers": max_layers,
    }
    options.update(config.overrides)

    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    if not instruction_set.is_continuous:
        device.ensure_gate_types(
            instruction_set.type_keys(), scale=float(options["error_scale"])
        )

    context = PassContext(
        circuit=circuit,
        device=device,
        instruction_set=instruction_set,
        decomposer=decomposer,
        approximate=bool(options["approximate"]),
        use_noise_adaptivity=bool(options["use_noise_adaptivity"]),
        error_scale=float(options["error_scale"]),
        max_layers=options["max_layers"],
        layout=layout,
    )
    config.build(merge_single_qubit=merge_single_qubit).run(context)

    return CompiledCircuit(
        circuit=context.circuit,
        physical_qubits=context.physical_qubits,
        initial_mapping=context.initial_mapping,
        final_mapping=context.final_mapping,
        instruction_set_name=instruction_set.name,
        num_swaps=context.num_swaps,
        gate_type_usage=context.gate_type_usage,
        decomposition_fidelities=context.decomposition_fidelities,
        estimated_hardware_fidelity=context.estimated_hardware_fidelity,
        pipeline_name=config.name,
        pass_timings=dict(context.pass_timings),
        pass_stats=list(context.pass_stats),
        emitted_gate_types=list(context.emitted_gate_types),
        schedule_duration=(
            context.schedule.total_duration if context.schedule is not None else None
        ),
    )


def compile_circuit_reference(
    circuit: QuantumCircuit,
    device: Device,
    instruction_set: InstructionSet,
    decomposer: Optional[NuOpDecomposer] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    merge_single_qubit: bool = True,
    layout: Optional[Layout] = None,
    error_scale: float = 1.0,
    max_layers: Optional[int] = None,
) -> CompiledCircuit:
    """The pre-PassManager monolithic implementation, kept as ground truth.

    ``tests/test_compiler_passes.py`` asserts the ``default`` pipeline
    reproduces this function bit-for-bit (compiled operations, mappings,
    statistics and device calibration RNG consumption).  Do not optimise
    or restructure it; its stasis is the point.
    """
    from repro.compiler.layout import choose_layout
    from repro.compiler.routing import route_circuit

    if not instruction_set.is_continuous:
        device.ensure_gate_types(instruction_set.type_keys(), scale=error_scale)
        scoring_keys = instruction_set.type_keys()
    else:
        scoring_keys = None

    if layout is None:
        layout = choose_layout(circuit, device, scoring_keys, 200)
    routed: RoutedCircuit = route_circuit(circuit, device, layout, lookahead=10)

    nuop = NuOpPass(
        instruction_set,
        decomposer=decomposer,
        approximate=approximate,
        use_noise_adaptivity=use_noise_adaptivity,
        max_layers=max_layers,
    )
    decomposed, usage, fidelities, hardware_estimate = nuop.run(
        routed.circuit, device, routed.physical_qubits
    )

    new_keys = sorted(
        {
            op.gate.type_key
            for op in decomposed
            if op.is_two_qubit
        }
    )
    device.ensure_gate_types(new_keys, scale=error_scale)

    if merge_single_qubit:
        decomposed = merge_single_qubit_gates(decomposed)

    return CompiledCircuit(
        circuit=decomposed,
        physical_qubits=routed.physical_qubits,
        initial_mapping=routed.initial_mapping,
        final_mapping=routed.final_mapping,
        instruction_set_name=instruction_set.name,
        num_swaps=routed.num_swaps,
        gate_type_usage=usage,
        decomposition_fidelities=fidelities,
        estimated_hardware_fidelity=hardware_estimate,
        emitted_gate_types=new_keys,
    )


# ---------------------------------------------------------------------------
# Compilation caching
# ---------------------------------------------------------------------------


def _decomposer_fingerprint(decomposer: NuOpDecomposer) -> str:
    """Digest of the decomposer configuration and the NuOp content revisions.

    Feeds the compilation cache, tuner verdicts and the serve daemon's
    keys.  ``templates.OBJECTIVE_VERSION`` is folded in because a new
    objective may move optimiser trajectories in the last ulp, and
    ``decomposer.SYNTHESIS_VERSION`` because a new synthesis moves the
    layers it builds, so entries compiled under older revisions are
    orphaned rather than served.
    """
    return hash_scalars(
        "decomposer",
        templates.OBJECTIVE_VERSION,
        decomposer_module.SYNTHESIS_VERSION,
        decomposer.max_layers,
        decomposer.restarts,
        decomposer.confirmation_restarts,
        decomposer.maxiter,
        decomposer.exact_threshold,
        decomposer.seed,
    )


@dataclass
class _CacheEntry:
    """A cached compilation result plus the side effects to replay on a hit."""

    compiled: CompiledCircuit
    emitted_type_keys: List[str]


COMPILE_CACHE_SIZE = 4096
"""Entry bound of the process-global compilation memory tier."""


def CompilationCache(max_entries: int = COMPILE_CACHE_SIZE) -> LRUCache:
    """A private compilation memory tier (``cache=`` callers and tests).

    Keys combine content digests of the circuit, the instruction set, the
    device calibration state, the decomposer configuration and the
    pipeline config with the scalar compilation options, so a hit is only
    possible when the cached call would have produced a bit-identical
    result.  Values are :class:`_CacheEntry` records: ``compile_circuit``
    registers calibration data for gate types the device has not seen
    yet, consuming the device's calibration RNG, so a hit *replays* those
    registrations (the instruction set's own types, then the emitted
    ones, in the original order) and a warm run leaves the device in
    exactly the state a cold run would.
    """
    return LRUCache(max_entries)


_GLOBAL_COMPILATION_CACHE = register_cache("compilation (memory)", COMPILE_CACHE_SIZE)


def global_compilation_cache() -> LRUCache:
    """The process-wide compilation cache used when no explicit cache is given.

    The experiment engine shares it across studies so ideal sweep
    workloads (same circuits, many error scales) reuse work.
    """
    return _GLOBAL_COMPILATION_CACHE


def compilation_cache_key(
    circuit: QuantumCircuit,
    device: Device,
    instruction_set: InstructionSet,
    decomposer: NuOpDecomposer,
    approximate: bool,
    use_noise_adaptivity: bool,
    merge_single_qubit: bool,
    error_scale: float,
    max_layers: Optional[int],
    pipeline_config: PipelineConfig,
) -> Tuple:
    """Content-addressed key shared by the memory and disk cache tiers.

    Every component is a digest or plain scalar, so the tuple is hashable,
    order-stable and serialisable across processes (the disk tier folds it
    into a single SHA-256 file name).
    """
    return (
        circuit_fingerprint(circuit),
        device.calibration_fingerprint(),
        instruction_set_fingerprint(instruction_set),
        _decomposer_fingerprint(decomposer),
        pipeline_config.fingerprint(),
        bool(approximate),
        bool(use_noise_adaptivity),
        bool(merge_single_qubit),
        float(error_scale),
        max_layers,
    )


def _stamp_pipeline_name(
    compiled: CompiledCircuit, pipeline_config: PipelineConfig
) -> CompiledCircuit:
    """Relabel a cached result compiled under a content-equal pipeline alias.

    ``default`` and ``no-cancellation`` share fingerprints (and therefore
    cache entries) on purpose; a hit must still report the pipeline the
    *caller* selected.  The common same-name path returns the shared
    object untouched; the alias path gets a shallow copy.
    """
    if compiled.pipeline_name == pipeline_config.name:
        return compiled
    return dataclasses.replace(compiled, pipeline_name=pipeline_config.name)


def _replay_registrations(
    device: Device,
    instruction_set: InstructionSet,
    emitted_type_keys: Sequence[str],
    error_scale: float,
) -> None:
    """Re-run the calibration registrations of the original compilation.

    Keeps the device RNG in exactly the state a cold compile would leave
    it: instruction-set types first (as the driver registers them), then
    the gate types the decomposition emitted.
    """
    if not instruction_set.is_continuous:
        device.ensure_gate_types(instruction_set.type_keys(), scale=error_scale)
    device.ensure_gate_types(list(emitted_type_keys), scale=error_scale)


def compile_circuit_cached(
    circuit: QuantumCircuit,
    device: Device,
    instruction_set: InstructionSet,
    decomposer: Optional[NuOpDecomposer] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    merge_single_qubit: bool = True,
    layout: Optional[Layout] = None,
    error_scale: float = 1.0,
    max_layers: Optional[int] = None,
    pipeline: Union[str, PipelineConfig] = "default",
    cache: Optional[LRUCache] = None,
    disk_cache: Optional["object"] = None,
) -> CompiledCircuit:
    """Drop-in replacement for :func:`compile_circuit` backed by cache tiers.

    Identical signature and semantics; lookup order is **memory -> disk ->
    compile**.  The memory tier defaults to the process-global
    :func:`CompilationCache`; the disk tier defaults to the globally
    configured :class:`~repro.caching.disk.DiskCompilationCache` (none
    unless ``REPRO_CACHE_DIR`` is set or
    :func:`repro.caching.disk.configure_disk_cache` was called), so a
    fresh process warm-starts from results persisted by earlier ones.
    A disk hit is promoted into the memory tier; a compile populates both.

    Callers must treat the returned :class:`CompiledCircuit` as immutable.
    Calls with an explicit ``layout`` bypass every tier: pinned layouts are
    used by experiments that deliberately compare instruction sets on
    identical placements, and caching them would need the layout content in
    the key for little gain.
    """
    from repro.caching.disk import get_global_disk_cache

    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    if _is_auto_pipeline(pipeline):
        from repro.compiler.autotune import autotune_pipeline

        verdict = autotune_pipeline(
            circuit,
            device,
            instruction_set,
            decomposer=decomposer,
            approximate=approximate,
            use_noise_adaptivity=use_noise_adaptivity,
            merge_single_qubit=merge_single_qubit,
            layout=layout,
            error_scale=error_scale,
            max_layers=max_layers,
            cache=cache,
            disk_cache=disk_cache,
        )
        pipeline = verdict.pipeline
    pipeline_config = resolve_pipeline(pipeline)
    if layout is not None:
        return compile_circuit(
            circuit,
            device,
            instruction_set,
            decomposer=decomposer,
            approximate=approximate,
            use_noise_adaptivity=use_noise_adaptivity,
            merge_single_qubit=merge_single_qubit,
            layout=layout,
            error_scale=error_scale,
            max_layers=max_layers,
            pipeline=pipeline_config,
        )
    cache = cache if cache is not None else _GLOBAL_COMPILATION_CACHE
    disk = disk_cache if disk_cache is not None else get_global_disk_cache()
    effective_scale = float(
        pipeline_config.overrides.get("error_scale", error_scale)
    )
    key = compilation_cache_key(
        circuit,
        device,
        instruction_set,
        decomposer,
        approximate,
        use_noise_adaptivity,
        merge_single_qubit,
        error_scale,
        max_layers,
        pipeline_config,
    )
    entry = cache.get(key)
    if entry is not None:
        _replay_registrations(
            device, instruction_set, entry.emitted_type_keys, effective_scale
        )
        return _stamp_pipeline_name(entry.compiled, pipeline_config)

    if disk is not None:
        stored = disk.get(key)
        if stored is not None:
            entry = _CacheEntry(
                compiled=stored.compiled,
                emitted_type_keys=list(stored.emitted_type_keys),
            )
            cache.put(key, entry)
            _replay_registrations(
                device, instruction_set, entry.emitted_type_keys, effective_scale
            )
            return _stamp_pipeline_name(entry.compiled, pipeline_config)

    compiled = compile_circuit(
        circuit,
        device,
        instruction_set,
        decomposer=decomposer,
        approximate=approximate,
        use_noise_adaptivity=use_noise_adaptivity,
        merge_single_qubit=merge_single_qubit,
        layout=None,
        error_scale=error_scale,
        max_layers=max_layers,
        pipeline=pipeline_config,
    )
    emitted = list(compiled.emitted_gate_types)
    cache.put(key, _CacheEntry(compiled=compiled, emitted_type_keys=emitted))
    if disk is not None:
        disk.put(key, compiled, emitted)
    return compiled
