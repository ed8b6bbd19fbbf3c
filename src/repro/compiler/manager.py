"""Composable compiler-pass architecture (the PassManager subsystem).

Figure 1 of the paper describes the toolflow as a staged compiler --
layout, routing, scheduling, NuOp gate decomposition, peephole cleanup --
but the seed implementation hard-coded that sequence in a monolithic
``compile_circuit``.  This module restructures it the way Cirq's
transformer framework does: every stage is a :class:`CompilerPass` with a
uniform ``run(context)`` interface over a shared :class:`PassContext`, a
:class:`PassManager` executes an ordered list of passes (timing each one),
and named :class:`PipelineConfig` entries in a registry describe the
pipelines the experiments select -- ``default``, ``exact``,
``no-cancellation``, ... -- so ablations toggle passes by name instead of
forking code paths.

The ``default`` pipeline reproduces the pre-PassManager monolithic
``compile_circuit`` bit-for-bit (including the order in which gate-type
calibration data is registered on the device, which consumes the device
RNG); ``tests/test_compiler_passes.py`` pins that equivalence against the
retained reference implementation.

Pipelines are also the unit of *cache identity*: a pipeline config has a
content fingerprint (pass list + option overrides) that the compilation
caches combine with the circuit/instruction-set/calibration fingerprints,
so results compiled under different pipelines never collide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.hashing import hash_scalars
from repro.compiler.cancellation import (
    cancel_adjacent_inverses,
    merge_adjacent_two_qubit_gates,
)
from repro.compiler.euler import SUPPORTED_BASES, rewrite_single_qubit_gates
from repro.compiler.layout import Layout, choose_layout
from repro.compiler.onequbit import merge_single_qubit_gates
from repro.compiler.routing import route_circuit
from repro.compiler.scheduling import Schedule, asap_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.core.instruction_sets import InstructionSet
    from repro.devices.device import Device


# ---------------------------------------------------------------------------
# Pass context
# ---------------------------------------------------------------------------


@dataclass
class PassStatistics:
    """Rewrite counters of one pass execution, recorded by the PassManager.

    The manager snapshots the circuit IR around every pass (operation
    count, two-qubit count, depth) and derives the deltas, so every pass
    -- including future ones -- reports what it actually did without
    writing any bookkeeping code.  Removal/merge/fusion counters are the
    negative deltas of the matching snapshot; growth (NuOp splicing in
    decompositions) shows up as ``gates_added``.
    """

    pass_name: str
    wall_time: float = 0.0
    gates_before: int = 0
    gates_after: int = 0
    two_qubit_before: int = 0
    two_qubit_after: int = 0
    depth_before: int = 0
    depth_after: int = 0

    @property
    def gates_removed(self) -> int:
        """Operations the pass eliminated (cancelled, merged or fused away)."""
        return max(self.gates_before - self.gates_after, 0)

    @property
    def gates_added(self) -> int:
        """Operations the pass introduced (SWAP insertion, NuOp splicing)."""
        return max(self.gates_after - self.gates_before, 0)

    @property
    def two_qubit_delta(self) -> int:
        """Change in hardware two-qubit instruction count (negative = removed)."""
        return self.two_qubit_after - self.two_qubit_before

    @property
    def depth_delta(self) -> int:
        """Change in circuit depth (negative = shallower)."""
        return self.depth_after - self.depth_before

    def as_row(self) -> Dict[str, object]:
        """Row for tabular reporting (CLI / study reports)."""
        return {
            "pass": self.pass_name,
            "gates": f"{self.gates_before}->{self.gates_after}",
            "removed": self.gates_removed,
            "added": self.gates_added,
            "2q_delta": self.two_qubit_delta,
            "depth_delta": self.depth_delta,
            "time_ms": round(self.wall_time * 1e3, 2),
        }


def aggregate_pass_stats(
    stats: Sequence[PassStatistics],
) -> "Dict[str, Dict[str, float]]":
    """Fold per-execution pass statistics into per-pass-name totals.

    Used by the experiment engine to report what each pass did across a
    whole study (many circuits x instruction sets).  Keys follow first-seen
    order, which for a fixed pipeline is execution order.
    """
    totals: "Dict[str, Dict[str, float]]" = {}
    for record in stats:
        entry = totals.setdefault(
            record.pass_name,
            {
                "runs": 0,
                "gates_removed": 0,
                "gates_added": 0,
                "two_qubit_delta": 0,
                "depth_delta": 0,
                "wall_time": 0.0,
            },
        )
        entry["runs"] += 1
        entry["gates_removed"] += record.gates_removed
        entry["gates_added"] += record.gates_added
        entry["two_qubit_delta"] += record.two_qubit_delta
        entry["depth_delta"] += record.depth_delta
        entry["wall_time"] += record.wall_time
    return totals


def merge_aggregated_pass_stats(
    target: "Dict[str, Dict[str, float]]",
    source: "Dict[str, Dict[str, float]]",
) -> None:
    """Accumulate one aggregated pass-stats mapping into another, in place."""
    for pass_name, counters in source.items():
        entry = target.setdefault(pass_name, {key: 0 for key in counters})
        for key, value in counters.items():
            entry[key] = entry.get(key, 0) + value


@dataclass
class PassContext:
    """Shared state threaded through every pass of a pipeline.

    A pass reads whatever it needs and writes its products back:
    ``circuit`` is the current IR (replaced by transforming passes),
    the routing passes fill in the layout/mapping fields, the NuOp pass
    accumulates decomposition statistics, and the manager records per-pass
    wall time in ``pass_timings`` plus rewrite counters in ``pass_stats``.
    """

    circuit: QuantumCircuit
    device: Device
    instruction_set: InstructionSet
    decomposer: object  # NuOpDecomposer; typed loosely to avoid an import cycle
    approximate: bool = True
    use_noise_adaptivity: bool = True
    error_scale: float = 1.0
    max_layers: Optional[int] = None

    # Placement/routing products.
    layout: Optional[Layout] = None
    physical_qubits: Tuple[int, ...] = ()
    initial_mapping: Dict[int, int] = field(default_factory=dict)
    final_mapping: Dict[int, int] = field(default_factory=dict)
    num_swaps: int = 0

    # NuOp products.
    gate_type_usage: Dict[str, int] = field(default_factory=dict)
    decomposition_fidelities: List[float] = field(default_factory=list)
    estimated_hardware_fidelity: float = 1.0
    emitted_gate_types: List[str] = field(default_factory=list)

    # Analysis products.
    schedule: Optional[Schedule] = None

    # Bookkeeping filled by the PassManager.
    pass_timings: Dict[str, float] = field(default_factory=dict)
    pass_stats: List[PassStatistics] = field(default_factory=list)

    def scoring_type_keys(self) -> Optional[List[str]]:
        """Gate types that drive placement scoring (``None`` for continuous sets)."""
        if self.instruction_set.is_continuous:
            return None
        return self.instruction_set.type_keys()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class CompilerPass:
    """Base class: a named transformation or analysis over a :class:`PassContext`."""

    name: str = "pass"

    def run(self, context: PassContext) -> None:
        """Apply the pass, mutating ``context`` in place."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class LayoutPass(CompilerPass):
    """Choose an initial placement of program qubits on device slots.

    Respects a layout pinned on the context (experiments that compare
    instruction sets on identical placements pre-compute one).
    """

    name = "layout"

    def __init__(self, candidate_limit: int = 200):
        self.candidate_limit = candidate_limit

    def run(self, context: PassContext) -> None:
        if context.layout is None:
            context.layout = choose_layout(
                context.circuit,
                context.device,
                context.scoring_type_keys(),
                self.candidate_limit,
            )


class RoutingPass(CompilerPass):
    """Insert SWAPs so every two-qubit operation lands on a device edge."""

    name = "routing"

    def __init__(self, lookahead: int = 10):
        self.lookahead = lookahead

    def run(self, context: PassContext) -> None:
        if context.layout is None:
            raise RuntimeError("RoutingPass requires a layout (run LayoutPass first)")
        routed = route_circuit(
            context.circuit, context.device, context.layout, lookahead=self.lookahead
        )
        context.circuit = routed.circuit
        context.physical_qubits = tuple(routed.physical_qubits)
        context.initial_mapping = routed.initial_mapping
        context.final_mapping = routed.final_mapping
        context.num_swaps = routed.num_swaps


class NuOpDecompositionPass(CompilerPass):
    """Decompose every two-qubit operation for the target instruction set.

    Wraps :class:`repro.core.pipeline.NuOpPass` (the paper's NuOp stage)
    and registers calibration data for the gate types the decomposition
    emitted -- in the same order the monolithic ``compile_circuit`` did,
    so the device's calibration RNG advances identically.
    """

    name = "nuop"

    def run(self, context: PassContext) -> None:
        from repro.core.pipeline import NuOpPass  # deferred: import cycle

        nuop = NuOpPass(
            context.instruction_set,
            decomposer=context.decomposer,
            approximate=context.approximate,
            use_noise_adaptivity=context.use_noise_adaptivity,
            max_layers=context.max_layers,
        )
        decomposed, usage, fidelities, hardware_estimate = nuop.run(
            context.circuit, context.device, context.physical_qubits
        )
        context.circuit = decomposed
        context.gate_type_usage = usage
        context.decomposition_fidelities = fidelities
        context.estimated_hardware_fidelity = hardware_estimate

        # Continuous families emit freshly-parameterised gates; register
        # calibration data so the noise model can simulate them.  Recorded
        # on the context so cache hits can replay the registrations even
        # when later passes (cancellation) remove some of the gates.
        emitted = sorted(
            {op.gate.type_key for op in decomposed if op.is_two_qubit}
        )
        context.device.ensure_gate_types(emitted, scale=context.error_scale)
        context.emitted_gate_types = emitted


class SingleQubitMergePass(CompilerPass):
    """Merge runs of adjacent single-qubit gates into one ``U3`` rotation."""

    name = "merge-1q"

    def run(self, context: PassContext) -> None:
        context.circuit = merge_single_qubit_gates(context.circuit)


class CancellationPass(CompilerPass):
    """Remove adjacent gate pairs that compose to the identity."""

    name = "cancel"

    def run(self, context: PassContext) -> None:
        context.circuit = cancel_adjacent_inverses(context.circuit)


class TwoQubitFusionPass(CompilerPass):
    """Fuse runs of two-qubit gates on one pair into a single SU(4) block.

    Placed before NuOp it hands the decomposer one larger block (e.g. a
    QAOA layer plus its routing SWAP) instead of several small ones.
    """

    name = "fuse-2q"

    def run(self, context: PassContext) -> None:
        context.circuit = merge_adjacent_two_qubit_gates(context.circuit)


class EulerMergePass(CompilerPass):
    """Rewrite single-qubit gates into an Euler basis (``zxz``/``zyz``/``u3``).

    The ``zxz`` basis matches superconducting hardware: Z rotations are
    virtual frame updates, only the X pulses cost time and error.
    """

    name = "euler"

    def __init__(self, basis: str = "zxz"):
        if basis not in SUPPORTED_BASES:
            raise ValueError(f"basis must be one of {SUPPORTED_BASES}, got {basis!r}")
        self.basis = basis
        self.name = f"euler:{basis}"

    def run(self, context: PassContext) -> None:
        context.circuit = rewrite_single_qubit_gates(context.circuit, basis=self.basis)


class SchedulingPass(CompilerPass):
    """Analysis pass: ASAP-schedule the circuit with calibrated durations."""

    name = "schedule"

    def run(self, context: PassContext) -> None:
        context.schedule = asap_schedule(context.circuit, context.device.noise_model)


# ---------------------------------------------------------------------------
# Pass manager
# ---------------------------------------------------------------------------


class PassManager:
    """Execute an ordered list of passes over a context, timing each one."""

    def __init__(self, passes: Sequence[CompilerPass], name: str = "custom"):
        self.passes = list(passes)
        self.name = name

    def run(self, context: PassContext) -> PassContext:
        """Run every pass in order, recording wall time and rewrite counters.

        Per-pass wall time lands in ``pass_timings``; a
        :class:`PassStatistics` record per execution (IR snapshots around
        the pass, so removals/merges/fusions and depth deltas are derived
        uniformly) lands in ``pass_stats``.

        When ``REPRO_VERIFY_PASSES`` is set (re-read per run, so a
        long-lived daemon can toggle it), the IR invariants of
        :func:`repro.analysis.circuit_checks.verify_pass_context` are
        re-checked after **every** pass and a
        :class:`~repro.analysis.circuit_checks.PassVerificationError`
        names the first pass that broke one.  The checks are read-only
        and consume no device RNG: verified compiles are bit-identical
        to unverified ones (pinned by a CI determinism re-run).
        """
        from repro.analysis.circuit_checks import (
            PassVerificationError,
            verify_pass_context,
            verify_passes_enabled,
        )

        verify = verify_passes_enabled()
        for compiler_pass in self.passes:
            record = PassStatistics(
                pass_name=compiler_pass.name,
                gates_before=len(context.circuit),
                two_qubit_before=context.circuit.num_two_qubit_gates(),
                depth_before=context.circuit.depth(),
            )
            start = time.perf_counter()
            compiler_pass.run(context)
            record.wall_time = time.perf_counter() - start
            record.gates_after = len(context.circuit)
            record.two_qubit_after = context.circuit.num_two_qubit_gates()
            record.depth_after = context.circuit.depth()
            context.pass_stats.append(record)
            context.pass_timings[compiler_pass.name] = (
                context.pass_timings.get(compiler_pass.name, 0.0) + record.wall_time
            )
            if verify:
                findings = verify_pass_context(context)
                if findings:
                    raise PassVerificationError(
                        self.name, compiler_pass.name, findings
                    )
        return context

    def pass_names(self) -> List[str]:
        """Names of the managed passes, in execution order."""
        return [compiler_pass.name for compiler_pass in self.passes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PassManager {self.name!r}: {' -> '.join(self.pass_names())}>"


# ---------------------------------------------------------------------------
# Pass specs and pipeline configurations
# ---------------------------------------------------------------------------

_PASS_FACTORIES: Dict[str, Callable[..., CompilerPass]] = {
    "layout": LayoutPass,
    "routing": RoutingPass,
    "nuop": NuOpDecompositionPass,
    "merge-1q": SingleQubitMergePass,
    "cancel": CancellationPass,
    "fuse-2q": TwoQubitFusionPass,
    "euler": EulerMergePass,
    "schedule": SchedulingPass,
}


def build_pass(spec: str) -> CompilerPass:
    """Instantiate a pass from a spec string (``"nuop"``, ``"euler:zxz"``, ...).

    A spec is a factory name optionally followed by ``:argument`` (only the
    Euler pass takes one today: its basis).
    """
    name, _, argument = spec.partition(":")
    factory = _PASS_FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown compiler pass {name!r}; known passes: {sorted(_PASS_FACTORIES)}"
        )
    if argument:
        return factory(argument)
    return factory()


@dataclass(frozen=True)
class PipelineConfig:
    """A named, content-addressable pipeline: pass specs + option overrides.

    ``overrides`` force compilation options regardless of the caller's
    arguments (the ``exact`` pipeline forces ``approximate=False``); that
    is what makes selecting a pipeline equivalent to forking the code
    path, without the fork.
    """

    name: str
    passes: Tuple[str, ...]
    overrides: Mapping[str, object] = field(default_factory=dict)
    description: str = ""

    def fingerprint(self) -> str:
        """Content digest of the pipeline (pass list + overrides, not the name).

        Two names bound to identical content hash identically, so renamed
        aliases share compilation-cache entries.
        """
        flat: List[object] = ["pipeline", *self.passes]
        for key in sorted(self.overrides):
            flat.extend((key, self.overrides[key]))
        return hash_scalars(*flat)

    def build(self, merge_single_qubit: bool = True) -> PassManager:
        """Materialise the pass manager.

        ``merge_single_qubit=False`` (the legacy ``compile_circuit`` flag)
        drops every ``merge-1q`` pass, preserving the old toggle without a
        separate pipeline per flag combination.
        """
        specs = [
            spec
            for spec in self.passes
            if merge_single_qubit or spec != SingleQubitMergePass.name
        ]
        return PassManager([build_pass(spec) for spec in specs], name=self.name)


_DEVICE_MAPPING = ("layout", "routing")

_PIPELINES: "Dict[str, PipelineConfig]" = {}


def register_pipeline(config: PipelineConfig, replace: bool = False) -> PipelineConfig:
    """Add a pipeline to the registry (``replace=True`` to overwrite)."""
    if config.name in _PIPELINES and not replace:
        raise ValueError(f"pipeline {config.name!r} is already registered")
    for spec in config.passes:
        build_pass(spec)  # validate eagerly so typos fail at registration
    _PIPELINES[config.name] = config
    return config


def resolve_pipeline(pipeline: object) -> PipelineConfig:
    """Look up a pipeline by name, or pass a :class:`PipelineConfig` through."""
    if isinstance(pipeline, PipelineConfig):
        return pipeline
    config = _PIPELINES.get(str(pipeline))
    if config is None:
        raise KeyError(
            f"unknown pipeline {pipeline!r}; available: {sorted(_PIPELINES)}"
        )
    return config


def available_pipelines() -> Dict[str, PipelineConfig]:
    """Registered pipelines, by name (a copy; mutate via ``register_pipeline``)."""
    return dict(_PIPELINES)


for _config in (
    PipelineConfig(
        name="default",
        passes=(*_DEVICE_MAPPING, "nuop", "merge-1q"),
        description="the paper's Figure 1 toolflow (bit-identical to the "
        "pre-PassManager monolithic compile_circuit)",
    ),
    PipelineConfig(
        name="exact",
        passes=(*_DEVICE_MAPPING, "nuop", "merge-1q"),
        overrides={"approximate": False},
        description="default with exact (machine-precision) NuOp decompositions",
    ),
    PipelineConfig(
        name="no-merge",
        passes=(*_DEVICE_MAPPING, "nuop"),
        description="default without single-qubit merging (raw NuOp output)",
    ),
    PipelineConfig(
        name="optimized",
        passes=(*_DEVICE_MAPPING, "nuop", "cancel", "merge-1q"),
        description="default plus peephole cancellation of adjacent inverses",
    ),
    PipelineConfig(
        name="no-cancellation",
        passes=(*_DEVICE_MAPPING, "nuop", "merge-1q"),
        description="ablation partner of 'optimized': identical but for the "
        "cancellation pass (content-equal to 'default')",
    ),
    PipelineConfig(
        name="fused",
        passes=(*_DEVICE_MAPPING, "fuse-2q", "nuop", "merge-1q"),
        description="fuse two-qubit runs into SU(4) blocks before NuOp "
        "(the G7/R5 joint-decomposition effect)",
    ),
    PipelineConfig(
        name="euler-zxz",
        passes=(*_DEVICE_MAPPING, "nuop", "cancel", "merge-1q", "euler:zxz"),
        description="hardware-realistic output: virtual-Z framed pulses",
    ),
    PipelineConfig(
        name="scheduled",
        passes=(*_DEVICE_MAPPING, "nuop", "merge-1q", "schedule"),
        description="default plus an ASAP schedule with calibrated durations",
    ),
):
    register_pipeline(_config)
del _config
