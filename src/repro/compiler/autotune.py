"""Pipeline autotuner: pick the compiler pipeline per workload by fidelity.

The paper's central claim is that instruction-set and compilation choices
should be selected *per workload* by the fidelity they deliver, yet the
PassManager architecture (:mod:`repro.compiler.manager`) makes the caller
pick a named pipeline by hand.  This module closes that loop: given a
(circuit, device calibration, instruction set) combination, the autotuner
compiles the circuit under a set of candidate pipelines, scores each
compiled result by **predicted compiled fidelity**, and returns the
winner.  ``pipeline="auto"`` anywhere a pipeline name is accepted --
``compile_circuit``, ``compile_circuit_cached``, the experiment engine,
the figure configs and the CLI ``--pipeline`` flag -- routes through it.

Scoring (:func:`predicted_compiled_fidelity`) multiplies three factors of
the emitted circuit:

* the NuOp **decomposition fidelities** (how faithfully each two-qubit
  operation was translated, ``F_d``),
* the calibrated **per-gate hardware fidelities** of every emitted
  operation (``F_h``, including the single-qubit gates the cleanup passes
  add or remove -- this is what differentiates pipelines),
* a **duration cost**: per-qubit idle time under an ASAP schedule decays
  as ``exp(-idle / T2)``, so deeper outputs score lower on devices with
  finite coherence.

Determinism and caching:

* Trial compilations run against **deep copies** of the device, so the
  tuner never advances the real device's calibration RNG; after the
  verdict, the caller compiles with the winning pipeline exactly as if it
  had been requested by name.  ``pipeline="auto"`` is therefore
  bit-identical to ``pipeline=<winner>``.
* Trial compilations go through :func:`~repro.core.pipeline.compile_circuit_cached`,
  so they are served by (and populate) both compilation cache tiers.
* The verdict itself is content-addressed by the same circuit /
  calibration / instruction-set / decomposer fingerprints the compilation
  caches use, and is cached in a process-global memory tier
  (:func:`global_tuner_cache`) plus the persistent disk tier (stored as an
  auxiliary blob inside the configured
  :class:`~repro.caching.disk.DiskCompilationCache`), so warm processes
  re-tune for free.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching.lru import LRUCache, register_cache
from repro.circuits.hashing import (
    circuit_fingerprint,
    instruction_set_fingerprint,
)
from repro.compiler.manager import available_pipelines, resolve_pipeline
from repro.config import list_env
from repro.compiler.scheduling import asap_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.circuits.circuit import QuantumCircuit
    from repro.core.decomposer import NuOpDecomposer
    from repro.core.instruction_sets import InstructionSet
    from repro.core.pipeline import CompiledCircuit
    from repro.devices.device import Device

AUTO_PIPELINE = "auto"
"""The pipeline name that routes compilation through the autotuner."""

AUTOTUNE_BLOB_KIND = "autotune"
"""Namespace under which verdicts are persisted in the disk cache tier."""

CANDIDATES_ENV_VAR = "REPRO_AUTOTUNE_PIPELINES"

TUNER_CACHE_SIZE = 8192
"""Entry bound of the verdict memory tier: verdicts are tiny records, far
cheaper than compiled circuits, so the bound is generous."""

_DEFAULT_CANDIDATES = ("default", "optimized", "fused")
"""Candidate pipelines the tuner scores unless told otherwise: the paper's
toolflow, the peephole-cancellation variant and the SU(4) pre-fusion
variant.  All are fidelity-oriented; analysis-only variants (``scheduled``)
and representation changes (``euler-zxz``) are opt-in via
``REPRO_AUTOTUNE_PIPELINES`` or the ``candidates`` argument."""


def default_candidate_pipelines() -> Tuple[str, ...]:
    """Candidate pipeline names, overridable via ``REPRO_AUTOTUNE_PIPELINES``.

    The environment variable holds a comma-separated list of registered
    pipeline names; unknown names raise at tuning time (same failure mode
    as a typo in ``--pipeline``).
    """
    return list_env(CANDIDATES_ENV_VAR, _DEFAULT_CANDIDATES)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def predicted_compiled_fidelity(
    compiled: "CompiledCircuit",
    device: "Device",
    schedule: Optional[object] = None,
) -> float:
    """Predicted end-to-end fidelity of a compiled circuit on ``device``.

    Product of the NuOp decomposition fidelities, the calibrated hardware
    fidelity of every emitted operation, and an idle-time decoherence
    factor ``exp(-idle / T2)`` per active qubit under an ASAP schedule.
    A pure prediction: reads calibration data but never samples, simulates
    or mutates anything, so it is deterministic and cheap.  ``schedule``
    accepts a precomputed ASAP :class:`~repro.compiler.scheduling.Schedule`
    of the compiled circuit so callers that already built one (the tuner
    reports durations from it) do not pay the schedule walk twice.
    """
    from repro.simulators.estimator import circuit_gate_fidelity

    model = device.noise_model
    fidelity = 1.0
    for value in compiled.decomposition_fidelities:
        fidelity *= float(value)
    physical = compiled.physical_qubits or tuple(range(compiled.circuit.num_qubits))
    fidelity *= circuit_gate_fidelity(compiled.circuit, model, physical)
    if schedule is None:
        schedule = asap_schedule(compiled.circuit, model)
    for qubit in compiled.circuit.active_qubits():
        idle = schedule.qubit_idle_time(qubit)
        if idle > 0.0:
            fidelity *= float(np.exp(-idle / model.qubit_t2(physical[qubit])))
    return float(fidelity)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateScore:
    """Predicted fidelity and hardware cost of one candidate pipeline."""

    pipeline: str
    predicted_fidelity: float
    two_qubit_count: int
    single_qubit_count: int
    duration_ns: float

    def as_row(self) -> Dict[str, object]:
        """Row for tabular reporting."""
        return {
            "pipeline": self.pipeline,
            "predicted_fidelity": round(self.predicted_fidelity, 6),
            "2q": self.two_qubit_count,
            "1q": self.single_qubit_count,
            "duration_ns": round(self.duration_ns, 1),
        }


@dataclass(frozen=True)
class TunerVerdict:
    """The autotuner's decision for one (circuit, calibration, set) key."""

    pipeline: str
    scores: Tuple[CandidateScore, ...]

    def score_for(self, pipeline: str) -> Optional[CandidateScore]:
        """The score of one candidate, or ``None`` if it was not evaluated."""
        for score in self.scores:
            if score.pipeline == pipeline:
                return score
        return None

    def winning_fidelity(self) -> float:
        """Predicted fidelity of the selected pipeline."""
        winner = self.score_for(self.pipeline)
        return winner.predicted_fidelity if winner is not None else 1.0


def TunerVerdictCache(max_entries: int = TUNER_CACHE_SIZE) -> LRUCache:
    """A private verdict memory tier (``verdict_cache=`` callers and tests)."""
    return LRUCache(max_entries)


_GLOBAL_TUNER_CACHE = register_cache("autotuner verdicts", TUNER_CACHE_SIZE)


def global_tuner_cache() -> LRUCache:
    """The process-wide verdict memory tier used when no explicit cache is given."""
    return _GLOBAL_TUNER_CACHE


def tuner_verdict_key(
    circuit: "QuantumCircuit",
    device: "Device",
    instruction_set: "InstructionSet",
    decomposer: "NuOpDecomposer",
    candidates: Sequence[str],
    approximate: bool,
    use_noise_adaptivity: bool,
    merge_single_qubit: bool,
    error_scale: float,
    max_layers: Optional[int],
) -> Tuple:
    """Content-addressed verdict key.

    Built from exactly the fingerprints the compilation caches use --
    circuit, device calibration state, instruction set, decomposer -- plus
    the candidate list (names *and* pipeline content fingerprints, so
    re-registering a candidate with different passes invalidates old
    verdicts) and the scalar compile options.  Hashable, order-stable and
    serialisable across processes, like
    :func:`~repro.core.pipeline.compilation_cache_key`.
    """
    from repro.core.pipeline import _decomposer_fingerprint

    candidate_digest: List[str] = []
    for name in candidates:
        candidate_digest.append(str(name))
        candidate_digest.append(resolve_pipeline(name).fingerprint())
    return (
        "autotune",
        circuit_fingerprint(circuit),
        device.calibration_fingerprint(),
        instruction_set_fingerprint(instruction_set),
        _decomposer_fingerprint(decomposer),
        tuple(candidate_digest),
        bool(approximate),
        bool(use_noise_adaptivity),
        bool(merge_single_qubit),
        float(error_scale),
        max_layers,
    )


# ---------------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------------


def autotune_pipeline(
    circuit: "QuantumCircuit",
    device: "Device",
    instruction_set: "InstructionSet",
    decomposer: Optional["NuOpDecomposer"] = None,
    candidates: Optional[Sequence[str]] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    merge_single_qubit: bool = True,
    layout: Optional[object] = None,
    error_scale: float = 1.0,
    max_layers: Optional[int] = None,
    cache: Optional[object] = None,
    disk_cache: Optional[object] = None,
    verdict_cache: Optional[LRUCache] = None,
) -> TunerVerdict:
    """Pick the candidate pipeline with the best predicted compiled fidelity.

    Lookup order for the verdict is **memory -> disk -> trial compiles**.
    Trial compilations run on deep copies of ``device`` (the real device's
    calibration RNG never advances) and go through
    :func:`~repro.core.pipeline.compile_circuit_cached` with the supplied
    ``cache``/``disk_cache`` tiers, so a warm cache makes re-tuning nearly
    free even when the verdict itself is not cached.  Ties break toward
    the earlier candidate, so the verdict is deterministic for a fixed
    candidate order; ``default`` first means "auto never predicts worse
    than default".

    A pinned ``layout`` is honoured: trial compilations run *with* it, so
    the verdict is valid for the placement the caller will actually
    compile.  Pinned-layout verdicts bypass both verdict cache tiers
    (mirroring the compilation caches, whose keys have no layout
    component) -- correctness over reuse on this deliberate-comparison
    path.
    """
    from repro.caching.disk import get_global_disk_cache
    from repro.core.decomposer import NuOpDecomposer
    from repro.core.pipeline import compile_circuit_cached

    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    candidates = tuple(candidates) if candidates is not None else default_candidate_pipelines()
    if not candidates:
        raise ValueError("autotune needs at least one candidate pipeline")
    verdicts = verdict_cache if verdict_cache is not None else _GLOBAL_TUNER_CACHE
    disk = disk_cache if disk_cache is not None else get_global_disk_cache()

    key: Optional[Tuple] = None
    if layout is None:
        key = tuner_verdict_key(
            circuit,
            device,
            instruction_set,
            decomposer,
            candidates,
            approximate,
            use_noise_adaptivity,
            merge_single_qubit,
            error_scale,
            max_layers,
        )
        verdict = verdicts.get(key)
        if verdict is not None:
            return verdict
        if disk is not None:
            stored = disk.get_blob(AUTOTUNE_BLOB_KIND, key)
            if isinstance(stored, TunerVerdict):
                verdicts.put(key, stored)
                return stored

    scores: List[CandidateScore] = []
    for name in candidates:
        trial_device = copy.deepcopy(device)
        compiled = compile_circuit_cached(
            circuit,
            trial_device,
            instruction_set,
            decomposer=decomposer,
            approximate=approximate,
            use_noise_adaptivity=use_noise_adaptivity,
            merge_single_qubit=merge_single_qubit,
            layout=layout,
            error_scale=error_scale,
            max_layers=max_layers,
            pipeline=name,
            cache=cache,
            disk_cache=disk,
        )
        schedule = asap_schedule(compiled.circuit, trial_device.noise_model)
        scores.append(
            CandidateScore(
                pipeline=name,
                predicted_fidelity=predicted_compiled_fidelity(
                    compiled, trial_device, schedule=schedule
                ),
                two_qubit_count=compiled.two_qubit_gate_count,
                single_qubit_count=compiled.circuit.num_single_qubit_gates(),
                duration_ns=float(schedule.total_duration),
            )
        )

    winner = scores[0]
    for score in scores[1:]:
        if score.predicted_fidelity > winner.predicted_fidelity:
            winner = score
    verdict = TunerVerdict(pipeline=winner.pipeline, scores=tuple(scores))
    if key is not None:
        verdicts.put(key, verdict)
        if disk is not None:
            disk.put_blob(AUTOTUNE_BLOB_KIND, key, verdict)
    return verdict
