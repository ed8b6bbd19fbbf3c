"""Precompiled noise programs: circuits lowered once for every backend.

Every noisy simulator in :mod:`repro.simulators` used to walk the same
path on every run: group the circuit into ASAP moments, look up each
operation's duration, attach the depolarizing + thermal-relaxation Kraus
channels of the :class:`~repro.simulators.noise_model.NoiseModel`, and
add idle channels for the qubits a moment leaves untouched.  That
lowering is pure bookkeeping that depends only on the circuit and the
calibration data -- yet the density-matrix simulator redid it per run and
the trajectory simulator per batch.

A :class:`NoiseProgram` is that lowering done once: a per-moment list of
gate unitaries, per-operation error channels, idle channels and the
moment duration.  Backends (:mod:`repro.simulators.backend`) replay the
program in order, which makes them bit-identical to the legacy inline
loops by construction -- the program records exactly the operations those
loops would have derived, in exactly the order they would have applied
them.

The channels come from memoised constructors
(:data:`repro.simulators.noise_model.CHANNEL_MEMOS`), so every gate with the same calibrated
error rate, or the same duration and T1/T2, references one shared,
immutable channel object: a program holds a few distinct channels many
times over.  Consumers exploit that sharing.
:meth:`NoiseProgram.fingerprint` renders each distinct channel's bytes
once per call, and the superoperator lowering
(:func:`repro.simulators.superop.lower_noise_program`) derives each
channel's superoperator once per call.  :func:`clear_noise_program_cache`
empties the channel memos together with the program cache.

Programs are immutable once built: replays never mutate them, so one
program is safely shared across backends, worker pools (they pickle by
value) and the process-wide cache below.  :func:`noise_program_for`
caches lowered programs per (compiled-circuit content x device
calibration x physical qubits), so a study that simulates the same
compiled circuit repeatedly -- or a warm re-run of a whole study -- pays
the lowering cost once.

:meth:`NoiseProgram.fingerprint` digests the full program content (gate
matrices, every Kraus operator, qubit tuples, durations), giving the
simulation-result cache (:mod:`repro.experiments.engine`,
:mod:`repro.caching.disk`) a key component that is stable across
processes and insensitive to unrelated device state (a gate type
registered for a *different* instruction set changes the device's
calibration fingerprint but not the program lowered for this circuit).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.caching.lru import register_cache
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import as_moments
from repro.circuits.hashing import (
    array_digest_bytes,
    circuit_fingerprint,
    update_digest_array,
    update_digest_scalars,
)
from repro.simulators.noise import KrausChannel
from repro.simulators.noise_model import CHANNEL_MEMOS, NoiseModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.core.pipeline import CompiledCircuit
    from repro.devices.device import Device

ChannelApplication = Tuple[KrausChannel, Tuple[int, ...]]
"""A Kraus channel plus the circuit qubits it acts on."""


@dataclass(frozen=True)
class ProgramOperation:
    """One gate application plus the error channels that follow it."""

    matrix: "object"  # np.ndarray; kept loose so frozen dataclass pickles cleanly
    qubits: Tuple[int, ...]
    channels: Tuple[ChannelApplication, ...] = ()


@dataclass(frozen=True)
class ProgramMoment:
    """One ASAP layer: operations, then idle noise on untouched qubits."""

    operations: Tuple[ProgramOperation, ...]
    idle_channels: Tuple[ChannelApplication, ...] = ()
    duration: float = 0.0


@dataclass
class NoiseProgram:
    """A circuit lowered against a noise model, ready for any backend.

    Treat instances as immutable: they are shared between backends,
    cached process-wide and shipped to worker processes.
    """

    num_qubits: int
    moments: Tuple[ProgramMoment, ...]
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)
    _superop: Optional[object] = field(default=None, repr=False, compare=False)
    """Lazily derived fused-superoperator lowering
    (:func:`repro.simulators.superop.superop_program_for`); cached on the
    program so it is computed once and travels with pickled programs."""
    _trajectory_plan: Optional[object] = field(default=None, repr=False, compare=False)
    """Lazily derived pre-stacked trajectory plan
    (:func:`repro.simulators.superop.trajectory_plan_for`)."""

    def num_operations(self) -> int:
        """Total gate applications across all moments."""
        return sum(len(moment.operations) for moment in self.moments)

    def num_channel_applications(self) -> int:
        """Total error-channel applications (gate noise plus idle noise)."""
        return sum(
            sum(len(op.channels) for op in moment.operations) + len(moment.idle_channels)
            for moment in self.moments
        )

    def fingerprint(self) -> str:
        """Content digest of the whole program (computed once, then cached).

        Covers every gate matrix, every Kraus operator, all qubit tuples
        and all durations -- two programs with equal fingerprints replay
        identically on every backend.  Channel *names* are deliberately
        excluded (they render parameters at low precision); the operators
        are the authoritative content.
        """
        if self._fingerprint is None:
            # Channels are shared objects (memoised constructors), so each
            # one's operator bytes are derived once per call, keyed by id:
            # the program keeps every channel alive for the whole call.
            payloads: Dict[int, bytes] = {}

            def update_channel(channel: KrausChannel) -> None:
                payload = payloads.get(id(channel))
                if payload is None:
                    payload = b"".join(
                        array_digest_bytes(operator) for operator in channel.operators
                    )
                    payloads[id(channel)] = payload
                digest.update(payload)

            digest = hashlib.sha256()
            update_digest_scalars(
                digest, "noise-program", self.num_qubits, len(self.moments)
            )
            for moment in self.moments:
                update_digest_scalars(
                    digest,
                    "moment",
                    moment.duration,
                    len(moment.operations),
                    len(moment.idle_channels),
                )
                for operation in moment.operations:
                    update_digest_scalars(digest, "op", *operation.qubits)
                    update_digest_array(digest, operation.matrix)
                    for channel, qubits in operation.channels:
                        update_digest_scalars(digest, "chan", *qubits)
                        update_channel(channel)
                for channel, qubits in moment.idle_channels:
                    update_digest_scalars(digest, "idle", *qubits)
                    update_channel(channel)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint


def build_noise_program(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel],
    physical_qubits: Optional[Sequence[int]] = None,
) -> NoiseProgram:
    """Lower ``circuit`` against ``noise_model`` into a :class:`NoiseProgram`.

    The lowering mirrors the inline loops the simulators used to run --
    ASAP moments, gate then per-operation error channels in declaration
    order, then idle channels in ascending qubit order for qubits the
    moment left untouched -- so replaying the program is bit-identical to
    the pre-program simulators.  ``noise_model=None`` lowers to a purely
    unitary program (no channels, zero durations).
    """
    n = circuit.num_qubits
    if physical_qubits is None:
        physical_qubits = list(range(n))
    moments: List[ProgramMoment] = []
    for moment in as_moments(circuit):
        if noise_model is None:
            duration = 0.0
        else:
            duration = max(
                (noise_model.operation_duration(op) for op in moment),
                default=0.0,
            )
        busy = set()
        operations: List[ProgramOperation] = []
        for operation in moment:
            busy.update(operation.qubits)
            channels: Tuple[ChannelApplication, ...] = ()
            if noise_model is not None:
                channels = tuple(
                    (channel, tuple(qubits))
                    for channel, qubits in noise_model.error_channels_for_operation(
                        operation, physical_qubits
                    )
                )
            operations.append(
                ProgramOperation(
                    matrix=operation.gate.matrix,
                    qubits=tuple(operation.qubits),
                    channels=channels,
                )
            )
        idle: List[ChannelApplication] = []
        if noise_model is not None and duration > 0:
            for qubit in range(n):
                if qubit in busy:
                    continue
                idle_channel = noise_model.idle_channel(
                    qubit, physical_qubits[qubit], duration
                )
                if idle_channel is not None:
                    channel, qubits = idle_channel
                    idle.append((channel, tuple(qubits)))
        moments.append(
            ProgramMoment(
                operations=tuple(operations),
                idle_channels=tuple(idle),
                duration=duration,
            )
        )
    return NoiseProgram(num_qubits=n, moments=tuple(moments))


# ---------------------------------------------------------------------------
# Process-wide program cache (per compiled circuit x calibration x placement)
# ---------------------------------------------------------------------------

_PROGRAM_CACHE = register_cache("noise programs", 256)
"""Programs hold one small matrix per Kraus operator, so a few hundred
distinct compiled circuits stay comfortably in memory."""


def noise_program_for(
    compiled: "CompiledCircuit", device: "Device", error_scale: float = 1.0
) -> NoiseProgram:
    """The (cached) noise program of a compiled circuit on a device.

    Keyed by the compiled circuit's content, the device's calibration
    fingerprint, the physical-qubit placement and the error scale, so the
    expensive channel construction runs once per distinct (compiled
    circuit x calibration) instead of once per simulation -- the
    density-matrix path used to rebuild it per run and the trajectory
    path per batch.

    ``error_scale`` lowers the program against calibration whose
    two-qubit error rates are uniformly that much worse (the Figure 10
    sweep semantics), **relative to the registration scale** each gate
    type was calibrated with -- gate types a scaled instruction-set
    variant registered itself are not scaled twice.  The compiled circuit
    and therefore the program *structure* are untouched: sweep variants
    of one job replay the same moments with rescaled channel tensors,
    which is exactly what batched replay
    (:func:`repro.simulators.superop.apply_superop_program_batch`) groups.
    """
    scale = float(error_scale)
    key = (
        circuit_fingerprint(compiled.circuit),
        device.calibration_fingerprint(),
        tuple(compiled.physical_qubits),
        scale,
    )
    cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        return cached
    model = device.noise_model
    if scale != 1.0:
        model = model.scaled_two_qubit(scale, device.registered_type_scales())
    program = build_noise_program(
        compiled.circuit, model, list(compiled.physical_qubits)
    )
    program.fingerprint()  # compute once outside any lock; replays share it
    _PROGRAM_CACHE.put(key, program)
    return program


def noise_program_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the noise-program cache."""
    return _PROGRAM_CACHE.stats()


def clear_noise_program_cache() -> None:
    """Drop every cached program and memoised channel, and reset the
    counters (tests/benchmarks), so the next build is genuinely cold."""
    _PROGRAM_CACHE.clear()
    for memo in CHANNEL_MEMOS:
        memo.cache_clear()
