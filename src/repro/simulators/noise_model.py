"""Calibration-driven noise model.

A :class:`NoiseModel` holds the per-qubit and per-edge calibration data a
device exposes (gate error rates per gate type, T1/T2 times, gate
durations, readout error) and converts it into the Kraus channels applied
by the density-matrix and trajectory simulators.  The construction follows
the paper's simulation setup (Section VI): depolarizing errors scaled by
the calibrated gate error rates plus amplitude damping / dephasing from
T1, T2 and gate durations.

Channels come from memoised constructors (the depolarizing constructor
of :mod:`repro.simulators.noise` and :func:`relaxation_channel` below),
so every gate with the same calibrated error rate (or the same duration
and T1/T2) shares one channel object.

A model becomes read-only when a :class:`~repro.devices.device.Device`
binds it: its tables turn into :class:`~repro.circuits.hashing.FrozenTable`
instances and every attribute write raises.  From then on the device's
gate-type registration is the only writer (it installs a new two-qubit
table per registered type), which is what lets the device memoise its
calibration fingerprint.  Device factories build the per-qubit tables
with :func:`uniform_qubit_table`, so devices built with equal arguments
share one frozen table and its memoised digest.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError, dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.circuits.circuit import Operation
from repro.circuits.hashing import FrozenTable
from repro.simulators.noise import (
    CHANNEL_MEMO_SIZE,
    KrausChannel,
    depolarizing_channel,
    depolarizing_probability_from_error_rate,
    thermal_relaxation_channel,
)

Edge = Tuple[int, int]


@functools.lru_cache(maxsize=CHANNEL_MEMO_SIZE)
def relaxation_channel(duration: float, t1: float, t2: float) -> Optional[KrausChannel]:
    """The thermal-relaxation channel of ``duration``, or ``None`` if it is
    the identity (memoised, so the channel is built and checked once per
    distinct input)."""
    channel = thermal_relaxation_channel(duration, t1, t2)
    return None if channel.is_identity() else channel


CHANNEL_MEMOS = (depolarizing_channel, relaxation_channel)
"""Every memoised channel constructor; emptied together with the
noise-program cache (:func:`repro.simulators.noise_program.clear_noise_program_cache`)."""


_FLAT_TABLES = ("single_qubit_error", "t1", "t2", "readout_error", "gate_durations")
"""Flat calibration tables; with the nested ``two_qubit_error`` table they
are every table a device freezes when it binds a model."""


def uniform_qubit_table(qubits: Iterable[int], value: float) -> FrozenTable:
    """``{qubit: value}`` over ``qubits`` as a frozen table.

    Memoised on the exact arguments (``2`` and ``2.0``, or ``0.0`` and
    ``-0.0``, hash differently and get different tables), so every device
    a factory builds with the same arguments shares one table and its
    digest.
    """
    return _uniform_qubit_table(tuple(qubits), value, f"{type(value).__qualname__}:{value!r}")


@functools.lru_cache(maxsize=256)
def _uniform_qubit_table(qubits: Tuple[int, ...], value: float, exact: str) -> FrozenTable:
    return FrozenTable(dict.fromkeys(qubits, value))


def _canonical_edge(pair: Sequence[int]) -> Edge:
    a, b = int(pair[0]), int(pair[1])
    return (a, b) if a <= b else (b, a)


@dataclass
class NoiseModel:
    """Container for calibration data plus channel construction.

    All error rates are average gate *infidelities* (``1 - fidelity``).
    Durations are in nanoseconds; T1/T2 in the same unit.

    A model is writable until a device binds it.  Binding freezes the
    tables, the scalar defaults and the flags: attribute writes raise
    ``FrozenInstanceError`` and table writes ``TypeError``.  After that
    the device's gate-type registration is the only mutator.  Copies
    made with ``dataclasses.replace`` (:meth:`scaled_two_qubit`) are
    unbound and share the frozen tables they do not replace.
    """

    single_qubit_error: Dict[int, float] = field(default_factory=dict)
    two_qubit_error: Dict[Edge, Dict[str, float]] = field(default_factory=dict)
    default_single_qubit_error: float = 1e-3
    default_two_qubit_error: float = 1e-2
    t1: Dict[int, float] = field(default_factory=dict)
    t2: Dict[int, float] = field(default_factory=dict)
    default_t1: float = 15_000.0
    default_t2: float = 15_000.0
    readout_error: Dict[int, float] = field(default_factory=dict)
    default_readout_error: float = 0.0
    single_qubit_duration: float = 25.0
    two_qubit_duration: float = 32.0
    gate_durations: Dict[str, float] = field(default_factory=dict)
    include_thermal_relaxation: bool = True
    include_idle_noise: bool = True
    _bound: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: object) -> None:
        if self.__dict__.get("_bound", False):
            raise FrozenInstanceError(
                f"cannot assign NoiseModel.{name}: the model is bound to a device"
            )
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if self.__dict__.get("_bound", False):
            raise FrozenInstanceError(
                f"cannot delete NoiseModel.{name}: the model is bound to a device"
            )
        object.__delattr__(self, name)

    # -- device binding --------------------------------------------------------

    def _bind(self) -> None:
        """Freeze every table and attribute (called by ``Device.__init__``)."""
        if self._bound:
            raise ValueError("this noise model is already bound to a device")
        for name in _FLAT_TABLES:
            table = getattr(self, name)
            if not isinstance(table, FrozenTable):
                object.__setattr__(self, name, FrozenTable(table))
        object.__setattr__(
            self,
            "two_qubit_error",
            FrozenTable(
                {
                    edge: per_edge if isinstance(per_edge, FrozenTable) else FrozenTable(per_edge)
                    for edge, per_edge in self.two_qubit_error.items()
                }
            ),
        )
        object.__setattr__(self, "_bound", True)

    def _install_two_qubit_rates(self, type_key: str, rates: Mapping[Edge, float]) -> None:
        """Set ``type_key``'s rate on every edge of ``rates`` (the registration writer).

        Copy-on-write: builds a new frozen table and swaps it in, so a
        table anyone already holds never changes.  Only
        ``Device.register_gate_type`` calls this.
        """
        table = dict(self.two_qubit_error)
        for pair, rate in rates.items():
            edge = _canonical_edge(pair)
            per_edge = dict(table.get(edge, ()))
            per_edge[type_key] = float(rate)
            table[edge] = FrozenTable(per_edge)
        object.__setattr__(self, "two_qubit_error", FrozenTable(table))

    # -- calibration lookups -------------------------------------------------

    def single_qubit_error_rate(self, qubit: int) -> float:
        """Error rate of single-qubit gates on ``qubit``."""
        return self.single_qubit_error.get(int(qubit), self.default_single_qubit_error)

    def two_qubit_error_rate(self, type_key: str, pair: Sequence[int]) -> float:
        """Error rate of the two-qubit gate type ``type_key`` on edge ``pair``."""
        edge = _canonical_edge(pair)
        per_edge = self.two_qubit_error.get(edge, {})
        if type_key in per_edge:
            return per_edge[type_key]
        if "*" in per_edge:
            return per_edge["*"]
        return self.default_two_qubit_error

    def set_two_qubit_error_rate(
        self, type_key: str, pair: Sequence[int], error_rate: float
    ) -> None:
        """Register the error rate of a gate type on an edge.

        Only for models no device has bound yet; a bound model changes
        only through ``Device.register_gate_type``.
        """
        if self._bound:
            raise TypeError(
                "a bound noise model changes only through Device.register_gate_type"
            )
        edge = _canonical_edge(pair)
        self.two_qubit_error.setdefault(edge, {})[type_key] = float(error_rate)

    def scaled_two_qubit(
        self,
        scale: float,
        registered_scales: Optional[Dict[str, float]] = None,
    ) -> "NoiseModel":
        """A copy whose two-qubit error rates are ``scale``x the *unscaled* calibration.

        This is the noise-program side of the Figure 10 error-scale sweeps:
        the compiled circuit is replayed under calibration whose two-qubit
        quality is uniformly ``scale``x worse, without re-registering gate
        types (which would perturb the device's calibration RNG and the
        compilation caches).  Single-qubit rates, T1/T2 and readout error
        are untouched -- the same quantities :meth:`Device.register_gate_type
        <repro.devices.device.Device.register_gate_type>` leaves alone.

        ``registered_scales`` maps type keys to the scale they were
        *registered* with; stored rates already carry that factor, so each
        rate is multiplied by ``scale / registered`` (exactly 1.0 when the
        job's scale matches the registration -- no float round-trip).  Rates
        are capped at 1.0, mirroring registration.
        """
        registered = registered_scales or {}
        factor = float(scale)

        def rescaled(type_key: str, rate: float) -> float:
            multiplier = factor / float(registered.get(type_key, 1.0))
            if multiplier == 1.0:
                return rate
            return min(rate * multiplier, 1.0)

        return replace(
            self,
            two_qubit_error={
                edge: {
                    type_key: rescaled(type_key, rate)
                    for type_key, rate in per_edge.items()
                }
                for edge, per_edge in self.two_qubit_error.items()
            },
            default_two_qubit_error=min(self.default_two_qubit_error * factor, 1.0),
        )

    def qubit_t1(self, qubit: int) -> float:
        """T1 relaxation time of ``qubit``."""
        return self.t1.get(int(qubit), self.default_t1)

    def qubit_t2(self, qubit: int) -> float:
        """T2 coherence time of ``qubit``."""
        return self.t2.get(int(qubit), self.default_t2)

    def qubit_readout_error(self, qubit: int) -> float:
        """Readout (measurement bit-flip) error probability of ``qubit``."""
        return self.readout_error.get(int(qubit), self.default_readout_error)

    def operation_duration(self, operation: Operation) -> float:
        """Duration (ns) of an operation, looked up by gate type key."""
        key = operation.gate.type_key
        if key in self.gate_durations:
            return self.gate_durations[key]
        if operation.gate.name in self.gate_durations:
            return self.gate_durations[operation.gate.name]
        if operation.is_two_qubit:
            return self.two_qubit_duration
        return self.single_qubit_duration

    def operation_fidelity(self, operation: Operation, physical_qubits: Sequence[int]) -> float:
        """Hardware fidelity ``1 - error rate`` of ``operation``.

        ``physical_qubits[i]`` is the physical qubit backing circuit qubit
        ``i``; the operation's qubit indices are circuit-local.
        """
        physical = [physical_qubits[q] for q in operation.qubits]
        if operation.is_two_qubit:
            rate = self.two_qubit_error_rate(operation.gate.type_key, physical)
        else:
            rate = self.single_qubit_error_rate(physical[0])
        return 1.0 - rate

    # -- channel construction --------------------------------------------------

    def error_channels_for_operation(
        self, operation: Operation, physical_qubits: Sequence[int]
    ) -> List[Tuple[KrausChannel, Tuple[int, ...]]]:
        """Error channels to apply after ``operation``.

        Returns ``(channel, circuit_qubits)`` pairs.  The depolarizing part
        acts jointly on the operation's qubits; thermal relaxation acts on
        each qubit individually for the gate's duration.
        """
        channels: List[Tuple[KrausChannel, Tuple[int, ...]]] = []
        physical = [physical_qubits[q] for q in operation.qubits]
        if operation.is_two_qubit:
            rate = self.two_qubit_error_rate(operation.gate.type_key, physical)
            probability = depolarizing_probability_from_error_rate(rate, 2)
            if probability > 0:
                channels.append(
                    (depolarizing_channel(probability, 2), tuple(operation.qubits))
                )
        else:
            rate = self.single_qubit_error_rate(physical[0])
            probability = depolarizing_probability_from_error_rate(rate, 1)
            if probability > 0:
                channels.append(
                    (depolarizing_channel(probability, 1), tuple(operation.qubits))
                )
        if self.include_thermal_relaxation:
            duration = self.operation_duration(operation)
            for circuit_qubit, physical_qubit in zip(operation.qubits, physical):
                channel = relaxation_channel(
                    duration, self.qubit_t1(physical_qubit), self.qubit_t2(physical_qubit)
                )
                if channel is not None:
                    channels.append((channel, (circuit_qubit,)))
        return channels

    def idle_channel(
        self, circuit_qubit: int, physical_qubit: int, duration: float
    ) -> Optional[Tuple[KrausChannel, Tuple[int, ...]]]:
        """Thermal relaxation applied to a qubit idling for ``duration``."""
        if not (self.include_thermal_relaxation and self.include_idle_noise):
            return None
        if duration <= 0:
            return None
        channel = relaxation_channel(
            duration, self.qubit_t1(physical_qubit), self.qubit_t2(physical_qubit)
        )
        if channel is None:
            return None
        return channel, (circuit_qubit,)

    # -- convenience constructors ---------------------------------------------

    @classmethod
    def uniform(
        cls,
        num_qubits: int,
        two_qubit_error: float,
        single_qubit_error: float = 1e-3,
        t1: float = 15_000.0,
        t2: float = 15_000.0,
        readout_error: float = 0.0,
    ) -> "NoiseModel":
        """Noise model with identical parameters on every qubit and edge.

        Useful for controlled experiments such as the error-rate sweeps of
        Figures 7 and 10f, where the paper varies a single mean error rate.
        """
        model = cls(
            default_single_qubit_error=single_qubit_error,
            default_two_qubit_error=two_qubit_error,
            default_t1=t1,
            default_t2=t2,
            default_readout_error=readout_error,
        )
        for qubit in range(num_qubits):
            model.single_qubit_error[qubit] = single_qubit_error
            model.t1[qubit] = t1
            model.t2[qubit] = t2
            model.readout_error[qubit] = readout_error
        return model
