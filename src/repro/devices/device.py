"""Generic device model: topology + calibration data + gate-type registry.

A :class:`Device` couples a :class:`~repro.devices.topology.Topology` with
a :class:`~repro.simulators.noise_model.NoiseModel` and knows how to
*sample* calibration data for new two-qubit gate types.  The paper's study
needs per-edge fidelities for every gate type in every candidate
instruction set; real devices only publish calibration data for the gate
types they already support, so the remaining types are modelled by the
error-rate distributions the paper specifies (Section VI):

* Sycamore: gate types other than SYC are drawn from a normal distribution
  with mean 0.62% and standard deviation 0.24%.
* Aspen-8: arbitrary ``XY(theta)`` gates are drawn uniformly from the
  95-99% fidelity range.

``noise_variation=False`` reproduces the Figure 10e ablation where every
gate type on an edge shares the same error rate.

**Calibration fingerprint memo.**  A device's calibration is fixed at
construction except for one mutator, :meth:`Device.register_gate_type`.
Binding freezes the noise model (see
:mod:`repro.simulators.noise_model`) and the topology graph, and the
device's own identity attributes cannot be reassigned.  Each
registration appends ``(type key, scale, provided rates)`` to an ordered
log.  For a seeded device the two-qubit table is then a function of the
static calibration, the seed, the error distribution and that log, so
:meth:`Device.calibration_fingerprint` looks the digest up in a
process-wide LRU keyed on ``(static digest, rendered log)`` and runs the
full formula (:func:`_calibration_digest`) only on a miss.  The key
renders scalars with their type and exact ``repr`` (provided rates as
the plain floats registration stored), so it tells apart everything the
formula tells apart (``2`` vs ``2.0``, ``0.0`` vs ``-0.0``).  A daemon request builds a fresh device that replays the same
registrations as the previous request, so its fingerprints are memo hits.
Unseeded devices (``seed=None``) draw from fresh entropy and always run
the formula.  A device is single-writer: registering on one thread while
another thread uses the same device was never supported.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching.lru import register_cache
from repro.circuits.hashing import FrozenTable, hash_mapping, hash_scalars
from repro.devices.topology import Topology
from repro.simulators.noise_model import NoiseModel

Edge = Tuple[int, int]

_CALIBRATION_MEMO = register_cache("calibration fingerprints", 1024)
"""Process-wide calibration-fingerprint memo.  A design study visits one
device state per registration (about 8 per study), so the bound holds
every state of a few hundred distinct studies."""

_FIXED_ATTRIBUTES = frozenset(
    ("name", "topology", "noise_model", "two_qubit_error_distribution", "noise_variation", "seed")
)
"""Device attributes the fingerprint covers; assignable only in ``__init__``."""


def _exact(value: object) -> str:
    """``value`` rendered with its type and exact ``repr`` (memo-key component)."""
    return f"{type(value).__qualname__}:{value!r}"


@dataclass(frozen=True)
class GateErrorDistribution:
    """Distribution from which per-edge gate error rates are sampled.

    ``kind`` is one of ``"fixed"``, ``"normal"`` or ``"uniform"``.

    * ``fixed``: every edge gets ``mean``.
    * ``normal``: edges get ``Normal(mean, std)`` clipped to
      ``[minimum, maximum]``.
    * ``uniform``: edges get ``Uniform(minimum, maximum)``.
    """

    kind: str = "normal"
    mean: float = 0.0062
    std: float = 0.0024
    minimum: float = 1e-4
    maximum: float = 0.15

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one error rate."""
        if self.kind == "fixed":
            return float(self.mean)
        if self.kind == "normal":
            value = rng.normal(self.mean, self.std)
            return float(np.clip(value, self.minimum, self.maximum))
        if self.kind == "uniform":
            return float(rng.uniform(self.minimum, self.maximum))
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    def expected(self) -> float:
        """Mean error rate of the distribution (used when noise variation is disabled)."""
        if self.kind in ("fixed", "normal"):
            return float(self.mean)
        if self.kind == "uniform":
            return float((self.minimum + self.maximum) / 2.0)
        raise ValueError(f"unknown distribution kind {self.kind!r}")


class Device:
    """A quantum device: topology, calibration data and gate-type registry.

    Construction binds the noise model, which freezes its tables, scalar
    defaults and flags.  The topology graph is frozen too, and the
    constructor's arguments cannot be reassigned.  From then on
    :meth:`register_gate_type` is the only mutator: it writes the two-qubit
    table and appends to :attr:`registration_log`, which keys the
    calibration-fingerprint memo (see the module docstring).  Give a
    device all its other calibration (readout errors included) before
    constructing it.
    """

    def __init__(
        self,
        name: str,
        topology: Topology,
        noise_model: NoiseModel,
        two_qubit_error_distribution: GateErrorDistribution,
        noise_variation: bool = True,
        seed: Optional[int] = 2021,
    ):
        noise_model._bind()
        self.name = name
        self.topology = topology
        self.noise_model = noise_model
        self.two_qubit_error_distribution = two_qubit_error_distribution
        self.noise_variation = noise_variation
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._registered_types: Dict[str, float] = {}
        self._registration_log: Tuple[Tuple[str, float, Tuple[Tuple[Edge, float], ...]], ...] = ()
        self._log_key: Tuple[str, ...] = ()
        self._static_key = self._static_calibration_key()

    def __setattr__(self, name: str, value: object) -> None:
        if name in _FIXED_ATTRIBUTES and name in self.__dict__:
            raise AttributeError(f"Device.{name} is fixed at construction")
        object.__setattr__(self, name, value)

    def _static_calibration_key(self) -> Optional[str]:
        """Exact digest of everything but the registrations, or ``None`` when unseeded.

        Covers every attribute of the noise model (frozen tables by their
        memoised digests) and of the error distribution, plus the
        distribution's class (it decides how draws turn into rates): a
        superset of the formula's inputs other than the registered types
        and the rates registration writes.
        """
        if not isinstance(self.seed, (int, np.integer)):
            return None
        distribution = self.two_qubit_error_distribution
        values = [
            self.name,
            self.seed,
            self.noise_variation,
            self.topology.num_qubits,
            repr(self.topology.edges),  # Topology stores plain int pairs
            type(distribution).__qualname__,
        ]
        for name, value in vars(distribution).items():
            values += (name, value)
        for name, value in vars(self.noise_model).items():
            values += (name, hash_mapping(value) if isinstance(value, FrozenTable) else value)
        return hashlib.sha256("\x1f".join(map(_exact, values)).encode()).hexdigest()

    # -- gate-type calibration --------------------------------------------------

    @property
    def registration_log(self) -> Tuple[Tuple[str, float, Tuple[Tuple[Edge, float], ...]], ...]:
        """Every registration so far, in order: ``(type key, scale, provided rates)``.

        Provided rates are ``(edge, stored rate)`` pairs, in edge order,
        for the edges whose rate came from ``error_rates`` rather than a
        draw.  With the static calibration, the seed and the error
        distribution, the log determines the two-qubit table; it keys the
        fingerprint memo.
        """
        return self._registration_log

    @property
    def registered_gate_types(self) -> List[str]:
        """Gate-type keys with calibration data on every edge."""
        return sorted(self._registered_types)

    def registered_type_scales(self) -> Dict[str, float]:
        """Error-scale each registered gate type was calibrated with.

        Registration is first-wins (:meth:`ensure_gate_types` skips keys
        that already have calibration), so a type's stored error rates
        carry exactly this factor.  The error-scale sweeps use it to apply
        a job's scale *relative* to the registration when lowering noise
        programs (:func:`repro.simulators.noise_program.noise_program_for`).
        """
        return dict(self._registered_types)

    def register_gate_type(
        self,
        type_key: str,
        error_rates: Optional[Dict[Edge, float]] = None,
        scale: float = 1.0,
    ) -> None:
        """Provide calibration data for a two-qubit gate type on every edge.

        ``error_rates`` supplies measured values per edge; missing edges
        (or a missing dictionary) are filled by sampling the device's error
        distribution (or its mean when ``noise_variation`` is off).
        ``scale`` multiplies every error rate; the Figure 10a-c sweeps use
        it to model a continuous gate family whose calibration quality is
        1.5x/2x/3x worse.

        This is the only way calibration changes after construction: it
        writes the noise model's two-qubit table and appends to
        :attr:`registration_log`.
        """
        provided = {tuple(sorted(edge)): rate for edge, rate in (error_rates or {}).items()}
        rates: Dict[Edge, float] = {}
        for edge in self.topology.edges:
            if edge in provided:
                rate = provided[edge]
            elif self.noise_variation:
                rate = self.two_qubit_error_distribution.sample(self._rng)
            else:
                rate = self.two_qubit_error_distribution.expected()
            rates[edge] = float(min(rate * scale, 1.0))
        self.noise_model._install_two_qubit_rates(type_key, rates)
        self._registered_types[type_key] = scale
        measured = tuple((edge, rates[edge]) for edge in rates if edge in provided)
        self._registration_log += ((type_key, scale, measured),)
        # Plain ints and floats inside ``measured``: repr is exact.
        self._log_key += (f"{_exact(type_key)}|{_exact(scale)}|{measured!r}",)

    def ensure_gate_types(self, type_keys: Iterable[str], scale: float = 1.0) -> None:
        """Register every gate type in ``type_keys`` that is not yet calibrated."""
        for type_key in type_keys:
            if type_key not in self._registered_types:
                self.register_gate_type(type_key, scale=scale)

    def calibration_fingerprint(self) -> str:
        """Digest of everything about this device that affects compilation.

        Two devices with equal fingerprints produce identical compilation
        results *and* identical future calibration samples: the digest
        covers the device identity (name, seed, noise-variation flag, error
        distribution), the set of already-registered gate types with their
        error scales (which pins down how many samples the calibration RNG
        has drawn), and the full calibration tables of the noise model.
        The compilation cache (:mod:`repro.core.pipeline`) uses this as the
        device component of its keys, so cache entries are shared across
        runs exactly when the device state genuinely matches.

        Memoised process-wide on ``(static digest, registration log)`` (see
        the module docstring); the value is always that of
        :func:`_calibration_digest`.
        """
        if self._static_key is None:
            return _calibration_digest(self)
        key = (self._static_key, self._log_key)
        digest = _CALIBRATION_MEMO.get(key)
        if digest is None:
            digest = _calibration_digest(self)
            _CALIBRATION_MEMO.put(key, digest)
        return digest

    def gate_fidelity(self, type_key: str, edge: Sequence[int]) -> float:
        """Calibrated fidelity of ``type_key`` on ``edge`` (1 - error rate)."""
        return 1.0 - self.noise_model.two_qubit_error_rate(type_key, edge)

    def edge_fidelities(self, type_key: str) -> Dict[Edge, float]:
        """Fidelity of a gate type on every edge of the device."""
        return {edge: self.gate_fidelity(type_key, edge) for edge in self.topology.edges}

    def average_two_qubit_error(self, type_keys: Optional[Sequence[str]] = None) -> float:
        """Mean error rate over edges and the given gate types (default: all registered)."""
        keys = list(type_keys) if type_keys is not None else self.registered_gate_types
        if not keys:
            return self.two_qubit_error_distribution.expected()
        rates = [
            self.noise_model.two_qubit_error_rate(key, edge)
            for key in keys
            for edge in self.topology.edges
        ]
        return float(np.mean(rates))

    # -- convenience --------------------------------------------------------------

    def readout_errors_for(self, physical_qubits: Sequence[int]) -> List[float]:
        """Readout error probabilities for a list of physical qubits."""
        return [self.noise_model.qubit_readout_error(q) for q in physical_qubits]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Device({self.name!r}, qubits={self.topology.num_qubits}, "
            f"gate_types={len(self._registered_types)})"
        )


def _calibration_digest(device: Device) -> str:
    """The calibration fingerprint formula (what the memo stores)."""
    model = device.noise_model
    distribution = device.two_qubit_error_distribution
    return hash_scalars(
        "device",
        device.name,
        device.seed,
        device.noise_variation,
        device.topology.num_qubits,
        repr(sorted(tuple(edge) for edge in device.topology.edges)),
        distribution.kind,
        distribution.mean,
        distribution.std,
        distribution.minimum,
        distribution.maximum,
        hash_mapping(dict(sorted(device._registered_types.items()))),
        hash_mapping(model.single_qubit_error),
        hash_mapping(model.two_qubit_error),
        hash_mapping(model.t1),
        hash_mapping(model.t2),
        hash_mapping(model.readout_error),
        hash_mapping(model.gate_durations),
        model.default_single_qubit_error,
        model.default_two_qubit_error,
        model.default_t1,
        model.default_t2,
        model.default_readout_error,
        model.single_qubit_duration,
        model.two_qubit_duration,
        model.include_thermal_relaxation,
        model.include_idle_noise,
    )
