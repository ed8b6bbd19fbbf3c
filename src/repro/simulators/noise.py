"""Noise channels in Kraus form.

Mirrors the channels the paper's Qiskit Aer setup uses (Section VI):
depolarizing noise parameterised by calibrated gate error rates, plus
amplitude damping and dephasing derived from T1/T2 times and gate
durations.  Readout error is modelled as a classical bit-flip confusion
matrix applied at sampling time (:mod:`repro.simulators.sampling`).

:func:`depolarizing_channel` is memoised on its exact inputs (as is the
noise model's relaxation channel,
:func:`repro.simulators.noise_model.relaxation_channel`): a study lowers
hundreds of gates against a handful of distinct calibrated error rates
and gate durations, so each distinct channel is built and validated once
and then shared.  Sharing is safe because a :class:`KrausChannel` is
frozen and its operators are read-only.
:func:`repro.simulators.noise_program.clear_noise_program_cache` empties
the memos.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

CHANNEL_MEMO_SIZE = 1024
"""LRU bound of each channel-constructor memo.  A study sees one distinct
depolarizing channel per calibrated (gate type, edge) error rate and one
relaxation channel per (duration, T1, T2); a few dozen in practice."""


@dataclass(frozen=True)
class KrausChannel:
    """A completely-positive trace-preserving map given by Kraus operators."""

    name: str
    operators: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        operators = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        if not operators:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = operators[0].shape[0]
        total = sum(op.conj().T @ op for op in operators)
        if not np.allclose(total, np.eye(dim), atol=1e-7):
            raise ValueError(f"channel {self.name!r} is not trace preserving")
        for op in operators:
            op.setflags(write=False)
        object.__setattr__(self, "operators", operators)

    @property
    def num_qubits(self) -> int:
        """Number of qubits the channel acts on."""
        return int(round(np.log2(self.operators[0].shape[0])))

    def is_identity(self, atol: float = 1e-12) -> bool:
        """True if the channel is (numerically) the identity map."""
        if len(self.operators) == 1:
            op = self.operators[0]
            return bool(np.allclose(op @ op.conj().T, np.eye(op.shape[0]), atol=atol))
        # A multi-operator channel is the identity only if all non-unitary
        # operators are negligible.
        dim = self.operators[0].shape[0]
        main = self.operators[0]
        rest = sum(np.linalg.norm(op) for op in self.operators[1:])
        return bool(np.allclose(main, np.eye(dim), atol=atol) and rest < atol)


def pauli_string_matrix(label: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis given by ``label`` (e.g. ``"XZ"``)."""
    matrix = np.array([[1.0 + 0j]])
    for char in label:
        matrix = np.kron(matrix, _PAULIS[char])
    return matrix


def depolarizing_probability_from_error_rate(error_rate: float, num_qubits: int) -> float:
    """Convert a reported average gate error rate into a depolarizing probability.

    For the uniform depolarizing channel ``rho -> (1-p) rho + p I/d`` the
    average gate infidelity is ``p (d-1)/d``; inverting gives
    ``p = error_rate * d / (d-1)``.  The result is clipped to ``[0, 1]``.
    """
    if error_rate < 0:
        raise ValueError("error rate must be non-negative")
    dim = 2**num_qubits
    probability = error_rate * dim / (dim - 1)
    return float(min(max(probability, 0.0), 1.0))


@functools.lru_cache(maxsize=4)
def _pauli_basis(num_qubits: int) -> Tuple[np.ndarray, ...]:
    """All ``4^n`` Pauli strings on ``num_qubits`` qubits, identity first."""
    labels = ("".join(chars) for chars in itertools.product("IXYZ", repeat=num_qubits))
    basis = tuple(pauli_string_matrix(label) for label in labels)
    for matrix in basis:
        matrix.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=CHANNEL_MEMO_SIZE)
def depolarizing_channel(probability: float, num_qubits: int = 1) -> KrausChannel:
    """Uniform depolarizing channel on ``num_qubits`` qubits.

    With probability ``probability`` the state is replaced by the maximally
    mixed state; equivalently each non-identity Pauli is applied with
    probability ``probability / 4^n``.  Memoised: equal inputs return the
    same (immutable) channel object.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("depolarizing probability must be in [0, 1]")
    basis = _pauli_basis(num_qubits)
    dim = len(basis)
    identity_weight = np.sqrt(1.0 - probability + probability / dim)
    pauli_weight = np.sqrt(probability / dim)
    operators: List[np.ndarray] = [identity_weight * basis[0]]
    operators.extend(pauli_weight * pauli for pauli in basis[1:])
    return KrausChannel(f"depolarizing({probability:.4g}, {num_qubits}q)", tuple(operators))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Single-qubit amplitude damping with decay probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel(f"amplitude_damping({gamma:.4g})", (k0, k1))


def phase_damping_channel(lam: float) -> KrausChannel:
    """Single-qubit phase damping (pure dephasing) with parameter ``lam``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, np.sqrt(lam)]], dtype=complex)
    return KrausChannel(f"phase_damping({lam:.4g})", (k0, k1))


def bit_flip_channel(probability: float) -> KrausChannel:
    """Single-qubit bit-flip channel (used for readout-error modelling tests)."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    k0 = np.sqrt(1 - probability) * _PAULIS["I"]
    k1 = np.sqrt(probability) * _PAULIS["X"]
    return KrausChannel(f"bit_flip({probability:.4g})", (k0, k1))


def thermal_relaxation_channel(
    duration: float, t1: float, t2: float
) -> KrausChannel:
    """Amplitude damping plus dephasing for an idle period of ``duration``.

    ``t1`` and ``t2`` are relaxation/coherence times in the same units as
    ``duration``.  The channel composes amplitude damping with decay
    probability ``1 - exp(-duration/t1)`` and pure dephasing chosen so the
    total coherence decay matches ``exp(-duration/t2)``.  ``t2`` is capped
    at ``2 * t1`` (physicality constraint).
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    t2 = min(t2, 2.0 * t1)
    gamma = 1.0 - np.exp(-duration / t1)
    # Pure-dephasing rate: 1/T_phi = 1/T2 - 1/(2 T1).
    inverse_t_phi = max(1.0 / t2 - 1.0 / (2.0 * t1), 0.0)
    lam = 1.0 - np.exp(-2.0 * duration * inverse_t_phi)
    amplitude = amplitude_damping_channel(float(gamma))
    dephasing = phase_damping_channel(float(lam))
    return compose_channels(
        f"thermal_relaxation(t={duration:.3g})", amplitude, dephasing
    )


def compose_channels(name: str, *channels: KrausChannel) -> KrausChannel:
    """Compose channels acting on the same qubits (applied left to right)."""
    if not channels:
        raise ValueError("need at least one channel to compose")
    operators: List[np.ndarray] = [np.eye(channels[0].operators[0].shape[0], dtype=complex)]
    for channel in channels:
        operators = [k @ op for op in operators for k in channel.operators]
    # Drop numerically negligible operators to keep trajectory sampling fast.
    kept = [op for op in operators if np.linalg.norm(op) > 1e-12]
    return KrausChannel(name, tuple(kept))


def expand_channel(channel: KrausChannel, copies: int) -> KrausChannel:
    """Tensor ``copies`` independent copies of a single-qubit channel together."""
    if channel.num_qubits != 1:
        raise ValueError("expand_channel expects a single-qubit channel")
    operators = [np.array([[1.0 + 0j]])]
    for _ in range(copies):
        operators = [np.kron(op, k) for op in operators for k in channel.operators]
    kept = [op for op in operators if np.linalg.norm(op) > 1e-12]
    return KrausChannel(f"{channel.name}^x{copies}", tuple(kept))


def average_channel_fidelity(channel: KrausChannel) -> float:
    """Average gate fidelity of a channel relative to the identity.

    ``F_avg = (sum_k |Tr K_k|^2 + d) / (d^2 + d)``.
    """
    dim = channel.operators[0].shape[0]
    total = sum(abs(np.trace(op)) ** 2 for op in channel.operators)
    return float((total + dim) / (dim**2 + dim))
