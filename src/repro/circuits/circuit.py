"""Quantum circuit intermediate representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Operation` objects
(a gate applied to a tuple of qubit indices).  The IR is intentionally
simple: the compiler passes (:mod:`repro.compiler`), NuOp
(:mod:`repro.core`) and the simulators (:mod:`repro.simulators`) all
iterate over operations directly.

Qubit ordering convention: qubit 0 is the most significant bit of a basis
state index, i.e. the state ``|q0 q1 ... q_{n-1}>`` has integer index
``sum(q_k * 2**(n-1-k))``.  This matches :func:`repro.gates.unitary.embed_unitary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import gate as gate_module
from repro.circuits.gate import Gate
from repro.gates.unitary import embed_unitary


@dataclass(frozen=True)
class Operation:
    """A gate applied to specific qubits of a circuit."""

    gate: Gate
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != self.gate.num_qubits:
            raise ValueError(
                f"gate {self.gate.name!r} acts on {self.gate.num_qubits} qubits, "
                f"got {len(qubits)} indices"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError("operation qubits must be distinct")
        if any(q < 0 for q in qubits):
            raise ValueError("qubit indices must be non-negative")
        object.__setattr__(self, "qubits", qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True when the operation involves exactly two qubits."""
        return len(self.qubits) == 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.gate.name}{self.gate.params or ''} @ {self.qubits}"


class QuantumCircuit:
    """An ordered sequence of gate operations on ``num_qubits`` qubits.

    The operation list is append-only: :meth:`append` is its only mutator
    and every transformation builds a new circuit.  That is what lets
    :func:`repro.circuits.hashing.circuit_fingerprint` memoise the content
    digest here, stamped with ``(num_qubits, len(self))``.
    """

    _digest_memo: Optional[Tuple[Tuple[int, int], str]] = None
    """``(stamp, hex digest)`` set by ``circuit_fingerprint``; never pickled."""

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._operations: List[Operation] = []

    # -- construction -------------------------------------------------------

    def append(self, gate: Gate, qubits: Sequence[int]) -> "QuantumCircuit":
        """Append ``gate`` acting on ``qubits``; returns ``self`` for chaining."""
        operation = Operation(gate, tuple(qubits))
        if any(q >= self.num_qubits for q in operation.qubits):
            raise ValueError(
                f"operation on qubits {operation.qubits} exceeds circuit size "
                f"{self.num_qubits}"
            )
        self._operations.append(operation)
        return self

    def append_operation(self, operation: Operation) -> "QuantumCircuit":
        """Append a pre-built operation."""
        return self.append(operation.gate, operation.qubits)

    def extend(self, operations: Iterable[Operation]) -> "QuantumCircuit":
        """Append every operation from ``operations``."""
        for operation in operations:
            self.append_operation(operation)
        return self

    # Convenience constructors for common gates ------------------------------

    def h(self, qubit: int) -> "QuantumCircuit":
        """Append a Hadamard gate."""
        return self.append(gate_module.named_gate("h"), [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        """Append a Pauli-X gate."""
        return self.append(gate_module.named_gate("x"), [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append an X rotation."""
        return self.append(gate_module.rx_gate(theta), [qubit])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append a Y rotation."""
        return self.append(gate_module.ry_gate(theta), [qubit])

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append a Z rotation."""
        return self.append(gate_module.rz_gate(theta), [qubit])

    def u3(self, alpha: float, beta: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Append an arbitrary single-qubit rotation."""
        return self.append(gate_module.u3_gate(alpha, beta, lam), [qubit])

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        """Append a CZ gate."""
        return self.append(gate_module.named_gate("cz"), [a, b])

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Append a CNOT gate."""
        return self.append(gate_module.named_gate("cx"), [control, target])

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        """Append a SWAP gate."""
        return self.append(gate_module.named_gate("swap"), [a, b])

    def fsim(self, theta: float, phi: float, a: int, b: int) -> "QuantumCircuit":
        """Append an fSim gate."""
        return self.append(gate_module.fsim_gate(theta, phi), [a, b])

    def xy(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        """Append an XY gate."""
        return self.append(gate_module.xy_gate(theta), [a, b])

    def rzz(self, beta: float, a: int, b: int) -> "QuantumCircuit":
        """Append a ZZ interaction."""
        return self.append(gate_module.rzz_gate(beta), [a, b])

    def cphase(self, phi: float, a: int, b: int) -> "QuantumCircuit":
        """Append a controlled-phase gate."""
        return self.append(gate_module.cphase_gate(phi), [a, b])

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int], name: str = "unitary") -> "QuantumCircuit":
        """Append an arbitrary unitary as a single operation."""
        return self.append(gate_module.unitary_gate(matrix, name=name), qubits)

    # -- inspection ----------------------------------------------------------

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """Immutable view of the operation list."""
        return tuple(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names."""
        counts: Dict[str, int] = {}
        for operation in self._operations:
            counts[operation.gate.name] = counts.get(operation.gate.name, 0) + 1
        return counts

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit operations; the paper's primary instruction-count metric."""
        return sum(1 for operation in self._operations if operation.is_two_qubit)

    def num_single_qubit_gates(self) -> int:
        """Number of single-qubit operations."""
        return sum(1 for operation in self._operations if len(operation.qubits) == 1)

    def two_qubit_operations(self) -> List[Operation]:
        """List of the two-qubit operations, in circuit order."""
        return [operation for operation in self._operations if operation.is_two_qubit]

    def depth(self) -> int:
        """Circuit depth counting every gate as one time step."""
        frontier = [0] * self.num_qubits
        for operation in self._operations:
            level = max(frontier[q] for q in operation.qubits) + 1
            for q in operation.qubits:
                frontier[q] = level
        return max(frontier) if frontier else 0

    def two_qubit_depth(self) -> int:
        """Circuit depth counting only two-qubit gates."""
        frontier = [0] * self.num_qubits
        for operation in self._operations:
            if not operation.is_two_qubit:
                continue
            level = max(frontier[q] for q in operation.qubits) + 1
            for q in operation.qubits:
                frontier[q] = level
        return max(frontier) if frontier else 0

    def active_qubits(self) -> List[int]:
        """Sorted list of qubits touched by at least one operation."""
        touched = {q for operation in self._operations for q in operation.qubits}
        return sorted(touched)

    # -- transformation ------------------------------------------------------

    def copy(self) -> "QuantumCircuit":
        """Shallow copy (operations are immutable, so this is safe)."""
        clone = QuantumCircuit(self.num_qubits, name=self.name)
        clone._operations = list(self._operations)
        clone._digest_memo = self._digest_memo
        return clone

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit."""
        inverted = QuantumCircuit(self.num_qubits, name=f"{self.name}_dg")
        for operation in reversed(self._operations):
            inverted.append(operation.gate.inverse(), operation.qubits)
        return inverted

    def compose(self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Return a new circuit equal to ``self`` followed by ``other``.

        ``qubits`` maps the other circuit's qubit ``i`` onto ``qubits[i]`` of
        this circuit (identity mapping by default).
        """
        mapping = list(qubits) if qubits is not None else list(range(other.num_qubits))
        if len(mapping) != other.num_qubits:
            raise ValueError("qubit mapping length must match the other circuit size")
        if any(q < 0 or q >= self.num_qubits for q in mapping):
            raise ValueError("qubit mapping exceeds this circuit's size")
        combined = self.copy()
        for operation in other:
            combined.append(operation.gate, [mapping[q] for q in operation.qubits])
        return combined

    def remap_qubits(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a copy with every qubit ``q`` relabelled to ``mapping[q]``."""
        size = num_qubits if num_qubits is not None else self.num_qubits
        remapped = QuantumCircuit(size, name=self.name)
        for operation in self._operations:
            remapped.append(operation.gate, [mapping[q] for q in operation.qubits])
        return remapped

    def map_operations(
        self, function: Callable[[Operation], Iterable[Operation]]
    ) -> "QuantumCircuit":
        """Return a new circuit with each operation replaced by ``function(op)``."""
        result = QuantumCircuit(self.num_qubits, name=self.name)
        for operation in self._operations:
            for replacement in function(operation):
                result.append_operation(replacement)
        return result

    def __getstate__(self) -> Dict[str, object]:
        # The digest memo is derived state: leaving it out keeps pickles
        # (and so disk-cache entries) byte-identical whether or not the
        # circuit was fingerprinted first.
        state = dict(self.__dict__)
        state.pop("_digest_memo", None)
        return state

    # -- linear algebra ------------------------------------------------------

    def to_unitary(self) -> np.ndarray:
        """Return the full circuit unitary (small circuits only).

        The cost is exponential in qubit count; a guard refuses circuits
        with more than 10 qubits to avoid accidental memory blow-ups.
        """
        if self.num_qubits > 10:
            raise ValueError("to_unitary is limited to circuits with <= 10 qubits")
        dim = 2**self.num_qubits
        unitary = np.eye(dim, dtype=complex)
        for operation in self._operations:
            full = embed_unitary(operation.gate.matrix, operation.qubits, self.num_qubits)
            unitary = full @ unitary
        return unitary

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """One-line-per-operation text rendering (useful in tests and docs)."""
        lines = [f"{self.name}: {self.num_qubits} qubits, {len(self)} ops"]
        for operation in self._operations:
            params = ""
            if operation.gate.params:
                params = "(" + ", ".join(f"{p:.4g}" for p in operation.gate.params) + ")"
            lines.append(f"  {operation.gate.name}{params} {list(operation.qubits)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"ops={len(self._operations)})"
        )
