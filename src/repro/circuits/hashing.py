"""Content hashing for circuits, gates and instruction sets.

The experiment engine (:mod:`repro.experiments.engine`) and both
compilation cache tiers (:mod:`repro.core.pipeline` in memory,
:mod:`repro.caching.disk` on disk -- which additionally folds whole key
tuples through :func:`hash_scalars`, under a namespace label, to name its
entry files) need stable, cheap keys for
"have I seen this exact compilation problem before?".  Python's built-in
``hash`` is unsuitable: :class:`~repro.circuits.circuit.QuantumCircuit` is
mutable, gate matrices are numpy arrays, and hash randomisation would make
keys differ between processes.  This module derives SHA-256 digests from
the *content* that determines compilation and simulation behaviour:

* a gate hashes its unitary matrix (the authoritative representation --
  two gates with equal matrices but different construction paths collide
  on purpose) plus its type key,
* a circuit hashes its qubit count and the ordered operation list,
* an instruction set hashes its member gate types (or continuous family).

Digests are hex strings, safe to combine into tuple cache keys and to
compare across worker processes.

**Circuit digest memo.**  :func:`circuit_fingerprint` stores its result on
the circuit, stamped with ``(num_qubits, len(circuit))``, and returns the
stored digest while the stamp still matches.  The circuit IR is
append-only (``append`` is the only mutator; ``copy()`` builds a new
object and carries the memo over), so a circuit whose stamp is unchanged
has unchanged content: the stamp is exact without a lock.  The digest is
computed over one snapshot of the operation list, so a thread appending
while another hashes can only leave a memo stamped for the shorter
prefix, which the next call at the new length ignores.  The memo is
excluded from pickles, so disk-cache entries are byte-identical whether
or not a circuit was hashed before it was stored.  Daemon requests that
share suite circuits (:mod:`repro.service.server`) and compiled circuits
served from the memory compile tier therefore hash each circuit once.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.gate import Gate
    from repro.core.instruction_sets import InstructionSet

_FLOAT_DECIMALS = 12
"""Floats are rounded before hashing so keys built from equal values match
even when one copy went through a float32 round-trip or a ``0.0`` vs
``-0.0`` normalisation."""


def array_digest_bytes(array: np.ndarray) -> bytes:
    """The exact bytes :func:`update_digest_array` feeds a digest for ``array``.

    Callers that hash one array many times (a noise program's shared Kraus
    operators) compute these once and feed them with ``digest.update``.
    """
    canonical = np.ascontiguousarray(np.round(np.asarray(array, dtype=complex), _FLOAT_DECIMALS))
    canonical = canonical + 0.0  # collapse -0.0 to +0.0 in both components
    return str(canonical.shape).encode() + canonical.tobytes()


def _update_with_array(digest: "hashlib._Hash", array: np.ndarray) -> None:
    """Feed a numpy array into a digest in a dtype/shape-stable way."""
    digest.update(array_digest_bytes(array))


def _update_with_scalars(digest: "hashlib._Hash", values: Iterable[object]) -> None:
    """Feed a flat sequence of simple scalars (str/int/float/bool/None) into a digest."""
    for value in values:
        if isinstance(value, float):
            rendered = f"f:{round(value, _FLOAT_DECIMALS)!r}"
        else:
            rendered = f"{type(value).__name__}:{value!r}"
        digest.update(rendered.encode())
        digest.update(b"\x1f")


def update_digest_scalars(digest: "hashlib._Hash", *values: object) -> None:
    """Feed simple scalars into an externally managed digest.

    Public counterpart of the module-private helpers, for callers that
    fingerprint large composite objects (e.g. precompiled noise programs)
    incrementally instead of concatenating per-component hex digests.
    """
    _update_with_scalars(digest, values)


def update_digest_array(digest: "hashlib._Hash", array: np.ndarray) -> None:
    """Feed a numpy array into an externally managed digest (dtype/shape stable)."""
    _update_with_array(digest, array)


def hash_scalars(*values: object) -> str:
    """Digest of a flat sequence of simple scalars (helper for composite keys)."""
    digest = hashlib.sha256()
    _update_with_scalars(digest, values)
    return digest.hexdigest()


class FrozenTable(dict):
    """A read-only ``dict`` that memoises its :func:`hash_mapping` digest.

    The noise model's calibration tables become frozen tables when a
    device binds them (:class:`repro.simulators.noise_model.NoiseModel`).
    Every mutator raises ``TypeError``, so the content -- and therefore
    the digest, computed on first use -- never changes, and device
    factories that share one table share its digest.  Copies and pickles
    rebuild a frozen table of the same content (``__reduce__``; a
    ``types.MappingProxyType`` survives neither) and recompute the digest
    lazily.  ``dict(table)`` and ``table.copy()`` give mutable plain
    dicts.
    """

    __slots__ = ("_digest",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self._digest: Optional[str] = None

    def _read_only(self, *args: object, **kwargs: object) -> None:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only  # type: ignore[assignment]
    clear = pop = popitem = setdefault = update = _read_only  # type: ignore[assignment]

    def __reduce__(self):
        return (type(self), (dict(self),))


def hash_mapping(mapping: Mapping[object, object]) -> str:
    """Order-insensitive digest of a mapping with scalar keys and values.

    Nested mappings (e.g. per-edge, per-gate-type error-rate tables) are
    supported one level deep, which covers every calibration table in the
    noise model.  A :class:`FrozenTable` is hashed once and then answers
    from its memo.
    """
    if isinstance(mapping, FrozenTable):
        if mapping._digest is None:
            mapping._digest = _hash_mapping_content(mapping)
        return mapping._digest
    return _hash_mapping_content(mapping)


def _hash_mapping_content(mapping: Mapping[object, object]) -> str:
    digest = hashlib.sha256()
    for key in sorted(mapping, key=repr):
        value = mapping[key]
        _update_with_scalars(digest, (key,))
        if isinstance(value, Mapping):
            digest.update(hash_mapping(value).encode())
        else:
            _update_with_scalars(digest, (value,))
    return digest.hexdigest()


def gate_fingerprint(gate: "Gate") -> str:
    """Content digest of a gate: its type key and unitary matrix."""
    digest = hashlib.sha256()
    _update_with_scalars(digest, (gate.type_key,))
    _update_with_array(digest, gate.matrix)
    return digest.hexdigest()


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """Content digest of a circuit.

    Covers the qubit count and the ordered operation list (gate matrices +
    qubit tuples).  The circuit *name* is deliberately excluded: two
    circuits with identical operations compile identically, and experiment
    drivers routinely rename circuits per instruction set.
    """
    num_qubits = circuit.num_qubits
    memo = circuit._digest_memo
    if memo is not None and memo[0] == (num_qubits, len(circuit)):
        return memo[1]
    # One snapshot read: a concurrent ``append`` can only extend the list,
    # so the snapshot is an exact prefix and its stamp names it exactly.
    operations = circuit.operations
    stamp = (num_qubits, len(operations))
    digest = hashlib.sha256()
    _update_with_scalars(digest, ("circuit", stamp[0], stamp[1]))
    for operation in operations:
        _update_with_scalars(digest, operation.qubits)
        _update_with_scalars(digest, (operation.gate.type_key,))
        _update_with_array(digest, operation.gate.matrix)
    hexdigest = digest.hexdigest()
    circuit._digest_memo = (stamp, hexdigest)
    return hexdigest


def instruction_set_fingerprint(instruction_set: "InstructionSet") -> str:
    """Content digest of an instruction set.

    Discrete sets hash their member gate types (label, calibration key and
    unitary); continuous sets hash the family name.  The set name is
    included because the compiled circuit records it and error-scale
    bookkeeping is keyed by it (the scaled ``FullfSim-2x`` variants share
    gate content but must not share cache entries with ``FullfSim`` when
    compiled at a different error scale -- the scale itself is part of the
    compilation cache key, and the name disambiguates result labelling).
    """
    digest = hashlib.sha256()
    _update_with_scalars(
        digest,
        ("instruction_set", instruction_set.name, instruction_set.vendor,
         instruction_set.continuous_family),
    )
    for gate_type in instruction_set.gate_types:
        _update_with_scalars(digest, (gate_type.label, gate_type.type_key))
        _update_with_array(digest, gate_type.gate.matrix)
    return digest.hexdigest()


ArrayLike = Union[Sequence[float], np.ndarray]


def array_fingerprint(array: ArrayLike) -> str:
    """Digest of a bare numeric array (used for ideal-distribution caching)."""
    digest = hashlib.sha256()
    _update_with_array(digest, np.asarray(array))
    return digest.hexdigest()
