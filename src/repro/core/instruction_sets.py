"""Instruction-set catalogue (Table II of the paper).

An :class:`InstructionSet` is the software-visible set of two-qubit gate
types (plus, implicitly, arbitrary single-qubit rotations).  Three kinds of
sets are studied:

* single-type sets ``S1``-``S7``,
* multi-type sets ``G1``-``G7`` (Google) and ``R1``-``R5`` (Rigetti),
* continuous families ``FullXY`` and ``FullfSim`` where NuOp may pick any
  gate angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core.gate_types import GateType, google_gate_type, rigetti_gate_type


@dataclass(frozen=True)
class InstructionSet:
    """A candidate hardware instruction set.

    Attributes
    ----------
    name:
        Table II label (``"S1"``, ``"G3"``, ``"R5"``, ``"FullfSim"``, ...).
    gate_types:
        The discrete two-qubit gate types exposed to the compiler.  Empty
        for fully continuous sets.
    continuous_family:
        ``None`` for discrete sets, ``"xy"`` or ``"fsim"`` when the entire
        continuous family is exposed (NuOp then optimises the two-qubit
        angles as well).
    vendor:
        ``"google"`` or ``"rigetti"``; informational.
    """

    name: str
    gate_types: Tuple[GateType, ...] = field(default_factory=tuple)
    continuous_family: Optional[str] = None
    vendor: str = "google"

    def __post_init__(self) -> None:
        if self.continuous_family not in (None, "xy", "fsim"):
            raise ValueError("continuous_family must be None, 'xy' or 'fsim'")
        if not self.gate_types and self.continuous_family is None:
            raise ValueError("an instruction set needs gate types or a continuous family")

    @property
    def is_continuous(self) -> bool:
        """True for the FullXY / FullfSim sets."""
        return self.continuous_family is not None

    @property
    def num_gate_types(self) -> int:
        """Number of discrete two-qubit gate types (0 for continuous sets)."""
        return len(self.gate_types)

    def type_keys(self) -> List[str]:
        """Calibration keys of every discrete gate type."""
        return [gate_type.type_key for gate_type in self.gate_types]

    def labels(self) -> List[str]:
        """Table II labels of the member gate types."""
        return [gate_type.label for gate_type in self.gate_types]

    def has_native_swap(self) -> bool:
        """True when the hardware SWAP gate is part of the set (R5 / G7)."""
        return any(gate_type.label == "SWAP" for gate_type in self.gate_types)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_continuous:
            return f"InstructionSet({self.name}: continuous {self.continuous_family})"
        return f"InstructionSet({self.name}: {', '.join(self.labels())})"


# ---------------------------------------------------------------------------
# Catalogue constructors
# ---------------------------------------------------------------------------

_GOOGLE_SET_MEMBERS: Dict[str, List[str]] = {
    "G1": ["S1", "S2"],
    "G2": ["S1", "S2", "S3"],
    "G3": ["S1", "S2", "S3", "S4"],
    "G4": ["S1", "S2", "S3", "S4", "S5"],
    "G5": ["S1", "S2", "S3", "S4", "S5", "S6"],
    "G6": ["S1", "S2", "S3", "S4", "S5", "S6", "S7"],
    "G7": ["S1", "S2", "S3", "S4", "S5", "S6", "S7", "SWAP"],
}

_RIGETTI_SET_MEMBERS: Dict[str, List[str]] = {
    "R1": ["S3", "S4"],
    "R2": ["S2", "S3", "S4"],
    "R3": ["S2", "S3", "S4", "S5"],
    "R4": ["S2", "S3", "S4", "S5", "S6"],
    "R5": ["S2", "S3", "S4", "S5", "S6", "SWAP"],
}


def single_gate_set(label: str, vendor: str = "google") -> InstructionSet:
    """Instruction set containing a single two-qubit gate type (S1-S7)."""
    builder = google_gate_type if vendor == "google" else rigetti_gate_type
    return InstructionSet(name=label, gate_types=(builder(label),), vendor=vendor)


def google_instruction_set(name: str) -> InstructionSet:
    """One of the multi-type Google sets G1-G7."""
    if name not in _GOOGLE_SET_MEMBERS:
        raise ValueError(f"unknown Google instruction set {name!r}")
    members = tuple(google_gate_type(label) for label in _GOOGLE_SET_MEMBERS[name])
    return InstructionSet(name=name, gate_types=members, vendor="google")


def rigetti_instruction_set(name: str) -> InstructionSet:
    """One of the multi-type Rigetti sets R1-R5."""
    if name not in _RIGETTI_SET_MEMBERS:
        raise ValueError(f"unknown Rigetti instruction set {name!r}")
    members = tuple(rigetti_gate_type(label) for label in _RIGETTI_SET_MEMBERS[name])
    return InstructionSet(name=name, gate_types=members, vendor="rigetti")


def full_xy_set() -> InstructionSet:
    """The fully continuous XY(theta) family (Rigetti proposal)."""
    return InstructionSet(name="FullXY", continuous_family="xy", vendor="rigetti")


def full_fsim_set() -> InstructionSet:
    """The fully continuous fSim(theta, phi) family (Google proposal)."""
    return InstructionSet(name="FullfSim", continuous_family="fsim", vendor="google")


@lru_cache(maxsize=1)
def _google_sets() -> Tuple[Tuple[str, InstructionSet], ...]:
    sets = [(label, single_gate_set(label, vendor="google"))
            for label in ("S1", "S2", "S3", "S4", "S5", "S6", "S7")]
    sets += [(name, google_instruction_set(name)) for name in _GOOGLE_SET_MEMBERS]
    sets.append(("FullfSim", full_fsim_set()))
    return tuple(sets)


@lru_cache(maxsize=1)
def _rigetti_sets() -> Tuple[Tuple[str, InstructionSet], ...]:
    sets = [(label, single_gate_set(label, vendor="rigetti"))
            for label in ("S2", "S3", "S4", "S5", "S6")]
    sets += [(name, rigetti_instruction_set(name)) for name in _RIGETTI_SET_MEMBERS]
    sets.append(("FullXY", full_xy_set()))
    return tuple(sets)


def google_catalogue() -> Dict[str, InstructionSet]:
    """Every instruction set evaluated on Sycamore (Figure 10).

    The frozen sets are built once per process; each call returns a new
    dict over them, so callers may mutate the dict they get.
    """
    return dict(_google_sets())


def rigetti_catalogue() -> Dict[str, InstructionSet]:
    """Every instruction set evaluated on Aspen-8 (Figure 9).

    Shares its frozen sets across calls like :func:`google_catalogue`.
    """
    return dict(_rigetti_sets())


def table2_catalogue() -> Dict[str, InstructionSet]:
    """The complete Table II catalogue (Google + Rigetti + continuous sets)."""
    catalogue = google_catalogue()
    catalogue.update(rigetti_catalogue())
    return catalogue
