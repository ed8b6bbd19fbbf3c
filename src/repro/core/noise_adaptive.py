"""Noise-adaptive gate-type selection (Section V.B of the paper).

When an instruction set exposes several two-qubit gate types, NuOp chooses,
for every application operation and every qubit pair, the gate type whose
decomposition maximises the overall fidelity ``F_u = F_d * F_h`` -- where
``F_h`` uses the *calibrated* per-edge fidelity of that gate type.  This is
the mechanism behind the Figure 5 example and the Figure 10b vs 10e
ablation: with noise variation across gate types, adaptivity buys extra
reliability on top of the instruction-count reduction.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.decomposer import NuOpDecomposer, TwoQubitDecomposition
from repro.core.instruction_sets import InstructionSet


def decompose_with_instruction_set(
    decomposer: NuOpDecomposer,
    target: np.ndarray,
    instruction_set: InstructionSet,
    edge_fidelities: Optional[Dict[str, float]] = None,
    approximate: bool = True,
    single_qubit_fidelity: float = 1.0,
    default_gate_fidelity: float = 1.0,
    max_layers: Optional[int] = None,
) -> TwoQubitDecomposition:
    """Best decomposition of ``target`` under an instruction set on one edge.

    Parameters
    ----------
    decomposer:
        The (cached) NuOp decomposer.
    target:
        Application two-qubit unitary.
    instruction_set:
        Candidate instruction set (discrete or continuous).
    edge_fidelities:
        Calibrated fidelity of each gate type (keyed by
        :attr:`GateType.type_key`) on the qubit pair where the operation
        will execute.  Missing keys fall back to ``default_gate_fidelity``.
    approximate:
        Use the Eq. 2 objective (default): each gate type's ``F_d * F_h``
        optimum, and a type is skipped as soon as its bounds show it
        cannot beat the best type so far.  When False, each type's exact
        decomposition is produced.  Either way types are ranked by
        ``F_d * F_h`` on the edge, and a later type replaces an earlier
        one only when it is better by more than 1e-12.
    single_qubit_fidelity:
        Optional fidelity of the interleaved single-qubit gates.
    """
    edge_fidelities = edge_fidelities or {}
    if instruction_set.is_continuous:
        # The whole family is one candidate, calibrated under the "*" key.
        candidates = [(None, instruction_set.continuous_family, "*", instruction_set.name)]
    else:
        candidates = [(t.gate, None, t.type_key, t.label) for t in instruction_set.gate_types]

    best: Optional[TwoQubitDecomposition] = None
    for gate, family, key, label in candidates:
        fidelity = edge_fidelities.get(key, default_gate_fidelity)
        if approximate:
            candidate = decomposer.decompose_approximate(
                target,
                gate=gate,
                family=family,
                gate_fidelity=fidelity,
                single_qubit_fidelity=single_qubit_fidelity,
                max_layers=max_layers,
                label=label,
                floor=None if best is None else best.overall_fidelity,
            )
            if candidate is None:
                continue
        else:
            candidate = decomposer.decompose_exact(
                target, gate=gate, family=family, max_layers=max_layers, label=label
            )
            candidate.hardware_fidelity = fidelity**candidate.num_layers
        if best is None or candidate.overall_fidelity > best.overall_fidelity + 1e-12:
            best = candidate
    return best


def best_gate_type_per_edge(
    decomposer: NuOpDecomposer,
    target: np.ndarray,
    instruction_set: InstructionSet,
    per_edge_fidelities: Dict[tuple, Dict[str, float]],
    approximate: bool = True,
) -> Dict[tuple, str]:
    """For diagnostics: the gate-type label chosen on every edge for one target.

    Reproduces the Figure 5 narrative (CZ chosen on pair (2, 3), XY(pi) on
    pair (3, 4) of Aspen-8).
    """
    choices: Dict[tuple, str] = {}
    for edge, fidelities in per_edge_fidelities.items():
        decomposition = decompose_with_instruction_set(
            decomposer,
            target,
            instruction_set,
            edge_fidelities=fidelities,
            approximate=approximate,
        )
        choices[edge] = decomposition.gate_type_label or instruction_set.name
    return choices
