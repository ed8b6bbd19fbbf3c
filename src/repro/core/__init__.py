"""NuOp: the paper's core contribution.

* :mod:`repro.core.gate_types` / :mod:`repro.core.instruction_sets` --
  the S1-S7 / R1-R5 / G1-G7 / FullXY / FullfSim catalogue (Table II).
* :mod:`repro.core.templates` -- template circuits (Figure 4).
* :mod:`repro.core.decomposer` -- L-BFGS-B-based decomposition (Section
  V.A; scipy's routine driven directly) with exact and approximate (Eq. 2)
  modes.
* :mod:`repro.core.noise_adaptive` -- gate-type selection across an
  instruction set using per-edge calibrated fidelities (Section V.B).
* :mod:`repro.core.baseline` -- analytic KAK / gate-identity baseline
  ("Cirq-like", Figure 6).
* :mod:`repro.core.pipeline` -- the end-to-end compilation pipeline
  (Figure 1).
"""

from repro.core.gate_types import (
    GateType,
    google_gate_type,
    rigetti_gate_type,
    all_google_types,
    all_rigetti_types,
    S_TYPE_FSIM_PARAMETERS,
    S_TYPE_XY_ANGLES,
)
from repro.core.instruction_sets import (
    InstructionSet,
    single_gate_set,
    google_instruction_set,
    rigetti_instruction_set,
    full_xy_set,
    full_fsim_set,
    google_catalogue,
    rigetti_catalogue,
    table2_catalogue,
)
from repro.core.templates import (
    TemplateSpec,
    fixed_gate_template,
    continuous_family_template,
)
from repro.core.decomposer import (
    NuOpDecomposer,
    TwoQubitDecomposition,
    LayerSolution,
    decompose_local_unitary,
    EXACT_FIDELITY_THRESHOLD,
)
from repro.core.noise_adaptive import (
    decompose_with_instruction_set,
    best_gate_type_per_edge,
)
from repro.core.baseline import (
    BaselineDecomposition,
    UnsupportedDecompositionError,
    baseline_gate_count,
    baseline_counts_for_targets,
    is_swap_like,
)
from repro.core.pipeline import CompiledCircuit, NuOpPass, compile_circuit

__all__ = [
    "GateType",
    "google_gate_type",
    "rigetti_gate_type",
    "all_google_types",
    "all_rigetti_types",
    "S_TYPE_FSIM_PARAMETERS",
    "S_TYPE_XY_ANGLES",
    "InstructionSet",
    "single_gate_set",
    "google_instruction_set",
    "rigetti_instruction_set",
    "full_xy_set",
    "full_fsim_set",
    "google_catalogue",
    "rigetti_catalogue",
    "table2_catalogue",
    "TemplateSpec",
    "fixed_gate_template",
    "continuous_family_template",
    "NuOpDecomposer",
    "TwoQubitDecomposition",
    "LayerSolution",
    "decompose_local_unitary",
    "EXACT_FIDELITY_THRESHOLD",
    "decompose_with_instruction_set",
    "best_gate_type_per_edge",
    "BaselineDecomposition",
    "UnsupportedDecompositionError",
    "baseline_gate_count",
    "baseline_counts_for_targets",
    "is_swap_like",
    "CompiledCircuit",
    "NuOpPass",
    "compile_circuit",
]
