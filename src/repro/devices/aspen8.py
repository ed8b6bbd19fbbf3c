"""Model of the Rigetti Aspen-8 device.

Aspen-8 is a 30-qubit device built from four octagonal rings of eight
qubits each (two qubits are non-functional).  Figure 3 of the paper shows
the calibrated CZ and XY(pi) fidelities of the first ring; those measured
values are reproduced here.  The remaining edges, and every other
``XY(theta)`` gate type, are modelled with the uniform 95-99% fidelity
range reported in the XY-gate demonstration paper (Abrams et al.), exactly
as the paper's own simulation setup does.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.devices.device import Device, GateErrorDistribution
from repro.devices.topology import octagon_chain_topology
from repro.simulators.noise_model import NoiseModel, uniform_qubit_table

Edge = Tuple[int, int]

# Measured fidelities of the first Aspen-8 ring (Figure 3 of the paper).
# A fidelity of 0 in the figure means the XY gate is not operational on
# that edge; we model it as a very poor (50%) gate so the compiler always
# avoids it, rather than removing the edge.
FIRST_RING_CZ_FIDELITY: Dict[Edge, float] = {
    (0, 1): 0.86,
    (1, 2): 0.81,
    (2, 3): 0.94,
    (3, 4): 0.97,
    (4, 5): 0.94,
    (5, 6): 0.93,
    (6, 7): 0.94,
    (0, 7): 0.96,
}

FIRST_RING_XY_FIDELITY: Dict[Edge, float] = {
    (0, 1): 0.50,
    (1, 2): 0.50,
    (2, 3): 0.97,
    (3, 4): 0.95,
    (4, 5): 0.84,
    (5, 6): 0.96,
    (6, 7): 0.70,
    (0, 7): 0.50,
}

# Default calibration constants (representative of Rigetti QCS data).
SINGLE_QUBIT_ERROR = 0.002
READOUT_ERROR = 0.05
T1_NS = 30_000.0
T2_NS = 20_000.0
SINGLE_QUBIT_DURATION_NS = 60.0
TWO_QUBIT_DURATION_NS = 180.0

# Canonical type keys for the two natively calibrated Aspen-8 gate types.
CZ_KEY = "cz"
XY_PI_KEY = "xy(3.141593)"

NON_FUNCTIONAL_QUBITS = (17, 27)
"""Two qubits of the 32-qubit lattice are disabled, leaving 30 functional qubits."""


def aspen8_device(
    noise_variation: bool = True,
    seed: Optional[int] = 8,
    include_measured_first_ring: bool = True,
) -> Device:
    """Build the Aspen-8 device model.

    Parameters
    ----------
    noise_variation:
        When False, every gate type on every edge uses the mean error rate
        (the Figure 10e-style ablation).
    seed:
        Seed for sampling unmeasured edge fidelities.
    include_measured_first_ring:
        When True (default) the first ring uses the measured Figure 3
        fidelities for CZ and XY(pi).
    """
    topology = octagon_chain_topology(
        num_rings=4, ring_size=8, missing_qubits=NON_FUNCTIONAL_QUBITS, name="aspen-8"
    )
    qubits = tuple(topology.graph.nodes)
    noise_model = NoiseModel(
        single_qubit_error=uniform_qubit_table(qubits, SINGLE_QUBIT_ERROR),
        t1=uniform_qubit_table(qubits, T1_NS),
        t2=uniform_qubit_table(qubits, T2_NS),
        readout_error=uniform_qubit_table(qubits, READOUT_ERROR),
        default_single_qubit_error=SINGLE_QUBIT_ERROR,
        default_two_qubit_error=0.05,
        default_t1=T1_NS,
        default_t2=T2_NS,
        default_readout_error=READOUT_ERROR,
        single_qubit_duration=SINGLE_QUBIT_DURATION_NS,
        two_qubit_duration=TWO_QUBIT_DURATION_NS,
    )

    # Arbitrary XY(theta) gates: fidelity uniform in 95-99% => error 1-5%.
    distribution = GateErrorDistribution(
        kind="uniform", mean=0.03, std=0.0, minimum=0.01, maximum=0.05
    )
    device = Device(
        name="rigetti-aspen-8",
        topology=topology,
        noise_model=noise_model,
        two_qubit_error_distribution=distribution,
        noise_variation=noise_variation,
        seed=seed,
    )

    measured_cz: Dict[Edge, float] = {}
    measured_xy: Dict[Edge, float] = {}
    if include_measured_first_ring and noise_variation:
        measured_cz = {edge: 1.0 - f for edge, f in FIRST_RING_CZ_FIDELITY.items()}
        measured_xy = {edge: 1.0 - f for edge, f in FIRST_RING_XY_FIDELITY.items()}
    device.register_gate_type(CZ_KEY, error_rates=measured_cz)
    device.register_gate_type(XY_PI_KEY, error_rates=measured_xy)
    return device
