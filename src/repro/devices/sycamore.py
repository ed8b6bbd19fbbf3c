"""Model of the Google Sycamore device.

Sycamore is a 54-qubit transmon processor; the paper describes it as
grid-connected and uses its published coherence times, readout errors and
simultaneous-SYC error rates.  The reproduction models the connectivity as
a 6x9 rectangular grid (54 qubits, degree <= 4) and samples per-edge error
rates for any requested fSim gate type from the normal distribution the
paper specifies: mean 0.62%, standard deviation 0.24%.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.device import Device, GateErrorDistribution
from repro.devices.topology import grid_topology
from repro.simulators.noise_model import NoiseModel, uniform_qubit_table

# Calibration constants from the quantum-supremacy experiment (Arute et al. 2019).
SINGLE_QUBIT_ERROR = 0.0016
READOUT_ERROR = 0.031
T1_NS = 15_000.0
T2_NS = 16_000.0
SINGLE_QUBIT_DURATION_NS = 25.0
TWO_QUBIT_DURATION_NS = 32.0

MEAN_TWO_QUBIT_ERROR = 0.0062
STD_TWO_QUBIT_ERROR = 0.0024

GRID_ROWS = 6
GRID_COLS = 9


def sycamore_device(
    noise_variation: bool = True,
    seed: Optional[int] = 54,
    mean_two_qubit_error: float = MEAN_TWO_QUBIT_ERROR,
    std_two_qubit_error: float = STD_TWO_QUBIT_ERROR,
    readout_error: float = READOUT_ERROR,
) -> Device:
    """Build the Sycamore device model.

    Parameters
    ----------
    noise_variation:
        When False every gate type on every edge uses the mean error rate
        (Figure 10e ablation).
    seed:
        Seed for sampling per-edge error rates.
    mean_two_qubit_error, std_two_qubit_error:
        Parameters of the per-edge error-rate distribution.  The Figure 10f
        sweep rebuilds the device with smaller means (0.36% down to
        0.0225%).
    readout_error:
        Readout error of every qubit (and the model default).
    """
    topology = grid_topology(GRID_ROWS, GRID_COLS, name="sycamore")
    qubits = tuple(topology.graph.nodes)
    noise_model = NoiseModel(
        single_qubit_error=uniform_qubit_table(qubits, SINGLE_QUBIT_ERROR),
        t1=uniform_qubit_table(qubits, T1_NS),
        t2=uniform_qubit_table(qubits, T2_NS),
        readout_error=uniform_qubit_table(qubits, readout_error),
        default_single_qubit_error=SINGLE_QUBIT_ERROR,
        default_two_qubit_error=mean_two_qubit_error,
        default_t1=T1_NS,
        default_t2=T2_NS,
        default_readout_error=readout_error,
        single_qubit_duration=SINGLE_QUBIT_DURATION_NS,
        two_qubit_duration=TWO_QUBIT_DURATION_NS,
    )

    distribution = GateErrorDistribution(
        kind="normal",
        mean=mean_two_qubit_error,
        std=std_two_qubit_error,
        minimum=1e-4,
        maximum=0.2,
    )
    return Device(
        name="google-sycamore",
        topology=topology,
        noise_model=noise_model,
        two_qubit_error_distribution=distribution,
        noise_variation=noise_variation,
        seed=seed,
    )
