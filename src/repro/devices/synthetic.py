"""Synthetic device factories.

The paper evaluates two concrete devices (Aspen-8 and Sycamore), but its
conclusions are about *scaling*: how calibration cost and expressivity
trade off as devices grow.  These factories build parameterised devices --
line, ring, grid and heavy-hex-like topologies of any size, with Sycamore-
or Aspen-style error distributions -- so the instruction-set studies and
the calibration models can be swept over device size and noise level
without touching the real-device modules.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.device import Device, GateErrorDistribution
from repro.devices.topology import Topology, grid_topology, line_topology, ring_topology
from repro.simulators.noise_model import NoiseModel, uniform_qubit_table

SUPPORTED_TOPOLOGIES = ("line", "ring", "grid")


def synthetic_noise_model(
    topology: Topology,
    single_qubit_error: float = 1.5e-3,
    two_qubit_error: float = 0.0062,
    t1_ns: float = 15_000.0,
    t2_ns: float = 12_000.0,
    readout_error: float = 0.016,
    single_qubit_duration_ns: float = 25.0,
    two_qubit_duration_ns: float = 32.0,
) -> NoiseModel:
    """Noise model with uniform calibration data over a topology.

    The per-qubit tables are shared frozen tables
    (:func:`~repro.simulators.noise_model.uniform_qubit_table`).
    """
    qubits = tuple(topology.graph.nodes)
    return NoiseModel(
        single_qubit_error=uniform_qubit_table(qubits, single_qubit_error),
        t1=uniform_qubit_table(qubits, t1_ns),
        t2=uniform_qubit_table(qubits, t2_ns),
        readout_error=uniform_qubit_table(qubits, readout_error),
        default_single_qubit_error=single_qubit_error,
        default_two_qubit_error=two_qubit_error,
        default_t1=t1_ns,
        default_t2=t2_ns,
        default_readout_error=readout_error,
        single_qubit_duration=single_qubit_duration_ns,
        two_qubit_duration=two_qubit_duration_ns,
    )


def synthetic_device(
    num_qubits: int,
    topology_kind: str = "line",
    mean_two_qubit_error: float = 0.0062,
    std_two_qubit_error: float = 0.0024,
    single_qubit_error: float = 1.5e-3,
    readout_error: float = 0.016,
    noise_variation: bool = True,
    grid_rows: Optional[int] = None,
    seed: Optional[int] = 7,
    name: Optional[str] = None,
) -> Device:
    """Build a synthetic device with a chosen topology and noise level.

    Parameters
    ----------
    num_qubits:
        Device size.
    topology_kind:
        ``"line"``, ``"ring"`` or ``"grid"``.  Grids use ``grid_rows`` rows
        (default: the most square factorisation).
    mean_two_qubit_error, std_two_qubit_error:
        Per-edge error-rate distribution (Sycamore-style normal); set the
        standard deviation to zero for a noise-uniform device.
    noise_variation:
        When False, every gate type on every edge uses the mean error rate
        (the Figure 10e-style ablation).
    """
    if num_qubits < 2:
        raise ValueError("a device needs at least two qubits")
    if topology_kind not in SUPPORTED_TOPOLOGIES:
        raise ValueError(f"topology_kind must be one of {SUPPORTED_TOPOLOGIES}")

    if topology_kind == "line":
        topology = line_topology(num_qubits, name=f"line-{num_qubits}")
    elif topology_kind == "ring":
        topology = ring_topology(num_qubits, name=f"ring-{num_qubits}")
    else:
        rows = grid_rows if grid_rows is not None else _square_rows(num_qubits)
        cols = (num_qubits + rows - 1) // rows
        topology = grid_topology(rows, cols, name=f"grid-{rows}x{cols}")

    noise_model = synthetic_noise_model(
        topology,
        single_qubit_error=single_qubit_error,
        two_qubit_error=mean_two_qubit_error,
        readout_error=readout_error,
    )
    distribution = GateErrorDistribution(
        kind="normal",
        mean=mean_two_qubit_error,
        std=std_two_qubit_error,
        minimum=1e-4,
        maximum=0.2,
    )
    return Device(
        name=name or f"synthetic-{topology_kind}-{num_qubits}",
        topology=topology,
        noise_model=noise_model,
        two_qubit_error_distribution=distribution,
        noise_variation=noise_variation,
        seed=seed,
    )


def _square_rows(num_qubits: int) -> int:
    """Rows of the most-square grid holding ``num_qubits`` qubits."""
    rows = 1
    for candidate in range(1, num_qubits + 1):
        if candidate * candidate > num_qubits:
            break
        if num_qubits % candidate == 0:
            rows = candidate
    return rows


def device_family(
    sizes,
    topology_kind: str = "grid",
    mean_two_qubit_error: float = 0.0062,
    seed: int = 7,
):
    """Devices of increasing size with identical noise statistics.

    Useful for scaling studies: calibration cost (Figure 11a) grows with
    the coupler count of each device while the application-level pipeline
    stays unchanged.
    """
    return {
        int(size): synthetic_device(
            int(size),
            topology_kind=topology_kind,
            mean_two_qubit_error=mean_two_qubit_error,
            seed=seed + index,
        )
        for index, size in enumerate(sizes)
    }
