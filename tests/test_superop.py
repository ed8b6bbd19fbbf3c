"""The fused superoperator lowering and its kernels.

Contracts under test:

* every fused superoperator group of a lowered program is CPTP (Choi
  matrix positive semidefinite, trace preserved) -- randomized over
  circuits, noise strengths and idle structure;
* fused replay matches the pinned reference replay to ``1e-10`` across
  random 1q/2q programs, with and without noise/idle channels, on both
  the density-matrix and trajectory kernels (same RNG consumption order
  on the stochastic path);
* the lowering actually fuses: one contraction per channel group instead
  of one per Kraus operator, and adjacent same-support groups merge
  across moment boundaries;
* lowered artefacts are derived once per program and cached on it;
* a program whose gates share memoised channel objects has the same
  fingerprint and byte-identical fused superoperators as one built
  with a fresh channel per gate (sim-cache keys and fused numerics
  never move silently);
* an engine study run end-to-end on the fused kernel agrees with the
  reference-kernel run to ``1e-10`` on every metric column without
  sharing simulation-cache entries.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.hashing import update_digest_array, update_digest_scalars
from repro.core.instruction_sets import (
    full_xy_set,
    google_instruction_set,
    single_gate_set,
)
from repro.core.pipeline import compile_circuit
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.simulators.backend import SIM_KERNEL_ENV_VAR
from repro.simulators.density_matrix import apply_program_to_density_matrix
from repro.simulators import noise_model as noise_model_module
from repro.simulators.noise import depolarizing_channel
from repro.simulators.noise_model import NoiseModel, relaxation_channel
from repro.simulators.noise_program import NoiseProgram, build_noise_program
from repro.simulators.statevector import zero_state, zero_states
from repro.simulators import superop as superop_module
from repro.simulators.superop import (
    apply_superop_program,
    apply_trajectory_plan_to_state,
    apply_trajectory_plan_to_states,
    channel_superoperator,
    is_cptp_superoperator,
    kraus_to_superoperator,
    lower_noise_program,
    superop_program_for,
    superoperator_to_choi,
    trajectory_plan_for,
    unitary_superoperator,
)
from repro.simulators.trajectory import (
    apply_program_to_state,
    apply_program_to_states,
)

TOLERANCE = 1e-10


def random_circuit(num_qubits: int, num_operations: int, seed: int) -> QuantumCircuit:
    """A random mix of 1q and 2q gates (leaves qubits idle in many moments)."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_operations):
        kind = rng.integers(0, 7)
        q = int(rng.integers(0, num_qubits))
        if kind == 0:
            circuit.h(q)
        elif kind == 1:
            circuit.x(q)
        elif kind == 2:
            circuit.rx(float(rng.uniform(0, 2 * np.pi)), q)
        elif kind == 3:
            circuit.rz(float(rng.uniform(0, 2 * np.pi)), q)
        elif num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            if kind == 4:
                circuit.cx(int(a), int(b))
            elif kind == 5:
                circuit.cz(int(a), int(b))
            else:
                circuit.swap(int(a), int(b))
        else:
            circuit.ry(float(rng.uniform(0, 2 * np.pi)), q)
    return circuit


def random_program(num_qubits: int, seed: int, noisy: bool) -> NoiseProgram:
    """Lower a random circuit against a random-strength noise model."""
    rng = np.random.default_rng(seed + 1000)
    circuit = random_circuit(num_qubits, num_operations=4 * num_qubits + 4, seed=seed)
    if not noisy:
        return build_noise_program(circuit, None)
    model = NoiseModel.uniform(
        num_qubits,
        two_qubit_error=float(rng.uniform(0.002, 0.05)),
        single_qubit_error=float(rng.uniform(0.0002, 0.01)),
        t1=float(rng.uniform(5_000, 30_000)),
        t2=float(rng.uniform(5_000, 30_000)),
    )
    return build_noise_program(circuit, model)


def random_density_matrix(num_qubits: int, seed: int) -> np.ndarray:
    """A random full-rank density matrix (exercises off-diagonal terms)."""
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


class TestSuperoperatorAlgebra:
    def test_unitary_superoperator_matches_conjugation(self, rng):
        matrix = np.linalg.qr(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        )[0]
        rho = random_density_matrix(2, 7)
        direct = matrix @ rho @ matrix.conj().T
        via_superop = (unitary_superoperator(matrix) @ rho.reshape(-1)).reshape(4, 4)
        assert np.allclose(via_superop, direct, atol=1e-12)

    def test_channel_superoperator_matches_kraus_sum(self):
        from repro.simulators.noise import amplitude_damping_channel

        channel = amplitude_damping_channel(0.3)
        rho = random_density_matrix(1, 3)
        direct = sum(op @ rho @ op.conj().T for op in channel.operators)
        via_superop = (channel_superoperator(channel) @ rho.reshape(-1)).reshape(2, 2)
        assert np.allclose(via_superop, direct, atol=1e-12)

    def test_choi_of_identity_is_maximally_entangled_projector(self):
        superop = unitary_superoperator(np.eye(2))
        choi = superoperator_to_choi(superop)
        bell = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(choi, np.outer(bell, bell.conj()), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_lowering_is_byte_equal_to_np_kron(self, rng, dim):
        """The broadcast products do the multiplies ``np.kron`` does."""
        for _ in range(5):
            ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3)]
            op = ops[0]
            assert unitary_superoperator(op).tobytes() == np.kron(op, op.conj()).tobytes()
            want = np.zeros((dim * dim, dim * dim), dtype=complex)
            for k in ops:
                want += np.kron(k, k.conj())
            assert kraus_to_superoperator(ops).tobytes() == want.tobytes()
            eye = np.eye(2, dtype=complex)
            assert superop_module._kron(op, eye).tobytes() == np.kron(op, eye).tobytes()

    def test_non_tp_map_is_rejected(self):
        # Half an amplitude-damping channel: CP but not trace preserving.
        k0 = np.array([[1, 0], [0, np.sqrt(0.7)]], dtype=complex)
        completely_positive, trace_preserving = is_cptp_superoperator(
            np.kron(k0, k0.conj())
        )
        assert completely_positive
        assert not trace_preserving


class TestFusedGroupsAreCPTP:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_program_groups(self, num_qubits, seed):
        program = random_program(num_qubits, seed=10 * num_qubits + seed, noisy=True)
        lowered = lower_noise_program(program)
        assert lowered.num_groups() > 0
        for group in lowered.groups:
            completely_positive, trace_preserving = is_cptp_superoperator(
                group.superoperator
            )
            assert completely_positive, f"group on {group.qubits} is not CP"
            assert trace_preserving, f"group on {group.qubits} is not TP"

    def test_unitary_program_groups(self):
        program = random_program(3, seed=5, noisy=False)
        lowered = lower_noise_program(program)
        for group in lowered.groups:
            completely_positive, trace_preserving = is_cptp_superoperator(
                group.superoperator
            )
            assert completely_positive and trace_preserving


class TestFusedMatchesReference:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("noisy", [True, False])
    def test_density_matrix_kernel(self, num_qubits, seed, noisy):
        program = random_program(num_qubits, seed=100 + 10 * num_qubits + seed, noisy=noisy)
        rho = random_density_matrix(num_qubits, seed=seed)
        reference = apply_program_to_density_matrix(program, rho.copy())
        fused = apply_superop_program(lower_noise_program(program), rho.copy())
        assert np.abs(fused - reference).max() <= TOLERANCE
        assert np.trace(fused).real == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("noisy", [True, False])
    def test_trajectory_batch_kernel(self, num_qubits, seed, noisy):
        program = random_program(num_qubits, seed=200 + 10 * num_qubits + seed, noisy=noisy)
        plan = trajectory_plan_for(program)
        reference = apply_program_to_states(
            program, zero_states(16, num_qubits), np.random.default_rng(seed)
        )
        fused = apply_trajectory_plan_to_states(
            plan, zero_states(16, num_qubits), np.random.default_rng(seed)
        )
        assert np.abs(fused - reference).max() <= TOLERANCE

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_trajectory_single_kernel(self, num_qubits, seed):
        program = random_program(num_qubits, seed=300 + 10 * num_qubits + seed, noisy=True)
        plan = trajectory_plan_for(program)
        reference = apply_program_to_state(
            program, zero_state(num_qubits), np.random.default_rng(seed)
        )
        fused = apply_trajectory_plan_to_state(
            plan, zero_state(num_qubits), np.random.default_rng(seed)
        )
        assert np.abs(fused - reference).max() <= TOLERANCE

    def test_trajectory_batch_respects_storage_limit(self):
        """The recompute-per-choice fallback path matches the stacked path."""
        program = random_program(3, seed=77, noisy=True)
        plan = trajectory_plan_for(program)
        stacked = apply_trajectory_plan_to_states(
            plan, zero_states(8, 3), np.random.default_rng(9)
        )
        frugal = apply_trajectory_plan_to_states(
            plan, zero_states(8, 3), np.random.default_rng(9), branch_storage_limit=1
        )
        assert np.abs(stacked - frugal).max() <= TOLERANCE


class TestFusionStructure:
    def test_gate_and_trailing_channels_become_one_group(self):
        """2q gate + 16-operator depolarizing + two thermal channels -> 1 group."""
        circuit = QuantumCircuit(2).cz(0, 1)
        model = NoiseModel.uniform(2, two_qubit_error=0.01, single_qubit_error=0.001)
        program = build_noise_program(circuit, model)
        assert program.num_channel_applications() >= 3
        lowered = lower_noise_program(program)
        assert lowered.num_groups() == 1
        assert lowered.groups[0].qubits == (0, 1)
        # The reference kernel would have dispatched one application per
        # Kraus operator (and two per gate conjugation).
        assert lowered.source_applications > 30

    def test_adjacent_single_qubit_groups_merge_across_moments(self):
        circuit = QuantumCircuit(2).h(0).rz(0.3, 0).rx(0.2, 0).cz(0, 1)
        program = build_noise_program(circuit, None)
        lowered = lower_noise_program(program)
        # Three 1q gates on qubit 0 collapse into one group, then the CZ.
        assert [group.qubits for group in lowered.groups] == [(0,), (0, 1)]

    def test_interleaved_qubits_do_not_merge(self):
        circuit = QuantumCircuit(2).h(0).cz(0, 1).h(0)
        program = build_noise_program(circuit, None)
        lowered = lower_noise_program(program)
        assert [group.qubits for group in lowered.groups] == [(0,), (0, 1), (0,)]

    def test_lowering_is_cached_on_the_program(self):
        program = random_program(2, seed=11, noisy=True)
        assert superop_program_for(program) is superop_program_for(program)
        assert trajectory_plan_for(program) is trajectory_plan_for(program)


def fused_groups_digest(program: NoiseProgram) -> str:
    """SHA-256 over every fused group's qubits and superoperator bytes."""
    digest = hashlib.sha256()
    for group in lower_noise_program(program).groups:
        digest.update(repr(group.qubits).encode())
        digest.update(group.superoperator.tobytes())
    return digest.hexdigest()


def reference_fingerprint(program: NoiseProgram) -> str:
    """:meth:`NoiseProgram.fingerprint` spelled out with nothing reused:
    every Kraus operator of every application goes through
    :func:`update_digest_array` on its own."""
    digest = hashlib.sha256()
    update_digest_scalars(digest, "noise-program", program.num_qubits, len(program.moments))
    for moment in program.moments:
        update_digest_scalars(
            digest, "moment", moment.duration, len(moment.operations), len(moment.idle_channels)
        )
        for operation in moment.operations:
            update_digest_scalars(digest, "op", *operation.qubits)
            update_digest_array(digest, operation.matrix)
            for channel, qubits in operation.channels:
                update_digest_scalars(digest, "chan", *qubits)
                for operator in channel.operators:
                    update_digest_array(digest, operator)
        for channel, qubits in moment.idle_channels:
            update_digest_scalars(digest, "idle", *qubits)
            for operator in channel.operators:
                update_digest_array(digest, operator)
    return digest.hexdigest()


def program_channels(program: NoiseProgram) -> list:
    """Every channel application of a program, gate noise then idle noise."""
    channels = []
    for moment in program.moments:
        for operation in moment.operations:
            channels.extend(channel for channel, _ in operation.channels)
        channels.extend(channel for channel, _ in moment.idle_channels)
    return channels


class TestGoldenLowering:
    """Sharing channels moves no bit of a fingerprint or fused superoperator.

    A 3q QV circuit compiled onto a 3q line is lowered twice against the
    same calibration: once through the memoised channel constructors
    (shared channel objects, so fingerprint payloads and superoperators
    are reused), and once with the memos bypassed so every gate gets
    freshly built channels and every superoperator is derived per
    application.  The program fingerprint (a simulation-cache key
    component) must equal the spelled-out reference digest, and the
    fused groups must match byte for byte.  Both sides are computed on
    the same machine, so the check does not depend on how this build's
    BLAS rounds NuOp's compiled gates.
    """

    @pytest.mark.parametrize(
        "instruction_set", [single_gate_set("S1"), full_xy_set()], ids=["S1", "FullXY"]
    )
    def test_shared_channels_are_bit_identical_to_unshared(
        self, instruction_set, monkeypatch
    ):
        device = synthetic_device(3, "line", seed=7)
        compiled = compile_circuit(qv_circuit(3, rng=7), device, instruction_set)
        physical = list(compiled.physical_qubits)
        clear_experiment_caches()
        shared = build_noise_program(compiled.circuit, device.noise_model, physical)
        with monkeypatch.context() as patch:
            patch.setattr(
                noise_model_module, "depolarizing_channel", depolarizing_channel.__wrapped__
            )
            patch.setattr(
                noise_model_module, "relaxation_channel", relaxation_channel.__wrapped__
            )
            unshared = build_noise_program(compiled.circuit, device.noise_model, physical)

        shared_channels = program_channels(shared)
        unshared_channels = program_channels(unshared)
        assert len(shared_channels) == len(unshared_channels)
        assert len({id(c) for c in shared_channels}) < len(shared_channels)
        assert len({id(c) for c in unshared_channels}) == len(unshared_channels)

        fingerprint = shared.fingerprint()
        assert fingerprint == reference_fingerprint(shared)
        assert fingerprint == reference_fingerprint(unshared) == unshared.fingerprint()
        assert fused_groups_digest(shared) == fused_groups_digest(unshared)


class TestFusedStudyEndToEnd:
    def _study_kwargs(self, shared_decomposer):
        return dict(
            application="qv",
            circuits=[qv_circuit(3, rng=np.random.default_rng(i)) for i in range(2)],
            metric_name="HOP",
            metric=heavy_output_probability,
            device_factory=lambda: synthetic_device(5, "line", seed=13),
            instruction_sets={
                "S1": single_gate_set("S1", vendor="google"),
                "G3": google_instruction_set("G3"),
            },
            options=SimulationOptions(shots=900, seed=5),
            decomposer=shared_decomposer,
            workers=1,
        )

    def test_fused_study_matches_reference_study(self, shared_decomposer, monkeypatch):
        kwargs = self._study_kwargs(shared_decomposer)
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        clear_experiment_caches()
        reference = run_study(**kwargs)
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "fused")
        clear_experiment_caches()
        fused = run_study(**kwargs)
        for name, reference_result in reference.per_set.items():
            fused_result = fused.per_set[name]
            np.testing.assert_allclose(
                fused_result.metric_values,
                reference_result.metric_values,
                atol=TOLERANCE,
                rtol=0,
            )
            assert fused_result.two_qubit_counts == reference_result.two_qubit_counts
            assert fused_result.swap_counts == reference_result.swap_counts

    def test_fused_kernel_is_deterministic_across_worker_pools(
        self, shared_decomposer, monkeypatch
    ):
        """The production-default kernel must stay bit-identical between
        inline execution and process-pool workers (the env knob has to
        reach the workers, and the lowering must not depend on where it
        runs)."""
        kwargs = self._study_kwargs(shared_decomposer)
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "fused")
        clear_experiment_caches()
        serial = run_study(**{**kwargs, "workers": 1})
        clear_experiment_caches()
        parallel = run_study(**{**kwargs, "workers": 2})
        for name, serial_result in serial.per_set.items():
            assert parallel.per_set[name].metric_values == serial_result.metric_values

    def test_kernels_do_not_share_simulation_cache_entries(
        self, shared_decomposer, monkeypatch
    ):
        """A reference-kernel warm cache must not satisfy fused-kernel nodes."""
        from repro.simulators.backend import (
            backend_invocation_counts,
            reset_backend_invocation_counts,
        )

        kwargs = self._study_kwargs(shared_decomposer)
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        clear_experiment_caches()
        run_study(**kwargs)
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "fused")
        reset_backend_invocation_counts()
        run_study(**kwargs)
        assert sum(backend_invocation_counts().values()) > 0
        # Re-running on the same kernel *does* hit the cache.
        reset_backend_invocation_counts()
        run_study(**kwargs)
        assert backend_invocation_counts() == {}
