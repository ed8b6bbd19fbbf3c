"""The simulator-backend registry, noise programs and legacy pinning.

Contracts under test:

* under ``REPRO_SIM_KERNEL=reference`` the ``auto`` backend (and
  therefore the ``simulate_compiled`` path) is bit-identical to the
  frozen pre-registry dispatch (``simulate_compiled_reference``) on
  **both** sides of the density-matrix / trajectory threshold;
* the default fused kernel stays within ``1e-10`` of that reference and
  carries a distinct backend ``version`` so the two kernels never share
  simulation-cache entries;
* the registry resolves names, rejects unknown names with the list of
  known ones, and every backend consumes the same shared noise program;
* trajectory and density-matrix backends converge on each other for
  small circuits at high trajectory counts (tolerance-based);
* ``SimulationOptions`` validates its fields with clear errors;
* noise-program lowering is deterministic, content-fingerprinted and
  cached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.core.pipeline import compile_circuit
from repro.devices.synthetic import synthetic_device
from repro.experiments.runner import (
    SimulationOptions,
    simulate_compiled,
    simulate_compiled_reference,
)
from repro.simulators.backend import (
    SIM_KERNEL_ENV_VAR,
    active_simulation_kernel,
    available_backends,
    backend_invocation_counts,
    reset_backend_invocation_counts,
    resolve_backend,
)
from repro.simulators import noise_program as noise_program_module
from repro.simulators.estimator import program_fidelity_estimate
from repro.simulators.noise_model import NoiseModel
from repro.simulators.noise_program import (
    build_noise_program,
    clear_noise_program_cache,
    noise_program_cache_stats,
    noise_program_for,
)
from repro.simulators.statevector import ideal_probabilities


@pytest.fixture(scope="module")
def compiled_job(shared_decomposer):
    """One compiled 3-qubit QV circuit plus the device it compiled on."""
    device = synthetic_device(5, "line", seed=13)
    circuit = qv_circuit(3, rng=np.random.default_rng(3))
    compiled = compile_circuit(
        circuit, device, google_instruction_set("G3"), decomposer=shared_decomposer
    )
    return compiled, device


class TestRegistry:
    def test_expected_backends_are_registered(self):
        names = set(available_backends())
        assert {"density-matrix", "trajectory", "estimator", "auto"} <= names

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("no-such-backend")
        message = str(excinfo.value)
        assert "no-such-backend" in message
        for name in ("density-matrix", "trajectory", "estimator", "auto"):
            assert name in message

    def test_instances_pass_through(self):
        backend = resolve_backend("trajectory")
        assert resolve_backend(backend) is backend

    def test_backends_carry_identity(self):
        for name, backend in available_backends().items():
            assert backend.name == name
            assert isinstance(backend.version, int)
            assert backend.description

    def test_effective_backend_resolves_auto_dispatch(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        program = build_noise_program(circuit, None)
        auto = resolve_backend("auto")
        below = SimulationOptions(shots=100, seed=1, max_density_matrix_qubits=8)
        above = SimulationOptions(shots=100, seed=1, max_density_matrix_qubits=2)
        assert auto.effective_backend(program, below) is resolve_backend("density-matrix")
        assert auto.effective_backend(program, above) is resolve_backend("trajectory")
        # Concrete backends are their own effective backend.
        for name in ("density-matrix", "trajectory", "estimator"):
            backend = resolve_backend(name)
            assert backend.effective_backend(program, below) is backend


class TestAutoMatchesLegacyDispatch:
    """Bit-identity of the backend dispatch, pinned on the reference kernel.

    The fused kernel (the default) is numerically equal but not
    bit-identical (float reassociation); its ``<= 1e-10`` contract is
    covered by :class:`TestFusedKernel` and ``tests/test_superop.py``.
    """

    def test_density_matrix_side_of_threshold(self, compiled_job, monkeypatch):
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        compiled, device = compiled_job
        options = SimulationOptions(shots=1500, seed=5)
        reference = simulate_compiled_reference(compiled, device, options)
        assert np.array_equal(simulate_compiled(compiled, device, options), reference)
        assert np.array_equal(
            simulate_compiled(compiled, device, options, backend="auto"), reference
        )
        # auto delegated to the exact backend below the threshold.
        assert np.array_equal(
            simulate_compiled(compiled, device, options, backend="density-matrix"),
            reference,
        )

    def test_trajectory_side_of_threshold(self, compiled_job, monkeypatch):
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        compiled, device = compiled_job
        # Force the trajectory path by lowering the threshold below the
        # circuit width, exactly how the legacy dispatch would switch.
        options = SimulationOptions(
            shots=1500, seed=5, max_density_matrix_qubits=1, trajectories=7
        )
        reference = simulate_compiled_reference(compiled, device, options)
        assert np.array_equal(simulate_compiled(compiled, device, options), reference)
        assert np.array_equal(
            simulate_compiled(compiled, device, options, backend="trajectory"),
            reference,
        )

    def test_method_field_selects_backend(self, compiled_job):
        compiled, device = compiled_job
        via_method = simulate_compiled(
            compiled, device, SimulationOptions(shots=1000, seed=9, method="estimator")
        )
        via_argument = simulate_compiled(
            compiled, device, SimulationOptions(shots=1000, seed=9), backend="estimator"
        )
        assert np.array_equal(via_method, via_argument)


class TestFusedKernel:
    """The kernel knob and the fused kernel's tolerance/versioning contract."""

    def test_fused_is_the_default_kernel(self, monkeypatch):
        monkeypatch.delenv(SIM_KERNEL_ENV_VAR, raising=False)
        assert active_simulation_kernel() == "fused"
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        assert active_simulation_kernel() == "reference"

    def test_invalid_kernel_warns_once_per_distinct_value(self, monkeypatch):
        import warnings as warnings_module

        from repro.simulators.backend import reset_simulation_kernel_warnings

        reset_simulation_kernel_warnings()
        try:
            monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "turbo")
            with pytest.warns(RuntimeWarning, match="REPRO_SIM_KERNEL"):
                assert active_simulation_kernel() == "fused"
            # Re-read per call, but no re-warn: a long-lived daemon calls
            # this per simulate and must not flood its log.
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("error")
                assert active_simulation_kernel() == "fused"
            # A different invalid value gets its own single warning.
            monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "warp")
            with pytest.warns(RuntimeWarning, match="warp"):
                assert active_simulation_kernel() == "fused"
        finally:
            reset_simulation_kernel_warnings()

    @pytest.mark.parametrize("backend_name", ["density-matrix", "trajectory"])
    def test_kernels_never_share_cache_versions(self, backend_name, monkeypatch):
        backend = resolve_backend(backend_name)
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "fused")
        fused_version = backend.version
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        reference_version = backend.version
        assert fused_version != reference_version
        assert reference_version == 1  # pre-fused caches stay valid

    def test_fused_dispatch_matches_reference_within_tolerance(
        self, compiled_job, monkeypatch
    ):
        compiled, device = compiled_job
        for options in (
            SimulationOptions(shots=1500, seed=5),
            SimulationOptions(
                shots=1500, seed=5, max_density_matrix_qubits=1, trajectories=7
            ),
        ):
            monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
            reference = simulate_compiled(compiled, device, options)
            monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "fused")
            fused = simulate_compiled(compiled, device, options)
            assert np.abs(fused - reference).max() <= 1e-10


class TestConvergenceParity:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_trajectory_converges_to_density_matrix(self, num_qubits):
        circuit = qv_circuit(num_qubits, rng=np.random.default_rng(num_qubits))
        model = NoiseModel.uniform(
            num_qubits, two_qubit_error=0.01, single_qubit_error=0.001
        )
        program = build_noise_program(circuit, model)
        options = SimulationOptions(shots=1000, seed=2, trajectories=800)
        exact = resolve_backend("density-matrix").run(program, options)
        sampled = resolve_backend("trajectory").run(program, options)
        assert exact.shape == sampled.shape == (2**num_qubits,)
        assert exact.sum() == pytest.approx(1.0)
        assert sampled.sum() == pytest.approx(1.0)
        # Total-variation distance shrinks as 1/sqrt(T); 800 trajectories
        # on these error rates lands well inside 0.05.
        assert 0.5 * np.abs(exact - sampled).sum() < 0.05


class TestEstimatorBackend:
    def test_estimate_is_depolarised_ideal(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        model = NoiseModel.uniform(2, two_qubit_error=0.02)
        program = build_noise_program(circuit, model)
        estimate = resolve_backend("estimator").run(
            program, SimulationOptions(shots=1000, seed=1)
        )
        ideal = ideal_probabilities(circuit)
        fidelity = program_fidelity_estimate(program)
        assert 0.0 < fidelity < 1.0
        assert estimate.sum() == pytest.approx(1.0)
        assert np.allclose(estimate, fidelity * ideal + (1 - fidelity) / 4)

    def test_noiseless_program_estimates_ideal(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        program = build_noise_program(circuit, None)
        assert program_fidelity_estimate(program) == pytest.approx(1.0)
        estimate = resolve_backend("estimator").run(
            program, SimulationOptions(shots=1000, seed=1)
        )
        assert np.allclose(estimate, ideal_probabilities(circuit))


class TestSimulationOptionsValidation:
    def test_non_positive_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            SimulationOptions(shots=0)

    def test_non_positive_trajectories_rejected(self):
        with pytest.raises(ValueError, match="trajectories"):
            SimulationOptions(trajectories=-3)

    def test_negative_density_matrix_threshold_rejected(self):
        with pytest.raises(ValueError, match="max_density_matrix_qubits"):
            SimulationOptions(max_density_matrix_qubits=-1)

    def test_fingerprint_tracks_semantic_fields_only(self):
        base = SimulationOptions(shots=100, seed=1)
        assert base.fingerprint() == SimulationOptions(shots=100, seed=1).fingerprint()
        assert base.fingerprint() != SimulationOptions(shots=200, seed=1).fingerprint()
        assert base.fingerprint() != SimulationOptions(shots=100, seed=2).fingerprint()
        # method is carried by the backend component of cache keys instead.
        assert (
            base.fingerprint()
            == SimulationOptions(shots=100, seed=1, method="trajectory").fingerprint()
        )


class TestNoiseProgram:
    def test_lowering_is_deterministic_and_fingerprinted(self):
        circuit = QuantumCircuit(3).h(0).cz(0, 1).cx(1, 2)
        model = NoiseModel.uniform(3, two_qubit_error=0.01)
        first = build_noise_program(circuit, model)
        second = build_noise_program(circuit, model)
        assert first.fingerprint() == second.fingerprint()
        assert first.num_operations() == 3
        assert first.num_channel_applications() > 0

    def test_fingerprint_tracks_noise_content(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        weak = build_noise_program(circuit, NoiseModel.uniform(2, two_qubit_error=0.01))
        strong = build_noise_program(circuit, NoiseModel.uniform(2, two_qubit_error=0.05))
        assert weak.fingerprint() != strong.fingerprint()

    def test_program_cache_hits_on_repeat(self, compiled_job):
        compiled, device = compiled_job
        clear_noise_program_cache()
        first = noise_program_for(compiled, device)
        second = noise_program_for(compiled, device)
        assert second is first
        stats = noise_program_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_program_cache_bound_is_configurable(self, compiled_job, monkeypatch):
        compiled, device = compiled_job
        monkeypatch.setattr(noise_program_module._PROGRAM_CACHE, "max_entries", 3)
        clear_noise_program_cache()
        noise_program_for(compiled, device)
        stats = noise_program_cache_stats()
        assert stats["max_entries"] == 3
        assert stats["entries"] == 1
        clear_noise_program_cache()

    def test_default_bound_reported_in_stats(self):
        clear_noise_program_cache()
        assert noise_program_cache_stats()["max_entries"] == 256


class TestInvocationCounters:
    def test_counts_accumulate_and_reset(self, compiled_job):
        compiled, device = compiled_job
        reset_backend_invocation_counts()
        simulate_compiled(compiled, device, SimulationOptions(shots=500, seed=1))
        counts = backend_invocation_counts()
        assert counts.get("auto") == 1
        assert counts.get("density-matrix") == 1  # auto delegated below threshold
        reset_backend_invocation_counts()
        assert backend_invocation_counts() == {}
