"""Batched superoperator replay: one vectorised pass per error-scale sweep.

The equivalence contracts the batching layer stakes its speedup on:

* **kernel level** -- ``apply_superop_program_batch`` over a stacked
  ``(B, 2^n, 2^n)`` rho tensor matches ``B`` sequential
  ``apply_superop_program`` replays to ``<= 1e-10``, for B in {1, 2, 7},
  both for a batch of same-structure programs (the error-scale-sweep
  case) and for one shared program broadcast over many initial states;
* **structure discipline** -- programs whose fused groups differ in
  qubit supports refuse to batch (``ValueError``), and the working-set
  cap (``REPRO_SIM_BATCH_MAX_BYTES``) bounds group sizes;
* **backend level** -- ``DensityMatrixBackend.run_batch`` equals per-
  program ``run`` and costs ONE invocation per vectorised pass; under
  ``REPRO_SIM_KERNEL=reference`` it degrades to sequential ``run``
  calls bit-identically;
* **engine level** -- a ``run_study`` with ``options.batch != 1``
  produces a report bit-identical to the unbatched run, lands results
  under the *identical* per-job sim-cache keys, and a warm batched
  re-run performs zero backend invocations.
"""

from __future__ import annotations

import numpy as np
import pytest
import test_superop

from repro.applications import qv_circuit
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import full_fsim_set, single_gate_set
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import (
    batch_signature,
    clear_experiment_caches,
    group_prepared_for_batch,
    run_study,
)
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.simulators.backend import (
    SIM_KERNEL_ENV_VAR,
    backend_invocation_counts,
    reset_backend_invocation_counts,
    resolve_backend,
)
from repro.simulators.noise_model import NoiseModel
from repro.simulators.noise_program import build_noise_program
from repro.simulators.superop import (
    SIM_BATCH_MAX_BYTES_ENV_VAR,
    apply_superop_program,
    apply_superop_program_batch,
    batch_superop_programs,
    batched_replay_stats,
    max_batch_items,
    reset_batched_replay_stats,
    superop_program_for,
    superop_structure_key,
)

TOLERANCE = test_superop.TOLERANCE


def sweep_programs(num_qubits: int, batch: int, seed: int = 3):
    """``batch`` programs of one circuit under scaled noise strengths.

    The error-scale-sweep shape: identical circuit and channel structure,
    channel tensors differing only through the noise strengths -- so the
    lowered programs share :func:`superop_structure_key`.
    """
    circuit = test_superop.random_circuit(
        num_qubits, num_operations=4 * num_qubits + 4, seed=seed
    )
    programs = []
    for index in range(batch):
        scale = 1.0 + 0.5 * index
        model = NoiseModel.uniform(
            num_qubits,
            two_qubit_error=0.01 * scale,
            single_qubit_error=0.002 * scale,
            t1=20_000.0,
            t2=15_000.0,
        )
        programs.append(build_noise_program(circuit, model))
    return programs


class TestKernelEquivalence:
    @pytest.mark.parametrize("batch", [1, 2, 7])
    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_batched_matches_sequential_fused_replay(self, num_qubits, batch):
        programs = sweep_programs(num_qubits, batch, seed=11 + num_qubits)
        superops = [superop_program_for(program) for program in programs]
        assert len({superop_structure_key(sp) for sp in superops}) == 1
        rhos = np.stack(
            [
                test_superop.random_density_matrix(num_qubits, seed=40 + index)
                for index in range(batch)
            ]
        )
        sequential = np.stack(
            [apply_superop_program(sp, rho) for sp, rho in zip(superops, rhos)]
        )
        batched = apply_superop_program_batch(batch_superop_programs(superops), rhos)
        assert batched.shape == sequential.shape
        assert np.max(np.abs(batched - sequential)) <= TOLERANCE

    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_shared_program_broadcast_over_states(self, batch):
        program = test_superop.random_program(3, seed=9, noisy=True)
        superop = superop_program_for(program)
        rhos = np.stack(
            [
                test_superop.random_density_matrix(3, seed=70 + index)
                for index in range(batch)
            ]
        )
        sequential = np.stack([apply_superop_program(superop, rho) for rho in rhos])
        batched = apply_superop_program_batch(superop, rhos)
        assert np.max(np.abs(batched - sequential)) <= TOLERANCE

    def test_batched_pass_is_recorded(self):
        reset_batched_replay_stats()
        program = test_superop.random_program(2, seed=5, noisy=True)
        rhos = np.stack(
            [test_superop.random_density_matrix(2, seed=i) for i in range(3)]
        )
        apply_superop_program_batch(superop_program_for(program), rhos)
        stats = batched_replay_stats()
        assert stats["batched_passes"] == 1
        assert stats["batched_items"] == 3

    def test_structure_mismatch_refuses_to_batch(self):
        a = superop_program_for(test_superop.random_program(3, seed=1, noisy=True))
        b = superop_program_for(test_superop.random_program(3, seed=2, noisy=True))
        assert superop_structure_key(a) != superop_structure_key(b)
        with pytest.raises(ValueError, match="structure"):
            batch_superop_programs([a, b])

    def test_wrong_rho_stack_shape_rejected(self):
        programs = sweep_programs(2, 3, seed=21)
        batched = batch_superop_programs(
            [superop_program_for(program) for program in programs]
        )
        rhos = np.stack(
            [test_superop.random_density_matrix(2, seed=i) for i in range(2)]
        )
        with pytest.raises(ValueError):
            apply_superop_program_batch(batched, rhos)


class TestMemoryCap:
    def test_max_batch_items_respects_env_cap(self, monkeypatch):
        # One 3-qubit rho stack item costs 2 buffers x 16 bytes x 4^3.
        per_item = 2 * 16 * 4**3
        monkeypatch.setenv(SIM_BATCH_MAX_BYTES_ENV_VAR, str(4 * per_item))
        assert max_batch_items(3) == 4
        assert max_batch_items(3, 2) == 2  # the batch= knob tightens it
        assert max_batch_items(3, 100) == 4  # ... but never exceeds the cap
        monkeypatch.setenv(SIM_BATCH_MAX_BYTES_ENV_VAR, "1")
        assert max_batch_items(3) == 1  # cap below one item still progresses

    def test_invalid_env_cap_warns_and_defaults(self, monkeypatch):
        from repro.simulators.superop import (
            DEFAULT_SIM_BATCH_MAX_BYTES,
            sim_batch_max_bytes,
        )

        monkeypatch.setenv(SIM_BATCH_MAX_BYTES_ENV_VAR, "lots")
        with pytest.warns(RuntimeWarning, match=SIM_BATCH_MAX_BYTES_ENV_VAR):
            assert sim_batch_max_bytes() == DEFAULT_SIM_BATCH_MAX_BYTES


class TestBatchOption:
    def test_simulation_options_validate_batch(self):
        with pytest.raises(ValueError, match="batch"):
            SimulationOptions(batch=-1)
        assert SimulationOptions(batch=0).batch == 0
        assert SimulationOptions(batch=7).batch == 7

    def test_batch_excluded_from_fingerprint(self):
        assert (
            SimulationOptions(batch=0).fingerprint()
            == SimulationOptions(batch=1).fingerprint()
            == SimulationOptions(batch=7).fingerprint()
        )


class TestBatchCounters:
    def test_record_and_reset(self):
        reset_batched_replay_stats()
        program = superop_program_for(test_superop.random_program(2, seed=5, noisy=True))
        for items in (5, 2):
            rhos = np.stack(
                [test_superop.random_density_matrix(2, seed=i) for i in range(items)]
            )
            apply_superop_program_batch(program, rhos)
        assert batched_replay_stats() == {"batched_passes": 2, "batched_items": 7}
        reset_batched_replay_stats()
        assert batched_replay_stats() == {"batched_passes": 0, "batched_items": 0}

    def test_stats_are_a_snapshot(self):
        reset_batched_replay_stats()
        stats = batched_replay_stats()
        stats["batched_passes"] = 99
        assert batched_replay_stats() == {"batched_passes": 0, "batched_items": 0}

    def test_sequential_replay_is_not_counted(self):
        reset_batched_replay_stats()
        program = superop_program_for(test_superop.random_program(2, seed=5, noisy=True))
        apply_superop_program(program, test_superop.random_density_matrix(2, seed=0))
        assert batched_replay_stats() == {"batched_passes": 0, "batched_items": 0}


class TestBackendBatch:
    def test_run_batch_matches_run_with_one_invocation(self):
        backend = resolve_backend("density-matrix")
        options = SimulationOptions(shots=500, seed=3)
        programs = sweep_programs(3, 4, seed=17)
        reset_backend_invocation_counts()
        sequential = [backend.run(program, options) for program in programs]
        assert backend_invocation_counts()["density-matrix"] == 4
        reset_backend_invocation_counts()
        batched = backend.run_batch(programs, options)
        assert backend_invocation_counts()["density-matrix"] == 1
        for got, want in zip(batched, sequential):
            assert np.max(np.abs(got - want)) <= TOLERANCE

    def test_reference_kernel_falls_back_to_sequential_runs(self, monkeypatch):
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        backend = resolve_backend("density-matrix")
        options = SimulationOptions(shots=500, seed=3)
        programs = sweep_programs(2, 3, seed=23)
        assert not backend.supports_batched_run(programs[0], options)
        reset_backend_invocation_counts()
        batched = backend.run_batch(programs, options)
        assert backend_invocation_counts()["density-matrix"] == 3
        for got, program in zip(batched, programs):
            assert np.array_equal(got, backend.run(program, options))


def _sweep_study_kwargs(shared_decomposer):
    circuits = [qv_circuit(3, rng=np.random.default_rng(index)) for index in range(2)]
    instruction_sets = {
        "S1": single_gate_set("S1", vendor="google"),
        "FullfSim": full_fsim_set(),
        "FullfSim-2x": full_fsim_set(),
        "FullfSim-3x": full_fsim_set(),
    }
    return dict(
        application="qv",
        circuits=circuits,
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(5, "line", seed=13),
        instruction_sets=instruction_sets,
        error_scales={"FullfSim-2x": 2.0, "FullfSim-3x": 3.0},
        decomposer=shared_decomposer,
    )


def _rows(study):
    return [
        (name, result.metric_values, result.two_qubit_counts, result.swap_counts)
        for name, result in study.per_set.items()
    ]


class TestEngineBatching:
    def test_batched_study_bit_identical_with_identical_cache_keys(
        self, shared_decomposer
    ):
        kwargs = _sweep_study_kwargs(shared_decomposer)
        options = dict(shots=900, seed=5)

        from repro.experiments import engine

        captured = {}
        original_store = engine.store_simulation

        def capture_keys(label):
            def store(prepared, vector, sim_disk=None):
                captured.setdefault(label, {})[prepared.job] = prepared.cache_key
                return original_store(prepared, vector, sim_disk)

            return store

        clear_experiment_caches()
        reset_backend_invocation_counts()
        engine.store_simulation = capture_keys("sequential")
        try:
            sequential = run_study(**kwargs, options=SimulationOptions(**options))
        finally:
            engine.store_simulation = original_store
        sequential_invocations = sum(backend_invocation_counts().values())

        clear_experiment_caches()
        reset_backend_invocation_counts()
        reset_batched_replay_stats()
        engine.store_simulation = capture_keys("batched")
        try:
            batched = run_study(
                **kwargs, options=SimulationOptions(**options, batch=0)
            )
        finally:
            engine.store_simulation = original_store
        batched_invocations = sum(backend_invocation_counts().values())

        # Bit-identical report, identical per-job cache keys, fewer
        # backend passes (one per structure group instead of one per job).
        assert _rows(batched) == _rows(sequential)
        assert captured["batched"] == captured["sequential"]
        assert batched_invocations < sequential_invocations
        assert batched_replay_stats()["batched_passes"] >= 1

    def test_warm_batched_rerun_is_free_and_identical(self, shared_decomposer):
        kwargs = _sweep_study_kwargs(shared_decomposer)
        options = dict(shots=901, seed=6)
        clear_experiment_caches()
        cold = run_study(**kwargs, options=SimulationOptions(**options, batch=0))
        reset_backend_invocation_counts()
        warm = run_study(**kwargs, options=SimulationOptions(**options, batch=0))
        assert sum(backend_invocation_counts().values()) == 0
        assert _rows(warm) == _rows(cold)
        # ... and a warm *sequential* run reuses the batched entries too:
        # batch is an execution strategy, not a cache-key component.
        reset_backend_invocation_counts()
        sequential = run_study(**kwargs, options=SimulationOptions(**options))
        assert sum(backend_invocation_counts().values()) == 0
        assert _rows(sequential) == _rows(cold)

    def test_batch_knob_caps_group_sizes(self, shared_decomposer, monkeypatch):
        kwargs = _sweep_study_kwargs(shared_decomposer)
        clear_experiment_caches()
        reset_batched_replay_stats()
        run_study(**kwargs, options=SimulationOptions(shots=902, seed=7, batch=2))
        stats = batched_replay_stats()
        # 3 same-structure jobs per circuit chunked at 2 -> groups of 2
        # and 1; only the pairs run vectorised passes.
        assert stats["batched_passes"] >= 1
        assert all(
            items <= 2 for items in [stats["batched_items"] // stats["batched_passes"]]
        )

    def test_reference_kernel_batched_study_identical_to_unbatched(
        self, shared_decomposer, monkeypatch
    ):
        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
        kwargs = _sweep_study_kwargs(shared_decomposer)
        options = dict(shots=903, seed=8)
        clear_experiment_caches()
        sequential = run_study(**kwargs, options=SimulationOptions(**options))
        clear_experiment_caches()
        reset_batched_replay_stats()
        batched = run_study(**kwargs, options=SimulationOptions(**options, batch=0))
        # supports_batched_run is False on the reference kernel, so no
        # vectorised pass ever runs and results stay byte-identical.
        assert batched_replay_stats() == {"batched_passes": 0, "batched_items": 0}
        assert _rows(batched) == _rows(sequential)


class TestGrouping:
    def test_batch_signature_groups_only_same_structure(self, shared_decomposer):
        from repro.experiments.engine import ExperimentJob, prepare_job

        device = synthetic_device(5, "line", seed=13)
        circuit = qv_circuit(3, rng=np.random.default_rng(0))
        options = SimulationOptions(shots=700, seed=4, batch=0)
        sets = {
            "FullfSim": full_fsim_set(),
            "FullfSim-2x": full_fsim_set(),
        }
        units = [
            prepare_job(
                ExperimentJob(
                    set_name=name, circuit_index=0, error_scale=scale
                ),
                circuit,
                device,
                sets[name],
                decomposer=shared_decomposer,
                options=options,
            )
            for name, scale in (("FullfSim", 1.0), ("FullfSim-2x", 2.0))
        ]
        signatures = [batch_signature(unit) for unit in units]
        assert signatures[0] is not None
        assert signatures[0] == signatures[1]
        groups = group_prepared_for_batch(units)
        assert [len(group) for group in groups] == [2]
