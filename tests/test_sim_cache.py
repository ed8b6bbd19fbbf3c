"""The two-tier simulation-result cache behind the engine's simulate nodes.

Contracts under test:

* a warm re-run of a study serves every simulate node from the memory
  tier (zero backend invocations) with bit-identical rows;
* with a cache directory, a memory-cold re-run serves every simulate
  node from the disk tier's ``sim`` namespace -- again with zero backend
  invocations and bit-identical rows -- and the dedicated ``sim_*``
  counters record the traffic;
* corrupt persisted vectors degrade to misses, never errors;
* a fetch that lands between a store's two tier writes does not write
  the vector to disk a second time, and a failed disk write still
  leaves the vector in memory;
* determinism holds now that worker pools receive immutable noise
  programs instead of per-job ``Device`` deep copies (the regression
  guard for removing the deepcopy); a program whose gates share memoised
  channel objects survives a process-pool round trip with the same
  fingerprint, lowering and replay.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.caching.disk import disk_cache_for
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import (
    clear_experiment_caches,
    fetch_cached_simulation,
    peek_simulation_memory,
    run_study,
    simulation_cache_stats,
    store_simulation,
)
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.resilience import configure_fault_plan, reset_fault_plan_configuration
from repro.simulators.backend import (
    backend_invocation_counts,
    resolve_backend,
    reset_backend_invocation_counts,
)
from repro.simulators.noise_model import NoiseModel
from repro.simulators.noise_program import NoiseProgram, build_noise_program
from repro.simulators.superop import superop_program_for


def _study_kwargs(shared_decomposer, **overrides):
    kwargs = dict(
        application="qv",
        circuits=[qv_circuit(3, rng=np.random.default_rng(index)) for index in range(2)],
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(5, "line", seed=13),
        instruction_sets={
            "S1": single_gate_set("S1", vendor="google"),
            "G3": google_instruction_set("G3"),
        },
        options=SimulationOptions(shots=900, seed=5),
        decomposer=shared_decomposer,
    )
    kwargs.update(overrides)
    return kwargs


def _rows(study):
    return [
        (name, result.metric_values, result.two_qubit_counts, result.swap_counts)
        for name, result in study.per_set.items()
    ]


class TestMemoryTier:
    def test_warm_study_skips_every_backend_invocation(self, shared_decomposer):
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        cold = run_study(**kwargs, workers=1)
        stats_cold = simulation_cache_stats()
        assert stats_cold["misses"] == 4  # 2 sets x 2 circuits
        assert stats_cold["entries"] == 4

        reset_backend_invocation_counts()
        warm = run_study(**kwargs, workers=1)
        stats_warm = simulation_cache_stats()
        assert backend_invocation_counts() == {}, "warm run must not simulate"
        assert stats_warm["hits"] == stats_cold["misses"]
        assert stats_warm["misses"] == stats_cold["misses"]
        assert _rows(warm) == _rows(cold)

    def test_distinct_options_do_not_share_entries(self, shared_decomposer):
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        run_study(**kwargs, workers=1)
        reset_backend_invocation_counts()
        run_study(
            **_study_kwargs(shared_decomposer, options=SimulationOptions(shots=901, seed=5)),
            workers=1,
        )
        assert sum(backend_invocation_counts().values()) > 0

    def test_distinct_backends_do_not_share_entries(self, shared_decomposer):
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        auto = run_study(**kwargs, workers=1)
        reset_backend_invocation_counts()
        estimated = run_study(**kwargs, workers=1, backend="estimator")
        assert _rows(estimated) != _rows(auto)
        assert backend_invocation_counts().get("estimator") == 4
        # Entries are keyed on the *effective* backend, so the explicit
        # spelling of the backend auto delegated to shares auto's entries
        # (and a delegate version bump would orphan both).
        reset_backend_invocation_counts()
        explicit = run_study(**kwargs, workers=1, backend="density-matrix")
        assert _rows(explicit) == _rows(auto)
        assert backend_invocation_counts() == {}

    def test_unregistered_backend_instance_works(self, shared_decomposer):
        """run_study accepts backend instances that were never registered
        (workers ship the instance, not a name to re-resolve)."""
        from repro.simulators.backend import EstimatorBackend

        class LocalEstimator(EstimatorBackend):
            name = "local-estimator"
            version = 1

        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        local = run_study(**kwargs, workers=1, backend=LocalEstimator())
        registered = run_study(**kwargs, workers=1, backend="estimator")
        assert _rows(local) == _rows(registered)


class TestDiskTier:
    def test_fresh_memory_state_warm_starts_from_disk(self, shared_decomposer, tmp_path):
        cache_dir = str(tmp_path / "cache")
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        cold = run_study(**kwargs, workers=1, cache_dir=cache_dir)
        disk = disk_cache_for(cache_dir)
        assert disk.sim_writes == 4
        assert disk.sim_hits == 0
        assert disk.stats()["sim_entries"] == 4

        # Simulate a fresh process: every in-memory tier dropped.
        clear_experiment_caches()
        reset_backend_invocation_counts()
        warm = run_study(**kwargs, workers=1, cache_dir=cache_dir)
        assert backend_invocation_counts() == {}, "disk tier must satisfy every node"
        assert disk.sim_hits == 4
        assert disk.sim_writes == 4  # unchanged: hits are never re-written
        assert _rows(warm) == _rows(cold)

    def test_memory_hits_backfill_a_new_cache_dir(self, shared_decomposer, tmp_path):
        """A study that runs cache-less first must still persist its
        vectors when a later run names a cache directory."""
        cache_dir = str(tmp_path / "late-cache")
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        run_study(**kwargs, workers=1)  # memory tier only
        reset_backend_invocation_counts()
        run_study(**kwargs, workers=1, cache_dir=cache_dir)
        assert backend_invocation_counts() == {}  # served from memory...
        disk = disk_cache_for(cache_dir)
        assert disk.sim_writes == 4  # ...but still persisted to the new dir
        assert disk.stats()["sim_entries"] == 4

    def test_corrupt_simulation_entry_degrades_to_miss(self, shared_decomposer, tmp_path):
        cache_dir = str(tmp_path / "cache")
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        cold = run_study(**kwargs, workers=1, cache_dir=cache_dir)
        disk = disk_cache_for(cache_dir)
        sim_dir = disk.version_dir / "sim"
        corrupted = sorted(sim_dir.rglob("*.pkl"))
        assert len(corrupted) == 4
        for path in corrupted:
            path.write_bytes(b"not a pickle")

        clear_experiment_caches()
        reset_backend_invocation_counts()
        recovered = run_study(**kwargs, workers=1, cache_dir=cache_dir)
        assert sum(backend_invocation_counts().values()) > 0  # re-simulated
        assert _rows(recovered) == _rows(cold)


class TestStoreFetchRace:
    """``store_simulation`` racing ``fetch_cached_simulation``, replayed in order.

    The racing fetch runs inside the disk tier's ``put_simulation``, just
    before and just after the real write, i.e. at every point between the
    store's two tier writes.  When the store wrote memory first, the fetch
    before the disk write saw a memory hit with no disk entry and
    backfilled it, so the vector was written twice.
    """

    def _racing_disk(self, monkeypatch, tmp_path, prepared):
        disk = disk_cache_for(str(tmp_path / "cache"))
        real_put = disk.put_simulation
        fetched = []

        def put_with_racing_fetch(key, vector):
            monkeypatch.setattr(disk, "put_simulation", real_put)  # the race fires once
            fetched.append(fetch_cached_simulation(prepared, disk))
            written = real_put(key, vector)
            fetched.append(fetch_cached_simulation(prepared, disk))
            return written

        monkeypatch.setattr(disk, "put_simulation", put_with_racing_fetch)
        return disk, fetched

    def test_racing_fetch_does_not_write_twice(self, monkeypatch, tmp_path):
        clear_experiment_caches()
        prepared = SimpleNamespace(cache_key=("store-fetch-race", 1))
        disk, fetched = self._racing_disk(monkeypatch, tmp_path, prepared)
        stored = store_simulation(prepared, np.array([0.25, 0.75]), disk)
        assert len(fetched) == 2
        assert disk.sim_writes == 1
        cached, source = fetch_cached_simulation(prepared, disk)
        assert source == "memory"
        assert np.array_equal(cached, stored)
        assert disk.sim_writes == 1
        assert disk.stats()["sim_entries"] == 1

    def test_failed_disk_write_still_reaches_memory(self, tmp_path):
        clear_experiment_caches()
        disk = disk_cache_for(str(tmp_path / "cache"))
        prepared = SimpleNamespace(cache_key=("store-enospc", 1))
        configure_fault_plan("disk.write:enospc@1")
        try:
            stored = store_simulation(prepared, np.array([0.5, 0.5]), disk)
        finally:
            reset_fault_plan_configuration()
        assert disk.sim_writes == 0
        assert peek_simulation_memory(prepared.cache_key) is stored
        assert not stored.flags.writeable


class TestNoDeviceCopyDeterminism:
    def test_worker_pools_stay_bit_identical_without_device_copies(
        self, shared_decomposer
    ):
        """Regression guard for shipping noise programs instead of Device
        deep copies to the pool: cold parallel == cold serial."""
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        serial = run_study(**kwargs, workers=1)
        clear_experiment_caches()
        parallel = run_study(**kwargs, workers=2)
        assert _rows(parallel) == _rows(serial)

    def test_program_with_shared_channels_replays_identically_in_a_worker(self):
        circuit = qv_circuit(3, rng=np.random.default_rng(3))
        model = NoiseModel.uniform(3, two_qubit_error=0.01)
        local = build_noise_program(circuit, model)
        shipped = build_noise_program(circuit, model)  # never fingerprinted/lowered
        channels = [
            channel
            for moment in shipped.moments
            for operation in moment.operations
            for channel, _ in operation.channels
        ]
        assert len({id(channel) for channel in channels}) < len(channels)
        backend = resolve_backend("density-matrix")
        options = SimulationOptions(seed=5)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            fingerprint = pool.submit(NoiseProgram.fingerprint, shipped)
            lowered = pool.submit(superop_program_for, shipped)
            replayed = pool.submit(backend.run, shipped, options)
            fingerprint, lowered, replayed = (
                future.result(timeout=120) for future in (fingerprint, lowered, replayed)
            )
        assert fingerprint == local.fingerprint()
        groups = superop_program_for(local).groups
        assert [g.qubits for g in lowered.groups] == [g.qubits for g in groups]
        for remote, expected in zip(lowered.groups, groups):
            assert remote.superoperator.tobytes() == expected.superoperator.tobytes()
        assert np.array_equal(replayed, backend.run(local, options))

    def test_cached_vectors_are_immutable(self, shared_decomposer):
        kwargs = _study_kwargs(shared_decomposer)
        clear_experiment_caches()
        run_study(**kwargs, workers=1)
        from repro.experiments.engine import _SIM_CACHE

        vector = next(iter(_SIM_CACHE._entries.values()))
        with pytest.raises((ValueError, RuntimeError)):
            vector[0] = 1.0


class TestIdealCacheLRU:
    """The ideal-distribution cache evicts least-*recently-used*, not FIFO.

    Regression guard: hits used to leave recency untouched, so a daemon's
    hottest circuits -- the ones hit on every request -- were the first
    evicted once one-off traffic filled the bound.
    """

    def test_hit_refreshes_recency(self, monkeypatch):
        from repro.experiments import engine
        from repro.experiments.engine import ideal_cache_stats, ideal_distribution_cached

        circuits = [
            qv_circuit(2, rng=np.random.default_rng(index)) for index in range(3)
        ]
        clear_experiment_caches()
        monkeypatch.setattr(engine._IDEAL_CACHE, "max_entries", 2)

        ideal_distribution_cached(circuits[0])  # miss: cache [0]
        ideal_distribution_cached(circuits[1])  # miss: cache [0, 1]
        ideal_distribution_cached(circuits[0])  # hit: refreshes 0 -> [1, 0]
        ideal_distribution_cached(circuits[2])  # miss: evicts LRU -> [0, 2]

        before = ideal_cache_stats()
        ideal_distribution_cached(circuits[0])  # must still be cached
        after = ideal_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

        ideal_distribution_cached(circuits[1])  # was evicted: a miss
        assert ideal_cache_stats()["misses"] == after["misses"] + 1

    def test_stats_report_entries_and_bound(self, monkeypatch):
        from repro.experiments import engine
        from repro.experiments.engine import ideal_cache_stats, ideal_distribution_cached

        clear_experiment_caches()
        monkeypatch.setattr(engine._IDEAL_CACHE, "max_entries", 2)
        for index in range(3):
            ideal_distribution_cached(qv_circuit(2, rng=np.random.default_rng(index)))
        stats = ideal_cache_stats()
        assert stats["entries"] == 2
        assert stats["max_entries"] == 2
        assert stats["hits"] == 0
        assert stats["misses"] == 3

    def test_hit_returns_identical_vector(self):
        from repro.experiments.engine import ideal_distribution_cached

        circuit = qv_circuit(2, rng=np.random.default_rng(0))
        clear_experiment_caches()
        first = ideal_distribution_cached(circuit)
        second = ideal_distribution_cached(circuit)
        assert second is first
        with pytest.raises((ValueError, RuntimeError)):
            second[0] = 1.0
