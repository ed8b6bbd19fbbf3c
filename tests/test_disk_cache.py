"""Persistent disk compilation cache: correctness, robustness, plumbing.

Pins the ISSUE's acceptance properties: a disk-cache round trip is
bit-identical to the uncached compile (result *and* device calibration
RNG state), corrupt/mismatched entries degrade to misses, the tier stays
inert unless configured, the in-memory tier evicts LRU, and the CLI can
inspect and clear the persistent tier.
"""

from __future__ import annotations

import io
import pickle
from contextlib import redirect_stdout

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.caching.disk import (
    DISK_CACHE_SCHEMA_VERSION,
    DiskCompilationCache,
    cache_key_digest,
    configure_disk_cache,
    get_global_disk_cache,
    reset_disk_cache_configuration,
)
from repro.core.instruction_sets import full_fsim_set, google_instruction_set
from repro.core.pipeline import (
    CompilationCache,
    _CacheEntry,
    compile_circuit,
    compile_circuit_cached,
)
from repro.devices.synthetic import synthetic_device


@pytest.fixture(autouse=True)
def _isolated_disk_configuration(monkeypatch):
    """Keep each test's disk-cache configuration from leaking to the next."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    reset_disk_cache_configuration()
    yield
    reset_disk_cache_configuration()


def _circuit():
    return qv_circuit(3, rng=np.random.default_rng(2))


def _device():
    return synthetic_device(5, "line", seed=13)


def _assert_bit_identical(a, b):
    assert len(a.circuit) == len(b.circuit)
    for left, right in zip(a.circuit, b.circuit):
        assert left.qubits == right.qubits
        assert np.array_equal(left.gate.matrix, right.gate.matrix)
    assert a.physical_qubits == b.physical_qubits
    assert a.initial_mapping == b.initial_mapping
    assert a.final_mapping == b.final_mapping
    assert a.gate_type_usage == b.gate_type_usage
    assert a.decomposition_fidelities == b.decomposition_fidelities
    assert a.emitted_gate_types == b.emitted_gate_types


class TestDiskRoundTrip:
    @pytest.mark.parametrize(
        "set_factory",
        [lambda: google_instruction_set("G3"), lambda: full_fsim_set()],
        ids=["discrete", "continuous"],
    )
    def test_disk_hit_matches_uncached_compile(self, tmp_path, set_factory, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)

        device_uncached = _device()
        uncached = compile_circuit(
            _circuit(), device_uncached, set_factory(), decomposer=shared_decomposer
        )

        device_writer = _device()
        compile_circuit_cached(
            _circuit(),
            device_writer,
            set_factory(),
            decomposer=shared_decomposer,
            cache=CompilationCache(),
            disk_cache=disk,
        )
        assert disk.stats()["writes"] == 1

        # Fresh memory tier + fresh device: the result must come off disk
        # and leave the device exactly where a cold compile would.
        device_reader = _device()
        from_disk = compile_circuit_cached(
            _circuit(),
            device_reader,
            set_factory(),
            decomposer=shared_decomposer,
            cache=CompilationCache(),
            disk_cache=disk,
        )
        assert disk.stats()["hits"] == 1
        _assert_bit_identical(uncached, from_disk)
        assert (
            device_reader.calibration_fingerprint()
            == device_uncached.calibration_fingerprint()
        )

    def test_disk_hit_promotes_to_memory_tier(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        compile_circuit_cached(
            _circuit(),
            _device(),
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            cache=CompilationCache(),
            disk_cache=disk,
        )
        # Fresh device per call, as the engine's device_factory() does: the
        # key embeds the *pre-compilation* calibration state.
        memory = CompilationCache()
        compile_circuit_cached(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, cache=memory, disk_cache=disk,
        )
        compile_circuit_cached(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, cache=memory, disk_cache=disk,
        )
        stats = memory.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1  # second call served by the promoted entry
        assert disk.stats()["hits"] == 1  # disk consulted exactly once

    def test_pipelines_do_not_share_entries(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        shared_kwargs = dict(decomposer=shared_decomposer, disk_cache=disk)
        compile_circuit_cached(
            _circuit(), _device(), google_instruction_set("G3"),
            cache=CompilationCache(), pipeline="default", **shared_kwargs,
        )
        compile_circuit_cached(
            _circuit(), _device(), google_instruction_set("G3"),
            cache=CompilationCache(), pipeline="optimized", **shared_kwargs,
        )
        assert disk.entry_count() == 2
        # Content-equal alias: 'no-cancellation' reuses the 'default' entry,
        # but the hit must still be labelled with the pipeline the caller
        # selected.
        aliased = compile_circuit_cached(
            _circuit(), _device(), google_instruction_set("G3"),
            cache=CompilationCache(), pipeline="no-cancellation", **shared_kwargs,
        )
        assert disk.entry_count() == 2
        assert disk.stats()["hits"] == 1
        assert aliased.pipeline_name == "no-cancellation"


class TestDiskRobustness:
    def _seed_entry(self, disk, shared_decomposer):
        compile_circuit_cached(
            _circuit(),
            _device(),
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            cache=CompilationCache(),
            disk_cache=disk,
        )
        paths = list(disk.version_dir.rglob("*.pkl"))
        assert len(paths) == 1
        return paths[0]

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        path = self._seed_entry(disk, shared_decomposer)
        path.write_bytes(b"not a pickle at all")

        device = _device()
        recompiled = compile_circuit_cached(
            _circuit(),
            device,
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            cache=CompilationCache(),
            disk_cache=disk,
        )
        assert recompiled.two_qubit_gate_count > 0
        assert disk.stats()["hits"] == 0
        assert disk.stats()["writes"] == 2  # corrupt file replaced by a fresh entry

    def test_schema_version_mismatch_is_a_miss(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        path = self._seed_entry(disk, shared_decomposer)
        payload = pickle.loads(path.read_bytes())
        payload["schema"] = DISK_CACHE_SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert disk.get(tuple(payload["key"])) is None

    def test_key_echo_mismatch_is_a_miss(self, tmp_path, shared_decomposer):
        # A digest collision (or a tampered file) must be rejected by the
        # full-key comparison embedded in the payload.
        disk = DiskCompilationCache(tmp_path)
        path = self._seed_entry(disk, shared_decomposer)
        payload = pickle.loads(path.read_bytes())
        real_key = tuple(payload["key"])
        payload["key"] = ["tampered"]
        path.write_bytes(pickle.dumps(payload))
        assert disk.get(real_key) is None

    def test_clear_removes_entries(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        self._seed_entry(disk, shared_decomposer)
        assert disk.entry_count() == 1
        assert disk.clear() == 1
        assert disk.entry_count() == 0
        assert disk.size_bytes() == 0

    def test_clear_sweeps_empty_fanout_directories(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        self._seed_entry(disk, shared_decomposer)
        assert any(path.is_dir() for path in disk.version_dir.iterdir())
        disk.clear()
        # No empty two-character fan-out (or namespace) directories left.
        assert list(disk.version_dir.rglob("*")) == []

    def test_clear_and_stats_on_never_written_directory(self, tmp_path):
        disk = DiskCompilationCache(tmp_path / "never-written")
        assert disk.clear() == 0
        stats = disk.stats()
        assert stats["entries"] == 0
        assert stats["size_bytes"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["writes"] == 0
        # Reporting must not create the directory as a side effect.
        assert not (tmp_path / "never-written").exists()

    def test_unwritable_root_degrades_gracefully(self, tmp_path, shared_decomposer):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should be")
        disk = DiskCompilationCache(blocker)  # mkdir under a file will fail
        compiled = compile_circuit_cached(
            _circuit(),
            _device(),
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            cache=CompilationCache(),
            disk_cache=disk,
        )
        assert compiled.two_qubit_gate_count > 0
        assert disk.stats()["writes"] == 0

    def test_key_digest_is_stable_and_key_sensitive(self):
        key = ("a", "b", 1.0, True, None)
        assert cache_key_digest(key) == cache_key_digest(tuple(key))
        assert cache_key_digest(key) != cache_key_digest(("a", "b", 1.0, True, 2))


class TestGlobalConfiguration:
    def test_inert_by_default(self):
        assert get_global_disk_cache() is None

    def test_env_var_activates_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = get_global_disk_cache()
        assert cache is not None
        assert cache.root == tmp_path
        # Same directory -> same instance, so statistics accumulate.
        assert get_global_disk_cache() is cache

    def test_explicit_configure_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        explicit = configure_disk_cache(str(tmp_path / "explicit"))
        assert get_global_disk_cache() is explicit
        # Explicit disable beats the environment variable too.
        configure_disk_cache(None)
        assert get_global_disk_cache() is None
        reset_disk_cache_configuration()
        assert get_global_disk_cache().root == tmp_path / "env"


class TestMemoryCacheLRU:
    def _entry(self):
        return _CacheEntry(compiled=object(), emitted_type_keys=[])

    def test_eviction_is_least_recently_used(self):
        cache = CompilationCache(max_entries=2)
        cache.put(("a",), self._entry())
        cache.put(("b",), self._entry())
        assert cache.get(("a",)) is not None  # refresh 'a'
        cache.put(("c",), self._entry())  # evicts 'b', not 'a'
        assert cache.get(("a",)) is not None
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) is not None

    def test_stats_report_bound(self):
        cache = CompilationCache(max_entries=7)
        assert cache.stats()["max_entries"] == 7
        assert len(cache) == 0


class TestCacheCli:
    def _run(self, argv):
        from repro.cli import main

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        return code, buffer.getvalue()

    def test_stats_without_configuration(self):
        code, output = self._run(["cache", "stats"])
        assert code == 0
        assert "no disk compilation/simulation cache configured" in output

    def test_stats_and_clear_with_cache_dir(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        compile_circuit_cached(
            _circuit(),
            _device(),
            google_instruction_set("G3"),
            decomposer=shared_decomposer,
            cache=CompilationCache(),
            disk_cache=disk,
        )
        code, output = self._run(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert str(tmp_path) in output
        assert "entries" in output

        code, output = self._run(["cache", "clear", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "cleared 1" in output
        assert disk.entry_count() == 0

    def test_pipelines_listing(self):
        code, output = self._run(["pipelines"])
        assert code == 0
        assert "default" in output
        assert "no-cancellation" in output


class TestDiskSizeCap:
    """REPRO_CACHE_MAX_BYTES: LRU-by-mtime eviction for the disk tier."""

    def _put(self, disk, label, payload_bytes=2000):
        # Keys only need to be tuples of scalars; the payload is a plain
        # string blob so entry sizes are controlled precisely.
        return disk.put_blob("test", (label,), "x" * payload_bytes)

    def test_oldest_entries_evicted_over_cap(self, tmp_path):
        import os
        import time

        disk = DiskCompilationCache(tmp_path, max_bytes=6000)
        for index in range(3):
            assert self._put(disk, f"entry-{index}")
        # Assign explicit, distinct mtimes so LRU ordering is unambiguous
        # even on coarse-grained filesystems, and remember which file is
        # oldest (file names are digests, so labels can't identify them).
        now = time.time()
        paths = sorted(disk.version_dir.rglob("*.pkl"))
        for age, path in enumerate(paths):
            stamp = now - 1000 * (len(paths) - age)
            os.utime(path, (stamp, stamp))
        oldest = paths[0]
        assert self._put(disk, "entry-3")  # pushes the footprint over 6000
        assert disk.evictions >= 1
        assert not oldest.exists()  # the LRU entry was the victim
        assert disk.size_bytes() <= 6000

    def test_read_refreshes_recency(self, tmp_path):
        import os
        import time

        disk = DiskCompilationCache(tmp_path, max_bytes=5500)
        assert self._put(disk, "a")
        assert self._put(disk, "b")
        # Age both entries, then read 'a': it must survive the next eviction.
        stamp = time.time() - 1000
        for path in disk.version_dir.rglob("*.pkl"):
            os.utime(path, (stamp, stamp))
        assert disk.get_blob("test", ("a",)) is not None
        assert self._put(disk, "c")
        assert disk.get_blob("test", ("a",)) is not None  # refreshed, kept
        assert disk.get_blob("test", ("b",)) is None  # LRU victim

    def test_newly_written_entry_is_never_the_victim(self, tmp_path):
        disk = DiskCompilationCache(tmp_path, max_bytes=100)  # below one entry
        assert self._put(disk, "solo")
        assert disk.get_blob("test", ("solo",)) is not None

    def test_stats_surface_cap_and_evictions(self, tmp_path):
        disk = DiskCompilationCache(tmp_path, max_bytes=4096)
        stats = disk.stats()
        assert stats["max_bytes"] == 4096
        assert stats["evictions"] == 0
        # Unbounded is None (type-stable for numeric consumers); only the
        # CLI renders it as "unbounded".
        unbounded = DiskCompilationCache(tmp_path / "other")
        assert unbounded.stats()["max_bytes"] is None

    def test_registry_instance_picks_up_late_env_cap(self, tmp_path, monkeypatch):
        from repro.caching.disk import disk_cache_for

        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        shared = disk_cache_for(tmp_path / "late-cap")
        assert shared.max_bytes is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "9999")
        assert shared.max_bytes == 9999  # env re-consulted, not frozen

    def test_env_var_configures_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert DiskCompilationCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "zero")
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_MAX_BYTES"):
            assert DiskCompilationCache(tmp_path).max_bytes is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-1")
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_MAX_BYTES"):
            assert DiskCompilationCache(tmp_path).max_bytes is None
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert DiskCompilationCache(tmp_path).max_bytes is None


class TestBlobStorage:
    """Auxiliary payloads (autotuner verdicts) share the versioned tree."""

    def test_round_trip(self, tmp_path):
        disk = DiskCompilationCache(tmp_path)
        key = ("blob", 1, True)
        assert disk.get_blob("aux", key) is None
        assert disk.put_blob("aux", key, {"answer": 42})
        assert disk.get_blob("aux", key) == {"answer": 42}

    def test_kinds_are_namespaced(self, tmp_path):
        disk = DiskCompilationCache(tmp_path)
        key = ("blob", 2)
        disk.put_blob("kind-a", key, "a")
        disk.put_blob("kind-b", key, "b")
        assert disk.get_blob("kind-a", key) == "a"
        assert disk.get_blob("kind-b", key) == "b"

    def test_clear_removes_blobs_too(self, tmp_path):
        disk = DiskCompilationCache(tmp_path)
        disk.put_blob("aux", ("blob", 3), "payload")
        assert disk.clear() == 1
        assert disk.get_blob("aux", ("blob", 3)) is None


class TestSharedInstanceRegistry:
    """Per-directory DiskCompilationCache instances are shared process-wide."""

    def test_same_directory_same_instance(self, tmp_path):
        from repro.caching.disk import disk_cache_for

        direct = disk_cache_for(tmp_path)
        respelled = disk_cache_for(str(tmp_path) + "/./")
        assert direct is respelled

    def test_run_study_counters_visible_to_cli_stats(self, tmp_path, shared_decomposer):
        from repro.caching.disk import disk_cache_for
        from repro.experiments.engine import run_study
        from repro.experiments.runner import SimulationOptions
        from repro.metrics.hop import heavy_output_probability

        kwargs = dict(
            application="qv",
            circuits=[_circuit()],
            metric_name="HOP",
            metric=heavy_output_probability,
            device_factory=_device,
            instruction_sets={"G3": google_instruction_set("G3")},
            options=SimulationOptions(shots=400, seed=5),
            decomposer=shared_decomposer,
            compilation_cache=CompilationCache(),
            cache_dir=str(tmp_path),
        )
        run_study(**kwargs)
        shared = disk_cache_for(tmp_path)
        assert shared.writes >= 1  # the study's traffic landed on the registry

        # The CLI resolves --cache-dir through the same registry, so its
        # stats include the study's hits/misses/writes (the bug this pins:
        # a private instance used to report all-zero counters).
        import io
        from contextlib import redirect_stdout

        from repro.cli import main

        kwargs["compilation_cache"] = CompilationCache()
        run_study(**kwargs)  # warm pass: all compiles served from disk
        assert shared.hits >= 1
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        output = buffer.getvalue()
        assert f"hits" in output
        row = next(line for line in output.splitlines() if "hits" in line)
        assert "0" != row.split()[-1]  # non-zero hit count rendered


class TestOrphanedSchemaVersions:
    """Schema bumps must not leave uncollectable garbage behind."""

    def _orphan_tree(self, root, payload_bytes=3000):
        orphan_dir = root / "v1" / "ab"
        orphan_dir.mkdir(parents=True)
        orphan = orphan_dir / "abcdef.pkl"
        orphan.write_bytes(b"x" * payload_bytes)
        return orphan

    def test_clear_removes_orphaned_versions(self, tmp_path):
        disk = DiskCompilationCache(tmp_path)
        orphan = self._orphan_tree(tmp_path)
        disk.put_blob("aux", ("k",), "v")
        assert disk.clear() == 2  # current entry + v1 orphan
        assert not orphan.exists()
        assert not orphan.parent.exists()  # fan-out dir swept too

    def test_stats_report_orphan_bytes(self, tmp_path):
        disk = DiskCompilationCache(tmp_path)
        self._orphan_tree(tmp_path, payload_bytes=3000)
        stats = disk.stats()
        assert stats["entries"] == 0  # current version is empty
        assert stats["orphan_bytes"] == 3000

    def test_eviction_counts_and_collects_orphans_first(self, tmp_path):
        import os
        import time

        orphan = self._orphan_tree(tmp_path, payload_bytes=3000)
        stamp = time.time() - 5000
        os.utime(orphan, (stamp, stamp))
        disk = DiskCompilationCache(tmp_path, max_bytes=4000)
        assert disk.put_blob("aux", ("k",), "x" * 2000)
        # 3000 (orphan) + ~2400 (new entry) > 4000: the untouched orphan is
        # the oldest file and must be the victim.
        assert not orphan.exists()
        assert disk.get_blob("aux", ("k",)) is not None
