"""Tests for the Weyl-chamber decomposition tabulation.

The heavyweight fixture (a resolution-3 CZ table at ``max_layers=3``)
is built once per module and re-inserted into the in-process table
cache before each test, so the suite exercises the real lookup path
without rebuilding the table dozens of times.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.compiler.tabulation as tabulation_module
import repro.core.decomposer as decomposer_module
from repro.caching.disk import (
    configure_disk_cache,
    get_global_disk_cache,
    reset_disk_cache_configuration,
)
from repro.circuits.gate import named_gate
from repro.compiler.autotune import CandidateScore, TunerVerdict
from repro.compiler.tabulation import (
    GRID_RESOLUTION_ENV_VAR,
    TABULATION_ENV_VAR,
    DecompositionTable,
    TabulationConfig,
    build_table,
    chamber_grid,
    clear_table_cache,
    default_grid_resolution,
    resolve_tabulation,
    table_cache_stats,
    table_for,
    table_spec,
)
from repro.core.decomposer import (
    NuOpDecomposer,
    clear_profile_cache,
    profile_cache_stats,
)
from repro.gates.parametric import canonical_gate
from repro.gates.unitary import random_su4

QUARTER = np.pi / 4


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    """Isolate every test from ambient tabulation/caching state."""
    monkeypatch.delenv(TABULATION_ENV_VAR, raising=False)
    monkeypatch.delenv(GRID_RESOLUTION_ENV_VAR, raising=False)
    clear_profile_cache()
    yield
    clear_profile_cache()


@pytest.fixture(scope="module")
def cz_gate():
    return named_gate("cz")


@pytest.fixture(scope="module")
def cz_table_setup(cz_gate):
    """A shared (decomposer, config, table) triple, built once."""
    config = TabulationConfig(resolution=3)
    decomposer = NuOpDecomposer(seed=7, max_layers=3, tabulation=config)
    table = build_table(decomposer, cz_gate, None, config)
    return decomposer, config, table


@pytest.fixture()
def cz_table(cz_table_setup):
    """The shared table, guaranteed present in the in-process cache."""
    decomposer, config, table = cz_table_setup
    digest = table.spec.digest()
    tabulation_module._table_cache_insert(digest, table, "hits")
    return decomposer, config, table


class TestChamberGrid:
    def test_point_counts(self):
        assert len(chamber_grid(3)) == 11
        assert len(chamber_grid(5)) == 45

    def test_points_lie_in_chamber(self):
        for x, y, z in chamber_grid(4):
            assert QUARTER + 1e-12 >= x >= y >= abs(z)
            if abs(x - QUARTER) < 1e-12:
                assert z >= 0.0  # (x, y, -z) is equivalent on this face

    def test_grid_includes_corners(self):
        points = chamber_grid(3)
        for corner in [
            (0.0, 0.0, 0.0),
            (QUARTER, 0.0, 0.0),
            (QUARTER, QUARTER, 0.0),
            (QUARTER, QUARTER, QUARTER),
        ]:
            assert any(np.allclose(p, corner) for p in points)

    def test_no_duplicate_points(self):
        points = chamber_grid(5)
        rounded = {tuple(np.round(p, 12)) for p in points}
        assert len(rounded) == len(points)


class TestConfigResolution:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            TabulationConfig(resolution=1)

    def test_fingerprint_excludes_build_on_miss(self):
        eager = TabulationConfig(resolution=3, build_on_miss=True)
        lazy = TabulationConfig(resolution=3, build_on_miss=False)
        assert eager.fingerprint() == lazy.fingerprint()
        assert eager.fingerprint() != TabulationConfig(resolution=4).fingerprint()

    def test_resolve_knob_semantics(self, monkeypatch):
        assert resolve_tabulation(None) is None
        assert resolve_tabulation(False) is None
        config = resolve_tabulation(True)
        assert config == TabulationConfig(resolution=default_grid_resolution())
        explicit = TabulationConfig(resolution=4)
        assert resolve_tabulation(explicit) is explicit

        monkeypatch.setenv(TABULATION_ENV_VAR, "1")
        assert resolve_tabulation(None) is not None
        assert resolve_tabulation(False) is None  # explicit knob wins

    def test_grid_resolution_env(self, monkeypatch):
        monkeypatch.setenv(GRID_RESOLUTION_ENV_VAR, "7")
        assert default_grid_resolution() == 7
        monkeypatch.setenv(TABULATION_ENV_VAR, "1")
        assert resolve_tabulation(None).resolution == 7

    def test_decomposer_env_gate(self, monkeypatch):
        decomposer = NuOpDecomposer()
        assert decomposer.resolved_tabulation() is None
        monkeypatch.setenv(TABULATION_ENV_VAR, "1")
        assert decomposer.resolved_tabulation() is not None

    def test_table_spec_requires_one_target(self, cz_gate):
        decomposer = NuOpDecomposer()
        config = TabulationConfig(resolution=3)
        with pytest.raises(ValueError):
            table_spec(decomposer, None, None, config)
        with pytest.raises(ValueError):
            table_spec(decomposer, cz_gate, "fsim", config)

    def test_spec_digest_separates_targets(self, cz_gate):
        decomposer = NuOpDecomposer()
        config = TabulationConfig(resolution=3)
        gate_spec = table_spec(decomposer, cz_gate, None, config)
        family_spec = table_spec(decomposer, None, "fsim", config)
        assert gate_spec.digest() != family_spec.digest()


class TestTableStructure:
    def test_entries_cover_grid_without_early_stop(self, cz_table):
        decomposer, config, table = cz_table
        assert len(table.entries) == len(chamber_grid(config.resolution))
        for entry in table.entries:
            # No early stop: every layer count 0..max_layers is present,
            # even for grid points exact at fewer layers.
            assert [s.num_layers for s in entry.solutions] == list(
                range(decomposer.max_layers + 1)
            )

    def test_nearest_recovers_grid_points(self, cz_table):
        _, _, table = cz_table
        for entry in table.entries[:: max(1, len(table.entries) // 5)]:
            found = table.nearest(canonical_gate(*entry.coords))
            assert np.allclose(found.coords, entry.coords)

    def test_invariants_rebuilt_after_pickle(self, cz_table):
        import pickle

        _, _, table = cz_table
        table._entry_invariants()
        clone = pickle.loads(pickle.dumps(table))
        assert clone._invariants is None  # derived data is not persisted
        found = clone.nearest(canonical_gate(*table.entries[-1].coords))
        assert np.allclose(found.coords, table.entries[-1].coords)


class TestTabulatedQueries:
    def test_threshold_matches_classic(self, cz_table, cz_gate, rng):
        tab_decomposer, _, _ = cz_table
        classic = NuOpDecomposer(seed=7, max_layers=3)
        for _ in range(3):
            target = random_su4(rng)
            tabulated = tab_decomposer.decompose_for_threshold(
                target, gate=cz_gate
            )
            reference = classic.decompose_for_threshold(target, gate=cz_gate)
            assert tabulated.num_layers == reference.num_layers
            assert tabulated.decomposition_fidelity == pytest.approx(
                reference.decomposition_fidelity, abs=1e-3
            )
            assert tabulated.verify() == pytest.approx(
                tabulated.decomposition_fidelity, abs=1e-9
            )

    def test_exact_matches_classic(self, cz_table, cz_gate, rng):
        tab_decomposer, _, _ = cz_table
        classic = NuOpDecomposer(seed=7, max_layers=3)
        target = random_su4(rng)
        tabulated = tab_decomposer.decompose_exact(target, gate=cz_gate)
        reference = classic.decompose_exact(target, gate=cz_gate)
        assert tabulated.num_layers == reference.num_layers
        assert tabulated.verify() == pytest.approx(1.0, abs=1e-6)

    def test_profile_shape_matches_classic(self, cz_table, cz_gate, rng):
        tab_decomposer, _, _ = cz_table
        target = random_su4(rng)
        profile = tab_decomposer.fidelity_profile(target, gate=cz_gate)
        assert [s.num_layers for s in profile] == list(range(len(profile)))
        assert profile[-1].fidelity >= 1.0 - 1e-6
        fidelities = [s.fidelity for s in profile]
        assert fidelities == sorted(fidelities)

    def test_untabulated_decomposer_is_unaffected(self, cz_gate, rng):
        """With the knob off, queries never consult the table machinery."""
        before = table_cache_stats()
        classic = NuOpDecomposer(seed=7, max_layers=2)
        classic.decompose_for_threshold(random_su4(rng), gate=cz_gate)
        after = table_cache_stats()
        assert after["hits"] == before["hits"]
        assert after["builds"] == before["builds"]


class TestTableStore:
    def _tiny_decomposer(self, seed: int) -> NuOpDecomposer:
        config = TabulationConfig(resolution=2)
        return NuOpDecomposer(seed=seed, max_layers=1, tabulation=config)

    def test_build_disabled_returns_none(self, cz_gate):
        config = TabulationConfig(resolution=2, build_on_miss=False)
        decomposer = NuOpDecomposer(seed=101, max_layers=1, tabulation=config)
        assert table_for(decomposer, cz_gate, None, config) is None
        table = table_for(decomposer, cz_gate, None, config, build=True)
        assert isinstance(table, DecompositionTable)

    def test_memory_tier_hit(self, cz_gate):
        decomposer = self._tiny_decomposer(seed=102)
        config = decomposer.tabulation
        before = table_cache_stats()
        first = table_for(decomposer, cz_gate, None, config)
        second = table_for(decomposer, cz_gate, None, config)
        after = table_cache_stats()
        assert first is second
        assert after["builds"] == before["builds"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_disk_round_trip_and_counters(self, cz_gate, tmp_path):
        decomposer = self._tiny_decomposer(seed=103)
        config = decomposer.tabulation
        configure_disk_cache(str(tmp_path))
        try:
            disk = get_global_disk_cache()
            built = table_for(decomposer, cz_gate, None, config)
            assert disk.stats()["decomp_writes"] == 1

            clear_table_cache()
            before = table_cache_stats()
            loaded = table_for(decomposer, cz_gate, None, config)
            after = table_cache_stats()
            assert after["disk_loads"] == before["disk_loads"] + 1
            assert after["builds"] == before["builds"]
            assert disk.stats()["decomp_hits"] >= 1
            assert loaded.spec == built.spec
            for rebuilt, original in zip(loaded.entries, built.entries):
                assert rebuilt.coords == original.coords
                for a, b in zip(rebuilt.solutions, original.solutions):
                    assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
        finally:
            reset_disk_cache_configuration()

    def test_lru_eviction(self, cz_gate, monkeypatch):
        monkeypatch.setattr(tabulation_module, "_TABLE_CACHE_MAX_ENTRIES", 2)
        clear_table_cache()
        for seed in (104, 105, 106):
            decomposer = self._tiny_decomposer(seed=seed)
            table_for(decomposer, cz_gate, None, decomposer.tabulation)
        assert table_cache_stats()["entries"] == 2


class TestProfileCacheSatellites:
    def test_target_key_canonicalises_sign_flip(self, rng):
        """A global sign (the most common KAK reconstruction ambiguity)
        maps to the same key: IEEE negation is exact, so the pivot
        rotation cancels it bit for bit.  Other phases canonicalise only
        approximately -- a miss there costs a recompute, never
        correctness."""
        decomposer = NuOpDecomposer()
        target = random_su4(rng)
        key = decomposer._target_cache_key(target)
        assert decomposer._target_cache_key(-target) == key

    def test_target_key_has_no_rounding_aliasing(self, rng):
        """Sub-1e-10 perturbations used to collide under decimal rounding."""
        decomposer = NuOpDecomposer()
        target = random_su4(rng)
        perturbed = target.copy()
        perturbed[1, 2] += 1e-11
        assert decomposer._target_cache_key(target) != decomposer._target_cache_key(
            perturbed
        )

    def test_profile_lru_bound(self, cz_gate, rng, monkeypatch):
        monkeypatch.setattr(decomposer_module, "_PROFILE_CACHE_MAX_ENTRIES", 4)
        decomposer = NuOpDecomposer(seed=7, max_layers=0)
        for _ in range(6):
            decomposer.fidelity_profile(random_su4(rng), gate=cz_gate)
        stats = profile_cache_stats()
        assert stats["entries"] <= 4

    def test_tabulation_state_splits_profile_keys(self, cz_gate, rng):
        """Tabulated and classic profiles must never alias in the LRU."""
        target = random_su4(rng)
        classic = NuOpDecomposer(seed=7, max_layers=3)
        tabulated = NuOpDecomposer(
            seed=7, max_layers=3, tabulation=TabulationConfig(resolution=3)
        )
        classic_key = classic._profile_cache_key(target, cz_gate.type_key, 3)
        tabulated_key = tabulated._profile_cache_key(target, cz_gate.type_key, 3)
        assert classic_key != tabulated_key


class TestVerdictOverrides:
    def _score(self, **overrides) -> CandidateScore:
        return CandidateScore(
            pipeline="nuop",
            predicted_fidelity=0.9,
            two_qubit_count=3,
            single_qubit_count=8,
            duration_ns=100.0,
            **overrides,
        )

    def test_winner_overrides_apply(self):
        winner = self._score(max_layers_override=2, approximate_override=False)
        verdict = TunerVerdict(pipeline="nuop", scores=(winner,), winner=winner)
        assert verdict.compile_options(True, None) == (False, 2)

    def test_no_overrides_pass_through(self):
        winner = self._score()
        verdict = TunerVerdict(pipeline="nuop", scores=(winner,), winner=winner)
        assert verdict.compile_options(True, 4) == (True, 4)

    def test_pre_sweep_blob_compat(self):
        """Verdicts unpickled from old disk blobs lack ``winner``."""
        score = self._score()
        verdict = TunerVerdict(pipeline="nuop", scores=(score,))
        object.__delattr__(verdict, "winner")
        assert verdict.winning_score() is score
        assert verdict.compile_options(True, None) == (True, None)
        assert verdict.winning_fidelity() == pytest.approx(0.9)

    def test_override_rows_are_reported(self):
        row = self._score(max_layers_override=3, approximate_override=True).as_row()
        assert row["max_layers"] == 3
        assert row["approximate"] is True
        assert "max_layers" not in self._score().as_row()
