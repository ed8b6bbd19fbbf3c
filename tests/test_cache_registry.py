"""The shared in-process LRU (:mod:`repro.caching.lru`) and its registry.

Every process-wide cache tier is a registered :class:`LRUCache`, so one
contract test covers them all, a completeness test keeps a new tier from
escaping ``clear_experiment_caches()``, and the two stats views (``repro
cache stats`` and the daemon's ``/v1/stats``) list the registry.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.caching.lru import MISSING, LRUCache, register_cache, registered_caches
from repro.compiler.autotune import TunerVerdictCache
from repro.core.pipeline import CompilationCache


def _repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


MODULES = list(_repro_modules())

TIERS = [
    "decomposer profiles",
    "weyl coordinates",
    "compilation (memory)",
    "autotuner verdicts",
    "noise programs",
    "ideal distributions",
    "simulation results (memory)",
    "calibration fingerprints",
]


def test_registry_names_every_tier():
    assert sorted(registered_caches()) == sorted(TIERS)


def test_every_module_level_lru_is_registered():
    registered = list(registered_caches().values())
    for module in MODULES:
        for name, value in vars(module).items():
            if isinstance(value, LRUCache):
                assert any(value is cache for cache in registered), (
                    f"{module.__name__}.{name} is an LRUCache outside the registry"
                )


def test_a_name_registers_once():
    with pytest.raises(ValueError, match="already registered"):
        register_cache("noise programs", 1)


def test_private_instances_stay_out_of_the_registry():
    registered = list(registered_caches().values())
    for cache, bound in ((CompilationCache(), 4096), (TunerVerdictCache(), 8192)):
        assert cache.stats()["max_entries"] == bound
        assert not any(cache is other for other in registered)


@pytest.fixture
def tier(request, monkeypatch):
    cache = registered_caches()[request.param]
    cache.clear()
    monkeypatch.setattr(cache, "max_entries", 2)
    yield cache
    cache.clear()


@pytest.mark.parametrize("tier", TIERS, indirect=True)
class TestTierContract:
    def test_put_past_the_bound_evicts_the_least_recently_used(self, tier):
        for key in "abc":
            tier.put(key, key.upper())
        assert len(tier) == 2
        assert [tier.peek(key) for key in "abc"] == [None, "B", "C"]

    def test_a_hit_refreshes_recency(self, tier):
        tier.put("a", "A")
        tier.put("b", "B")
        assert tier.get("a") == "A"
        tier.put("c", "C")
        assert [tier.peek(key) for key in "abc"] == ["A", None, "C"]

    def test_peek_counts_nothing_and_keeps_the_order(self, tier):
        tier.put("a", "A")
        tier.put("b", "B")
        assert tier.peek("a") == "A"
        assert tier.peek("z") is None
        assert (tier.stats()["hits"], tier.stats()["misses"]) == (0, 0)
        tier.put("c", "C")  # "a" is still the least recently used
        assert [tier.peek(key) for key in "abc"] == [None, "B", "C"]

    def test_a_stored_none_is_a_hit(self, tier):
        tier.put("a", None)
        assert tier.get("a", MISSING) is None
        assert tier.get("z", MISSING) is MISSING
        assert (tier.stats()["hits"], tier.stats()["misses"]) == (1, 1)

    def test_clear_empties_the_tier_and_zeroes_its_counters(self, tier):
        tier.put("a", "A")
        tier.get("a")
        tier.get("z")
        tier.clear()
        assert len(tier) == 0
        assert tier.stats() == {"hits": 0, "misses": 0, "entries": 0, "max_entries": 2}

    def test_stats_has_the_four_keys(self, tier):
        assert set(tier.stats()) == {"hits", "misses", "entries", "max_entries"}


def test_daemon_stats_list_every_registered_tier():
    from repro.service.server import StudyService

    service = StudyService()
    try:
        caches = service.stats()["caches"]
    finally:
        service.close()
    assert set(caches) - {"disk"} == set(registered_caches())
