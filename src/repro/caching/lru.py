"""One bounded LRU for every in-process cache tier, and the registry of them.

Each process-wide memo of the library -- decomposer profiles, KAK
decompositions (with their Weyl coordinates), compilations, autotuner
verdicts, noise programs, ideal distributions, simulation results and
calibration fingerprints -- is an :class:`LRUCache` made by
:func:`register_cache`.  The registry is what
``clear_experiment_caches()``, ``repro cache stats`` and the daemon's
``/v1/stats`` iterate, so registering a tier is all it takes for it to
be cleared and reported.
Private instances (a test's own compilation cache, a ``cache=``
argument) are plain :class:`LRUCache` objects and stay out of it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable

MISSING = object()
"""A ``get``/``peek`` default that tells a miss from a stored ``None``."""


class LRUCache:
    """Thread-safe memo of at most ``max_entries`` entries, LRU-evicted.

    ``get`` counts a hit (and refreshes the entry's recency) or a miss;
    ``peek`` counts nothing and keeps the order, so it is safe to call
    under a caller's own lock.  ``clear`` drops every entry and zeroes
    the counters.
    """

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default=None):
        with self._lock:
            value = self._entries.get(key, MISSING)
            if value is MISSING:
                self._misses += 1
                return default
            self._hits += 1
            self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable, default=None):
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }


_REGISTRY: Dict[str, LRUCache] = {}


def register_cache(name: str, max_entries: int) -> LRUCache:
    """A new process-wide tier, cleared and reported under ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"cache tier {name!r} is already registered")
    cache = _REGISTRY[name] = LRUCache(max_entries)
    return cache


def registered_caches() -> Dict[str, LRUCache]:
    """Every process-wide tier by name, in registration order."""
    return dict(_REGISTRY)


def registered_cache_stats() -> Dict[str, Dict[str, int]]:
    """``stats()`` of every process-wide tier, by name."""
    return {name: cache.stats() for name, cache in _REGISTRY.items()}


def clear_registered_caches() -> None:
    """Empty every process-wide tier and zero its counters."""
    for cache in _REGISTRY.values():
        cache.clear()
