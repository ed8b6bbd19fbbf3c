"""Caching tiers: the in-process LRU registry (`lru`) and the persistent disk tier."""

from repro.caching.disk import (
    DISK_CACHE_SCHEMA_VERSION,
    DiskCacheEntry,
    DiskCompilationCache,
    configure_disk_cache,
    get_global_disk_cache,
    reset_disk_cache_configuration,
)

__all__ = [
    "DISK_CACHE_SCHEMA_VERSION",
    "DiskCacheEntry",
    "DiskCompilationCache",
    "configure_disk_cache",
    "get_global_disk_cache",
    "reset_disk_cache_configuration",
]
