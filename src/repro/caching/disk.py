"""Persistent on-disk compilation *and simulation* cache (the disk tier).

The in-memory :func:`~repro.core.pipeline.global_compilation_cache` dies with the
process, so every fresh CLI invocation, CI job or worker re-pays the full
NuOp compilation cost.  On single-CPU hosts that cost dominates study wall
time; this module makes it a one-time cost per *machine* instead of per
process.  The same root also persists a **simulation-result namespace**
(``get_simulation``/``put_simulation``, separate counters): measured
distribution vectors keyed by noise-program content, backend identity and
simulation options, so warm re-runs of a study skip the simulators the
way they already skip the compiler (see
:mod:`repro.experiments.engine`).

Design:

* **Content-addressed.** Entries are keyed by the same tuple the memory
  tier uses -- circuit, device-calibration, instruction-set, decomposer
  and pipeline-config fingerprints plus the scalar compile options
  (:func:`repro.core.pipeline.compilation_cache_key`) -- folded into one
  SHA-256 digest that names the entry file.  A hit is only possible when
  the cached call would have produced a bit-identical result.
* **Versioned schema.** Entries live under ``<root>/v<N>/`` and embed the
  schema version plus the full key; bumping
  :data:`DISK_CACHE_SCHEMA_VERSION` orphans old trees instead of
  mis-reading them, and any corrupt, truncated or foreign file is treated
  as a miss (and deleted best-effort), never an error.
* **Atomic writes.** Entries are pickled to a unique temporary file in the
  target directory and ``os.replace``-d into place, so concurrent
  processes see either no file or a complete one.
* **Layered, not invasive.** ``compile_circuit_cached`` checks memory ->
  disk -> compile; a disk hit is promoted to memory, a compile populates
  both.  The tier is inert unless configured -- via the
  ``REPRO_CACHE_DIR`` environment variable, the CLI ``--cache-dir`` flag
  or :func:`configure_disk_cache` -- so default test/library behaviour is
  unchanged.

Cache-hit *side-effect replay* (re-registering gate-type calibration so
the device RNG advances exactly as on a cold compile) is handled by the
caller in :mod:`repro.core.pipeline`; this module stores the emitted type
keys the replay needs alongside the compiled result.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.circuits.hashing import hash_scalars
from repro.config import str_env
from repro.resilience.faults import maybe_raise_io_fault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.core.pipeline import CompiledCircuit

DISK_CACHE_SCHEMA_VERSION = 2
"""Bump whenever the pickled payload layout or key composition changes.

v2: :class:`~repro.core.pipeline.CompiledCircuit` gained ``pass_stats``
(per-pass rewrite statistics); v1 entries lack the attribute and would
surface as broken objects, so they are orphaned instead."""

SIMULATION_KIND = "sim"
"""Namespace (subtree name) of the simulation-result tier: measured
distribution vectors keyed by noise-program content, backend identity and
simulation options -- see
:func:`repro.experiments.engine.simulation_cache_key`."""

MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"
"""Size cap (bytes) for the disk tier; entries are evicted LRU-by-mtime
once the footprint exceeds it.  Unset/empty means unbounded."""

_PICKLE_PROTOCOL = 4


def cache_key_digest(key: Tuple) -> str:
    """Fold a compilation-cache key tuple into one hex digest (the file name).

    Key components are digests and plain scalars, so
    :func:`repro.circuits.hashing.hash_scalars` renders them stably across
    processes and platforms; the leading namespace label keeps this digest
    family from colliding with other key families built over the same
    scalars.
    """
    return hash_scalars("disk-cache-key", DISK_CACHE_SCHEMA_VERSION, *key)


@dataclass
class DiskCacheEntry:
    """One persisted compilation result plus its replayable side effects."""

    compiled: "CompiledCircuit"
    emitted_type_keys: List[str]


class DiskCompilationCache:
    """Content-addressed, versioned, atomically-written compilation cache.

    Thread-safe for the statistics counters; file operations rely on the
    atomicity of ``os.replace`` for cross-process safety.  All I/O errors
    degrade to cache misses or dropped writes -- a broken cache directory
    must never break a compilation.
    """

    def __init__(self, root: os.PathLike, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root).expanduser()
        self._max_bytes_override = max_bytes
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        # The simulation-result tier (get_simulation/put_simulation) keeps
        # its own hit/miss/write counters so `repro cache stats` can show
        # compile and simulate traffic separately.
        self.sim_hits = 0
        self.sim_misses = 0
        self.sim_writes = 0

    @property
    def max_bytes(self) -> Optional[int]:
        """Size cap in bytes, or ``None`` when unbounded.

        An explicit constructor argument wins; otherwise
        ``REPRO_CACHE_MAX_BYTES`` is re-consulted on every access (like
        ``REPRO_CACHE_DIR``), so long-lived shared registry instances pick
        up a cap set after they were first constructed.
        """
        if self._max_bytes_override is not None:
            return self._max_bytes_override
        return _default_max_bytes()

    # -- paths --------------------------------------------------------------

    @property
    def version_dir(self) -> Path:
        """Directory holding entries of the current schema version."""
        return self.root / f"v{DISK_CACHE_SCHEMA_VERSION}"

    def _version_dirs(self) -> List[Path]:
        """Every schema-version subtree under the root, current or orphaned.

        Schema bumps orphan old trees rather than migrating them; ``clear``
        and the size-cap eviction sweep must still see those orphans or an
        upgrade would leave unbounded, uncollectable garbage behind.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            path
            for path in self.root.glob("v*")
            if path.is_dir() and path.name[1:].isdigit()
        )

    def _entry_path(self, digest: str) -> Path:
        # Two-character fan-out keeps directories small at production entry
        # counts (the git object-store layout).
        return self.version_dir / digest[:2] / f"{digest}.pkl"

    def _blob_path(self, kind: str, digest: str) -> Path:
        # Auxiliary payloads (autotuner verdicts, ...) live in a namespaced
        # subtree of the same versioned root, with the same fan-out.
        return self.version_dir / kind / digest[:2] / f"{digest}.pkl"

    # -- payload plumbing ----------------------------------------------------

    def _read_payload(
        self, path: Path, key: Tuple, family: str = "compile"
    ) -> Optional[Dict[str, object]]:
        """Load + validate one payload file; any failure is a recorded miss.

        ``family`` selects the counter group (``"compile"`` for compiled
        circuits and auxiliary blobs, ``"sim"`` for simulation results).
        """
        try:
            # Inside the try so an injected IO fault (``REPRO_FAULT_PLAN``,
            # e.g. truncated reads) exercises the same except branches a
            # real corrupt/unreadable file would.
            maybe_raise_io_fault("disk.read")
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self._record(hit=False, family=family)
            return None
        except Exception:
            # pickle.load on corrupt/foreign bytes can raise nearly anything
            # (UnpicklingError, EOFError, TypeError, ImportError, ...); every
            # unreadable entry is a miss, and deleting it keeps it from
            # failing every future lookup.
            self._discard(path)
            self._record(hit=False, family=family)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != DISK_CACHE_SCHEMA_VERSION
            or payload.get("key") != list(key)
        ):
            self._record(hit=False, family=family)
            return None
        self._record(hit=True, family=family)
        if self.max_bytes is not None:
            # Refresh LRU recency for size-cap eviction.  Skipped on
            # unbounded caches so reads stay mtime-neutral (the CI
            # warm-start check relies on "no file changed after the cold
            # process" to prove every compile was served from disk).
            self._touch(path)
        return payload

    def _write_payload(
        self, path: Path, payload: Dict[str, object], family: str = "compile"
    ) -> bool:
        """Atomically write one payload file, then enforce the size cap."""
        try:
            # Inside the try: injected ENOSPC/EACCES faults degrade to a
            # dropped write exactly as a genuinely full disk would.
            maybe_raise_io_fault("disk.write")
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    pickle.dump(payload, handle, protocol=_PICKLE_PROTOCOL)
                os.replace(temp_name, path)
            except BaseException:
                self._discard(Path(temp_name))
                raise
        except Exception:
            # Unpicklable payload members surface as TypeError/AttributeError
            # rather than PicklingError; a failed cache write must never
            # break the compilation that produced the result.
            return False
        with self._lock:
            if family == "sim":
                self.sim_writes += 1
            else:
                self.writes += 1
        self._evict_over_cap(protect=path)
        return True

    # -- core operations ----------------------------------------------------

    def get(self, key: Tuple) -> Optional[DiskCacheEntry]:
        """Load the entry for ``key``, or ``None`` on any kind of miss.

        Mismatched schema versions, corrupt pickles, truncated files and
        digest collisions with a different key all count as misses;
        unreadable files are deleted best-effort so they do not fail every
        future lookup.
        """
        payload = self._read_payload(self._entry_path(cache_key_digest(key)), key)
        if payload is None:
            return None
        return DiskCacheEntry(
            compiled=payload["compiled"],
            emitted_type_keys=list(payload["emitted_type_keys"]),
        )

    def put(
        self,
        key: Tuple,
        compiled: "CompiledCircuit",
        emitted_type_keys: Sequence[str],
    ) -> bool:
        """Persist a compilation result; returns False when the write failed.

        The payload is pickled to a unique temporary file in the entry's
        directory and renamed into place, so readers never observe a
        partial entry and the last concurrent writer wins.
        """
        payload = {
            "schema": DISK_CACHE_SCHEMA_VERSION,
            "key": list(key),
            "compiled": compiled,
            "emitted_type_keys": list(emitted_type_keys),
        }
        return self._write_payload(self._entry_path(cache_key_digest(key)), payload)

    def has_entry(self, key: Tuple) -> bool:
        """True when a compilation entry file exists for ``key``.

        Existence probe (no counters, no deserialisation) for shard
        handoff in the study service: a host that does not own a key's
        shard polls the shared artifact store for another host's result
        without distorting the hit/miss statistics.  A present-but-corrupt
        file counts as present; the next real lookup deletes it.
        """
        try:
            return self._entry_path(cache_key_digest(key)).is_file()
        except OSError:
            return False

    def get_blob(self, kind: str, key: Tuple) -> Optional[object]:
        """Load an auxiliary payload (e.g. an autotuner verdict) for ``key``.

        Blobs share the versioned root, the content-addressed naming, the
        validation rules and the hit/miss/eviction accounting of compiled
        entries -- they are just namespaced under ``<version>/<kind>/``.
        """
        payload = self._read_payload(self._blob_path(kind, cache_key_digest(key)), key)
        if payload is None:
            return None
        return payload.get("value")

    def put_blob(self, kind: str, key: Tuple, value: object) -> bool:
        """Persist an auxiliary payload; returns False when the write failed."""
        payload = {
            "schema": DISK_CACHE_SCHEMA_VERSION,
            "key": list(key),
            "value": value,
        }
        return self._write_payload(self._blob_path(kind, cache_key_digest(key)), payload)

    # -- simulation-result tier ---------------------------------------------

    def get_simulation(self, key: Tuple) -> Optional[object]:
        """Load a persisted measured-distribution vector, or ``None`` on a miss.

        The simulation-result tier shares the versioned root, the
        content-addressed naming, the validation rules and the eviction
        sweep of compiled entries -- it is the ``<version>/sim/``
        namespace with its own hit/miss/write counters, so ``repro cache
        stats`` reports compile and simulate traffic separately.  Keys
        are built by
        :func:`repro.experiments.engine.simulation_cache_key` (noise
        program content x backend name/version x simulation options).
        """
        payload = self._read_payload(
            self._blob_path(SIMULATION_KIND, cache_key_digest(key)), key, family="sim"
        )
        if payload is None:
            return None
        return payload.get("vector")

    def has_simulation(self, key: Tuple) -> bool:
        """True when an entry file exists for ``key`` (no counters, no read).

        Cheap existence probe for the engine's memory-to-disk backfill: a
        memory-tier hit must not skip persistence when this directory has
        never seen the vector, but probing with :meth:`get_simulation`
        would distort the hit/miss counters (and deserialise a vector
        nobody needs).  A present-but-corrupt file counts as present; the
        next real lookup deletes it and the vector is re-persisted then.
        """
        try:
            return self._blob_path(SIMULATION_KIND, cache_key_digest(key)).is_file()
        except OSError:
            return False

    def put_simulation(self, key: Tuple, vector: object) -> bool:
        """Persist a measured-distribution vector; False when the write failed."""
        payload = {
            "schema": DISK_CACHE_SCHEMA_VERSION,
            "key": list(key),
            "vector": vector,
        }
        return self._write_payload(
            self._blob_path(SIMULATION_KIND, cache_key_digest(key)), payload, family="sim"
        )

    def clear(self) -> int:
        """Delete every entry of *every* schema version; returns the count.

        Covers orphaned trees left behind by schema bumps, sweeps ``*.tmp``
        leftovers from writers killed mid-``put`` (invisible to lookups but
        they would otherwise accumulate) and removes the emptied fan-out
        directories, so a cleared tree does not slowly fill with hundreds
        of empty two-character directories.  A never-written cache
        directory clears cleanly to 0 without touching the disk.
        """
        removed = 0
        for version_dir in self._version_dirs():
            for entry in sorted(version_dir.rglob("*.pkl")):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    continue
            for orphan in version_dir.rglob("*.tmp"):
                self._discard(orphan)
            # Deepest-first so parent fan-out/namespace directories empty
            # out before their own rmdir attempt; non-empty ones just fail
            # silently.
            subdirectories = sorted(
                (path for path in version_dir.rglob("*") if path.is_dir()),
                key=lambda path: len(path.parts),
                reverse=True,
            )
            for directory in subdirectories:
                try:
                    directory.rmdir()
                except OSError:
                    continue
        return removed

    # -- size cap ------------------------------------------------------------

    def _evict_over_cap(self, protect: Optional[Path] = None) -> int:
        """Evict least-recently-used entries until the footprint fits the cap.

        Recency is mtime: reads touch their entry, so untouched entries age
        out first (LRU).  ``protect`` (the entry just written) is never
        evicted, so a cap smaller than a single entry still serves it.
        Returns the number of evicted files.

        The full tree walk per write is deliberate: concurrent processes
        share the directory, so any in-memory running total would go stale
        the moment another writer lands an entry.  Writes only happen on
        compile misses (seconds each), which dwarfs an O(entries) stat
        sweep at realistic cache sizes.  The walk spans *every* schema
        version, so after an upgrade the orphaned old tree counts against
        the cap and -- being untouched -- ages out first.
        """
        max_bytes = self.max_bytes  # one env consultation per sweep
        if max_bytes is None:
            return 0
        entries = []
        total = 0
        for version_dir in self._version_dirs():
            for path in version_dir.rglob("*.pkl"):
                try:
                    status = path.stat()
                except OSError:
                    continue
                total += status.st_size
                if protect is None or path != protect:
                    entries.append((status.st_mtime, status.st_size, path))
        if total <= max_bytes:
            return 0
        evicted = 0
        for _, size, path in sorted(entries, key=lambda item: item[0]):
            if total <= max_bytes:
                break
            self._discard(path)
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.evictions += evicted
        return evicted

    # -- reporting ----------------------------------------------------------

    def _footprint(self) -> Tuple[int, int]:
        """``(entry_count, total_bytes)`` of compiled entries + auxiliary blobs.

        Excludes the ``sim`` namespace, which is reported separately
        (``sim_entries``/``sim_bytes`` in :meth:`stats`) so ``entries``
        keeps meaning "how many compilation-side results are persisted".
        """
        if not self.version_dir.is_dir():
            return 0, 0
        excluded = self.version_dir / SIMULATION_KIND
        count = 0
        total = 0
        for entry in self.version_dir.rglob("*.pkl"):
            if excluded in entry.parents:
                continue
            count += 1
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return count, total

    def entry_count(self) -> int:
        """Number of persisted compilation-side entries (excludes ``sim``)."""
        return self._footprint()[0]

    def _kind_footprint(self, kind: str) -> Tuple[int, int]:
        """``(entry_count, total_bytes)`` of one namespaced subtree."""
        kind_dir = self.version_dir / kind
        if not kind_dir.is_dir():
            return 0, 0
        count = 0
        total = 0
        for entry in kind_dir.rglob("*.pkl"):
            count += 1
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return count, total

    def size_bytes(self) -> int:
        """Total size of the persisted compilation-side entries, in bytes."""
        return self._footprint()[1]

    def _orphan_bytes(self) -> int:
        """Bytes held by entries of *other* (orphaned) schema versions."""
        total = 0
        for version_dir in self._version_dirs():
            if version_dir == self.version_dir:
                continue
            for path in version_dir.rglob("*.pkl"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        return total

    def stats(self) -> Dict[str, object]:
        """Counters plus on-disk footprint (for the CLI and benchmarks).

        Reports cleanly (all zeros) for a cache directory nothing was ever
        written to.
        """
        with self._lock:
            hits, misses, writes, evictions = (
                self.hits,
                self.misses,
                self.writes,
                self.evictions,
            )
            sim_hits, sim_misses, sim_writes = (
                self.sim_hits,
                self.sim_misses,
                self.sim_writes,
            )
        entries, size_bytes = self._footprint()
        sim_entries, sim_bytes = self._kind_footprint(SIMULATION_KIND)
        return {
            "cache_dir": str(self.root),
            "schema_version": DISK_CACHE_SCHEMA_VERSION,
            "hits": hits,
            "misses": misses,
            "writes": writes,
            "evictions": evictions,
            "sim_hits": sim_hits,
            "sim_misses": sim_misses,
            "sim_writes": sim_writes,
            "sim_entries": sim_entries,
            "sim_bytes": sim_bytes,
            "entries": entries,
            "size_bytes": size_bytes,
            "orphan_bytes": self._orphan_bytes(),
            "max_bytes": self.max_bytes,  # None = unbounded (CLI renders it)
        }

    # -- internals ----------------------------------------------------------

    def _record(self, hit: bool, family: str = "compile") -> None:
        with self._lock:
            if family == "sim":
                if hit:
                    self.sim_hits += 1
                else:
                    self.sim_misses += 1
            elif hit:
                self.hits += 1
            else:
                self.misses += 1

    @staticmethod
    def _touch(path: Path) -> None:
        """Best-effort mtime refresh (LRU recency for size-cap eviction)."""
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def _default_max_bytes() -> Optional[int]:
    """Disk-tier size cap from ``REPRO_CACHE_MAX_BYTES`` (``None`` = unbounded).

    Re-read on every access (like ``REPRO_CACHE_DIR``).  Invalid values
    -- non-numeric, zero or negative -- are ignored with a warning rather
    than silently capping the cache at nothing
    (:func:`repro.config.positive_int_env`, the policy every integer knob
    shares).
    """
    from repro.config import positive_int_env

    return positive_int_env(
        MAX_BYTES_ENV_VAR, None, invalid_note="disk cache stays unbounded"
    )


# ---------------------------------------------------------------------------
# Global configuration (env var / CLI flag)
# ---------------------------------------------------------------------------

CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

_DISABLED = object()
_EXPLICIT: Optional[object] = None
_INSTANCES: Dict[str, DiskCompilationCache] = {}
_CONFIG_LOCK = threading.Lock()


def _instance_for(cache_dir: os.PathLike) -> DiskCompilationCache:
    """Shared per-directory instance; caller must hold ``_CONFIG_LOCK``.

    Keys are normalised absolute paths, so ``./cache``, ``cache`` and the
    absolute spelling all resolve to the same instance and its counters.
    """
    key = os.path.abspath(os.path.expanduser(str(cache_dir)))
    cache = _INSTANCES.get(key)
    if cache is None:
        # Construct from the normalized path too: a relative cache_dir must
        # not leave the shared instance's filesystem root CWD-dependent.
        cache = DiskCompilationCache(key)
        _INSTANCES[key] = cache
    return cache


def disk_cache_for(cache_dir: os.PathLike) -> DiskCompilationCache:
    """The shared :class:`DiskCompilationCache` for a directory.

    Every consumer of a cache directory -- ``run_study(cache_dir=...)``,
    the CLI's ``--cache-dir`` flag, ``configure_disk_cache`` and the
    ``REPRO_CACHE_DIR`` resolution -- goes through this registry, so
    hit/miss/write counters accumulate on one instance per directory and
    ``repro cache stats`` sees the traffic of per-study caches too.
    """
    with _CONFIG_LOCK:
        return _instance_for(cache_dir)


def configure_disk_cache(cache_dir: Optional[str]) -> Optional[DiskCompilationCache]:
    """Explicitly set (or disable) the process-wide disk cache.

    ``cache_dir=None`` disables the tier even when ``REPRO_CACHE_DIR`` is
    set; a path enables it there.  Returns the active cache (or ``None``).
    Use :func:`reset_disk_cache_configuration` to fall back to the
    environment variable again.
    """
    global _EXPLICIT
    with _CONFIG_LOCK:
        if cache_dir is None:
            _EXPLICIT = _DISABLED
            return None
        cache = _instance_for(cache_dir)
        _EXPLICIT = cache
        return cache


def reset_disk_cache_configuration() -> None:
    """Drop any explicit configuration; ``REPRO_CACHE_DIR`` governs again."""
    global _EXPLICIT
    with _CONFIG_LOCK:
        _EXPLICIT = None


def get_global_disk_cache() -> Optional[DiskCompilationCache]:
    """The process-wide disk cache, or ``None`` when the tier is inactive.

    Resolution order: an explicit :func:`configure_disk_cache` call wins
    (including an explicit disable); otherwise the ``REPRO_CACHE_DIR``
    environment variable is consulted on every call, so tests and
    subprocess harnesses can toggle the tier without re-imports.
    Instances are cached per directory so statistics accumulate.
    """
    with _CONFIG_LOCK:
        if _EXPLICIT is _DISABLED:
            return None
        if _EXPLICIT is not None:
            return _EXPLICIT  # type: ignore[return-value]
        cache_dir = str_env(CACHE_DIR_ENV_VAR)
        if not cache_dir:
            return None
        return _instance_for(cache_dir)
