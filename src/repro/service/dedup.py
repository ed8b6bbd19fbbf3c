"""In-flight job deduplication: the third cache tier.

The memory and disk tiers deduplicate work that *finished*; this table
deduplicates work that is *happening*.  Keyed by the same content
digests the cache tiers use, it guarantees that N concurrent identical
jobs cost one backend invocation: the first arrival becomes the owner
and runs the work, later arrivals attach to the owner's future.

Two attachment patterns, matching the two kinds of engine work:

:meth:`InFlightTable.submit`
    Asynchronous, for **simulate** nodes.  The owner's scheduled task
    computes the vector *and stores it in the cache tiers* before the
    future resolves; the done callback then retires the key.  Waiters
    share the future's result directly -- simulation is pure, so one
    vector serves everyone.

:meth:`InFlightTable.coalesce`
    Synchronous, for **compile** nodes.  Compilation has a per-study
    side effect the result alone cannot carry: a cold compile registers
    gate types against the *calling study's* device, advancing its
    private calibration RNG.  A waiter therefore does not take the
    owner's result -- it waits for the owner to finish (so the
    compilation cache is populated), then re-runs the compile itself,
    which is a memory hit that replays the registrations on the waiter's
    own device.  The expensive work happens once; the cheap replay
    happens per study, exactly as determinism requires.

Failed-key backoff (the resilience layer): a key whose work just failed
retires immediately -- no poisoned future is inherited -- but the *next*
owner for that key is delayed by an exponentially growing cooldown
(``REPRO_RETRY_INFLIGHT_BACKOFF_MS``, default 50 ms, doubling per
consecutive failure, capped at 32x).  Under a failure storm this stops
every queued duplicate from hammering the same broken dependency
back-to-back; one success clears the key's history.  Waiters attaching
to *running* work are never delayed.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

from repro.config import duration_env
from repro.resilience.faults import consult_fault

T = TypeVar("T")

INFLIGHT_BACKOFF_ENV_VAR = "REPRO_RETRY_INFLIGHT_BACKOFF_MS"

#: Cap on consecutive-failure doubling (base * 2**5) and on remembered
#: failed keys -- the table must stay O(running work), not O(history).
_BACKOFF_MAX_DOUBLINGS = 5
_FAILED_KEY_LIMIT = 1024


class InFlightTable:
    """Futures keyed by content digest; one owner per key, many waiters.

    Thread-safe.  Keys retire as soon as their work completes (or
    fails), so the table only ever holds *currently running* work --
    completed results live in the real cache tiers, and a failed key
    leaves the table immediately so the next arrival retries instead of
    inheriting a poisoned future (after the failed-key cooldown above).
    """

    def __init__(self, failure_backoff: Optional[float] = None) -> None:
        self._lock = threading.Lock()
        self._futures: Dict[Hashable, Future] = {}
        self._stats = {
            "started": 0,
            "coalesced": 0,
            "completed": 0,
            "failed": 0,
            "backoffs": 0,
        }
        if failure_backoff is None:
            failure_backoff = duration_env(INFLIGHT_BACKOFF_ENV_VAR, 50) or 0.05
        self._failure_backoff = max(0.0, float(failure_backoff))
        # key -> (consecutive failures, monotonic not-before time)
        self._failed_keys: "OrderedDict[Hashable, Tuple[int, float]]" = OrderedDict()

    # -- failed-key backoff --------------------------------------------------

    def _backoff_remaining(self, key: Hashable) -> float:
        """Seconds until ``key`` may start again; call under the lock."""
        entry = self._failed_keys.get(key)
        if entry is None:
            return 0.0
        return entry[1] - time.monotonic()

    def _record_failure(self, key: Hashable) -> None:
        failures = self._failed_keys.pop(key, (0, 0.0))[0] + 1
        delay = self._failure_backoff * (
            2 ** min(failures - 1, _BACKOFF_MAX_DOUBLINGS)
        )
        self._failed_keys[key] = (failures, time.monotonic() + delay)
        while len(self._failed_keys) > _FAILED_KEY_LIMIT:
            self._failed_keys.popitem(last=False)

    def _acquire_ownership(self, key: Hashable, sleep=time.sleep):
        """Return the existing future for ``key``, or ``None`` once this
        caller may become the owner -- honouring the failed-key cooldown.

        Loops (sleeping *outside* the lock) until the key is either in
        flight (attach) or cold and past its cooldown (own).  Racing
        prospective owners re-check after sleeping, so exactly one owns.
        """
        while True:
            with self._lock:
                existing = self._futures.get(key)
                if existing is not None:
                    self._stats["coalesced"] += 1
                    return existing
                delay = self._backoff_remaining(key)
                if delay <= 0:
                    return None
                self._stats["backoffs"] += 1
            sleep(delay)

    # -- attachment patterns -------------------------------------------------

    def submit(
        self,
        key: Hashable,
        schedule: Callable[[], "Future[T]"],
        probe: Optional[Callable[[], Optional[T]]] = None,
    ) -> "Tuple[Future[T], Optional[bool]]":
        """Attach to in-flight work under ``key``, scheduling it if absent.

        Returns ``(future, owner)``.  When no work is in flight the
        ``schedule`` thunk is invoked (under the table lock -- it must
        only *enqueue*, e.g. ``executor.submit``, never run the work
        inline) and its future registered; the caller is the owner
        (``owner=True``).  Otherwise the existing future is returned and
        the arrival is counted as coalesced.  The key retires via a done
        callback, so schedule the *full* job -- compute **and** cache
        store -- under the future: by the time the key is gone, the
        cache tiers already serve the result.

        ``probe`` closes the gap between the caller's own cache miss and
        this call, in which an identical job may have stored its result
        and retired its key.  It runs under the table lock right before
        an owner would start, so it must be a cheap non-blocking lookup
        (the memory tier).  Owners store before their key retires under
        this lock, so the probe sees every such result; a hit comes back
        as an already resolved future with ``owner=None``, and nothing is
        started or coalesced.
        """
        while True:
            existing = self._acquire_ownership(key)
            if existing is not None:
                return existing, False
            with self._lock:
                # Re-check: another prospective owner may have won the
                # race between _acquire_ownership releasing the lock and
                # this block taking it.
                raced = self._futures.get(key)
                if raced is not None:
                    self._stats["coalesced"] += 1
                    return raced, False
                if self._backoff_remaining(key) > 0:
                    continue
                hit = probe() if probe is not None else None
                if hit is not None:
                    resolved: "Future[T]" = Future()
                    resolved.set_result(hit)
                    return resolved, None
                future = schedule()
                self._futures[key] = future
                self._stats["started"] += 1
            future.add_done_callback(lambda f, key=key: self._retire(key, f))
            return future, True

    def coalesce(self, key: Hashable, fn: Callable[[], T]) -> Tuple[T, bool]:
        """Run ``fn`` under ``key``, or wait for the identical run in flight.

        Returns ``(result, owner)``.  The owner runs ``fn`` and resolves
        the shared future; waiters block until the owner finishes, then
        **re-run ``fn`` themselves** and return their own result (for
        cached compiles that re-run is a memory hit whose side-effect
        replay the waiter's device needs -- see the module docstring).
        An owner's exception propagates to the owner and is *not*
        inherited by waiters: they re-run ``fn`` and surface whatever it
        does for them.
        """
        while True:
            existing = self._acquire_ownership(key)
            if existing is not None:
                future = existing
                owner = False
                break
            with self._lock:
                raced = self._futures.get(key)
                if raced is not None:
                    self._stats["coalesced"] += 1
                    future = raced
                    owner = False
                    break
                if self._backoff_remaining(key) > 0:
                    continue
                future = Future()
                self._futures[key] = future
                self._stats["started"] += 1
                owner = True
                break
        if owner:
            try:
                result = fn()
            except BaseException as error:
                self._retire(key, None, failed=True)
                future.set_exception(error)
                raise
            self._retire(key, None, failed=False)
            future.set_result(result)
            return result, True
        # The ``inflight.wait`` fault point models an owner whose future
        # never resolves for this waiter (e.g. the owner's thread died
        # without retiring).  Skipping the wait degrades gracefully: the
        # re-run below recomputes -- correct, just uncoalesced.
        if consult_fault("inflight.wait") is None:
            try:
                future.result()
            except BaseException:
                # Owner failed; fall through -- the re-run below either
                # succeeds (transient failure) or raises for this caller too.
                pass
        return fn(), False

    def _retire(self, key: Hashable, future, failed: Optional[bool] = None) -> None:
        """Drop ``key`` and count the outcome (done callback / coalesce)."""
        if failed is None:
            failed = future is not None and future.exception() is not None
        with self._lock:
            self._futures.pop(key, None)
            self._stats["failed" if failed else "completed"] += 1
            if failed:
                self._record_failure(key)
            else:
                self._failed_keys.pop(key, None)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current in-flight/cooldown key counts."""
        with self._lock:
            return {
                **self._stats,
                "inflight": len(self._futures),
                "failed_keys": len(self._failed_keys),
            }
