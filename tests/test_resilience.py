"""Deterministic fault injection and the resilience layer.

The contracts under test (see ``docs/resilience.md``):

* **Plan determinism** -- a fault plan is a seeded, replayable schedule:
  the same plan text injects the same fault sequence every time, and
  invalid entries warn-and-drop instead of raising or silently no-oping.
* **Inert by default** -- with no plan configured, every fault point is
  a dictionary miss; nothing raises, no RNG state is created.
* **Retry determinism** -- backoff delays derive from sha256 of the plan
  seed, never the wall clock, and exhaustion re-raises the *last
  underlying error* (no wrapper type).
* **Chaos bit-identity** -- the acceptance bar: a study executed under
  an aggressive fault plan produces rows bit-identical to the fault-free
  run, for the engine and for the serve daemon's ``study`` record.
* **Graceful degradation** -- disk-tier faults degrade to misses with
  consistent counters; failed in-flight keys back off; a draining
  service rejects new work with 503 while flushing what it accepted.
"""

from __future__ import annotations

import errno
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.caching.disk import DiskCompilationCache
from repro.config import duration_env
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.resilience import (
    FAULT_PLAN_ENV_VAR,
    InjectedFault,
    InjectedWorkerCrash,
    ResilienceCounters,
    RetryPolicy,
    call_with_retry,
    configure_fault_plan,
    consult_fault,
    fault_stats,
    maybe_raise_fault,
    maybe_raise_io_fault,
    reset_fault_plan_configuration,
    reset_retry_stats,
    retry_stats,
)
from repro.service.client import ServiceError, submit_study
from repro.service.dedup import InFlightTable
from repro.service.protocol import StudySpec, encode_record
from repro.service.server import ServiceDraining, StudyService, make_http_server
from repro.simulators.backend import reset_backend_invocation_counts


@pytest.fixture(autouse=True)
def _clean_resilience(monkeypatch):
    """Fault plans and retry counters are process-global: never leak them."""
    monkeypatch.delenv(FAULT_PLAN_ENV_VAR, raising=False)
    reset_fault_plan_configuration()
    reset_retry_stats()
    yield
    reset_fault_plan_configuration()
    reset_retry_stats()


@pytest.fixture()
def cold_engine():
    clear_experiment_caches()
    reset_backend_invocation_counts()
    yield
    clear_experiment_caches()


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_inert_without_a_plan(self):
        assert consult_fault("worker.task") is None
        maybe_raise_fault("worker.task")  # must not raise
        maybe_raise_io_fault("disk.read")
        assert fault_stats() == {
            "plan": None,
            "seed": 0,
            "consultations": {},
            "injected": {},
        }

    def test_at_rule_fires_exactly_once_on_the_nth_consultation(self):
        configure_fault_plan("worker.task:fail@2")
        draws = [consult_fault("worker.task") for _ in range(4)]
        assert draws == [None, "fail", None, None]
        stats = fault_stats()
        assert stats["consultations"] == {"worker.task": 4}
        assert stats["injected"] == {"worker.task": {"fail": 1}}

    def test_unruled_points_are_not_even_counted(self):
        configure_fault_plan("worker.task:fail@1")
        assert consult_fault("disk.read") is None
        assert fault_stats()["consultations"] == {}

    def test_first_matching_rule_wins(self):
        configure_fault_plan("worker.task:fail@1;worker.task:crash@1")
        assert consult_fault("worker.task") == "fail"

    def test_probability_rule_replays_the_same_sequence(self):
        plan_text = "disk.write:enospc%0.5;seed=7"
        configure_fault_plan(plan_text)
        first = [consult_fault("disk.write") for _ in range(24)]
        configure_fault_plan(plan_text)  # fresh counters, fresh RNG streams
        second = [consult_fault("disk.write") for _ in range(24)]
        assert first == second
        assert "enospc" in first  # p=0.5 over 24 draws: the rule does fire
        assert None in first  # ...and does not fire every time

    def test_seed_changes_the_probabilistic_sequence(self):
        sequences = {}
        for seed in (1, 2, 3, 4):
            configure_fault_plan(f"disk.write:enospc%0.5;seed={seed}")
            sequences[seed] = tuple(consult_fault("disk.write") for _ in range(24))
        assert len(set(sequences.values())) > 1

    @pytest.mark.parametrize(
        "entry",
        [
            "bogus.point:fail@1",  # unknown fault point
            "worker.task:fail@0",  # @N needs N >= 1
            "worker.task:fail%1.5",  # %P needs 0 < P < 1
            "worker.task:fail%zero",
            "worker.task",  # no operator at all
            "seed=lots",
        ],
    )
    def test_invalid_entries_warn_and_drop(self, entry):
        with pytest.warns(RuntimeWarning, match="ignoring invalid"):
            configure_fault_plan(entry)
        assert consult_fault("worker.task") is None

    def test_invalid_entry_does_not_poison_valid_ones(self):
        with pytest.warns(RuntimeWarning, match="ignoring invalid"):
            configure_fault_plan("bogus.point:fail@1;worker.task:fail@1;seed=9")
        assert consult_fault("worker.task") == "fail"

    def test_env_var_activates_and_explicit_configuration_wins(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "worker.task:fail@1")
        reset_fault_plan_configuration()
        assert consult_fault("worker.task") == "fail"
        configure_fault_plan(None)  # explicit disable beats the environment
        assert consult_fault("worker.task") is None
        reset_fault_plan_configuration()  # back to the environment
        assert fault_stats()["plan"] == "worker.task:fail@1"

    def test_crash_kind_raises_a_broken_executor(self):
        configure_fault_plan("worker.task:crash@1")
        with pytest.raises(InjectedWorkerCrash) as excinfo:
            maybe_raise_fault("worker.task")
        assert isinstance(excinfo.value, BrokenExecutor)

    def test_other_kinds_raise_injected_fault(self):
        configure_fault_plan("backend.run:fail@1")
        with pytest.raises(InjectedFault) as excinfo:
            maybe_raise_fault("backend.run")
        assert excinfo.value.point == "backend.run"
        assert excinfo.value.kind == "fail"

    @pytest.mark.parametrize(
        "kind, code",
        [("enospc", errno.ENOSPC), ("eacces", errno.EACCES), ("eio", errno.EIO)],
    )
    def test_io_kinds_raise_oserror_with_matching_errno(self, kind, code):
        configure_fault_plan(f"disk.write:{kind}@1")
        with pytest.raises(OSError) as excinfo:
            maybe_raise_io_fault("disk.write")
        assert excinfo.value.errno == code

    def test_truncate_kind_raises_eoferror(self):
        configure_fault_plan("disk.read:truncate@1")
        with pytest.raises(EOFError):
            maybe_raise_io_fault("disk.read")

    def test_injected_exceptions_pickle_round_trip(self):
        # A fault raised inside a pool worker crosses the process
        # boundary as a pickle.  An exception that cannot rebuild from
        # its reduce tuple breaks the *parent's* result unpickling,
        # which ProcessPoolExecutor misreports as "a child process
        # terminated abruptly" and marks the whole pool broken.
        fault = pickle.loads(pickle.dumps(InjectedFault("backend.run", "fail")))
        assert (fault.point, fault.kind) == ("backend.run", "fail")
        assert str(fault) == str(InjectedFault("backend.run", "fail"))
        crash = pickle.loads(pickle.dumps(InjectedWorkerCrash("worker.task")))
        assert crash.point == "worker.task"
        assert str(crash) == str(InjectedWorkerCrash("worker.task"))


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def _flaky(self, failures, error=None):
        """A callable failing ``failures`` times, then returning 42."""
        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] <= failures:
                raise error or OSError(errno.EIO, "transient")
            return 42

        return fn, state

    def test_recovers_with_deterministic_backoff(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.025, seed=11)
        fn, state = self._flaky(2)
        counters = ResilienceCounters()
        slept = []
        with pytest.warns(RuntimeWarning, match="resilience: retrying"):
            result = call_with_retry(
                fn, policy, describe="unit", counters=counters, sleep=slept.append
            )
        assert result == 42 and state["calls"] == 3
        assert slept == [
            policy.backoff_delay(1, token="unit"),
            policy.backoff_delay(2, token="unit"),
        ]
        assert counters.snapshot() == {"attempts": 3, "retries": 2, "recoveries": 1}
        assert retry_stats()["recoveries"] == 1

    def test_backoff_is_jittered_exponential_and_seed_stable(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=0.3, seed=4)
        for attempt, raw in ((1, 0.1), (2, 0.2), (3, 0.3), (4, 0.3)):
            delay = policy.backoff_delay(attempt, token="t")
            assert 0.5 * raw <= delay <= raw
            assert delay == policy.backoff_delay(attempt, token="t")  # replayable
        assert policy.backoff_delay(1, token="t") != RetryPolicy(
            max_attempts=5, base_delay=0.1, max_delay=0.3, seed=5
        ).backoff_delay(1, token="t")

    def test_exhaustion_reraises_the_last_underlying_error(self):
        policy = RetryPolicy(max_attempts=3, seed=0)
        fn, state = self._flaky(99, error=OSError(errno.EIO, "still broken"))
        with pytest.warns(RuntimeWarning, match="retry budget of 3 exhausted"):
            with pytest.raises(OSError, match="still broken"):
                call_with_retry(fn, policy, sleep=lambda _: None)
        assert state["calls"] == 3
        assert retry_stats()["exhausted"] == 1

    def test_deterministic_errors_are_not_retried(self):
        fn, state = self._flaky(99, error=ValueError("spec typo"))
        with pytest.raises(ValueError):
            call_with_retry(fn, RetryPolicy(max_attempts=3), sleep=lambda _: None)
        assert state["calls"] == 1
        assert retry_stats()["retries"] == 0

    def test_deadline_stops_retrying_with_budget_left(self):
        policy = RetryPolicy(max_attempts=10, deadline=0.0)
        fn, state = self._flaky(99)
        with pytest.warns(RuntimeWarning, match="deadline"):
            with pytest.raises(OSError):
                call_with_retry(fn, policy, sleep=lambda _: None)
        assert state["calls"] == 1

    def test_from_env_reads_knobs_and_plan_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "5")
        monkeypatch.setenv("REPRO_RETRY_BASE_MS", "100")
        monkeypatch.setenv("REPRO_RETRY_MAX_MS", "2000")
        configure_fault_plan("worker.task:fail@1;seed=42")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.base_delay == pytest.approx(0.1)
        assert policy.max_delay == pytest.approx(2.0)
        assert policy.deadline is None
        assert policy.seed == 42

    def test_duration_env_helper(self, monkeypatch):
        assert duration_env("REPRO_RETRY_DEADLINE_MS", None) is None
        assert duration_env("REPRO_RETRY_BASE_MS", 25) == pytest.approx(0.025)
        monkeypatch.setenv("REPRO_RETRY_BASE_MS", "250")
        assert duration_env("REPRO_RETRY_BASE_MS", 25) == pytest.approx(0.25)
        monkeypatch.setenv("REPRO_RETRY_BASE_MS", "soon")
        with pytest.warns(RuntimeWarning):
            assert duration_env("REPRO_RETRY_BASE_MS", 25) == pytest.approx(0.025)


# ---------------------------------------------------------------------------
# Disk-tier fault paths (compile and sim namespaces)
# ---------------------------------------------------------------------------


class TestDiskFaultPaths:
    """Injected IO faults degrade every namespace to a miss, never a crash.

    Each namespace keeps its counters consistent across the fault:
    hits + misses always equals the number of lookups, and a dropped
    write is simply not counted as one.
    """

    def _put_get(self, disk, family):
        key = ("resilience-test", family)
        value = np.arange(4, dtype=float)
        if family == "sim":
            return (
                lambda: disk.put_simulation(key, value),
                lambda: disk.get_simulation(key),
            )
        return (
            lambda: disk.put_blob("autotune", key, {"verdict": "default"}),
            lambda: disk.get_blob("autotune", key),
        )

    def _counters(self, disk, family):
        stats = disk.stats()
        prefix = {"compile": "", "sim": "sim_"}[family]
        return {
            "hits": stats[f"{prefix}hits"],
            "misses": stats[f"{prefix}misses"],
            "writes": stats[f"{prefix}writes"],
        }

    @pytest.mark.parametrize("family", ["compile", "sim"])
    @pytest.mark.parametrize("kind", ["enospc", "eacces", "eio"])
    def test_write_fault_drops_the_write_and_degrades_to_a_miss(
        self, tmp_path, family, kind
    ):
        disk = DiskCompilationCache(tmp_path)
        put, get = self._put_get(disk, family)
        configure_fault_plan(f"disk.write:{kind}@1")
        assert put() is False  # degraded, not raised
        counted = self._counters(disk, family)
        assert counted["writes"] == 0
        assert get() is None  # nothing landed on disk
        configure_fault_plan(None)
        assert put() is True  # the tier recovers immediately
        assert get() is not None
        counted = self._counters(disk, family)
        assert counted["writes"] == 1
        assert counted["hits"] + counted["misses"] == 2

    @pytest.mark.parametrize("family", ["compile", "sim"])
    @pytest.mark.parametrize("kind", ["truncate", "eio"])
    def test_read_fault_is_a_recorded_miss_with_consistent_counters(
        self, tmp_path, family, kind
    ):
        disk = DiskCompilationCache(tmp_path)
        put, get = self._put_get(disk, family)
        assert put() is True
        assert get() is not None  # warm: a genuine hit first
        configure_fault_plan(f"disk.read:{kind}@1")
        assert get() is None  # injected fault: same branch as corruption
        configure_fault_plan(None)
        # The unreadable entry was discarded (exactly what happens to a
        # genuinely corrupt file), so the next lookup is an honest miss.
        assert get() is None
        counted = self._counters(disk, family)
        assert counted["hits"] == 1
        assert counted["misses"] == 2
        assert counted["hits"] + counted["misses"] == 3
        stats = disk.stats()  # the footprint walk still works post-fault
        assert stats["schema_version"] >= 1


# ---------------------------------------------------------------------------
# Engine chaos: bit-identical studies under an aggressive fault plan
# ---------------------------------------------------------------------------

CHAOS_PLAN = "worker.task:fail@2;backend.run:fail@1;disk.write:enospc%0.3;seed=3"


def _chaos_kwargs(shared_decomposer):
    """A 2-circuit x 2-set study, small enough for per-test cold runs."""
    circuits = [qv_circuit(3, rng=np.random.default_rng(index)) for index in range(2)]
    return dict(
        application="qv",
        circuits=circuits,
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(5, "line", seed=13),
        instruction_sets={
            "S1": single_gate_set("S1", vendor="google"),
            "G3": google_instruction_set("G3"),
        },
        options=SimulationOptions(shots=600, seed=5),
        decomposer=shared_decomposer,
    )


def _rows(study):
    return [
        (
            name,
            result.metric_values,
            result.two_qubit_counts,
            result.swap_counts,
            sorted(result.gate_type_usage.items()),
        )
        for name, result in study.per_set.items()
    ]


class TestEngineChaos:
    def test_chaos_run_is_bit_identical_to_fault_free(
        self, cold_engine, tmp_path, shared_decomposer
    ):
        kwargs = _chaos_kwargs(shared_decomposer)
        baseline = run_study(**kwargs, workers=1)
        assert baseline.executor_kind == "inline"
        assert baseline.resilience.get("retries", 0) == 0

        clear_experiment_caches()
        reset_backend_invocation_counts()
        reset_retry_stats()
        configure_fault_plan(CHAOS_PLAN)
        with pytest.warns(RuntimeWarning, match="resilience:"):
            chaos = run_study(
                **kwargs, workers=1, cache_dir=str(tmp_path / "chaos-cache")
            )

        assert _rows(chaos) == _rows(baseline)
        assert chaos.resilience["retries"] >= 1
        assert chaos.resilience["recoveries"] >= 1
        stats = fault_stats()
        assert stats["injected"]  # the plan actually fired
        assert stats["seed"] == 3

    def test_same_plan_replays_the_same_fault_sequence(
        self, cold_engine, tmp_path, shared_decomposer
    ):
        kwargs = _chaos_kwargs(shared_decomposer)
        observed = []
        for run in range(2):
            clear_experiment_caches()
            reset_backend_invocation_counts()
            configure_fault_plan(CHAOS_PLAN)
            with pytest.warns(RuntimeWarning, match="resilience:"):
                run_study(
                    **kwargs, workers=1, cache_dir=str(tmp_path / f"replay-{run}")
                )
            observed.append(fault_stats())
        assert observed[0] == observed[1]

    def test_worker_crash_degrades_the_pool_and_still_completes(
        self, cold_engine, monkeypatch, shared_decomposer
    ):
        kwargs = _chaos_kwargs(shared_decomposer)
        baseline = run_study(**kwargs, workers=1)

        clear_experiment_caches()
        reset_backend_invocation_counts()
        reset_retry_stats()
        # Through the environment, not configure_fault_plan(): forked pool
        # workers inherit the env var and arm their own plan, so the crash
        # fires inside a real worker process.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "worker.task:crash@1;seed=1")
        reset_fault_plan_configuration()
        with pytest.warns(RuntimeWarning, match="resilience:|falling back"):
            chaos = run_study(**kwargs, workers=2)

        assert _rows(chaos) == _rows(baseline)
        assert chaos.executor_kind == "process"
        assert retry_stats()["executor_fallbacks"] >= 1

    def test_retry_exhaustion_propagates_the_underlying_error(
        self, cold_engine, shared_decomposer
    ):
        kwargs = _chaos_kwargs(shared_decomposer)
        # Fail every backend invocation forever: the budget must exhaust
        # and surface the injected error, never hang or mask it.
        configure_fault_plan("backend.run:fail%0.999;seed=1")
        policy = RetryPolicy(max_attempts=2, base_delay=0.001, seed=1)
        with pytest.warns(RuntimeWarning, match="retry budget"):
            with pytest.raises(InjectedFault):
                run_study(**kwargs, workers=1, retry_policy=policy)


# ---------------------------------------------------------------------------
# In-flight table: failed-key backoff and the inflight.wait fault point
# ---------------------------------------------------------------------------


class TestInFlightBackoff:
    def test_failed_key_cools_down_then_clears_on_success(self):
        table = InFlightTable(failure_backoff=0.05)

        def boom():
            raise OSError(errno.EIO, "flaky dependency")

        with pytest.raises(OSError):
            table.coalesce("k", boom)
        assert table.stats()["failed_keys"] == 1

        started = time.monotonic()
        result, owner = table.coalesce("k", lambda: "ok")
        elapsed = time.monotonic() - started
        assert (result, owner) == ("ok", True)
        assert elapsed >= 0.04  # the cooldown actually delayed the retry
        stats = table.stats()
        assert stats["backoffs"] >= 1
        assert stats["failed_keys"] == 0  # success cleared the history

    def test_consecutive_failures_double_the_cooldown(self):
        table = InFlightTable(failure_backoff=0.01)
        for _ in range(3):
            table._record_failure("k")
        failures, not_before = table._failed_keys["k"]
        assert failures == 3
        assert not_before - time.monotonic() == pytest.approx(0.04, abs=0.02)

    def test_waiters_attaching_to_running_work_are_never_delayed(self):
        table = InFlightTable(failure_backoff=10.0)
        gate = threading.Event()
        results = {}

        def owner_fn():
            gate.wait(timeout=5)
            return "owned"

        def run_owner():
            results["owner"] = table.coalesce("k", owner_fn)

        thread = threading.Thread(target=run_owner)
        thread.start()
        while table.stats()["inflight"] == 0:
            time.sleep(0.001)
        # Fault the key's history: a waiter must still attach instantly.
        table._record_failure("k")
        started = time.monotonic()

        def run_waiter():
            results["waiter"] = table.coalesce("k", lambda: "replayed")

        waiter_thread = threading.Thread(target=run_waiter)
        waiter_thread.start()
        gate.set()
        thread.join(timeout=5)
        waiter_thread.join(timeout=5)
        assert results["owner"] == ("owned", True)
        assert results["waiter"] == ("replayed", False)
        assert time.monotonic() - started < 5  # nowhere near the 10s cooldown

    def test_inflight_wait_fault_skips_the_wait_and_recomputes(self):
        table = InFlightTable()
        gate = threading.Event()
        results = {}

        def owner_fn():
            gate.wait(timeout=5)
            return "owned"

        thread = threading.Thread(
            target=lambda: results.update(owner=table.coalesce("k", owner_fn))
        )
        thread.start()
        while table.stats()["inflight"] == 0:
            time.sleep(0.001)
        configure_fault_plan("inflight.wait:skip@1")
        # The waiter consults inflight.wait, skips the (blocked) owner's
        # future entirely and re-runs its own fn -- degraded but correct.
        result, owner = table.coalesce("k", lambda: "recomputed")
        assert (result, owner) == ("recomputed", False)
        assert not gate.is_set()  # proven: the waiter did not wait
        gate.set()
        thread.join(timeout=5)
        assert results["owner"] == ("owned", True)


# ---------------------------------------------------------------------------
# Client: timeouts and mid-stream disconnects
# ---------------------------------------------------------------------------


def _fake_daemon(handler):
    """A one-connection socket server; returns (port, thread)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def run():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        try:
            handler(conn)
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return port, thread


def _tiny_spec_dict():
    return {
        "application": "qv",
        "num_qubits": 3,
        "num_circuits": 1,
        "sets": ["S1"],
        "shots": 100,
    }


class TestClientResilience:
    def test_mid_stream_disconnect_raises_instead_of_truncating(self):
        def handler(conn):
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n\r\n"
            )
            # One job record, then the "daemon dies" -- no stats record.
            conn.sendall(
                b'{"type": "job", "index": 0, "source": "backend", "value": 0.5}\n'
            )

        port, thread = _fake_daemon(handler)
        records = []
        with pytest.raises(ServiceError, match="terminal stats record"):
            for record in submit_study(_tiny_spec_dict(), port=port, timeout=5):
                records.append(record)
        thread.join(timeout=5)
        # Records streamed before the disconnect were still delivered.
        assert [r["type"] for r in records] == ["job"]

    def test_mid_stream_reset_raises_instead_of_escaping_raw(self):
        """An abortive close (RST) mid-stream maps to the same ServiceError
        as a clean EOF, never a raw ConnectionResetError."""
        request_read = threading.Event()

        def handler(conn):
            conn.settimeout(5)
            received = b""
            while b'"shots"' not in received:  # the whole JSON body
                received += conn.recv(65536)
            request_read.set()
            conn.sendall(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n\r\n"
                b'{"type": "job", "index": 0, "source": "backend", "value": 0.5}\n'
            )
            # SO_LINGER on with a zero timeout: close() sends RST, not FIN.
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )

        port, thread = _fake_daemon(handler)
        records = []
        with pytest.raises(ServiceError, match="terminal stats record") as raised:
            for record in submit_study(_tiny_spec_dict(), port=port, timeout=5):
                records.append(record)
        thread.join(timeout=5)
        assert not thread.is_alive() and request_read.is_set()
        assert isinstance(raised.value.__cause__, ConnectionResetError)
        # The record queued before the reset was still delivered.
        assert [r["type"] for r in records] == ["job"]

    def test_disconnect_before_response_is_not_reported_as_truncation(self):
        """A daemon that closes without answering never started a stream."""

        def handler(conn):
            conn.settimeout(5)
            received = b""
            while b'"shots"' not in received:  # the whole JSON body
                received += conn.recv(65536)

        port, thread = _fake_daemon(handler)
        with pytest.raises(ServiceError, match="before responding") as raised:
            list(submit_study(_tiny_spec_dict(), port=port, timeout=5))
        thread.join(timeout=5)
        assert isinstance(raised.value.__cause__, ConnectionResetError)

    def test_stalled_daemon_times_out_naming_the_knob(self):
        def handler(conn):
            conn.recv(65536)
            time.sleep(1.0)  # never respond within the client's budget

        port, thread = _fake_daemon(handler)
        with pytest.raises(ServiceError, match="REPRO_CLIENT_TIMEOUT"):
            list(submit_study(_tiny_spec_dict(), port=port, timeout=0.2))
        thread.join(timeout=5)

    def test_timeout_default_comes_from_the_environment(self, monkeypatch):
        from repro.service.client import client_timeout

        assert client_timeout() == 300.0
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", "7")
        assert client_timeout() == 7.0


# ---------------------------------------------------------------------------
# Serve: graceful drain, request deadlines, health, chaos determinism
# ---------------------------------------------------------------------------


def _spec():
    return StudySpec(
        application="qv", num_qubits=3, num_circuits=2, sets=("S1", "G3"), shots=600
    )


def _study_line(records):
    (study,) = [r for r in records if r["type"] == "study"]
    return encode_record(study)


class TestServeResilience:
    def test_draining_service_rejects_new_studies(self, cold_engine):
        service = StudyService()
        try:
            service.begin_drain()
            with pytest.raises(ServiceDraining):
                service.run_study_spec(_spec())
            health = service.health()
            assert health["status"] == "draining"
            assert service.stats()["service"]["requests_rejected"] == 1
        finally:
            service.close()

    def test_drain_waits_for_the_active_stream_to_finish(self, cold_engine):
        service = StudyService()
        try:
            stream = service.run_study_spec(_spec())
            first = next(stream)  # the request is now active
            assert first["type"] == "job"
            outcome = {}
            drainer = threading.Thread(
                target=lambda: outcome.update(drained=service.drain(timeout=30))
            )
            drainer.start()
            time.sleep(0.05)
            assert not outcome  # drain blocks while the stream is open
            records = [first] + list(stream)  # flush it
            drainer.join(timeout=30)
            assert outcome == {"drained": True}
            # Futures already scheduled flushed: the study completed.
            (study,) = [r for r in records if r["type"] == "study"]
            assert study["complete"] is True
            assert study["drained"] == 0
        finally:
            service.close()

    def test_drain_before_streaming_reports_every_job_drained(self, cold_engine):
        service = StudyService()
        try:
            stream = service.run_study_spec(_spec())  # accepted pre-drain
            service.begin_drain()
            records = list(stream)  # generator body runs after the drain
            jobs = [r for r in records if r["type"] == "job"]
            assert [job["source"] for job in jobs] == ["drained"] * 4
            assert all(job["value"] is None for job in jobs)
            (study,) = [r for r in records if r["type"] == "study"]
            assert study["complete"] is False
            assert study["drained"] == 4
            assert records[-1]["type"] == "stats"
            assert records[-1]["drained"] == 4
            assert service.stats()["service"]["jobs_drained"] == 4
        finally:
            service.close()

    def test_request_deadline_halts_scheduling_but_terminates_the_stream(
        self, cold_engine
    ):
        service = StudyService(request_deadline=0.0)
        try:
            records = list(service.run_study_spec(_spec()))
            jobs = [r for r in records if r["type"] == "job"]
            assert [job["source"] for job in jobs] == ["deadline"] * 4
            (study,) = [r for r in records if r["type"] == "study"]
            assert study["complete"] is False
            assert records[-1]["type"] == "stats"  # the stream always ends
            assert service.stats()["service"]["jobs_deadline"] == 4
        finally:
            service.close()

    def test_health_reports_ok_then_degraded_after_exhaustion(self, cold_engine):
        service = StudyService()
        try:
            assert service.health()["status"] == "ok"
            with pytest.warns(RuntimeWarning, match="retry budget"):
                with pytest.raises(OSError):
                    call_with_retry(
                        lambda: (_ for _ in ()).throw(OSError(errno.EIO, "x")),
                        RetryPolicy(max_attempts=1),
                        sleep=lambda _: None,
                    )
            health = service.health()
            assert health["status"] == "degraded"
            assert health["exhausted"] >= 1
        finally:
            service.close()

    def test_chaos_study_record_is_byte_identical(self, cold_engine):
        service = StudyService()
        try:
            baseline = list(service.run_study_spec(_spec()))
        finally:
            service.close()

        clear_experiment_caches()
        reset_backend_invocation_counts()
        reset_retry_stats()
        configure_fault_plan("backend.run:fail@1;seed=2")
        chaos_service = StudyService()
        try:
            with pytest.warns(RuntimeWarning, match="resilience: retrying"):
                chaos = list(chaos_service.run_study_spec(_spec()))
        finally:
            chaos_service.close()

        assert _study_line(chaos) == _study_line(baseline)
        assert chaos[-1]["type"] == "stats"
        assert chaos[-1]["retries"] >= 1
        resilience = chaos_service.stats()["resilience"]
        assert resilience["requests"]["retries"] >= 1
        assert resilience["faults"]["injected"] == {"backend.run": {"fail": 1}}

    def test_batched_pass_exhaustion_degrades_to_per_job(self, cold_engine):
        # The first group's vectorised pass fails on every attempt of its
        # budget; the daemon must fall back to per-job runs (as run_study
        # does) instead of failing the request.
        spec = StudySpec(
            application="qv",
            num_qubits=3,
            num_circuits=2,
            sets=("FullfSim",),
            error_scales=(1.0, 2.0, 3.0),
            shots=600,
        )
        policy = RetryPolicy(max_attempts=3, base_delay=0.001, seed=2)
        service = StudyService(batch=0, retry_policy=policy)
        try:
            baseline = list(service.run_study_spec(spec))
        finally:
            service.close()

        clear_experiment_caches()
        reset_backend_invocation_counts()
        reset_retry_stats()
        configure_fault_plan(
            "backend.run:fail@1;backend.run:fail@2;backend.run:fail@3"
        )
        chaos_service = StudyService(batch=0, retry_policy=policy)
        try:
            with pytest.warns(RuntimeWarning, match="retry budget of 3 exhausted"):
                chaos = list(chaos_service.run_study_spec(spec))
        finally:
            chaos_service.close()

        assert _study_line(chaos) == _study_line(baseline)
        assert chaos[-1]["type"] == "stats"
        assert chaos[-1]["retries"] >= 1
        requests = chaos_service.stats()["resilience"]["requests"]
        assert requests == {"attempts": 7, "retries": 2, "exhausted": 1}

    def test_handler_fault_rejects_up_front_then_recovers(self, cold_engine):
        configure_fault_plan("serve.handler:reject@1")
        service = StudyService()
        server = make_http_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            with pytest.raises(ServiceError, match="503"):
                list(submit_study(_tiny_spec_dict(), port=port, timeout=60))
            # The next request is served normally (the @1 rule is spent).
            records = list(submit_study(_tiny_spec_dict(), port=port, timeout=120))
            assert records[-1]["type"] == "stats"
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()

    def test_handler_fault_mid_stream_surfaces_as_an_error_record(self, cold_engine):
        configure_fault_plan("serve.handler:fail@1")
        service = StudyService()
        server = make_http_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            with pytest.raises(ServiceError, match="InjectedFault"):
                list(submit_study(_tiny_spec_dict(), port=port, timeout=60))
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()


# ---------------------------------------------------------------------------
# Serve: SIGTERM drains and exits 0 (real process, real signal)
# ---------------------------------------------------------------------------


class TestServeSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        import os
        import re
        import signal as signal_module
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop(FAULT_PLAN_ENV_VAR, None)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert re.search(r"listening on http://[\d.]+:\d+", line), line
            process.send_signal(signal_module.SIGTERM)
            stdout, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        assert process.returncode == 0
        assert "drained and shut down" in stdout
