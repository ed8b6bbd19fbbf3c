"""The long-lived study service: protocol, dedup table, server, client.

The contracts the ``repro serve`` daemon stakes its existence on:

* **Spec identity** -- a :class:`StudySpec` survives its JSON round trip
  and fingerprints stably, so two submissions can be proven identical.
* **In-flight dedup** -- N threads submitting identical work through the
  :class:`InFlightTable` cost exactly one execution (``submit``) or one
  expensive run plus N-1 cheap replays (``coalesce``).
* **Service dedup end to end** -- N concurrent identical studies cost
  exactly one set of backend invocations; a warm submission costs zero
  and returns a byte-identical ``study`` record.
* **Sharding** -- a ``--shard k/N`` service defers out-of-shard misses,
  the shards partition the key space exactly, and two shards sharing a
  disk directory complete a study between them.
* **HTTP round trip** -- the stdlib client streams the same records over
  a real socket that the in-process generator yields.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.experiments.engine import clear_experiment_caches
from repro.service.client import ServiceError, fetch_stats, submit_study
from repro.service.dedup import InFlightTable
from repro.service.protocol import (
    ShardSpec,
    StudySpec,
    decode_record,
    encode_record,
    resolve_metric,
)
from repro.service.server import StudyService, make_http_server
from repro.simulators.backend import (
    backend_invocation_counts,
    reset_backend_invocation_counts,
)


def _small_spec(**overrides):
    """A study small enough for tests: 2 circuits x 2 sets = 4 jobs."""
    base = dict(
        application="qv",
        num_qubits=3,
        num_circuits=2,
        sets=("S1", "G3"),
        shots=600,
    )
    base.update(overrides)
    return StudySpec(**base)


def _sources(records):
    return [r["source"] for r in records if r["type"] == "job"]


def _study_line(records):
    (study,) = [r for r in records if r["type"] == "study"]
    return encode_record(study)


def _total_invocations():
    return sum(backend_invocation_counts().values())


@pytest.fixture()
def cold_engine():
    clear_experiment_caches()
    reset_backend_invocation_counts()
    yield
    clear_experiment_caches()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestStudySpec:
    def test_json_round_trip(self):
        spec = _small_spec(metric="xeb", catalogue="rigetti", sets=("R2",))
        assert StudySpec.from_json_dict(spec.to_json_dict()) == spec

    def test_fingerprint_stable_and_content_sensitive(self):
        assert _small_spec().fingerprint() == _small_spec().fingerprint()
        assert _small_spec().fingerprint() != _small_spec(shots=601).fingerprint()

    def test_unknown_field_rejected(self):
        payload = _small_spec().to_json_dict()
        payload["shotz"] = 100
        with pytest.raises(ValueError, match="shotz"):
            StudySpec.from_json_dict(payload)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_qubits=1),
            dict(num_circuits=0),
            dict(metric="fidelity"),
            dict(catalogue="ibm"),
            dict(topology="star"),
            dict(error_scale=0.0),
            dict(error_scales=()),
            dict(error_scales=(1.0, 0.0)),
            dict(error_scales=(2.0, 2.0)),
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            _small_spec(**overrides)

    def test_error_scales_round_trip_and_fingerprint_compat(self):
        swept = _small_spec(error_scales=(1.0, 2.0))
        assert StudySpec.from_json_dict(swept.to_json_dict()) == swept
        assert swept.fingerprint() != _small_spec().fingerprint()
        # A spec without a sweep serialises exactly as it did before the
        # field existed, so pre-existing fingerprints stay valid.
        assert "error_scales" not in _small_spec().to_json_dict()

    def test_every_supported_metric_resolves(self):
        from repro.service.protocol import SUPPORTED_METRICS

        for name, display in SUPPORTED_METRICS.items():
            resolved_name, fn = resolve_metric(name)
            assert resolved_name == display
            assert callable(fn)

    def test_ndjson_round_trip(self):
        record = {"type": "job", "value": 0.5, "set": "S1"}
        assert decode_record(encode_record(record)) == record
        assert decode_record(b"   \n") is None


class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("1/2") == ShardSpec(index=0, total=2)
        assert ShardSpec.parse("3/3") == ShardSpec(index=2, total=3)
        assert str(ShardSpec.parse("2/5")) == "2/5"

    @pytest.mark.parametrize("raw", ["0/2", "3/2", "x/2", "1", "1/2/3"])
    def test_parse_rejects(self, raw):
        with pytest.raises(ValueError):
            ShardSpec.parse(raw)

    def test_shards_partition_the_key_space(self):
        keys = [("sim", f"digest-{i}", i) for i in range(64)]
        shards = [ShardSpec(index=k, total=3) for k in range(3)]
        for key in keys:
            owners = [shard for shard in shards if shard.owns(key)]
            assert len(owners) == 1  # exactly one owner per key

    def test_single_shard_owns_everything(self):
        assert ShardSpec(index=0, total=1).owns(("anything",))


# ---------------------------------------------------------------------------
# In-flight table
# ---------------------------------------------------------------------------


class TestInFlightTable:
    def test_concurrent_submits_share_one_execution(self):
        from concurrent.futures import ThreadPoolExecutor

        table = InFlightTable()
        runs = []
        run_lock = threading.Lock()
        gate = threading.Event()

        def work():
            gate.wait(5)
            with run_lock:
                runs.append(threading.get_ident())
            return "result"

        with ThreadPoolExecutor(max_workers=4) as pool:
            barrier = threading.Barrier(8)
            outcomes = []
            outcomes_lock = threading.Lock()

            def arrive():
                barrier.wait(5)
                future, owner = table.submit("key", lambda: pool.submit(work))
                with outcomes_lock:
                    outcomes.append(owner)
                return future

            threads = [threading.Thread(target=arrive) for _ in range(8)]
            for thread in threads:
                thread.start()
            # Hold the work until every arrival has gone through submit --
            # once the future resolves the key retires, and a later
            # arrival would (correctly) start fresh work.
            for _ in range(200):
                with outcomes_lock:
                    if len(outcomes) == 8:
                        break
                threading.Event().wait(0.01)
            gate.set()
            for thread in threads:
                thread.join(10)

        assert len(runs) == 1  # the work ran exactly once
        assert sum(outcomes) == 1  # exactly one owner
        stats = table.stats()
        assert stats["started"] == 1
        assert stats["coalesced"] == 7
        assert stats["completed"] == 1
        assert stats["inflight"] == 0  # key retired

    def test_coalesce_owner_runs_once_waiters_rerun(self):
        table = InFlightTable()
        calls = []
        calls_lock = threading.Lock()
        release = threading.Event()
        started = threading.Event()

        def fn():
            with calls_lock:
                calls.append(threading.get_ident())
                first = len(calls) == 1
            if first:
                started.set()
                release.wait(5)
            return "compiled"

        results = []

        def owner():
            results.append(table.coalesce("key", fn))

        def waiter():
            started.wait(5)
            results.append(table.coalesce("key", fn))

        owner_thread = threading.Thread(target=owner)
        waiter_thread = threading.Thread(target=waiter)
        owner_thread.start()
        waiter_thread.start()
        started.wait(5)
        # Give the waiter a moment to attach before releasing the owner.
        import time

        time.sleep(0.05)
        release.set()
        owner_thread.join(10)
        waiter_thread.join(10)

        assert sorted(owner for _, owner in results) == [False, True]
        assert all(value == "compiled" for value, _ in results)
        # The waiter re-ran fn (the replay); the expensive path ran once.
        assert len(calls) == 2
        assert table.stats()["inflight"] == 0

    def test_failed_key_retires_for_retry(self):
        table = InFlightTable()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            table.coalesce("key", boom)
        assert table.stats()["failed"] == 1
        assert table.stats()["inflight"] == 0
        # Next arrival owns a fresh run instead of a poisoned future.
        value, owner = table.coalesce("key", lambda: "fine")
        assert (value, owner) == ("fine", True)

    def test_distinct_keys_do_not_coalesce(self):
        table = InFlightTable()
        table.coalesce("a", lambda: 1)
        table.coalesce("b", lambda: 2)
        assert table.stats()["started"] == 2
        assert table.stats()["coalesced"] == 0

    def test_probe_hit_resolves_without_starting_an_owner(self):
        table = InFlightTable()
        scheduled = []
        future, owner = table.submit(
            "key", lambda: scheduled.append(1), probe=lambda: "stored"
        )
        assert owner is None
        assert future.done() and future.result() == "stored"
        assert not scheduled
        stats = table.stats()
        assert (stats["started"], stats["coalesced"], stats["inflight"]) == (0, 0, 0)

    def test_probe_miss_starts_an_owner_and_running_work_is_joined_unprobed(self):
        from concurrent.futures import Future

        table = InFlightTable()
        running: Future = Future()
        probes = []

        def probe():
            probes.append(1)
            return None

        future, owner = table.submit("key", lambda: running, probe=probe)
        assert (future, owner) == (running, True)
        attached, owner = table.submit("key", lambda: Future(), probe=probe)
        assert (attached, owner) == (running, False)
        assert len(probes) == 1  # attaching to running work needs no probe
        running.set_result("done")
        assert table.stats()["started"] == 1


# ---------------------------------------------------------------------------
# Service (in-process)
# ---------------------------------------------------------------------------


class TestStudyService:
    def test_cold_run_executes_each_job_once(self, cold_engine):
        service = StudyService()
        try:
            records = list(service.run_study_spec(_small_spec()))
        finally:
            service.close()
        assert _sources(records) == ["backend"] * 4
        assert _total_invocations() == 4
        (study,) = [r for r in records if r["type"] == "study"]
        assert study["complete"] is True
        assert len(study["rows"]) == 2
        assert records[-1]["type"] == "stats"
        assert records[-1]["executed"] == 4

    def test_warm_run_zero_invocations_byte_identical_study(self, cold_engine):
        service = StudyService()
        try:
            cold = list(service.run_study_spec(_small_spec()))
            invocations_after_cold = _total_invocations()
            warm = list(service.run_study_spec(_small_spec()))
        finally:
            service.close()
        assert _total_invocations() == invocations_after_cold  # zero new
        assert _sources(warm) == ["memory"] * 4
        assert warm[-1]["executed"] == 0
        assert _study_line(warm) == _study_line(cold)

    def test_concurrent_identical_studies_cost_one_execution_set(self, cold_engine):
        service = StudyService(exec_workers=2)
        spec = _small_spec()
        results = {}
        errors = []

        def run(tag):
            try:
                results[tag] = list(service.run_study_spec(spec))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        try:
            threads = [
                threading.Thread(target=run, args=(tag,)) for tag in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            service.close()
        assert not errors
        assert len(results) == 4
        # The acceptance bar: exactly one set of backend invocations for
        # the study's 4 unique jobs, no matter how many submitters.
        assert _total_invocations() == 4
        lines = {_study_line(records) for records in results.values()}
        assert len(lines) == 1  # every submitter got the identical payload
        executed = sum(records[-1]["executed"] for records in results.values())
        assert executed == 4

    def test_consistent_counters_across_concurrent_studies(self, cold_engine):
        service = StudyService(exec_workers=2)
        spec = _small_spec()

        def run():
            list(service.run_study_spec(spec))

        try:
            threads = [threading.Thread(target=run) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            service.close()
        stats = service.stats()
        counters = stats["service"]
        assert counters["studies"] == 3
        assert counters["jobs"] == 12
        by_source = (
            counters["jobs_memory"]
            + counters["jobs_disk"]
            + counters["jobs_backend"]
            + counters["jobs_inflight"]
            + counters["jobs_deferred"]
        )
        assert by_source == counters["jobs"]
        assert counters["jobs_backend"] == 4
        assert counters["jobs_deferred"] == 0
        inflight = stats["inflight_simulations"]
        assert inflight["started"] == 4
        assert inflight["inflight"] == 0

    def test_miss_racing_a_finished_identical_job_starts_no_owner(
        self, cold_engine, monkeypatch
    ):
        # Replays the race deterministically: this request's tier check
        # misses although an identical job has already stored its result
        # and retired its in-flight key.  The submit probe must answer it
        # from the memory tier instead of starting (and counting) a second
        # owner.
        import repro.experiments.engine as engine

        service = StudyService()
        spec = _small_spec()
        try:
            list(service.run_study_spec(spec))
            monkeypatch.setattr(engine, "fetch_cached_simulation", lambda *a, **k: None)
            records = list(service.run_study_spec(spec))
        finally:
            service.close()
        assert _sources(records) == ["memory"] * 4
        assert records[-1]["executed"] == 0
        assert _total_invocations() == 4
        assert service.stats()["inflight_simulations"]["started"] == 4

    def test_requests_for_one_spec_share_suite_circuits(self):
        service = StudyService()
        try:
            first = service.build_study(_small_spec())["circuits"]
            second = service.build_study(_small_spec(sim_seed=99))["circuits"]
        finally:
            service.close()
        assert first is not second  # each request gets its own list
        assert len(first) == 2
        assert all(a is b for a, b in zip(first, second))

    def test_running_a_study_leaves_shared_circuits_unchanged(self, cold_engine):
        from repro.circuits.circuit import QuantumCircuit
        from repro.circuits.hashing import circuit_fingerprint

        def scratch_digest(circuit):
            fresh = QuantumCircuit(circuit.num_qubits).extend(circuit.operations)
            return circuit_fingerprint(fresh)

        service = StudyService()
        spec = _small_spec(error_scales=(1.0, 2.0))
        try:
            shared = service.build_study(spec)["circuits"]
            before = [(len(c), scratch_digest(c)) for c in shared]
            list(service.run_study_spec(spec))
            list(service.run_study_spec(spec))
        finally:
            service.close()
        assert [(len(c), scratch_digest(c)) for c in shared] == before
        assert [circuit_fingerprint(c) for c in shared] == [d for _, d in before]

    def test_unknown_names_rejected_before_any_work(self, cold_engine):
        service = StudyService()
        try:
            with pytest.raises(ValueError, match="unknown application"):
                list(service.run_study_spec(_small_spec(application="nope")))
            with pytest.raises(ValueError, match="unknown instruction set"):
                list(service.run_study_spec(_small_spec(sets=("S1", "Z9"))))
            with pytest.raises(ValueError, match="unknown backend"):
                list(service.run_study_spec(_small_spec(backend="fpga")))
        finally:
            service.close()
        assert _total_invocations() == 0

    def test_set_order_is_canonical_not_request_order(self, cold_engine):
        service = StudyService()
        try:
            forward = list(service.run_study_spec(_small_spec(sets=("S1", "G3"))))
            reversed_ = list(service.run_study_spec(_small_spec(sets=("G3", "S1"))))
        finally:
            service.close()
        order = [r["set"] for r in forward if r["type"] == "job"]
        assert order == ["S1", "S1", "G3", "G3"]
        assert [r["set"] for r in reversed_ if r["type"] == "job"] == order


class TestBatchedService:
    """``repro serve --batch``: vectorised replay of queued same-structure jobs."""

    def _sweep_spec(self, **overrides):
        return _small_spec(
            sets=("FullfSim",), error_scales=(1.0, 2.0, 3.0), **overrides
        )

    def test_error_scales_expand_to_aliases_in_canonical_order(self, cold_engine):
        service = StudyService()
        try:
            records = list(service.run_study_spec(self._sweep_spec()))
        finally:
            service.close()
        jobs = [r for r in records if r["type"] == "job"]
        assert [(r["set"], r["error_scale"]) for r in jobs] == [
            ("FullfSim", 1.0),
            ("FullfSim", 1.0),
            ("FullfSim-2x", 2.0),
            ("FullfSim-2x", 2.0),
            ("FullfSim-3x", 3.0),
            ("FullfSim-3x", 3.0),
        ]
        (study,) = [r for r in records if r["type"] == "study"]
        assert [row["instruction_set"] for row in study["rows"]] == [
            "FullfSim",
            "FullfSim-2x",
            "FullfSim-3x",
        ]

    def test_batched_request_fewer_passes_same_study_bytes(self, cold_engine):
        spec = self._sweep_spec()
        sequential_service = StudyService()
        try:
            sequential = list(sequential_service.run_study_spec(spec))
        finally:
            sequential_service.close()
        sequential_invocations = _total_invocations()
        assert sequential[-1]["batched_passes"] == 0

        clear_experiment_caches()
        reset_backend_invocation_counts()
        batched_service = StudyService(batch=0)
        try:
            batched = list(batched_service.run_study_spec(spec))
            stats = batched_service.stats()
        finally:
            batched_service.close()
        # One vectorised pass per circuit's structure group (2 circuits x
        # 3 scales = 6 jobs -> 2 passes) instead of 6 invocations.
        assert _total_invocations() < sequential_invocations
        assert batched[-1]["batched_passes"] >= 1
        assert _sources(batched) == ["backend"] * 6
        assert stats["service"]["batched_passes"] >= 1
        assert stats["batch"] == 0
        assert stats["batched_replay"]["batched_passes"] >= 1
        # The deterministic payload is unchanged by the execution strategy.
        assert _study_line(batched) == _study_line(sequential)

    def test_warm_batched_submission_is_free_and_identical(self, cold_engine):
        spec = self._sweep_spec(shots=601)
        service = StudyService(batch=0)
        try:
            cold = list(service.run_study_spec(spec))
            invocations_after_cold = _total_invocations()
            warm = list(service.run_study_spec(spec))
        finally:
            service.close()
        assert _total_invocations() == invocations_after_cold
        assert _sources(warm) == ["memory"] * 6
        assert warm[-1]["executed"] == 0
        assert warm[-1]["batched_passes"] == 0
        assert _study_line(warm) == _study_line(cold)

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            StudyService(batch=-2)


class TestDaemonEqualsLibrary:
    """The daemon's ``study`` record equals ``run_study`` on the same study."""

    @pytest.mark.parametrize("batch", [1, 0])
    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(sets=("FullfSim",), error_scales=(1.0, 2.0, 3.0))],
        ids=["plain", "sweep"],
    )
    def test_study_record_equals_run_study(self, cold_engine, batch, overrides):
        from repro.devices.synthetic import synthetic_device
        from repro.experiments.engine import run_study

        spec = _small_spec(**overrides)
        service = StudyService(batch=batch)
        try:
            records = list(service.run_study_spec(spec))
            parts = service.build_study(spec)
        finally:
            service.close()
        (study_record,) = [r for r in records if r["type"] == "study"]

        clear_experiment_caches()
        study = run_study(
            spec.application,
            parts["circuits"],
            parts["metric_name"],
            parts["metric"],
            lambda: synthetic_device(
                max(spec.num_qubits, 2), spec.topology, seed=spec.device_seed
            ),
            parts["instruction_sets"],
            options=parts["options"],
            error_scales=parts["error_scales"],
            pipeline=spec.pipeline,
            backend=parts["backend"],
        )
        assert study_record["complete"] is True
        assert study_record["rows"] == study.rows()
        assert study_record["table"] == study.format_table()


class TestSharding:
    def test_shard_defers_out_of_shard_misses(self, cold_engine, tmp_path):
        cache_dir = str(tmp_path / "shared")
        spec = _small_spec()
        shard = ShardSpec(index=0, total=2)
        service = StudyService(cache_dir=cache_dir, shard=shard)
        try:
            records = list(service.run_study_spec(spec))
        finally:
            service.close()
        sources = _sources(records)
        assert set(sources) <= {"backend", "deferred"}
        deferred = sources.count("deferred")
        assert _total_invocations() == 4 - deferred
        (study,) = [r for r in records if r["type"] == "study"]
        if deferred:
            assert study["complete"] is False
            assert "rows" not in study
        # Deferred jobs carry no value.
        for record in records:
            if record["type"] == "job" and record["source"] == "deferred":
                assert record["value"] is None

    def test_two_shards_complete_a_study_through_the_shared_disk(
        self, cold_engine, tmp_path
    ):
        cache_dir = str(tmp_path / "shared")
        spec = _small_spec()

        # "Host" A computes its slice into the shared directory ...
        service_a = StudyService(cache_dir=cache_dir, shard=ShardSpec(0, 2))
        try:
            records_a = list(service_a.run_study_spec(spec))
        finally:
            service_a.close()
        # ... then "host" B (fresh in-process caches = fresh process)
        # computes the complement ...
        clear_experiment_caches()
        service_b = StudyService(cache_dir=cache_dir, shard=ShardSpec(1, 2))
        try:
            records_b = list(service_b.run_study_spec(spec))
        finally:
            service_b.close()
        deferred_a = _sources(records_a).count("deferred")
        deferred_b = _sources(records_b).count("deferred")
        assert deferred_a + deferred_b <= 4
        # B saw A's slice in the shared disk tier, so together they
        # simulated each unique job exactly once.
        assert _total_invocations() == 4

        # ... and a final submission to either host completes from cache
        # with zero new invocations.
        clear_experiment_caches()
        reset_backend_invocation_counts()
        service_c = StudyService(cache_dir=cache_dir, shard=ShardSpec(0, 2))
        try:
            final = list(service_c.run_study_spec(spec))
        finally:
            service_c.close()
        assert _total_invocations() == 0
        (study,) = [r for r in final if r["type"] == "study"]
        assert study["complete"] is True
        assert _sources(final) == ["disk"] * 4


# ---------------------------------------------------------------------------
# HTTP round trip
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_service(cold_engine):
    service = StudyService()
    server = make_http_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        service.close()


class TestHTTP:
    def test_submit_streams_the_full_record_sequence(self, http_service):
        _service, port = http_service
        records = list(submit_study(_small_spec(), port=port))
        assert [r["type"] for r in records] == ["job"] * 4 + ["study", "stats"]
        assert _sources(records) == ["backend"] * 4

    def test_dict_spec_and_byte_identical_warm_payload(self, http_service):
        _service, port = http_service
        spec_dict = _small_spec().to_json_dict()
        cold = list(submit_study(spec_dict, port=port))
        warm = list(submit_study(spec_dict, port=port))
        assert warm[-1]["executed"] == 0
        assert _study_line(warm) == _study_line(cold)

    def test_invalid_spec_rejected_client_side(self, http_service):
        _service, port = http_service
        with pytest.raises(ValueError, match="bogus"):
            list(submit_study({"application": "qv", "num_qubits": 3, "bogus": 1}, port=port))

    def test_malformed_body_rejected_server_side(self, http_service):
        import http.client

        _service, port = http_service
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/studies",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            connection.close()

    def test_build_time_error_raises_service_error(self, http_service):
        # An application name that passes spec validation but fails at
        # build time: the daemon validates eagerly and answers 400
        # before committing to the stream.
        _service, port = http_service
        with pytest.raises(ServiceError):
            list(
                submit_study(
                    StudySpec(application="not-a-real-app", num_qubits=3), port=port
                )
            )

    def test_stats_endpoint(self, http_service):
        _service, port = http_service
        list(submit_study(_small_spec(), port=port))
        stats = fetch_stats(port=port)
        assert stats["service"]["studies"] == 1
        assert stats["service"]["jobs"] == 4
        assert "inflight_simulations" in stats
        assert json.dumps(stats)  # JSON-serialisable end to end
