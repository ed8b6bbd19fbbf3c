"""The ``repro serve`` daemon: a long-lived study service over the engine.

One process, started once, serving many study submissions.  What a
daemon buys over one-shot ``repro fig10`` invocations:

* the **in-process cache tiers** (compilation, noise programs, ideal
  distributions, simulation results, autotuner verdicts) stay warm
  across requests instead of dying with each CLI process;
* **concurrent identical requests** coalesce onto one execution through
  the in-flight futures table (:mod:`repro.service.dedup`) -- two
  clients submitting the same study simultaneously cost one set of
  backend invocations, not two;
* the **disk tier doubles as a shared artifact store**: services started
  with ``--shard k/N`` against a common cache directory split a study's
  simulation work by key range without any coordination protocol.

The win is deduplication and cache residency, not parallelism:
backend invocations are CPU-bound numpy kernels that hold the GIL, so
``exec_workers`` defaults to 1 and raising it only helps when they block
on something other than the CPU.

Per request (:meth:`StudyService.run_study_spec`) the daemon *builds* the
study from the spec's registry names (catalogues and suites shared across
requests; the device fresh, because its calibration RNG is per-study
state -- ``docs/service.md``), runs it on the engine's one executor,
:func:`repro.experiments.engine.execute_study`, under a policy lending it
the daemon's thread pool, in-flight tables, shard filter and
drain/deadline halt, and streams one NDJSON ``job`` record per job in
canonical order, then the deterministic ``study`` record, then ``stats``.

The HTTP layer is stdlib-only (``http.server``): POST ``/v1/studies``
streams the NDJSON response; GET ``/v1/stats`` and ``/v1/health`` return
JSON snapshots.

Resilience (see ``docs/resilience.md``): backend invocations retry under
the ``REPRO_RETRY_*`` policy; SIGTERM/SIGINT trigger a **graceful
drain** -- new submissions get 503, requests already streaming flush
their in-flight futures and close with a final ``complete:false`` study
record for whatever could not finish -- and ``/v1/health`` reports
``ok``/``degraded``/``draining`` instead of an unconditional ``ok``.
Per-request deadlines (``--request-deadline`` /
``REPRO_RETRY_REQUEST_DEADLINE_MS``) bound how long one submission may
hold a handler thread.
"""

from __future__ import annotations

import functools
import json
import signal
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterator, Optional

from repro.config import duration_env
from repro.resilience import (
    InjectedFault,
    ResilienceCounters,
    RetryPolicy,
    consult_fault,
    fault_stats,
    retry_stats,
)
from repro.service.dedup import InFlightTable
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ShardSpec,
    StudySpec,
    encode_record,
    resolve_metric,
)

REQUEST_DEADLINE_ENV_VAR = "REPRO_RETRY_REQUEST_DEADLINE_MS"


SUITE_CACHE_SIZE = 64
"""Application suites a daemon keeps shared across requests (LRU)."""


@functools.lru_cache(maxsize=SUITE_CACHE_SIZE)
def _shared_suite(
    application: str, num_qubits: int, num_circuits: int, seed: int
) -> tuple:
    """One suite's circuits, built once and shared by every request for it.

    Sharing is safe because no stage of a study mutates its input
    circuits (compilation and simulation build new ones), and it lets
    every request reuse the circuits' memoised content digests.
    """
    from repro.applications.registry import build_suite

    return tuple(build_suite(application, num_qubits, num_circuits, seed))


def _describe_serve_run(units, batched: bool) -> str:
    """Retry-warning name of one backend run, in the daemon's wording."""
    if batched:
        return f"serve batched pass ({len(units)} jobs)"
    return f"serve job {units[0].job.set_name}#{units[0].job.circuit_index}"


class ServiceDraining(RuntimeError):
    """The daemon is draining and no longer accepts new studies (HTTP 503)."""


class StudyService:
    """The daemon's engine-facing core (usable in-process, without HTTP).

    Thread-safe: requests arrive on HTTP handler threads and share the
    two in-flight tables, the executor and the counters.  Engine-level
    shared state (the global caches) carries its own locks; per-study
    state (the device and its RNG) is created fresh per request and
    never shared.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        exec_workers: int = 1,
        shard: Optional[ShardSpec] = None,
        batch: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        request_deadline: Optional[float] = None,
    ) -> None:
        # The study stack is imported here, before any request thread runs:
        # concurrent first requests importing it lazily raced on its
        # circular imports and failed with ImportError.  Importing it also
        # registers every cache tier that stats() reports.
        import repro.experiments.engine  # noqa: F401
        from repro.caching.disk import disk_cache_for, get_global_disk_cache

        self.shard = shard
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy.from_env()
        )
        """Bounds for re-executing failed backend invocations
        (``REPRO_RETRY_*`` by default); see :mod:`repro.resilience`."""
        self.request_deadline = (
            request_deadline
            if request_deadline is not None
            else duration_env(REQUEST_DEADLINE_ENV_VAR, None)
        )
        """Per-request wall-clock budget in seconds (``None`` = unbounded).
        A request past its deadline stops waiting: remaining jobs are
        reported with ``source:"deadline"`` and the study closes with
        ``complete:false`` -- the stream always terminates."""
        self.batch = int(batch)
        """Batched-replay knob (``repro serve --batch``): ``1`` keeps the
        per-job scheduling path, ``0``/``N>=2`` makes each request queue
        its owned cache misses and execute same-structure groups as one
        vectorised backend pass between NDJSON flushes (see
        :func:`repro.experiments.engine.group_prepared_for_batch`).  An
        execution-strategy knob of the *server*, deliberately not a
        :class:`~repro.service.protocol.StudySpec` field: it never changes
        study content, cache keys or the ``study`` record bytes."""
        if self.batch < 0:
            raise ValueError(f"batch must be >= 0, got {batch}")
        self._sim_disk = (
            disk_cache_for(cache_dir) if cache_dir else get_global_disk_cache()
        )
        self._compiles = InFlightTable()
        self._simulations = InFlightTable()
        self._executor = ThreadPoolExecutor(
            max_workers=max(int(exec_workers), 1),
            thread_name_prefix="repro-serve-exec",
        )
        self._lock = threading.Lock()
        self._counters = {
            "studies": 0,
            "jobs": 0,
            "jobs_memory": 0,
            "jobs_disk": 0,
            "jobs_backend": 0,
            "jobs_inflight": 0,
            "jobs_deferred": 0,
            "jobs_drained": 0,
            "jobs_deadline": 0,
            "requests_rejected": 0,
            "batched_passes": 0,
        }
        # Graceful-drain state: once _draining is set, new submissions are
        # rejected (503) while requests already streaming finish flushing
        # their in-flight futures; _active tracks streaming requests so
        # drain() knows when the last one closed its NDJSON stream.
        self._draining = threading.Event()
        self._active = 0
        self._active_cond = threading.Condition()
        self._resilience = ResilienceCounters()

    # -- graceful drain ------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting new studies; in-flight streams keep flushing."""
        self._draining.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Begin draining and wait for active streams to finish.

        Returns ``True`` when every in-flight request closed its stream
        within ``timeout`` seconds (``None`` = wait indefinitely).
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._active_cond:
            while self._active > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._active_cond.wait(remaining)
        return True

    def _begin_request(self) -> None:
        with self._active_cond:
            self._active += 1

    def _end_request(self) -> None:
        with self._active_cond:
            self._active = max(0, self._active - 1)
            self._active_cond.notify_all()

    def health(self) -> Dict[str, object]:
        """Liveness snapshot: ``ok``, ``degraded`` or ``draining``.

        ``degraded`` means the process kept working but not at full
        fidelity: retry budgets were exhausted, an executor fell back, or
        in-flight keys are in failure cooldown.  Degraded is still
        serving -- the status is a signal to operators, not a refusal.
        """
        retries = retry_stats()
        cooling = (
            self._compiles.stats()["failed_keys"]
            + self._simulations.stats()["failed_keys"]
        )
        status = "ok"
        if retries["exhausted"] or retries["executor_fallbacks"] or cooling:
            status = "degraded"
        if self.draining:
            status = "draining"
        with self._active_cond:
            active = self._active
        return {
            "status": status,
            "draining": self.draining,
            "active_requests": active,
            "retries": retries["retries"],
            "exhausted": retries["exhausted"],
            "executor_fallbacks": retries["executor_fallbacks"],
            "failed_keys_cooling": cooling,
        }

    # -- study construction -------------------------------------------------

    def build_study(self, spec: StudySpec) -> Dict[str, object]:
        """Materialise a spec into the objects ``run_study_spec`` drives.

        Everything comes from registries keyed by the spec's names, so
        equal specs materialise into studies with equal content
        fingerprints in any process -- the property the cache tiers and
        the in-flight tables key on.  Catalogues and suites are shared,
        read-only content (see ``docs/service.md``, "Warm request path");
        the device is built fresh because its calibration RNG is
        per-study state.
        """
        from repro.core.instruction_sets import (
            google_catalogue,
            rigetti_catalogue,
            table2_catalogue,
        )
        from repro.devices.synthetic import synthetic_device
        from repro.experiments.runner import SimulationOptions
        from repro.simulators.backend import available_backends, resolve_backend

        if spec.backend != "auto" and spec.backend not in available_backends():
            known = ", ".join(sorted(available_backends()))
            raise ValueError(f"unknown backend {spec.backend!r}; known: {known}")
        catalogues = {
            "google": google_catalogue,
            "rigetti": rigetti_catalogue,
            "table2": table2_catalogue,
        }
        catalogue = catalogues[spec.catalogue]()
        if spec.sets is None:
            instruction_sets = dict(catalogue)
        else:
            unknown = sorted(set(spec.sets) - set(catalogue))
            if unknown:
                known = ", ".join(catalogue)
                raise ValueError(
                    f"unknown instruction set(s) {', '.join(unknown)} "
                    f"for catalogue {spec.catalogue!r}; known: {known}"
                )
            # Catalogue order, not request order: canonical job order must
            # be a property of the study content, never of spelling.
            instruction_sets = {
                name: catalogue[name] for name in catalogue if name in set(spec.sets)
            }
        metric_name, metric = resolve_metric(spec.metric)
        circuits = list(
            _shared_suite(
                spec.application, spec.num_qubits, spec.num_circuits, spec.seed
            )
        )
        device = synthetic_device(
            max(spec.num_qubits, 2), spec.topology, seed=spec.device_seed
        )
        options = SimulationOptions(
            shots=spec.shots,
            seed=spec.sim_seed,
            trajectories=spec.trajectories,
            batch=self.batch,
        )
        # Error-scale sweep: each scale != 1 aliases every selected set to
        # a "<name>-<scale>x" variant compiled with that multiplier (the
        # Figure 10 FullfSim-2x pattern), multiplying on top of the base
        # error_scale.  Sweep jobs share compiled-circuit and noise-program
        # structure, which is exactly what batched replay groups.
        base_scale = float(spec.error_scale)
        error_scales: Dict[str, float] = {}
        if spec.error_scales:
            swept = {}
            for name, instruction_set in instruction_sets.items():
                swept[name] = instruction_set
                if base_scale != 1.0:
                    error_scales[name] = base_scale
                for scale in spec.error_scales:
                    if float(scale) == 1.0:
                        continue
                    alias = f"{name}-{scale:g}x"
                    swept[alias] = instruction_set
                    error_scales[alias] = base_scale * float(scale)
            instruction_sets = swept
        elif base_scale != 1.0:
            error_scales = {name: base_scale for name in instruction_sets}
        return {
            "circuits": circuits,
            "device": device,
            "instruction_sets": instruction_sets,
            "error_scales": error_scales,
            "metric_name": metric_name,
            "metric": metric,
            "options": options,
            "backend": resolve_backend(spec.backend),
        }

    # -- dedup-aware compile wrapper ----------------------------------------

    def _coalescing_compile_fn(self) -> Callable:
        """A ``compile_circuit_cached`` wrapper routed through the table.

        The coalesce key is content-addressed *independently of pipeline
        resolution* (it uses the pipeline's requested name, so it also
        covers ``pipeline="auto"``): two requests at the same point of
        identical studies hold devices with identical calibration
        fingerprints, hence compute identical keys.  The waiter's re-run
        (see :meth:`InFlightTable.coalesce`) is then a compilation-cache
        memory hit that replays gate-type registrations on the waiter's
        own device.
        """
        from repro.circuits.hashing import (
            circuit_fingerprint,
            instruction_set_fingerprint,
        )
        from repro.core.pipeline import _decomposer_fingerprint, compile_circuit_cached

        def compile_fn(circuit, device, instruction_set, **kwargs):
            key = (
                "service-compile",
                circuit_fingerprint(circuit),
                device.calibration_fingerprint(),
                instruction_set_fingerprint(instruction_set),
                _decomposer_fingerprint(kwargs["decomposer"]),
                str(kwargs.get("pipeline", "default")),
                bool(kwargs.get("approximate", True)),
                bool(kwargs.get("use_noise_adaptivity", True)),
                float(kwargs.get("error_scale", 1.0)),
            )
            result, _owner = self._compiles.coalesce(
                key,
                lambda: compile_circuit_cached(circuit, device, instruction_set, **kwargs),
            )
            return result

        return compile_fn

    # -- request execution ---------------------------------------------------

    def run_study_spec(self, spec: StudySpec) -> Iterator[Dict[str, object]]:
        """Execute one study spec; yield protocol records in stream order.

        Builds (and therefore validates) the study *eagerly* -- unknown
        registry names raise here, before the HTTP layer commits to a
        200 -- then returns the streaming generator.  In-process callers
        (tests, benchmarks) iterate the result directly.  Raises
        :class:`ServiceDraining` (HTTP 503) once a drain has begun.
        """
        if self.draining:
            with self._lock:
                self._counters["requests_rejected"] += 1
            raise ServiceDraining(
                "service is draining; not accepting new studies"
            )
        return self._stream_study(spec, self.build_study(spec))

    def _stream_study(
        self, spec: StudySpec, parts: Dict[str, object]
    ) -> Iterator[Dict[str, object]]:
        """Map the shared executor's outcomes to ``job``/``study``/``stats`` records."""
        from repro.experiments.engine import (
            ExecutionPolicy,
            StudyPlan,
            execute_study,
            merge_study_results,
        )

        # Generator body: runs lazily, so active-request tracking starts
        # at the first record pull and ends (via finally) when the stream
        # is exhausted or closed -- exactly the window drain() must wait
        # out.
        self._begin_request()
        try:
            plan = StudyPlan(
                set_names=list(parts["instruction_sets"]),
                num_circuits=len(parts["circuits"]),
                error_scales=dict(parts["error_scales"]),
            )
            deadline = self.request_deadline
            policy = ExecutionPolicy(
                retry=self.retry_policy,
                executor=self._executor,
                inflight=self._simulations,
                compile_fn=self._coalescing_compile_fn(),
                owns=self.shard.owns if self.shard is not None else None,
                draining=self._draining.is_set,
                deadline_at=None if deadline is None else time.monotonic() + deadline,
                describe=_describe_serve_run,
            )
            outcomes = execute_study(
                plan,
                parts["circuits"],
                parts["device"],
                parts["instruction_sets"],
                policy,
                metric=parts["metric"],
                options=parts["options"],
                sim_disk=self._sim_disk,
                pipeline=spec.pipeline,
                disk_cache=self._sim_disk,
                backend=parts["backend"],
            )
            sources, scored = [], []
            for index, outcome in enumerate(outcomes):
                job, source = outcome.job, outcome.source
                record: Dict[str, object] = {
                    "type": "job",
                    "index": index,
                    "set": job.set_name,
                    "circuit": job.circuit_index,
                    "error_scale": job.error_scale,
                    "source": source,
                    "value": outcome.value,
                }
                if outcome.value is not None:
                    scored.append(outcome)
                sources.append(source)
                with self._lock:
                    self._counters["jobs"] += 1
                    self._counters[f"jobs_{source}"] += 1
                yield record

            deferred = sources.count("deferred")
            halted_jobs = sources.count("drained") + sources.count("deadline")
            complete = deferred == 0 and halted_jobs == 0
            study_record: Dict[str, object] = {
                "type": "study",
                "fingerprint": spec.fingerprint(),
                "application": spec.application,
                "metric": parts["metric_name"],
                "complete": complete,
                "deferred": deferred,
                "drained": halted_jobs,
            }
            if complete:
                study = merge_study_results(
                    spec.application, parts["metric_name"], plan, scored
                )
                study_record["rows"] = study.rows()
                study_record["table"] = study.format_table()
            passes = len(policy.batched_passes)
            with self._lock:
                self._counters["studies"] += 1
                self._counters["batched_passes"] += passes
            for key, amount in policy.counters.snapshot().items():
                self._resilience.increment(key, amount)
            yield study_record
            yield {
                "type": "stats",
                "executed": sources.count("backend"),
                "coalesced": sources.count("inflight"),
                "from_memory": sources.count("memory"),
                "from_disk": sources.count("disk"),
                "deferred": deferred,
                "drained": halted_jobs,
                "retries": policy.counters.get("retries"),
                "batched_passes": passes,
            }
        finally:
            self._end_request()

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Service-lifetime counters plus every engine cache's counters."""
        from repro.caching.lru import registered_cache_stats
        from repro.simulators.backend import backend_invocation_counts
        from repro.simulators.superop import batched_replay_stats

        with self._lock:
            counters = dict(self._counters)
        with self._active_cond:
            active = self._active
        return {
            "service": counters,
            "shard": str(self.shard) if self.shard is not None else None,
            "batch": self.batch,
            "resilience": {
                "draining": self.draining,
                "active_requests": active,
                "requests": self._resilience.snapshot(),
                "retry": retry_stats(),
                "faults": fault_stats(),
            },
            "batched_replay": batched_replay_stats(),
            "inflight_compiles": self._compiles.stats(),
            "inflight_simulations": self._simulations.stats(),
            "backend_invocations": backend_invocation_counts(),
            "caches": {
                **registered_cache_stats(),
                "disk": self._sim_disk.stats() if self._sim_disk is not None else None,
            },
        }

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        self._executor.shutdown(wait=True)


# ---------------------------------------------------------------------------
# HTTP layer (stdlib only)
# ---------------------------------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes: POST /v1/studies (NDJSON stream), GET /v1/stats, /v1/health."""

    # HTTP/1.0 keeps the streaming body close-delimited: no Content-Length
    # needed, no chunked framing, and http.client reads until EOF.
    protocol_version = "HTTP/1.0"
    service: StudyService  # injected by make_http_server

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # quiet: the daemon's stdout is the operator's console

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/v1/health":
            health = self.service.health()
            # 503 while draining so load balancers and probes stop routing
            # here; "degraded" still serves (200) -- it is an operator
            # signal, not a refusal.
            status = 503 if health["status"] == "draining" else 200
            self._send_json(status, health)
        elif self.path == "/v1/stats":
            self._send_json(200, self.service.stats())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path != "/v1/studies":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        # The ``serve.handler`` fault point: "reject" fails the request
        # up front (503, the draining shape); any other kind fails
        # in-band after the stream starts (the error-record shape).
        handler_fault = consult_fault("serve.handler")
        if handler_fault == "reject":
            self._send_json(
                503, {"error": "injected fault: handler rejecting request"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            spec = StudySpec.from_json_dict(json.loads(self.rfile.read(length)))
            stream = self.service.run_study_spec(spec)  # validates eagerly
        except ServiceDraining as error:
            self._send_json(503, {"error": str(error)})
            return
        except (ValueError, TypeError) as error:
            self._send_json(400, {"error": str(error)})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            if handler_fault is not None:
                raise InjectedFault("serve.handler", handler_fault)
            for record in stream:
                self.wfile.write(encode_record(record))
                self.wfile.flush()
        except BrokenPipeError:
            pass  # client went away mid-stream; nothing to clean up
        except Exception as error:  # stream already started: error in-band
            try:
                self.wfile.write(
                    encode_record(
                        {"type": "error", "error": f"{type(error).__name__}: {error}"}
                    )
                )
            except BrokenPipeError:
                pass


def make_http_server(
    service: StudyService, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server around ``service`` (port 0 = ephemeral)."""
    handler = type("BoundServiceHandler", (_ServiceHandler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_dir: Optional[str] = None,
    exec_workers: int = 1,
    shard: Optional[ShardSpec] = None,
    batch: int = 1,
    request_deadline: Optional[float] = None,
    drain_timeout: float = 30.0,
) -> str:
    """Run the daemon until interrupted; returns a farewell line.

    Prints the listening address (flushed) once the socket is bound, so
    wrappers -- the CI smoke test, shell scripts -- can wait for that
    line before submitting.

    SIGTERM/SIGINT trigger a **graceful drain**: the service stops
    accepting new studies (503), requests already streaming flush their
    in-flight futures and close their NDJSON streams (with
    ``complete:false`` for whatever could not be scheduled), and the
    process exits 0 -- within ``drain_timeout`` seconds, after which the
    shutdown proceeds anyway.  Signal handlers are only installed when
    running on the main thread (tests drive :func:`serve` from worker
    threads, where ``KeyboardInterrupt`` remains the stop path).
    """
    service = StudyService(
        cache_dir=cache_dir,
        exec_workers=exec_workers,
        shard=shard,
        batch=batch,
        request_deadline=request_deadline,
    )
    server = make_http_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]

    def request_shutdown(signum, frame):  # pragma: no cover - signal path
        service.begin_drain()
        # serve_forever() must be stopped from another thread: shutdown()
        # blocks until the serve loop acknowledges, and the serve loop is
        # the very thread this handler interrupted.
        threading.Thread(target=server.shutdown, daemon=True).start()

    # Handlers go in *before* the listening line: wrappers treat that
    # line as "ready", and a SIGTERM arriving in the gap would otherwise
    # hit the default handler and kill the process without draining.
    installed = []
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            installed.append((signum, signal.signal(signum, request_shutdown)))
    except ValueError:
        installed = []  # not the main thread: no signal-based drain
    shard_note = f" shard={shard}" if shard is not None else ""
    batch_note = f" batch={batch}" if int(batch) != 1 else ""
    print(
        f"repro serve listening on http://{bound_host}:{bound_port}{shard_note}{batch_note}",
        flush=True,
    )
    drained = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.begin_drain()
        drained = service.drain(timeout=drain_timeout)
        if not drained:
            warnings.warn(
                f"resilience: drain timed out after {drain_timeout:g}s with "
                "requests still streaming; shutting down anyway",
                RuntimeWarning,
                stacklevel=2,
            )
        server.server_close()
        service.close()
        for signum, previous in installed:
            signal.signal(signum, previous)
    if drained:
        return "repro serve: drained and shut down"
    return "repro serve: shut down"
