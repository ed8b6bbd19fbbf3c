"""Parallel experiment execution engine.

Every headline result of the paper (Figures 6-11) is produced by the same
ensemble workflow: compile every application circuit under every candidate
instruction set (optionally at several error scales), simulate the
compiled circuit noisily, and score the measured distribution against the
ideal one.  The legacy :func:`repro.experiments.runner.run_instruction_set_study`
executed that workflow as a fully serial double loop; this module turns it
into an explicit job graph executed by a configurable worker pool.

Architecture
------------

A study decomposes into a small DAG per ``(circuit, instruction set,
error scale)`` combination:

* an **ideal node** per circuit (noiseless output distribution) -- shared
  by every instruction set and error scale, served from a process-global
  content-addressed cache;
* a **compile node** per job -- served from the global
  :class:`~repro.core.pipeline.CompilationCache`;
* a **simulate node** per job, depending on the compile node and the
  device calibration state;
* a **score node** per job, depending on the simulate and ideal nodes;
* a **merge node** folding scored jobs into a :class:`StudyResult`.

Determinism is the design constraint that shapes the schedule.  The
device samples calibration data for gate types *lazily*, from a private
RNG, in the order compilations first request them; reordering compile
nodes would therefore change the sampled noise and the study's numbers.
Compile nodes consequently execute serially in canonical order (the order
the legacy double loop used), which is cheap because they are backed by
the compilation cache.  Simulate/score nodes are *pure*: they read the
device calibration but never advance any shared RNG (each job seeds its
own generator from ``SimulationOptions.seed``), so they run concurrently
on the worker pool, and the merge node folds results in canonical job
order regardless of completion order.  ``workers=1`` and ``workers=N``
are bit-identical, and both are bit-identical to the legacy serial loop
-- the property ``tests/test_engine_determinism.py`` pins down.

Simulate nodes are backed by a **simulation-result cache** with the same
two-tier layout as compilation: a process-wide memory LRU plus the
persistent disk tier's ``sim`` namespace
(:meth:`repro.caching.disk.DiskCompilationCache.get_simulation`).  Keys
(:func:`simulation_cache_key`) are content digests of the precompiled
noise program (gate matrices, every Kraus operator, durations), the
readout-error vector, the output permutation, the backend name/version
and the simulation options -- so a warm re-run of a study, even in a
fresh process, serves every simulate node from cache with **zero backend
invocations** (`benchmarks/test_bench_sim_cache.py` proves it).

Workers default to processes (simulation is dominated by small-matrix
numpy kernels that hold the GIL); the engine transparently falls back to
threads, and then to inline execution, when the platform cannot spawn or
feed a process pool.  Worker payloads are the immutable noise program
plus plain option scalars -- the engine no longer deep-copies the
``Device`` per simulate job.

Cold simulate nodes run the **fused superoperator kernels** by default
(:mod:`repro.simulators.superop`); ``REPRO_SIM_KERNEL=reference``
selects the pinned sequential replay instead (bit-identical to the
legacy loops, and the mode the engine-vs-legacy determinism tests run
under).  The active kernel is folded into the backend version component
of :func:`simulation_cache_key`, so the two kernels never share cached
vectors.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.hashing import circuit_fingerprint, hash_scalars
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import InstructionSet
from repro.core.pipeline import (
    CompilationCache,
    CompiledCircuit,
    compile_circuit_cached,
    global_compilation_cache,
)
from repro.devices.device import Device, clear_calibration_memo
from repro.experiments.runner import (
    InstructionSetResult,
    MetricFunction,
    SimulationOptions,
    StudyResult,
    finalize_measured_distribution,
    simulate_noise_program,
)
from repro.resilience import (
    DEFAULT_RETRYABLE,
    InjectedFault,
    ResilienceCounters,
    RetryPolicy,
    call_with_retry,
    count_executor_fallback,
    maybe_raise_fault,
)
from repro.simulators.backend import SimulatorBackend, resolve_backend
from repro.simulators.noise_program import (
    NoiseProgram,
    clear_noise_program_cache,
    noise_program_for,
)
from repro.simulators.superop import (
    max_batch_items,
    superop_program_for,
    superop_structure_key,
)
from repro.simulators.statevector import ideal_probabilities

# ---------------------------------------------------------------------------
# Ideal-distribution cache (shared across instruction sets, sweeps, studies)
# ---------------------------------------------------------------------------

_IDEAL_CACHE: "OrderedDict[str, np.ndarray]" = OrderedDict()
_IDEAL_CACHE_LOCK = threading.Lock()
_IDEAL_CACHE_STATS = {"hits": 0, "misses": 0}
_IDEAL_CACHE_MAX_ENTRIES = 1024
"""LRU bound (hits refresh recency, like every other in-process tier):
distinct wide circuits would otherwise accumulate 2^n-sized vectors for
the process lifetime."""


def ideal_distribution_cached(circuit: QuantumCircuit) -> np.ndarray:
    """Noiseless output distribution of ``circuit``, content-addressed.

    The legacy runner recomputed ideal probability vectors once per study;
    sweeps that revisit the same circuits (error-scale sweeps, calibration
    studies, repeated benchmark runs) paid the exponential-cost statevector
    simulation again each time.  This cache keys on the circuit *content*
    so every study in the process shares one vector per distinct circuit.

    Eviction is LRU: a hit refreshes the entry's recency, so in a
    long-lived process (the ``repro serve`` daemon) hot benchmark
    circuits survive bursts of one-off traffic.  (It used to evict FIFO
    while the sim-result and compile caches were LRU -- exactly the
    workloads a daemon keeps hot were the first evicted.)
    """
    key = circuit_fingerprint(circuit)
    with _IDEAL_CACHE_LOCK:
        cached = _IDEAL_CACHE.get(key)
        if cached is not None:
            _IDEAL_CACHE_STATS["hits"] += 1
            _IDEAL_CACHE.move_to_end(key)
            return cached
        _IDEAL_CACHE_STATS["misses"] += 1
    value = ideal_probabilities(circuit)
    value.setflags(write=False)
    with _IDEAL_CACHE_LOCK:
        _IDEAL_CACHE[key] = value
        _IDEAL_CACHE.move_to_end(key)
        while len(_IDEAL_CACHE) > _IDEAL_CACHE_MAX_ENTRIES:
            _IDEAL_CACHE.popitem(last=False)
    return value


def ideal_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the ideal-distribution cache."""
    with _IDEAL_CACHE_LOCK:
        return {
            "hits": _IDEAL_CACHE_STATS["hits"],
            "misses": _IDEAL_CACHE_STATS["misses"],
            "entries": len(_IDEAL_CACHE),
            "max_entries": _IDEAL_CACHE_MAX_ENTRIES,
        }


def clear_experiment_caches(include_disk: bool = False) -> None:
    """Reset every in-process experiment cache.

    Covers the ideal-distribution cache, the global compilation cache,
    the autotuner verdict cache, the noise-program cache (with the
    channel memos), the calibration-fingerprint memo and the
    simulation-result memory cache.  Used by determinism tests and
    benchmarks that need a guaranteed cold start; production callers
    normally never need it.  ``include_disk`` additionally clears the
    configured persistent disk tier (when one is active); the default
    leaves it alone because the disk tier exists precisely to survive
    "cold starts" of new processes.
    """
    from repro.compiler.autotune import global_tuner_cache

    with _IDEAL_CACHE_LOCK:
        _IDEAL_CACHE.clear()
        _IDEAL_CACHE_STATS["hits"] = 0
        _IDEAL_CACHE_STATS["misses"] = 0
    with _SIM_CACHE_LOCK:
        _SIM_CACHE.clear()
        _SIM_CACHE_STATS["hits"] = 0
        _SIM_CACHE_STATS["misses"] = 0
    clear_noise_program_cache()
    clear_calibration_memo()
    global_compilation_cache().clear()
    global_tuner_cache().clear()
    if include_disk:
        from repro.caching.disk import get_global_disk_cache

        disk = get_global_disk_cache()
        if disk is not None:
            disk.clear()


# ---------------------------------------------------------------------------
# Simulation-result cache (memory tier; the disk tier is the `sim` namespace
# of repro.caching.disk)
# ---------------------------------------------------------------------------

_SIM_CACHE: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
_SIM_CACHE_LOCK = threading.Lock()
_SIM_CACHE_STATS = {"hits": 0, "misses": 0}
_SIM_CACHE_MAX_ENTRIES = 4096
"""LRU bound; measured distributions are ``2^n`` floats, so thousands of
small-circuit results fit comfortably."""


def simulation_cache_key(
    program: NoiseProgram,
    readout_error: Optional[Sequence[float]],
    program_order: Sequence[int],
    backend: SimulatorBackend,
    options: SimulationOptions,
) -> Tuple:
    """Content-addressed key of one simulate node's measured distribution.

    Components cover everything :func:`repro.experiments.runner.simulate_noise_program`
    consumes: the noise program's full content (gate matrices, Kraus
    operators, durations -- see
    :meth:`repro.simulators.noise_program.NoiseProgram.fingerprint`), the
    readout-error vector, the slot-to-program-qubit permutation, the
    backend identity (name *and* version, so numeric changes orphan old
    entries) and the simulation-options fingerprint.  Keying on program
    content rather than the compilation key makes entries insensitive to
    unrelated device state -- gate types registered for *other*
    instruction sets change the device fingerprint mid-study but not the
    program lowered for this circuit -- and lets two pipelines that
    compile to the identical circuit share one simulation.

    Callers must pass the *effective* backend
    (:meth:`~repro.simulators.backend.SimulatorBackend.effective_backend`):
    keying ``auto`` runs under the delegate that actually produces the
    numbers lets ``auto`` and the explicit spelling share entries, and
    keeps a delegate's ``version`` bump authoritative for results
    produced through the dispatcher.
    """
    readout = tuple(float(p) for p in readout_error) if readout_error is not None else None
    return (
        program.fingerprint(),
        hash_scalars("readout", readout is None, *(readout or ())),
        hash_scalars("order", *(int(q) for q in program_order)),
        backend.name,
        int(backend.version),
        options.fingerprint(),
    )


def _simulation_cache_get(key: Tuple) -> Optional[np.ndarray]:
    """Memory-tier lookup (counts a hit or miss)."""
    with _SIM_CACHE_LOCK:
        cached = _SIM_CACHE.get(key)
        if cached is not None:
            _SIM_CACHE_STATS["hits"] += 1
            _SIM_CACHE.move_to_end(key)
            return cached
        _SIM_CACHE_STATS["misses"] += 1
        return None


def _simulation_cache_put(key: Tuple, vector: np.ndarray) -> np.ndarray:
    """Store a measured distribution (frozen) in the memory tier."""
    vector = np.asarray(vector)
    vector.setflags(write=False)
    with _SIM_CACHE_LOCK:
        _SIM_CACHE[key] = vector
        _SIM_CACHE.move_to_end(key)
        while len(_SIM_CACHE) > _SIM_CACHE_MAX_ENTRIES:
            _SIM_CACHE.popitem(last=False)
    return vector


def peek_simulation_memory(key: Tuple) -> Optional[np.ndarray]:
    """Memory-tier lookup that counts nothing and keeps the LRU order.

    Cheap and non-blocking, so callers may run it under their own lock:
    the daemon's in-flight table re-checks a miss with it right before
    starting an owner (see :meth:`repro.service.dedup.InFlightTable.submit`).
    """
    with _SIM_CACHE_LOCK:
        return _SIM_CACHE.get(key)


def simulation_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the simulation-result memory cache."""
    with _SIM_CACHE_LOCK:
        return {
            "hits": _SIM_CACHE_STATS["hits"],
            "misses": _SIM_CACHE_STATS["misses"],
            "entries": len(_SIM_CACHE),
            "max_entries": _SIM_CACHE_MAX_ENTRIES,
        }


# ---------------------------------------------------------------------------
# Job graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentJob:
    """One (instruction set, circuit, error scale) unit of study work."""

    set_name: str
    circuit_index: int
    error_scale: float = 1.0


@dataclass
class StudyPlan:
    """The job graph of one instruction-set study, in canonical order.

    Canonical order is instruction sets in catalogue order, circuits in
    ensemble order -- exactly the iteration order of the legacy serial
    loop.  Compile nodes run serially in this order (see the module
    docstring for why); the merge step also folds job results in this
    order so the :class:`StudyResult` is independent of completion order.
    """

    set_names: List[str]
    num_circuits: int
    error_scales: Dict[str, float] = field(default_factory=dict)

    def jobs(self) -> List[ExperimentJob]:
        """Every job of the study, in canonical (deterministic) order."""
        return [
            ExperimentJob(
                set_name=name,
                circuit_index=index,
                error_scale=self.error_scales.get(name, 1.0),
            )
            for name in self.set_names
            for index in range(self.num_circuits)
        ]

    def __len__(self) -> int:
        return len(self.set_names) * self.num_circuits


_EXECUTOR_FAILURES = (BrokenExecutor, pickle.PicklingError, TypeError, OSError)
"""Exceptions that mean the *pool* failed (broken process, unpicklable
payload, fork refusal) rather than the task itself.  Only these trigger
the thread/inline fallbacks; other task errors propagate immediately
instead of re-running the whole workload on a slower executor.
``TypeError``/``OSError`` stay in the tuple because CPython reports many
unpicklable payloads as bare ``TypeError`` and fork refusal as
``OSError`` -- a task genuinely raising one of these is re-run, so the
fallback emits a warning (never silent) and eventually re-raises."""


def _warn_executor_fallback(
    executor_name: str,
    error: BaseException,
    fallback: str = "a slower executor",
    counters: Optional[ResilienceCounters] = None,
) -> None:
    """One warning per degradation, always naming the cause and the target."""
    count_executor_fallback()
    if counters is not None:
        counters.increment("executor_fallbacks")
    warnings.warn(
        f"experiment-engine {executor_name} failed ({type(error).__name__}: {error}); "
        f"falling back to {fallback} and re-running the affected jobs",
        RuntimeWarning,
        stacklevel=3,
    )


def _build_study_pool(
    workers: int, counters: Optional[ResilienceCounters] = None
) -> Tuple[Optional[Executor], str]:
    """Create the study's worker pool: process -> thread -> inline.

    Each degradation step emits one :func:`_warn_executor_fallback`
    warning naming the failed executor and its cause -- pool creation is
    never allowed to fail silently (the pre-resilience code swallowed
    both exceptions bare).  Returns the pool (or ``None`` for inline)
    plus the executor kind surfaced in ``StudyResult.executor_kind``.
    """
    try:
        return ProcessPoolExecutor(max_workers=workers), "process"
    except Exception as error:
        _warn_executor_fallback(
            "ProcessPoolExecutor", error, fallback="a thread pool", counters=counters
        )
    try:
        return ThreadPoolExecutor(max_workers=workers), "thread"
    except Exception as error:
        _warn_executor_fallback(
            "ThreadPoolExecutor", error, fallback="inline execution", counters=counters
        )
    return None, "inline"


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value: ``None``/1 serial, 0 = all cores."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers <= 0:
        return max(os.cpu_count() or 1, 1)
    return workers


def _simulate_job(
    program: NoiseProgram,
    readout_error: Optional[List[float]],
    program_order: List[int],
    options: SimulationOptions,
    backend: Union[str, SimulatorBackend],
) -> np.ndarray:
    """Worker entry point: noisy measured distribution of one compiled job.

    Module-level so process pools can pickle it by reference.  The
    payload is the immutable noise program, plain scalars and the backend
    *instance* -- no ``Device`` (and no per-job deep copy of one) crosses
    the process boundary.  Shipping the instance rather than a name keeps
    custom backends working: one registered only in the parent process
    (or never registered at all) would not resolve in a freshly imported
    worker registry.  Pure: seeds its own RNG from ``options`` and never
    mutates shared state.

    The ``worker.task`` fault point is consulted here, before any
    simulation work, so an injected crash/failure models a worker dying
    at task pickup -- both the pool path and the inline retry path
    (:func:`execute_prepared_with_retry`) funnel through this function.
    """
    maybe_raise_fault("worker.task")
    return simulate_noise_program(
        program,
        options,
        resolve_backend(backend),
        readout_error=readout_error,
        program_order=program_order,
    )


def run_parallel(
    function: Callable,
    argument_tuples: Sequence[Tuple],
    workers: Optional[int] = 1,
) -> List[object]:
    """Apply ``function`` to argument tuples on a worker pool, preserving order.

    Generic fan-out helper for experiment drivers whose jobs do not touch
    shared mutable state (e.g. the Figure 6 decomposition cells).  Results
    are returned in input order, so output is independent of scheduling;
    ``function`` must be module-level (picklable) for process execution.
    Falls back to threads, then to inline execution, when a process pool
    is unavailable.
    """
    effective = resolve_workers(workers)
    if effective <= 1 or len(argument_tuples) <= 1:
        return [function(*arguments) for arguments in argument_tuples]
    for executor_class in (ProcessPoolExecutor, ThreadPoolExecutor):
        try:
            with executor_class(max_workers=effective) as pool:
                futures = [pool.submit(function, *arguments) for arguments in argument_tuples]
                return [future.result() for future in futures]
        except _EXECUTOR_FAILURES as error:
            _warn_executor_fallback(executor_class.__name__, error)
            continue
    return [function(*arguments) for arguments in argument_tuples]


# ---------------------------------------------------------------------------
# Schedulable units
#
# ``run_study`` below decomposes into four phases that external schedulers
# (notably the ``repro serve`` daemon, :mod:`repro.service`) drive job by
# job: *prepare* (compile + lower + key), *fetch* (consult the two cache
# tiers), *execute* (invoke the backend) and *store* (populate the tiers),
# plus a *merge* fold at the end.  The functions are factored out rather
# than inlined so a scheduler can interleave jobs from concurrent studies,
# coalesce identical in-flight work on the shared cache keys, and still
# produce bit-identical :class:`StudyResult` payloads -- ``run_study``
# itself is just the serial canonical-order driver over these same units.
# ---------------------------------------------------------------------------


@dataclass
class PreparedJob:
    """One compiled study job, ready to simulate.

    The schedulable unit between the compile and simulate phases: the
    compiled circuit, its lowered noise program, the readout/permutation
    scalars the simulator consumes, the *effective* backend that will
    produce the numbers and the content-addressed simulation cache key.
    Everything here is immutable or treated as such, so a scheduler may
    hold prepared jobs from many studies and execute them in any order --
    only the *prepare* phase (device RNG) is order-sensitive.
    """

    job: ExperimentJob
    compiled: CompiledCircuit
    program: NoiseProgram
    readout_error: Optional[List[float]]
    program_order: List[int]
    options: SimulationOptions
    backend: SimulatorBackend
    cache_key: Tuple

    def simulation_arguments(self) -> Tuple:
        """Positional arguments for :func:`_simulate_job` (picklable)."""
        return (
            self.program,
            self.readout_error,
            self.program_order,
            self.options,
            self.backend,
        )


def prepare_job(
    job: ExperimentJob,
    circuit: QuantumCircuit,
    device: Device,
    instruction_set: InstructionSet,
    *,
    decomposer: Optional[NuOpDecomposer] = None,
    options: Optional[SimulationOptions] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    pipeline: str = "default",
    compilation_cache: Optional[CompilationCache] = None,
    disk_cache: Optional[object] = None,
    backend: Optional[SimulatorBackend] = None,
    compile_fn: Optional[Callable[..., CompiledCircuit]] = None,
) -> PreparedJob:
    """Compile one job and derive everything its simulate node needs.

    This is the order-sensitive phase: compiling may lazily sample
    calibration data from the device's private RNG, so callers must
    invoke ``prepare_job`` for a study's jobs serially in canonical order
    (:meth:`StudyPlan.jobs`).  ``compile_fn`` lets a scheduler wrap the
    compile step -- the service's in-flight coalescing substitutes a
    wrapper that waits for an identical concurrent compilation, then
    re-runs :func:`~repro.core.pipeline.compile_circuit_cached` itself so
    the memory hit replays gate-type registrations on *this* device.  The
    wrapper must be call-compatible with ``compile_circuit_cached``.
    """
    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    options = options or SimulationOptions()
    backend_obj = resolve_backend(backend if backend is not None else options.method)
    compile = compile_fn if compile_fn is not None else compile_circuit_cached
    compiled = compile(
        circuit,
        device,
        instruction_set,
        decomposer=decomposer,
        approximate=approximate,
        use_noise_adaptivity=use_noise_adaptivity,
        error_scale=job.error_scale,
        pipeline=pipeline,
        cache=compilation_cache,
        disk_cache=disk_cache,
    )
    program = noise_program_for(compiled, device, error_scale=job.error_scale)
    readout = (
        device.readout_errors_for(compiled.physical_qubits)
        if options.apply_readout_error
        else None
    )
    order = [compiled.final_mapping[q] for q in range(compiled.circuit.num_qubits)]
    effective_backend = backend_obj.effective_backend(program, options)
    key = simulation_cache_key(program, readout, order, effective_backend, options)
    return PreparedJob(
        job=job,
        compiled=compiled,
        program=program,
        readout_error=readout,
        program_order=order,
        options=options,
        backend=effective_backend,
        cache_key=key,
    )


def fetch_cached_simulation(
    prepared: PreparedJob, sim_disk: Optional[object] = None
) -> Optional[Tuple[np.ndarray, str]]:
    """Consult the simulation-cache tiers for a prepared job.

    Returns ``(vector, source)`` with ``source`` one of ``"memory"`` or
    ``"disk"``, or ``None`` on a full miss.  Side effects mirror the
    engine's historical two-tier walk exactly (counter order included):
    a memory hit is backfilled to the disk tier when absent there (so
    fresh processes warm-start from the same directory), and a disk hit
    is promoted into the memory LRU.
    """
    key = prepared.cache_key
    cached = _simulation_cache_get(key)
    if cached is not None:
        if sim_disk is not None and not sim_disk.has_simulation(key):
            # Backfill: the vector exists only in this process's memory
            # tier (e.g. the earlier study ran without a cache dir, or
            # with a different one) -- persist it so fresh processes
            # warm-start from this directory too.
            sim_disk.put_simulation(key, cached)
        return cached, "memory"
    if sim_disk is not None:
        vector = sim_disk.get_simulation(key)
        if vector is not None:
            return _simulation_cache_put(key, np.asarray(vector)), "disk"
    return None


def execute_prepared_simulation(prepared: PreparedJob) -> np.ndarray:
    """Run a prepared job's simulate node inline (one backend invocation).

    Pure: seeds its own RNG from the job's options and touches no shared
    state, so schedulers may run prepared jobs concurrently and in any
    order.  Does *not* consult or populate the caches -- pair with
    :func:`fetch_cached_simulation` and :func:`store_simulation`.
    """
    return _simulate_job(*prepared.simulation_arguments())


def execute_prepared_with_retry(
    prepared: PreparedJob,
    policy: Optional[RetryPolicy] = None,
    counters: Optional[ResilienceCounters] = None,
) -> np.ndarray:
    """:func:`execute_prepared_simulation` under a retry policy.

    Because the job is pure given its prepared ``NoiseProgram``, a retry
    re-executes bit-identically: no device RNG advances, no cache key
    changes -- the invariant that lets a chaos run render the same report
    as a fault-free one.  Transient failures (``DEFAULT_RETRYABLE``) are
    retried with deterministic backoff; deterministic errors propagate
    on the first attempt.
    """
    job = prepared.job
    return call_with_retry(
        lambda: execute_prepared_simulation(prepared),
        policy,
        describe=(
            f"job {job.set_name}#{job.circuit_index}@{job.error_scale:g}x"
        ),
        counters=counters,
    )


# ---------------------------------------------------------------------------
# Batched replay grouping (SimulationOptions.batch != 1)
#
# An error-scale sweep simulates B variants of the *same* compiled circuit
# whose noise programs share fused-group structure (identical qubit
# supports per group; only the channel tensors differ with the scale).
# Rather than B sequential replays, the engine groups such prepared jobs
# by a BatchKey and lets the backend run each group as ONE vectorised
# pass over a stacked (B, 2^n, 2^n) rho tensor
# (:meth:`~repro.simulators.backend.SimulatorBackend.run_batch`), then
# fans the per-job distributions back out through the unchanged per-job
# cache keys -- memory/disk tiers, dedup and ``repro serve`` see
# individual jobs exactly as before.
# ---------------------------------------------------------------------------


def batch_signature(prepared: PreparedJob) -> Optional[Tuple]:
    """The ``BatchKey`` of a prepared job, or ``None`` when unbatchable.

    Jobs may share one vectorised backend pass iff they agree on this
    key: same effective backend (name *and* kernel-dependent version),
    same simulation-options fingerprint, and the same fused-group
    *structure* -- :func:`~repro.simulators.superop.superop_structure_key`
    of the lowered program, i.e. identical per-group qubit supports (the
    error-scale-sweep case: channel tensors differ, shapes do not).
    Backends that cannot batch this program (reference kernel, trajectory,
    estimator, too many qubits) opt out via ``supports_batched_run``.
    """
    backend = prepared.backend
    if not backend.supports_batched_run(prepared.program, prepared.options):
        return None
    structure = superop_structure_key(superop_program_for(prepared.program))
    return (
        backend.name,
        int(backend.version),
        prepared.options.fingerprint(),
        structure,
    )


def group_prepared_for_batch(
    prepared_units: Sequence[PreparedJob],
) -> List[List[PreparedJob]]:
    """Partition prepared jobs into batched-replay groups.

    Jobs with equal :func:`batch_signature` land in one group, chunked to
    at most :func:`~repro.simulators.superop.max_batch_items` members (the
    ``REPRO_SIM_BATCH_MAX_BYTES`` working-set cap combined with the
    ``SimulationOptions.batch`` group-size knob); unbatchable jobs become
    singleton groups.  Group order follows first appearance and members
    keep their input order, so downstream folds stay deterministic.
    """
    grouped: "OrderedDict[Tuple, List[PreparedJob]]" = OrderedDict()
    ordered_groups: List[List[PreparedJob]] = []
    for unit in prepared_units:
        signature = batch_signature(unit)
        if signature is None:
            ordered_groups.append([unit])
            continue
        if signature not in grouped:
            grouped[signature] = []
            ordered_groups.append(grouped[signature])
        grouped[signature].append(unit)
    chunked: List[List[PreparedJob]] = []
    for group in ordered_groups:
        limit = max_batch_items(
            group[0].program.num_qubits, int(group[0].options.batch)
        )
        for start in range(0, len(group), limit):
            chunked.append(group[start : start + limit])
    return chunked


def execute_prepared_batch(group: Sequence[PreparedJob]) -> List[np.ndarray]:
    """Run one batched-replay group; returns per-job measured distributions.

    Singleton groups take the ordinary sequential path
    (:func:`execute_prepared_simulation`) so a "batch of one" stays
    bit-identical to an unbatched run.  Larger groups make one
    ``run_batch`` backend pass (one invocation-counter tick) and then
    finalize each job exactly as the sequential path does -- same per-job
    RNG seed, readout error and output permutation
    (:func:`repro.experiments.runner.finalize_measured_distribution`).
    """
    group = list(group)
    if len(group) == 1:
        return [execute_prepared_simulation(group[0])]
    backend = group[0].backend
    raw = backend.run_batch([unit.program for unit in group], group[0].options)
    return [
        finalize_measured_distribution(
            probabilities, unit.options, unit.readout_error, unit.program_order
        )
        for probabilities, unit in zip(raw, group)
    ]


def store_simulation(
    prepared: PreparedJob,
    vector: np.ndarray,
    sim_disk: Optional[object] = None,
) -> np.ndarray:
    """Populate both cache tiers with a freshly computed vector.

    Returns the frozen (read-only) array the memory tier now holds; use
    that for all further reads.  Only call for *computed* vectors --
    cache hits are already stored, and re-writing them would break the CI
    warm-start "no file changed" check.

    Disk first, then memory: a concurrent :func:`fetch_cached_simulation`
    that sees the memory entry then also finds the disk entry, instead of
    backfilling a second write of the same vector.  A failed disk write
    (full disk, injected fault) still leaves the vector in memory.
    """
    try:
        if sim_disk is not None:
            sim_disk.put_simulation(prepared.cache_key, vector)
    finally:
        vector = _simulation_cache_put(prepared.cache_key, vector)
    return vector


def merge_study_results(
    application: str,
    metric_name: str,
    metric: MetricFunction,
    plan: StudyPlan,
    ideal_by_index: Sequence[np.ndarray],
    compiled: Dict[ExperimentJob, CompiledCircuit],
    measured: Dict[ExperimentJob, np.ndarray],
) -> StudyResult:
    """Score and fold job results into a :class:`StudyResult`.

    Folds in canonical plan order regardless of the order ``measured``
    was produced in, so the merged payload is independent of scheduling
    -- the property that makes warm service responses byte-identical to
    cold ones.
    """
    from repro.compiler.manager import aggregate_pass_stats, merge_aggregated_pass_stats

    study = StudyResult(application=application, metric_name=metric_name)
    for set_name in plan.set_names:
        result = InstructionSetResult(instruction_set=set_name, metric_name=metric_name)
        for index in range(plan.num_circuits):
            job = ExperimentJob(
                set_name=set_name,
                circuit_index=index,
                error_scale=plan.error_scales.get(set_name, 1.0),
            )
            value = metric(measured[job], ideal_by_index[index])
            job_compiled = compiled[job]
            result.metric_values.append(float(value))
            result.two_qubit_counts.append(job_compiled.two_qubit_gate_count)
            result.swap_counts.append(job_compiled.num_swaps)
            for label, count in job_compiled.gate_type_usage.items():
                result.gate_type_usage[label] = result.gate_type_usage.get(label, 0) + count
            result.pipeline_usage[job_compiled.pipeline_name] = (
                result.pipeline_usage.get(job_compiled.pipeline_name, 0) + 1
            )
            merge_aggregated_pass_stats(
                result.pass_stats, aggregate_pass_stats(job_compiled.pass_stats)
            )
        study.per_set[set_name] = result
    return study


# ---------------------------------------------------------------------------
# Study execution
# ---------------------------------------------------------------------------


def run_study(
    application: str,
    circuits: Sequence[QuantumCircuit],
    metric_name: str,
    metric: MetricFunction,
    device_factory: Callable[[], Device],
    instruction_sets: Dict[str, InstructionSet],
    decomposer: Optional[NuOpDecomposer] = None,
    options: Optional[SimulationOptions] = None,
    approximate: bool = True,
    use_noise_adaptivity: bool = True,
    error_scales: Optional[Dict[str, float]] = None,
    ideal_override: Optional[Callable[[QuantumCircuit], np.ndarray]] = None,
    workers: Optional[int] = 1,
    compilation_cache: Optional[CompilationCache] = None,
    pipeline: str = "default",
    cache_dir: Optional[str] = None,
    backend: Optional[Union[str, SimulatorBackend]] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> StudyResult:
    """Execute an instruction-set study on the engine.

    Same contract as the legacy
    :func:`repro.experiments.runner.run_instruction_set_study` (which now
    delegates here), plus:

    workers:
        Size of the simulation worker pool.  ``None``/1 runs everything
        inline; ``0`` uses every CPU core.  Output is bit-identical for
        every value.  When ``options.batch != 1`` the pool is bypassed:
        cache misses are grouped by :func:`batch_signature` and executed
        as vectorised batched-replay passes instead (see the batched
        replay section above), results landing under the same per-job
        cache keys.
    compilation_cache:
        Cache for compile nodes (default: the process-global cache).
    pipeline:
        Named compiler pipeline for the compile nodes (see
        :func:`repro.compiler.manager.available_pipelines`); ablation
        studies select e.g. ``"optimized"`` vs ``"no-cancellation"``
        instead of forking code paths.  ``"auto"`` asks the pipeline
        autotuner (:mod:`repro.compiler.autotune`) to pick the best
        candidate per (circuit, instruction set) by predicted compiled
        fidelity; the chosen pipelines land in each
        :class:`~repro.experiments.runner.InstructionSetResult`'s
        ``pipeline_usage``.
    cache_dir:
        Directory for the persistent disk cache tier, overriding the
        global ``REPRO_CACHE_DIR`` configuration for this study only.
        Resolved through the shared per-directory registry
        (:func:`repro.caching.disk.disk_cache_for`), so the study's
        hits/misses show up in ``repro cache stats``.
    backend:
        Simulator backend for the simulate nodes -- a registry name (see
        :func:`repro.simulators.backend.available_backends`) or an
        instance.  Defaults to ``options.method`` (itself ``"auto"``, the
        historical qubit-threshold dispatch, so existing callers see
        bit-identical results).
    retry_policy:
        Bounds for re-executing failed simulate nodes (default:
        :meth:`RetryPolicy.from_env`, i.e. the ``REPRO_RETRY_*`` knobs).
        Transient failures -- injected faults, worker crashes, OS errors
        -- re-execute inline; a broken process pool degrades to threads,
        then to inline execution, each step warned once with its cause.
        The study completes with a report bit-identical to a fault-free
        run (simulate nodes are pure), surfacing what happened in
        ``StudyResult.executor_kind`` / ``StudyResult.resilience``.
    """
    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    options = options or SimulationOptions()
    error_scales = error_scales or {}
    device = device_factory()
    effective_workers = resolve_workers(workers)
    backend_obj = resolve_backend(backend if backend is not None else options.method)
    disk_cache = None
    if cache_dir is not None:
        from repro.caching.disk import disk_cache_for

        disk_cache = disk_cache_for(cache_dir)
    from repro.caching.disk import get_global_disk_cache

    sim_disk = disk_cache if disk_cache is not None else get_global_disk_cache()

    plan = StudyPlan(
        set_names=list(instruction_sets),
        num_circuits=len(circuits),
        error_scales=dict(error_scales),
    )
    jobs = plan.jobs()

    # Ideal nodes: one per circuit, shared by every set and error scale.
    if ideal_override is not None:
        ideal_by_index = [ideal_override(circuit) for circuit in circuits]
    else:
        ideal_by_index = [ideal_distribution_cached(circuit) for circuit in circuits]

    # Compile nodes: serial, canonical order (device RNG determinism).
    # Simulate nodes: looked up in the simulation-result cache (memory ->
    # disk); misses are submitted to the pool as soon as their compile
    # node finishes, so simulation overlaps the remaining compilations.
    # The pool payload is the immutable noise program plus scalars -- the
    # Device itself never crosses the worker boundary (the engine used to
    # deep-copy it per job).
    # Batched replay (options.batch != 1): cache misses are grouped by
    # batch_signature and executed as vectorised backend passes inline,
    # instead of fanning individual jobs out to a worker pool -- on this
    # container one stacked contraction beats process parallelism.
    batching = int(options.batch) != 1
    policy = retry_policy if retry_policy is not None else RetryPolicy.from_env()
    resilience = ResilienceCounters()
    pool: Optional[Executor] = None
    executor_kind = "batched" if batching else "inline"
    if not batching and effective_workers > 1 and len(jobs) > 1:
        pool, executor_kind = _build_study_pool(effective_workers, resilience)

    prepared: Dict[ExperimentJob, PreparedJob] = {}
    measured: Dict[ExperimentJob, np.ndarray] = {}
    cached_jobs = set()
    futures = {}
    submit_rejected = False
    try:
        for job in jobs:
            unit = prepare_job(
                job,
                circuits[job.circuit_index],
                device,
                instruction_sets[job.set_name],
                decomposer=decomposer,
                options=options,
                approximate=approximate,
                use_noise_adaptivity=use_noise_adaptivity,
                pipeline=pipeline,
                compilation_cache=compilation_cache,
                disk_cache=disk_cache,
                backend=backend_obj,
            )
            prepared[job] = unit
            hit = fetch_cached_simulation(unit, sim_disk)
            if hit is not None:
                measured[job] = hit[0]
                cached_jobs.add(job)
                continue
            if pool is not None and not submit_rejected:
                try:
                    futures[job] = pool.submit(
                        _simulate_job, *unit.simulation_arguments()
                    )
                except _EXECUTOR_FAILURES as error:
                    # The pool died between submits (a worker crashing
                    # while the prepare loop is still compiling).  Stop
                    # feeding it: jobs never submitted flow into the
                    # inline recovery sweep, and futures already in
                    # flight are collected below -- results resolved
                    # before the break survive, pending ones re-raise
                    # there and take the thread/inline fallback.
                    submit_rejected = True
                    _warn_executor_fallback(
                        type(pool).__name__,
                        error,
                        fallback="the recovery sweep",
                        counters=resilience,
                    )

        if batching:
            miss_units = [prepared[job] for job in jobs if job not in measured]
            for group in group_prepared_for_batch(miss_units):
                try:
                    vectors = call_with_retry(
                        lambda group=group: execute_prepared_batch(group),
                        policy,
                        describe=f"batched replay pass ({len(group)} jobs)",
                        counters=resilience,
                    )
                except DEFAULT_RETRYABLE:
                    # The whole pass kept failing: degrade to per-job
                    # execution, each job under a fresh retry budget.
                    # Identical vectors either way (batch equivalence is
                    # pinned by tests/test_batched_replay.py).
                    vectors = [
                        execute_prepared_with_retry(unit, policy, resilience)
                        for unit in group
                    ]
                for unit, vector in zip(group, vectors):
                    measured[unit.job] = vector

        if pool is not None and futures:
            broken: Optional[BaseException] = None
            for job in jobs:
                if job not in futures:
                    continue
                try:
                    measured[job] = futures[job].result()
                except InjectedFault as error:
                    # A transient *task* failure, not a pool failure: leave
                    # the job unmeasured so the inline sweep below re-runs
                    # it under the retry policy.  (Real transient task
                    # errors -- OSError and friends -- are indistinguishable
                    # from pool failures and take the fallback path.)
                    resilience.increment("retries")
                    warnings.warn(
                        f"resilience: re-running job {job.set_name}"
                        f"#{job.circuit_index} inline after "
                        f"{type(error).__name__}: {error}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                except _EXECUTOR_FAILURES as error:
                    # Pool died (broken process, unpicklable payload):
                    # stop collecting and recover below.  Simulation is
                    # pure, so results already retrieved (and cache hits)
                    # are unchanged.
                    broken = error
                    break
            if broken is not None:
                # The re-runs below own the remaining jobs now; cancel
                # whatever is still queued so an abandoned-but-alive pool
                # (an injected crash reports broken while workers keep
                # draining the queue) stops competing for cores and the
                # final shutdown does not wait on work nobody collects.
                pool.shutdown(wait=False, cancel_futures=True)
                remaining = [
                    job for job in jobs if job in futures and job not in measured
                ]
                if executor_kind == "process" and len(remaining) > 1:
                    # Degrade one level: re-run the survivors on threads;
                    # a second failure falls through to the inline sweep.
                    _warn_executor_fallback(
                        type(pool).__name__,
                        broken,
                        fallback="a thread pool",
                        counters=resilience,
                    )
                    try:
                        with ThreadPoolExecutor(
                            max_workers=effective_workers
                        ) as retry_pool:
                            refutures = {
                                job: retry_pool.submit(
                                    execute_prepared_with_retry,
                                    prepared[job],
                                    policy,
                                    resilience,
                                )
                                for job in remaining
                            }
                            for job in remaining:
                                measured[job] = refutures[job].result()
                    except _EXECUTOR_FAILURES as error:
                        _warn_executor_fallback(
                            "ThreadPoolExecutor",
                            error,
                            fallback="inline execution",
                            counters=resilience,
                        )
                else:
                    _warn_executor_fallback(
                        type(pool).__name__,
                        broken,
                        fallback="inline execution",
                        counters=resilience,
                    )
        for job in jobs:
            if job not in measured:
                measured[job] = execute_prepared_with_retry(
                    prepared[job], policy, resilience
                )
    finally:
        if pool is not None:
            pool.shutdown()

    # Populate the simulation-result cache tiers with freshly computed
    # vectors (cache hits are already stored; re-writing them would break
    # the CI warm-start "no file changed" check).
    for job in jobs:
        if job in cached_jobs:
            continue
        measured[job] = store_simulation(prepared[job], measured[job], sim_disk)

    study = merge_study_results(
        application,
        metric_name,
        metric,
        plan,
        ideal_by_index,
        {job: unit.compiled for job, unit in prepared.items()},
        measured,
    )
    # Surface what actually executed the study.  Metadata only: rows()
    # and format_table() deliberately exclude both fields, so reports
    # stay byte-identical across executor kinds and retry histories.
    study.executor_kind = executor_kind
    study.resilience = resilience.snapshot()
    return study
