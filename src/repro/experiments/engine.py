"""Experiment execution engine.

Every headline result of the paper (Figures 6-11) is produced by the same
ensemble workflow: compile every application circuit under every candidate
instruction set (optionally at several error scales), simulate the
compiled circuit noisily, and score the measured distribution against the
ideal one.  The legacy :func:`repro.experiments.runner.run_instruction_set_study`
executed that workflow as a fully serial double loop; this module turns it
into an explicit job graph.  Per ``(circuit, instruction set, error
scale)`` job there is a **compile node** (served from the global
:func:`~repro.core.pipeline.global_compilation_cache`), a **simulate node** and a
**score node**; per circuit an **ideal node** (noiseless distribution,
shared by every set and scale through a process-global content-addressed
cache); and one **merge node** folding scored jobs into a
:class:`StudyResult`.

Determinism is the design constraint that shapes the schedule.  The
device samples calibration data for gate types *lazily*, from a private
RNG, in the order compilations first request them; reordering compile
nodes would therefore change the sampled noise and the study's numbers.
Compile nodes consequently execute serially in canonical order (the order
the legacy double loop used), which is cheap because they are backed by
the compilation cache.  Simulate/score nodes are *pure*: they read the
device calibration but never advance any shared RNG (each job seeds its
own generator from ``SimulationOptions.seed``), so they run concurrently,
and the merge node folds results in canonical job order regardless of
completion order.  ``workers=1`` and ``workers=N`` are bit-identical, and
both are bit-identical to the legacy serial loop -- the property
``tests/test_engine_determinism.py`` pins down.

**One executor.**  :func:`execute_study` runs every study, for
:func:`run_study` and the ``repro serve`` daemon alike, as four phases
per job -- *prepare* (compile + lower + key, the one order-sensitive
phase), *fetch* (memory then disk tier), *execute* and *store* -- plus
the *merge* fold; an :class:`ExecutionPolicy` holds what the two drivers
do differently.  ``run_study``'s pool climbs down one process -> thread
-> inline ladder (processes first: the kernels hold the GIL; payloads are
the immutable noise program plus scalars, never the ``Device``).

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

Cold simulate nodes run the **fused superoperator kernels** by default
(:mod:`repro.simulators.superop`); ``REPRO_SIM_KERNEL=reference``
selects the pinned sequential replay instead (bit-identical to the
legacy loops, and the mode the engine-vs-legacy determinism tests run
under).  The active kernel is folded into the backend version component
of :func:`simulation_cache_key`, so the two kernels never share cached
vectors.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
import warnings
from collections import OrderedDict
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.caching.lru import LRUCache, clear_registered_caches, register_cache
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.hashing import circuit_fingerprint, hash_scalars
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import InstructionSet
from repro.core.pipeline import CompiledCircuit, compile_circuit_cached
from repro.devices.device import Device
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
from repro.simulators.noise_model import CHANNEL_MEMOS
from repro.simulators.noise_program import NoiseProgram, noise_program_for
from repro.simulators.superop import (
    max_batch_items,
    superop_program_for,
    superop_structure_key,
)
from repro.simulators.statevector import ideal_probabilities

# ---------------------------------------------------------------------------
# Ideal-distribution cache (shared across instruction sets, sweeps, studies)
# ---------------------------------------------------------------------------

_IDEAL_CACHE = register_cache("ideal distributions", 1024)
"""Bounded because distinct wide circuits would otherwise accumulate
2^n-sized vectors for the process lifetime."""


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
    cached = _IDEAL_CACHE.get(key)
    if cached is not None:
        return cached
    value = ideal_probabilities(circuit)
    value.setflags(write=False)
    _IDEAL_CACHE.put(key, value)
    return value


def ideal_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the ideal-distribution cache."""
    return _IDEAL_CACHE.stats()


def clear_experiment_caches(include_disk: bool = False) -> None:
    """Reset every in-process experiment cache.

    Empties every registered LRU tier (:mod:`repro.caching.lru`:
    decomposer profiles, KAK decompositions (with their Weyl points),
    compilations, autotuner verdicts, noise programs, ideal
    distributions, simulation results, calibration fingerprints) and the
    memoised noise-channel constructors.  Used by determinism tests and
    benchmarks that need a guaranteed cold start; production callers
    normally never need it.
    ``include_disk`` additionally clears the configured persistent disk
    tier (when one is active); the default leaves it alone because the
    disk tier exists precisely to survive "cold starts" of new processes.
    """
    clear_registered_caches()
    for memo in CHANNEL_MEMOS:
        memo.cache_clear()
    if include_disk:
        from repro.caching.disk import get_global_disk_cache

        disk = get_global_disk_cache()
        if disk is not None:
            disk.clear()


# ---------------------------------------------------------------------------
# Simulation-result cache (memory tier; the disk tier is the `sim` namespace
# of repro.caching.disk)
# ---------------------------------------------------------------------------

_SIM_CACHE = register_cache("simulation results (memory)", 4096)
"""Measured distributions are ``2^n`` floats, so thousands of
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


def _simulation_cache_put(key: Tuple, vector: np.ndarray) -> np.ndarray:
    """Store a measured distribution (frozen) in the memory tier."""
    vector = np.asarray(vector)
    vector.setflags(write=False)
    _SIM_CACHE.put(key, vector)
    return vector


def peek_simulation_memory(key: Tuple) -> Optional[np.ndarray]:
    """Memory-tier lookup that counts nothing and keeps the LRU order.

    Cheap and non-blocking, so callers may run it under their own lock:
    the daemon's in-flight table re-checks a miss with it right before
    starting an owner (see :meth:`repro.service.dedup.InFlightTable.submit`).
    """
    return _SIM_CACHE.peek(key)


def simulation_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the simulation-result memory cache."""
    return _SIM_CACHE.stats()


# ---------------------------------------------------------------------------
# Job graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentJob:
    """One (instruction set, circuit, error scale) unit of study work."""

    set_name: str
    circuit_index: int
    error_scale: float = 1.0

    def __str__(self) -> str:
        return f"{self.set_name}#{self.circuit_index}"


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


class _PoolLadder:
    """The one process -> thread -> inline executor ladder.

    Opens the first pool that works.  A pool that fails -- at creation,
    on a refused submit or with a broken worker -- is abandoned (queued
    work cancelled, so an abandoned-but-alive pool stops competing for
    cores) with one warning naming it, its cause and the next step, and
    every uncollected task is re-submitted one step down.  At the inline
    floor, and for a task failing with an :class:`InjectedFault`,
    :meth:`result` runs the caller's ``inline`` thunk.  Tasks must be
    pure (a re-run is bit-identical).
    """

    _STEPS = ((ProcessPoolExecutor, "a thread pool"), (ThreadPoolExecutor, "inline execution"))

    def __init__(self, workers: int, counters: Optional[ResilienceCounters] = None) -> None:
        self._workers, self._counters, self._step = workers, counters, -1
        self._tasks: Dict[object, Tuple] = {}
        self._step_down()
        self.kind = ("process", "thread", "inline")[self._step]

    def _step_down(self, error: Optional[BaseException] = None) -> None:
        while True:
            if error is not None:
                failed, fallback = self._STEPS[self._step]
                count_executor_fallback()
                if self._counters is not None:
                    self._counters.increment("executor_fallbacks")
                warnings.warn(
                    f"experiment-engine {failed.__name__} failed "
                    f"({type(error).__name__}: {error}); falling back to "
                    f"{fallback} and re-running the affected jobs",
                    RuntimeWarning,
                    stacklevel=3,
                )
            self._step += 1
            self.pool: Optional[Executor] = None
            self._futures: Dict[object, Future] = {}
            try:
                if self._step < len(self._STEPS):
                    self.pool = self._STEPS[self._step][0](max_workers=self._workers)
                return self._send(self._tasks)
            except Exception as exc:
                error = exc

    def _send(self, tasks: Dict[object, Tuple]) -> None:
        try:
            for key, task in list(tasks.items()):
                if self.pool is not None:
                    self._futures[key] = self.pool.submit(*task)
        except _EXECUTOR_FAILURES as error:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self._step_down(error)

    def submit(self, key: object, fn: Callable, *args) -> None:
        self._tasks[key] = (fn, *args)
        self._send({key: self._tasks[key]})

    def result(self, key: object, inline: Callable[[], object]) -> object:
        """The value of ``key``'s task, stepping down the ladder as pools fail."""
        try:
            while key in self._futures:
                try:
                    return self._futures[key].result()
                except InjectedFault as error:
                    # A transient *task* failure, not a pool failure.  (Real
                    # transient task errors -- OSError and friends -- are
                    # indistinguishable from pool failures and step down.)
                    if self._counters is not None:
                        self._counters.increment("retries")
                    warnings.warn(
                        f"resilience: re-running job {key} inline after "
                        f"{type(error).__name__}: {error}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    break
                except _EXECUTOR_FAILURES as error:
                    self.pool.shutdown(wait=False, cancel_futures=True)
                    self._step_down(error)
            return inline()
        finally:
            self._tasks.pop(key, None)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


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
    at task pickup -- both the pool path and every in-process run
    (:func:`execute_prepared_simulation`) funnel through this function.
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
    Runs on the study executor's ladder: processes, then threads, then
    inline execution when a pool is unavailable or breaks.
    """
    effective = resolve_workers(workers)
    if effective <= 1 or len(argument_tuples) <= 1:
        return [function(*arguments) for arguments in argument_tuples]
    ladder = _PoolLadder(effective)
    try:
        for index, arguments in enumerate(argument_tuples):
            ladder.submit(index, function, *arguments)
        return [
            ladder.result(index, functools.partial(function, *arguments))
            for index, arguments in enumerate(argument_tuples)
        ]
    finally:
        ladder.close()


# ---------------------------------------------------------------------------
# Schedulable units: prepare -> fetch -> execute -> store, then merge.
# Separate module-level functions, always called through module globals,
# so the executor can interleave jobs of concurrent studies and tracers
# and tests can wrap each phase.
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
    compilation_cache: Optional[LRUCache] = None,
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
    cached = _SIM_CACHE.get(key)
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
    application: str, metric_name: str, plan: StudyPlan, outcomes: Sequence[JobOutcome]
) -> StudyResult:
    """Fold scored :func:`execute_study` outcomes into a :class:`StudyResult`.

    Folds in canonical plan order regardless of the order the outcomes
    were produced in, so the merged payload is independent of scheduling
    -- the property that makes warm service responses byte-identical to
    cold ones.
    """
    from repro.compiler.manager import aggregate_pass_stats, merge_aggregated_pass_stats

    by_job = {outcome.job: outcome for outcome in outcomes}
    study = StudyResult(application=application, metric_name=metric_name)
    for set_name in plan.set_names:
        study.per_set[set_name] = InstructionSetResult(
            instruction_set=set_name, metric_name=metric_name
        )
    for job in plan.jobs():
        result = study.per_set[job.set_name]
        job_compiled, value = by_job[job].compiled, by_job[job].value
        result.metric_values.append(value)
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
    return study


# ---------------------------------------------------------------------------
# Study execution: the one executor behind run_study and repro serve
# ---------------------------------------------------------------------------


def _describe_run(units: Sequence[PreparedJob], batched: bool) -> str:
    """Retry-warning name of one backend run over ``units``."""
    job = units[0].job
    if batched:
        return f"batched replay pass ({len(units)} jobs)"
    return f"job {job.set_name}#{job.circuit_index}@{job.error_scale:g}x"


@dataclass
class ExecutionPolicy:
    """What the two study drivers do differently (see :func:`execute_study`).

    ``run_study`` sets ``workers``: the study opens and owns a pool of
    that size.  The serve daemon sets the rest: its shared thread pool,
    the in-flight table that coalesces identical misses across requests
    (:meth:`repro.service.dedup.InFlightTable.submit`), the coalescing
    compile wrapper, the shard filter (unowned keys are deferred), the
    halt predicate (draining, or past the monotonic ``deadline_at``,
    which also bounds every wait) and its retry-warning wording.  The
    batch cap is ``SimulationOptions.batch``.  The last three fields are
    filled in while the study runs.
    """

    retry: RetryPolicy
    workers: int = 1
    executor: Optional[Executor] = None
    inflight: Optional[object] = None
    compile_fn: Optional[Callable[..., CompiledCircuit]] = None
    owns: Optional[Callable[[Tuple], bool]] = None
    draining: Callable[[], bool] = lambda: False
    deadline_at: Optional[float] = None
    describe: Callable[[Sequence[PreparedJob], bool], str] = _describe_run
    counters: ResilienceCounters = field(default_factory=ResilienceCounters)
    executor_kind: str = "inline"
    batched_passes: List[int] = field(default_factory=list)

    def halt_reason(self) -> Optional[str]:
        if self.draining():
            return "drained"
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            return "deadline"
        return None


class JobOutcome(NamedTuple):
    """One job's result and score.  ``source``: ``memory``/``disk`` (cache
    hit), ``backend`` (computed here), ``inflight`` (joined a concurrent
    study's identical job); with no ``vector``: ``deferred``, ``drained``
    or ``deadline`` (the halted ones were never compiled either)."""

    job: ExperimentJob
    source: str
    vector: Optional[np.ndarray]
    compiled: Optional[CompiledCircuit]
    value: Optional[float]


def _compute(units: Sequence[PreparedJob], policy: ExecutionPolicy) -> List[np.ndarray]:
    """Backend vectors for owned misses, under the retry policy.

    Jobs are pure given their prepared program, so a retried vector is
    bit-identical to a first-try one.  With ``batch != 1`` the group
    makes one vectorised pass; if the whole pass keeps failing it
    degrades to per-job runs, each under a fresh budget -- identical
    vectors either way (``tests/test_batched_replay.py``).
    """
    retry = functools.partial(call_with_retry, policy=policy.retry, counters=policy.counters)
    if int(units[0].options.batch) != 1:
        try:
            vectors = retry(
                lambda: execute_prepared_batch(units), describe=policy.describe(units, True)
            )
        except DEFAULT_RETRYABLE:
            pass
        else:
            if len(units) > 1:
                policy.batched_passes.append(len(units))
            return vectors
    return [
        retry(
            lambda unit=unit: execute_prepared_simulation(unit),
            describe=policy.describe([unit], False),
        )
        for unit in units
    ]


def _run_owned(entries, policy: ExecutionPolicy, sim_disk, computed: set) -> None:
    """Compute, store, then resolve a group of owned ``(unit, future)`` misses.

    Store *before* resolve: an in-flight key retires when its future
    resolves, and by then the tiers must already serve the result (no
    gap for a third arrival to recompute in).  With an in-flight table
    the tiers are re-checked first: the submit probe reads only the
    memory tier, so a result an identical job stored that has since left
    the memory LRU is still served from disk here.  A failure resolves
    the waiters with the error instead of leaving them hanging.
    """
    try:
        misses = list(entries)
        if policy.inflight is not None:
            misses = []
            for unit, future in entries:
                hit = fetch_cached_simulation(unit, sim_disk)
                if hit is None:
                    misses.append((unit, future))
                else:
                    future.set_result(hit[0])
        if misses:
            vectors = _compute([unit for unit, _ in misses], policy)
            for (unit, future), vector in zip(misses, vectors):
                computed.add(unit.job)
                future.set_result(store_simulation(unit, vector, sim_disk))
    except BaseException as error:
        for _, future in entries:
            if not future.done():
                future.set_exception(error)
        raise


def execute_study(
    plan: StudyPlan,
    circuits: Sequence[QuantumCircuit],
    device: Device,
    instruction_sets: Dict[str, InstructionSet],
    policy: ExecutionPolicy,
    *,
    metric: MetricFunction,
    options: SimulationOptions,
    sim_disk: Optional[object] = None,
    **prepare_options,
) -> Iterator[JobOutcome]:
    """Run a study; yield one :class:`JobOutcome` per job, in canonical order.

    Compile nodes run serially in canonical order (device RNG), each
    followed by its tier lookup (``prepare_options`` go to
    :func:`prepare_job`).  An owned miss then runs on a study-owned
    ladder pool (``workers > 1``, ``batch == 1``) as soon as its compile
    finishes, and is stored in this process when collected; or as a
    task on the shared ``policy.executor`` that computes, stores and
    resolves its future (per job at once; batched groups after the
    loop); or inline after the loop.  Each measured job is scored with
    ``metric`` against its circuit's ideal distribution.
    """
    jobs = plan.jobs()
    # Ideal nodes: one per circuit, shared by every set and error scale.
    ideals = [ideal_distribution_cached(circuit) for circuit in circuits]
    batched = int(options.batch) != 1
    ladder: Optional[_PoolLadder] = None
    if policy.executor is None:
        policy.executor_kind = "batched" if batched else "inline"
        if not batched and policy.workers > 1 and len(jobs) > 1:
            ladder = _PoolLadder(policy.workers, policy.counters)
            policy.executor_kind = ladder.kind
    slots: Dict[ExperimentJob, Tuple[str, object, Optional[PreparedJob]]] = {}
    queued: List[Tuple[PreparedJob, Future]] = []
    computed: set = set()
    run = functools.partial(_run_owned, policy=policy, sim_disk=sim_disk, computed=computed)
    dispatch = run if policy.executor is None else functools.partial(policy.executor.submit, run)

    def own(unit: PreparedJob) -> Future:
        # Runs as the in-flight table's schedule thunk (under its lock):
        # it only enqueues, and a refused submit leaves no key behind.
        future: Future = Future()
        if policy.executor is not None and not batched:
            dispatch([(unit, future)])
        else:
            queued.append((unit, future))
        return future

    try:
        for job in jobs:
            halted = policy.halt_reason()
            if halted is not None:
                slots[job] = (halted, None, None)
                continue
            unit = prepare_job(
                job,
                circuits[job.circuit_index],
                device,
                instruction_sets[job.set_name],
                options=options,
                compile_fn=policy.compile_fn,
                **prepare_options,
            )
            hit = fetch_cached_simulation(unit, sim_disk)
            if hit is not None:
                slots[job] = (hit[1], hit[0], unit)
            elif policy.owns is not None and not policy.owns(unit.cache_key):
                slots[job] = ("deferred", None, unit)
            elif ladder is not None:
                ladder.submit(job, _simulate_job, *unit.simulation_arguments())
                slots[job] = ("pool", None, unit)
            elif policy.inflight is None:
                slots[job] = ("owner", own(unit), unit)
            else:
                # The probe re-checks the memory tier under the table lock:
                # an identical job may have stored its result and retired
                # its key since the miss above, and owning it again would
                # over-count started work.
                future, owner = policy.inflight.submit(
                    unit.cache_key,
                    functools.partial(own, unit),
                    probe=functools.partial(peek_simulation_memory, unit.cache_key),
                )
                source = {None: "memory", True: "owner", False: "inflight"}[owner]
                slots[job] = (source, future, unit)
        future_of = {id(unit): future for unit, future in queued}
        units = [unit for unit, _ in queued]
        for group in group_prepared_for_batch(units) if batched else [[u] for u in units]:
            dispatch([(unit, future_of[id(unit)]) for unit in group])

        # Collect in canonical order.  Futures already scheduled flush even
        # during a drain; only the deadline abandons a wait (the job is
        # reported "deadline" while its task still completes and caches).
        for job in jobs:
            source, value, unit = slots[job]
            if source == "pool":
                vector = ladder.result(job, lambda: _compute([unit], policy)[0])
                source, value = "backend", store_simulation(unit, vector, sim_disk)
            elif isinstance(value, Future):
                deadline = policy.deadline_at
                try:
                    value = value.result(
                        None if deadline is None else max(deadline - time.monotonic(), 0.001)
                    )
                except TimeoutError:
                    source, value = "deadline", None
                if source == "owner":
                    # An owner answered by the tiers' re-check is a memory
                    # hit, so `executed` equals real backend invocations.
                    source = "backend" if job in computed else "memory"
            score = None if value is None else float(metric(value, ideals[job.circuit_index]))
            yield JobOutcome(job, source, value, unit.compiled if unit else None, score)
    finally:
        if ladder is not None:
            ladder.close()


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
    workers: Optional[int] = 1,
    compilation_cache: Optional[LRUCache] = None,
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
        every value.  ``options.batch != 1`` bypasses the pool for
        vectorised batched-replay passes (see :func:`execute_study`).
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
        :meth:`RetryPolicy.from_env`, i.e. the ``REPRO_RETRY_*`` knobs);
        a failing pool steps down the ladder instead.  The report is
        bit-identical to a fault-free run (simulate nodes are pure);
        ``StudyResult.executor_kind`` / ``.resilience`` say what happened.
    """
    from repro.caching.disk import disk_cache_for, get_global_disk_cache

    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    options = options or SimulationOptions()
    device = device_factory()
    policy = ExecutionPolicy(
        retry=retry_policy if retry_policy is not None else RetryPolicy.from_env(),
        workers=resolve_workers(workers),
    )
    backend_obj = resolve_backend(backend if backend is not None else options.method)
    disk_cache = disk_cache_for(cache_dir) if cache_dir is not None else None
    plan = StudyPlan(
        set_names=list(instruction_sets),
        num_circuits=len(circuits),
        error_scales=dict(error_scales or {}),
    )
    outcomes = list(
        execute_study(
            plan,
            circuits,
            device,
            instruction_sets,
            policy,
            metric=metric,
            options=options,
            sim_disk=disk_cache if disk_cache is not None else get_global_disk_cache(),
            decomposer=decomposer,
            approximate=approximate,
            use_noise_adaptivity=use_noise_adaptivity,
            pipeline=pipeline,
            compilation_cache=compilation_cache,
            disk_cache=disk_cache,
            backend=backend_obj,
        )
    )
    study = merge_study_results(application, metric_name, plan, outcomes)
    # Surface what actually executed the study.  Metadata only: rows()
    # and format_table() deliberately exclude both fields, so reports
    # stay byte-identical across executor kinds and retry histories.
    study.executor_kind = policy.executor_kind
    study.resilience = policy.counters.snapshot()
    return study
