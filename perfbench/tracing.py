"""Per-layer tracing for the benchmark, installed from outside the program.

:func:`install` replaces the public entry points of each layer with a thin
wrapper that records a span (name, start, end, parent span, trace id) and
accumulates per-layer call counts and *self* time: a span's duration minus
the time covered by the spans it caused.  Module-level functions are
patched in every ``repro.*`` module that imported them by name, so call
sites that did ``from repro.x import f`` are traced too.

Nothing here changes what the wrapped functions compute; the wrappers only
read clocks and file sizes.  Spans stay in memory and are written out once,
by :meth:`Tracer.write_spans`, after the measured work ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, layer).  Several entry points may feed one layer.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.templates", "TemplateSpec.objective_with_gradient", "core.templates.objective"),
    ("repro.core.decomposer", "NuOpDecomposer.decompose_approximate", "core.decomposer"),
    ("repro.core.decomposer", "NuOpDecomposer.decompose_exact", "core.decomposer"),
    ("repro.compiler.manager", "LayoutPass.run", "compiler.layout"),
    ("repro.compiler.manager", "RoutingPass.run", "compiler.routing"),
    ("repro.compiler.manager", "NuOpDecompositionPass.run", "compiler.nuop"),
    ("repro.compiler.manager", "SingleQubitMergePass.run", "compiler.merge-1q"),
    ("repro.core.pipeline", "compile_circuit_cached", "core.pipeline.compile"),
    ("repro.simulators.noise_program", "build_noise_program", "simulators.noise_program.build"),
    ("repro.simulators.superop", "superop_program_for", "simulators.superop.lower"),
    ("repro.simulators.superop", "apply_superop_program", "simulators.superop.kernel"),
    ("repro.simulators.sampling", "sample_counts", "simulators.sampling.sample"),
    ("repro.simulators.statevector", "ideal_probabilities", "simulators.statevector.ideal"),
    ("repro.experiments.engine", "prepare_job", "experiments.engine.prepare"),
    ("repro.experiments.engine", "fetch_cached_simulation", "experiments.engine.fetch"),
    ("repro.experiments.engine", "execute_prepared_simulation", "experiments.engine.execute"),
    ("repro.experiments.engine", "execute_prepared_batch", "experiments.engine.execute"),
    ("repro.experiments.engine", "store_simulation", "experiments.engine.store"),
    ("repro.experiments.engine", "merge_study_results", "experiments.engine.merge"),
    ("repro.circuits.hashing", "circuit_fingerprint", "circuits.hashing.fingerprint"),
    ("repro.simulators.noise_program", "NoiseProgram.fingerprint", "circuits.hashing.fingerprint"),
    ("repro.devices.device", "Device.calibration_fingerprint", "circuits.hashing.fingerprint"),
    ("repro.caching.disk", "DiskCompilationCache._read_payload", "caching.disk.read"),
    ("repro.caching.disk", "DiskCompilationCache._write_payload", "caching.disk.write"),
    ("repro.service.server", "StudyService.build_study", "service.server.build_study"),
    ("repro.service.dedup", "InFlightTable.coalesce", "service.dedup.coalesce"),
    ("repro.service.dedup", "InFlightTable.submit", "service.dedup.coalesce"),
    ("repro.service.server", "_ServiceHandler.do_POST", "service.server.request"),
)

DISK_FAMILIES = ("compile", "sim", "decomp")

_trace_id: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "perfbench_trace_id", default=None
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        # Open spans of this thread: [span_id, child_seconds].
        self.stack: List[List[float]] = []


class Tracer:
    """Span recorder and per-layer aggregator (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self.spans: List[Tuple] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.root_s = 0.0
        self.kernel_flops = 0
        self.disk: Dict[str, Dict[str, float]] = {
            family: {
                "reads": 0, "hits": 0, "read_s": 0.0, "read_bytes": 0,
                "writes": 0, "write_s": 0.0, "write_bytes": 0,
            }
            for family in DISK_FAMILIES
        }

    @contextmanager
    def trace(self, trace_id: str):
        """Label every span opened inside the block with ``trace_id``."""
        token = _trace_id.set(trace_id)
        try:
            yield
        finally:
            _trace_id.reset(token)

    def wrap(
        self,
        fn: Callable,
        layer: str,
        observe: Optional[Callable] = None,
        new_trace: bool = False,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``observe(args, kwargs, result, seconds)`` runs after a successful
        call, outside the timed interval, to record layer-specific counts.
        ``new_trace`` gives every call (a served request) its own trace id,
        shared by the spans it causes on its thread.
        """
        state = self._state
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = state.stack
            parent = int(stack[-1][0]) if stack else 0
            frame = [next(ids), 0.0]
            stack.append(frame)
            token = _trace_id.set(f"request-{frame[0]}") if new_trace else None
            trace_id = _trace_id.get()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if token is not None:
                    _trace_id.reset(token)
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    self.calls[layer] = self.calls.get(layer, 0) + 1
                    self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[1]
                    if not stack:
                        self.root_s += duration
                    self.spans.append((frame[0], parent, layer, start, end, trace_id))
            if observe is not None:
                observe(args, kwargs, result, duration)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- layer-specific observers -------------------------------------------

    def _observe_kernel(self, args, kwargs, result, seconds) -> None:
        # One tensordot per fused group: a k-qubit superoperator (4^k x 4^k)
        # contracted against the 4^n-entry density matrix costs
        # 4^k * 4^n complex multiply-adds, 8 real flops each.  Computed
        # from shapes, not measured.
        program = args[0] if args else kwargs["superop_program"]
        rho_entries = 4 ** program.num_qubits
        flops = sum(8 * 4 ** len(group.qubits) * rho_entries for group in program.groups)
        with self._lock:
            self.kernel_flops += flops

    def _observe_disk(self, direction: str) -> Callable:
        def observe(args, kwargs, result, seconds) -> None:
            path = args[1]
            family = kwargs.get("family", args[3] if len(args) > 3 else "compile")
            row = self.disk[family if family in self.disk else "compile"]
            ok = result is not None if direction == "read" else bool(result)
            size = 0
            if ok:
                try:
                    size = os.path.getsize(path)
                except OSError:
                    size = 0
            with self._lock:
                if direction == "read":
                    row["reads"] += 1
                    row["hits"] += int(ok)
                    row["read_s"] += seconds
                    row["read_bytes"] += size
                else:
                    row["writes"] += 1
                    row["write_s"] += seconds
                    row["write_bytes"] += size

        return observe

    # -- snapshots and output -------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A copy of every aggregate, for differencing two points in time."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "root_s": self.root_s,
                "kernel_flops": self.kernel_flops,
                "disk": {family: dict(row) for family, row in self.disk.items()},
                "num_spans": len(self.spans),
            }

    def write_spans(self, path: str, since: int = 0) -> None:
        """Write spans recorded after the first ``since`` as JSON lines."""
        with self._lock:
            spans = list(self.spans[since:])
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, trace_id in spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "trace": trace_id},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def diff_snapshots(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    """Aggregates accumulated between two :meth:`Tracer.snapshot` calls."""
    def sub(new: Dict, old: Dict) -> Dict:
        return {key: value - old.get(key, 0) for key, value in new.items()}

    return {
        "calls": sub(after["calls"], before["calls"]),
        "self_s": sub(after["self_s"], before["self_s"]),
        "root_s": after["root_s"] - before["root_s"],
        "kernel_flops": after["kernel_flops"] - before["kernel_flops"],
        "disk": {
            family: sub(after["disk"][family], before["disk"][family])
            for family in DISK_FAMILIES
        },
    }


def _resolve(module_name: str, attribute: str) -> Tuple[object, str, Callable]:
    module = importlib.import_module(module_name)
    owner: object = module
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYER_TARGETS` (idempotent per process)."""
    for module_name, attribute, layer in LAYER_TARGETS:
        owner, name, original = _resolve(module_name, attribute)
        if hasattr(original, "__perfbench_original__"):
            continue
        observe = None
        if layer == "simulators.superop.kernel":
            observe = tracer._observe_kernel
        elif layer == "caching.disk.read":
            observe = tracer._observe_disk("read")
        elif layer == "caching.disk.write":
            observe = tracer._observe_disk("write")
        wrapped = tracer.wrap(original, layer, observe, new_trace=layer == "service.server.request")
        setattr(owner, name, wrapped)
        if isinstance(owner, type):
            continue
        # Module-level function: rebind every `from module import name` copy.
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss counters of the in-process cache tiers the layers report."""
    from repro.core.decomposer import profile_cache_stats
    from repro.core.pipeline import global_compilation_cache
    from repro.experiments.engine import ideal_cache_stats, simulation_cache_stats
    from repro.simulators.noise_program import noise_program_cache_stats

    return {
        "profile": profile_cache_stats(),
        "compile": global_compilation_cache().stats(),
        "noise_program": noise_program_cache_stats(),
        "sim": simulation_cache_stats(),
        "ideal": ideal_cache_stats(),
    }


def add_cache_deltas(totals: Dict[str, Dict[str, int]], before, after) -> None:
    """Accumulate hit/miss deltas between two :func:`cache_stats` calls."""
    for tier, stats in after.items():
        row = totals.setdefault(tier, {"hits": 0, "misses": 0})
        for key in ("hits", "misses"):
            row[key] += stats[key] - before[tier][key]
