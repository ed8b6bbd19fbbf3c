"""One benchmark process: set up a workload, then measure it.

``run.py`` starts every workload run as a fresh ``worker.py run`` process
and times its set-up from the outside: the worker prints ``READY`` right
before its first measured operation.  Other modes prepare state for a run:

* ``warmup``     import everything once (bytecode compile, page cache);
* ``build-pool`` cold compilation of the design study into a disk-cache dir;
* ``prep``       the design study of a seed over a copy of the design pool:
  compile entries are read, sampling runs cold and is stored.

The result of ``run`` and ``prep`` is one JSON document written to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import workloads as wl
from tracing import Tracer, add_cache_deltas, cache_stats, diff_snapshots, install

HERE = Path(__file__).resolve().parent

# Work done by a traced run is fixed, so its counts repeat exactly.
TRACED_WORK = {"design_cold": 1, "serve_warm": 200}
CLIENT_THREADS = 2
REQUEST_TIMEOUT_S = 60.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measure:
    """Shared bookkeeping of one run: units of work, checks and failures."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.units: List[List[float]] = []  # [jobs, seconds] per pass
        self.latencies_ms: List[List[float]] = []  # per-request ms, per unit
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.checks: Dict[str, bool] = {}
        self.notes: List[str] = []
        self.cache: Dict[str, Dict[str, int]] = {}
        self.study_s = 0.0
        self.window: List[Optional[Dict[str, object]]] = [None, None]
        self.client: Optional[Dict[str, list]] = None  # serve: per-request client data
        self.daemon_rss_mb: Optional[float] = None

    def begin(self) -> None:
        """Start of the measured window (tracer snapshot)."""
        if self.tracer:
            self.window[0] = self.tracer.snapshot()

    def end(self) -> None:
        if self.tracer:
            self.window[1] = self.tracer.snapshot()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"{name}: {detail}")

    def run_studies(self, studies, cache_dir: Optional[str], label: str):
        """Run each study once; returns (rows per study or None, jobs, seconds)."""
        all_rows = []
        latencies: List[float] = []
        jobs = 0
        seconds = 0.0
        for index, study in enumerate(studies):
            self.attempted += 1
            before = cache_stats() if self.tracer else None
            scope = self.tracer.trace(f"{label}/{index}") if self.tracer else nullcontext()
            start = time.perf_counter()
            try:
                with scope:
                    result = study.run(cache_dir)
            except Exception:
                self.failed += 1
                self.notes.append(traceback.format_exc(limit=3))
                all_rows.append(None)
                continue
            elapsed = time.perf_counter() - start
            if self.tracer:
                add_cache_deltas(self.cache, before, cache_stats())
            seconds += elapsed
            jobs += study.num_jobs
            latencies.append(elapsed * 1000.0)
            self.retries += int(result.resilience.get("retries", 0))
            all_rows.append(result.rows())
        self.study_s += seconds
        self.latencies_ms.append(latencies)
        return all_rows, jobs, seconds


def clear_memory_tiers() -> None:
    from repro.core.decomposer import clear_profile_cache
    from repro.experiments.engine import clear_experiment_caches

    clear_experiment_caches()
    clear_profile_cache()


def _rows_equal(measure: Measure, name: str, got, expected) -> None:
    for index, (rows, want) in enumerate(zip(got, expected)):
        if rows is None:
            continue
        measure.check(
            name, wl.rows_key(rows) == wl.rows_key(want), f"study {index} rows differ"
        )


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


def setup_design(args) -> Dict[str, object]:
    return {"studies": [wl.LibraryStudy(spec) for spec in wl.design_specs(args.seed)]}


def _until(args, units_done: int) -> bool:
    """Whether another pass is due: fixed work when traced, else the clock."""
    if args.traced_work:
        return units_done < args.traced_work
    return units_done == 0 or time.perf_counter() < args.deadline


def run_design_cold(args, ctx, measure: Measure) -> List:
    # Discarded warm-up: one small cold compile + simulate exercises every
    # lazily initialised path before the clock starts.
    warm = wl.LibraryStudy(dict(wl.design_specs(args.seed)[2], num_qubits=2, sets=["S1"]))
    warm.run(str(Path(args.tmp) / f"warmup-cache-{os.getpid()}"))
    clear_memory_tiers()
    measure.begin()
    args.deadline = time.perf_counter() + args.seconds
    first_rows = None
    passes = 0
    while _until(args, passes):
        clear_memory_tiers()
        cache_dir = str(Path(args.tmp) / f"cold-{os.getpid()}-{passes}")
        rows, jobs, seconds = measure.run_studies(ctx["studies"], cache_dir, f"cold{passes}")
        measure.units.append([jobs, seconds])
        if first_rows is None:
            first_rows = rows
        else:
            _rows_equal(measure, "cold_passes_agree", rows, first_rows)
        passes += 1
    measure.end()
    check_cold_equals_warm(args, ctx, measure, first_rows)
    return first_rows


def check_cold_equals_warm(args, ctx, measure: Measure, cold_rows) -> None:
    """Re-run the study from the first cold pass's disk tier alone.

    The memory tiers are emptied first, so every compile and sim entry must
    come from disk, and the rows must be byte-identical to the cold ones.
    """
    from repro.caching.disk import disk_cache_for

    cache_dir = str(Path(args.tmp) / f"cold-{os.getpid()}-0")
    disk = disk_cache_for(cache_dir)
    before = disk.stats()
    clear_memory_tiers()
    warm_rows, _, _ = Measure().run_studies(ctx["studies"], cache_dir, "warm")
    after = disk.stats()
    _rows_equal(measure, "cold_equals_warm", warm_rows, cold_rows)
    missed = (after["misses"] - before["misses"]) + (after["sim_misses"] - before["sim_misses"])
    measure.check("warm_reads_only_disk", missed == 0, f"{missed} disk misses")


# ---------------------------------------------------------------------------
# serve_warm: a `repro serve` daemon driven by two closed-loop clients
# ---------------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, args) -> None:
        serve_args = ["serve", "--port", "0", "--cache-dir", args.prepared]
        self.trace_path = str(Path(args.tmp) / f"daemon-trace-{os.getpid()}.json")
        if args.traced:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--trace-out", self.trace_path, *serve_args]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        self.log = open(Path(args.tmp) / f"daemon-{os.getpid()}.log", "wb")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self.log)
        line = self.process.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"daemon did not announce its address: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def submit(port: int, spec: Dict[str, object]) -> Dict[str, object]:
    """One request; returns latency, first-job time and the study/stats records."""
    from repro.service.client import submit_study

    start = time.perf_counter()
    first_job = None
    study = stats = None
    jobs = 0
    for record in submit_study(spec, port=port, timeout=REQUEST_TIMEOUT_S):
        kind = record.get("type")
        if kind == "job":
            jobs += 1
            if first_job is None:
                first_job = time.perf_counter()
        elif kind == "study":
            study = record
        elif kind == "stats":
            stats = record
    end = time.perf_counter()
    return {
        "latency_ms": (end - start) * 1000.0,
        "first_job_ms": ((first_job or end) - start) * 1000.0,
        "jobs": jobs,
        "study": study,
        "stats": stats,
        "end": end,
    }


def setup_serve(args) -> Dict[str, object]:
    import repro.service.client  # noqa: F401  (client import is part of set-up)

    with open(args.prepared_rows, encoding="utf-8") as handle:
        cold_rows = json.load(handle)["rows"]
    specs = wl.design_specs(args.seed)
    daemon = Daemon(args)
    try:
        # Loading the prepared state: the first request of each warm spec
        # reads its compile and sim entries from disk into daemon memory.
        warm_rows = [submit(daemon.port, spec)["study"]["rows"] for spec in specs]
    except BaseException:
        daemon.stop()
        raise
    return {"daemon": daemon, "specs": specs, "cold_rows": cold_rows, "warm_rows": warm_rows}


def run_serve_warm(args, ctx, measure: Measure) -> List:
    daemon: Daemon = ctx["daemon"]
    specs = ctx["specs"]
    _rows_equal(measure, "daemon_equals_library", ctx["warm_rows"], ctx["cold_rows"])
    expected = {wl.spec_key(spec): wl.rows_key(rows) for spec, rows in zip(specs, ctx["cold_rows"])}
    schedule = wl.serve_schedule(args.seed, len(specs))
    lock = threading.Lock()
    cursor = [0]
    results: List[Dict[str, object]] = []
    fresh: Dict[str, Dict[str, object]] = {}
    errors: List[str] = []
    if args.traced:
        daemon.process.send_signal(signal.SIGUSR1)  # start of the measured window
        time.sleep(0.05)
    start = time.perf_counter()
    deadline = start + args.seconds

    def client() -> None:
        while True:
            with lock:
                if args.traced_work:
                    if cursor[0] >= args.traced_work:
                        return
                elif time.perf_counter() >= deadline:
                    return
                kind, index, sim_seed = schedule[cursor[0]]
                cursor[0] += 1
            spec = specs[index] if kind == "warm" else wl.with_sim_seed(specs[index], sim_seed)
            try:
                outcome = submit(daemon.port, spec)
            except Exception as error:
                with lock:
                    errors.append(f"{type(error).__name__}: {error}")
                continue
            outcome["spec"] = spec
            outcome["kind"] = kind
            with lock:
                results.append(outcome)

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max([start] + [outcome["end"] for outcome in results])
    measure.attempted = len(results) + len(errors)
    measure.failed = len(errors)
    measure.notes.extend(errors[:5])
    jobs = 0
    latencies: List[float] = []
    for outcome in results:
        study = outcome["study"]
        if study is None or not study.get("complete"):
            measure.failed += 1
            continue
        jobs += outcome["jobs"]
        latencies.append(outcome["latency_ms"])
        got = wl.rows_key(study["rows"])
        key = wl.spec_key(outcome["spec"])
        if outcome["kind"] == "warm":
            measure.check("daemon_equals_library", got == expected[key], "warm spec rows differ")
        else:
            fresh.setdefault(key, {"spec": outcome["spec"], "rows": set()})["rows"].add(got)
    measure.units.append([jobs, end - start])
    measure.latencies_ms.append(latencies)
    measure.client = {
        "first_job_ms": [outcome["first_job_ms"] for outcome in results],
        "stats": [outcome["stats"] or {} for outcome in results],
    }
    measure.daemon_rss_mb = daemon.peak_rss_mb()
    daemon.stop()
    ctx["stopped"] = True
    # Daemon == library for the fresh-seed specs, computed here from the
    # pristine prepared copy (compile entries only; sampling runs anew).
    for entry in fresh.values():
        rows, _, _ = Measure().run_studies([wl.LibraryStudy(entry["spec"])], args.library_dir, "check")
        want = wl.rows_key(rows[0]) if rows[0] is not None else None
        measure.check(
            "daemon_equals_library",
            entry["rows"] == {want},
            f"fresh spec rows differ ({len(entry['rows'])} variants)",
        )
    return ctx["warm_rows"]


SETUPS = {
    "design_cold": setup_design,
    "serve_warm": setup_serve,
}
RUNS = {
    "design_cold": run_design_cold,
    "serve_warm": run_serve_warm,
}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def mode_run(args) -> None:
    ctx = SETUPS[args.workload](args)
    print("READY", flush=True)
    if args.probe:
        if "daemon" in ctx:
            ctx["daemon"].stop()
        return
    tracer = None
    if args.traced and args.workload != "serve_warm":
        tracer = Tracer()
        install(tracer)
    measure = Measure(tracer)
    try:
        rows = RUNS[args.workload](args, ctx, measure)
    finally:
        if "daemon" in ctx and not ctx.get("stopped"):
            ctx["daemon"].stop()
    valid = [r for r in rows if r is not None] if rows else []
    mean_2q, mean_metric = wl.row_means(valid) if valid else (0.0, 0.0)
    result = {
        "units": measure.units,
        "latencies_ms": measure.latencies_ms,
        "attempted": measure.attempted,
        "failed": measure.failed,
        "checks": measure.checks,
        "notes": measure.notes,
        "retries": measure.retries,
        "mean_2q_count": mean_2q,
        "mean_app_metric": mean_metric,
        "peak_rss_mb": measure.daemon_rss_mb or _peak_rss_mb(),
        "study_s": measure.study_s,
    }
    if args.workload == "serve_warm":
        result["client"] = measure.client
        if args.traced:
            trace_path = ctx["daemon"].trace_path
            with open(trace_path, encoding="utf-8") as handle:
                result["trace"] = json.load(handle)
            os.replace(trace_path + ".spans.jsonl", args.spans_out)
    elif tracer:
        before, after = measure.window
        result["trace"] = {"layers": diff_snapshots(before, after), "cache": measure.cache}
        tracer.write_spans(args.spans_out, since=before["num_spans"])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def mode_prep(args) -> None:
    """Design study of the seed into ``--prepared``; rows go to ``--out``."""
    studies = [wl.LibraryStudy(spec) for spec in wl.design_specs(args.seed)]
    measure = Measure()
    rows, _, _ = measure.run_studies(studies, args.prepared, "prep")
    if measure.failed:
        raise RuntimeError("preparation failed:\n" + "\n".join(measure.notes))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows}, handle)


def mode_build_pool(args) -> None:
    for spec in wl.design_specs(0):
        wl.LibraryStudy(spec).load_compiled(args.pool)


def mode_warmup(args) -> None:
    import scipy.optimize  # noqa: F401

    import repro.experiments.engine  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.server  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["run", "prep", "build-pool", "warmup"])
    parser.add_argument("--workload", choices=sorted(RUNS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tmp", help="scratch directory of this run")
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument("--prepared", help="prepared disk-cache directory")
    parser.add_argument("--prepared-rows", help="rows of the preparation run")
    parser.add_argument("--library-dir", help="pristine copy of --prepared")
    parser.add_argument("--pool", help="disk-cache directory to build the pool in")
    parser.add_argument("--spans-out", help="span JSON-lines path (traced runs)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument(
        "--fixed-work", action="store_true",
        help="do the traced runs' fixed amount of work instead of --seconds",
    )
    args = parser.parse_args(argv)
    args.traced_work = TRACED_WORK[args.workload] if args.fixed_work else 0
    modes = {"run": mode_run, "prep": mode_prep, "build-pool": mode_build_pool,
             "warmup": mode_warmup}
    modes[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
