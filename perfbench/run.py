"""Toolflow benchmark of the instruction-set study stack.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): ``design_cold`` and ``serve_warm``.  Every run starts fresh worker processes
(``worker.py``) with one BLAS/OpenMP thread and checks the program's
outputs.  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run of fixed size.

This script uses only the standard library; scratch files, traces and the
compiled design pool live under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("design_cold", "serve_warm")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0

# Counts that must repeat exactly between two traced runs of one seed.  On
# serve_warm, disk sim reads and writes also depend on whether the second
# submission of a fresh spec coalesces in flight, lands between the memory
# and the disk store (a backfill write), or arrives after both; they are
# exact on the library workloads only.
SERVE_TIMING_DEPENDENT = ("caching.disk.sim.reads", "caching.disk.sim.writes")
EXACT_COUNTS = (
    "core.templates.objective_evals",
    "core.decomposer.decompose_calls",
    "simulators.noise_program.build_calls",
    "simulators.superop.kernel_calls",
    "circuits.hashing.fingerprint_calls",
) + tuple(
    f"caching.disk.{family}.{kind}"
    for family in ("compile", "sim", "decomp")
    for kind in ("reads", "writes")
)


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    """Environment of every child: pinned threads, no inherited repro knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


class Runner:
    """Starts worker processes and enforces one deadline over all of them."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.env = worker_env()
        self.count = 0

    def _remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("benchmark time budget exhausted")
        return remaining

    def start(self, argv: List[str]) -> Tuple[subprocess.Popen, Path]:
        self.count += 1
        log = self.tmp / f"child-{self.count}.log"
        with open(log, "wb") as handle:
            process = subprocess.Popen(
                [sys.executable, str(WORKER), *argv],
                cwd=str(ROOT), env=self.env, stdout=subprocess.PIPE, stderr=handle,
            )
        return process, log

    def finish(self, process: subprocess.Popen, log: Path) -> None:
        try:
            process.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise BenchmarkError(f"worker timed out: {process.args[2:]}")
        if process.returncode != 0:
            tail = log.read_text(errors="replace")[-3000:]
            raise BenchmarkError(f"worker {process.args[2:]} failed:\n{tail}")

    def call(self, argv: List[str]) -> None:
        process, log = self.start(argv)
        self.finish(process, log)

    def timed_setup(self, argv: List[str]) -> float:
        """Run a worker; return seconds from its start until it printed READY."""
        start = time.perf_counter()
        process, log = self.start(argv)
        watchdog = threading.Timer(self._remaining(), process.kill)
        watchdog.start()
        try:
            line = process.stdout.readline()
        finally:
            watchdog.cancel()
        setup_s = time.perf_counter() - start
        self.finish(process, log)
        if line.strip() != b"READY":
            raise BenchmarkError(f"worker {argv} never became ready")
        return setup_s


def source_digest() -> str:
    """Digest of the program sources and the study definition."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_pool(runner: Runner, state: Path) -> Path:
    """Compile entries of the design study, built cold once per source tree."""
    pool = state / f"design-pool-{source_digest()}"
    if not pool.is_dir():
        staging = Path(tempfile.mkdtemp(prefix="pool-", dir=state))
        runner.call(["build-pool", "--pool", str(staging)])
        os.replace(staging, pool)
    return pool


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def request_percentile(result: Dict, pct: int) -> float:
    """Median over passes of the pass's request-latency percentile.

    A library pass runs each study once, and the studies differ in cost by
    up to 10x, so pooled percentiles would sit on the gap between two study
    types; within a pass they interpolate between neighbours instead.  The
    serve workload reports one unit, all of its requests.
    """
    return statistics.median(percentile(unit, pct) for unit in result["latencies_ms"] if unit)


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def jobs_per_s(result: Dict) -> float:
    units = result["units"]
    return sum(jobs for jobs, _ in units) / sum(seconds for _, seconds in units)


def count_unit(name: str) -> str:
    return "count" if name in SERVE_TIMING_DEPENDENT else "exact-count"


def layer_metrics(untraced: Dict, traced: Dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run (self times, counts, hit ratios)."""
    layers = traced["trace"]["layers"]
    cache = traced["trace"]["cache"]
    calls, self_s = layers["calls"], layers["self_s"]

    def cache_ratio(tier: str) -> float:
        row = cache.get(tier, {"hits": 0, "misses": 0})
        return ratio(row["hits"], row["hits"] + row["misses"])

    m: Dict[str, Tuple[float, str]] = {
        "core.templates.objective_evals": (calls.get("core.templates.objective", 0), "exact-count"),
        "core.templates.objective_s": (self_s.get("core.templates.objective", 0.0), "s"),
        "core.decomposer.decompose_calls": (calls.get("core.decomposer", 0), "exact-count"),
        "core.decomposer.s": (self_s.get("core.decomposer", 0.0), "s"),
        "core.decomposer.profile_hit_ratio": (cache_ratio("profile"), "ratio"),
    }
    for name in ("layout", "routing", "nuop", "merge-1q"):
        m[f"compiler.{name}.s"] = (self_s.get(f"compiler.{name}", 0.0), "s")
    m["core.pipeline.compile_s"] = (self_s.get("core.pipeline.compile", 0.0), "s")
    m["core.pipeline.compile_hit_ratio"] = (cache_ratio("compile"), "ratio")
    m["simulators.noise_program.build_calls"] = (
        calls.get("simulators.noise_program.build", 0), "exact-count")
    m["simulators.noise_program.build_s"] = (
        self_s.get("simulators.noise_program.build", 0.0), "s")
    m["simulators.noise_program.hit_ratio"] = (cache_ratio("noise_program"), "ratio")
    m["simulators.superop.lower_s"] = (self_s.get("simulators.superop.lower", 0.0), "s")
    m["simulators.superop.kernel_calls"] = (
        calls.get("simulators.superop.kernel", 0), "exact-count")
    m["simulators.superop.kernel_s"] = (self_s.get("simulators.superop.kernel", 0.0), "s")
    m["simulators.superop.kernel_flops"] = (layers["kernel_flops"], "computed-flop")
    m["simulators.sampling.sample_s"] = (self_s.get("simulators.sampling.sample", 0.0), "s")
    m["simulators.statevector.ideal_s"] = (self_s.get("simulators.statevector.ideal", 0.0), "s")
    for phase in ("prepare", "fetch", "execute", "store", "merge"):
        m[f"experiments.engine.{phase}_s"] = (self_s.get(f"experiments.engine.{phase}", 0.0), "s")
    m["experiments.engine.sim_hit_ratio"] = (cache_ratio("sim"), "ratio")
    m["experiments.engine.ideal_hit_ratio"] = (cache_ratio("ideal"), "ratio")
    m["circuits.hashing.fingerprint_calls"] = (
        calls.get("circuits.hashing.fingerprint", 0), "exact-count")
    m["circuits.hashing.fingerprint_s"] = (self_s.get("circuits.hashing.fingerprint", 0.0), "s")
    reads = hits = 0
    for family, row in layers["disk"].items():
        reads += row["reads"]
        hits += row["hits"]
        prefix = f"caching.disk.{family}"
        m[f"{prefix}.reads"] = (row["reads"], count_unit(f"{prefix}.reads"))
        m[f"{prefix}.read_s"] = (row["read_s"], "s")
        m[f"{prefix}.read_bytes"] = (row["read_bytes"], "B")
        m[f"{prefix}.writes"] = (row["writes"], count_unit(f"{prefix}.writes"))
        m[f"{prefix}.write_s"] = (row["write_s"], "s")
        m[f"{prefix}.write_bytes"] = (row["write_bytes"], "B")
    m["caching.disk.hit_ratio"] = (ratio(hits, reads), "ratio")
    m["service.server.build_study_s"] = (self_s.get("service.server.build_study", 0.0), "s")
    client = traced.get("client")
    first_job = statistics.median(client["first_job_ms"]) if client else 0.0
    m["service.client.first_job_ms"] = (first_job, "ms")
    stats = client["stats"] if client else []
    for key in ("executed", "coalesced", "from_memory", "from_disk"):
        m[f"service.server.{key}"] = (sum(int(s.get(key, 0)) for s in stats), "count")
    m["service.dedup.coalesce_wait_s"] = (self_s.get("service.dedup.coalesce", 0.0), "s")
    retries = traced["retries"] + sum(int(s.get("retries", 0)) for s in stats)
    m["resilience.retries"] = (retries, "count")
    m["trace.jobs_per_s_untraced"] = (jobs_per_s(untraced), "1/s")
    m["trace.jobs_per_s_traced"] = (jobs_per_s(traced), "1/s")
    if client:
        unattributed = self_s.get("service.server.request", 0.0)
    else:
        unattributed = traced["study_s"] - layers["root_s"]
    m["trace.unattributed_s"] = (unattributed, "s")
    return m


def rows_complete(result: Dict) -> bool:
    """Every study produced rows with gates and a finite score."""
    return result["mean_2q_count"] > 0 and math.isfinite(result["mean_app_metric"])


def measure(args, state: Path, tmp: Path) -> Dict:
    runner = Runner(tmp)
    runner.call(["warmup"])  # discarded: bytecode compile and page cache
    base = ["run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--tmp", str(tmp)]
    copies = [0]

    def fresh_copy(flag: str) -> List[str]:
        # Daemons and the daemon-vs-library check write new sampling results
        # into their cache dir, so each gets its own copy of the prepared one.
        copies[0] += 1
        target = tmp / f"cache-copy-{copies[0]}"
        shutil.copytree(tmp / "prepared", target)
        return [flag, str(target)]

    serving = args.workload == "serve_warm"
    if serving:
        shutil.copytree(ensure_pool(runner, state), tmp / "prepared")
        rows_path = tmp / "prepared-rows.json"
        runner.call(["prep", "--seed", str(args.seed), "--prepared", str(tmp / "prepared"),
                     "--out", str(rows_path)])
        base += ["--prepared-rows", str(rows_path)]

    def cache_args(probe: bool = False) -> List[str]:
        if not serving:
            return []
        return fresh_copy("--prepared") + ([] if probe else fresh_copy("--library-dir"))

    def worker(tag: str, extra: List[str]) -> Tuple[float, Dict]:
        out = tmp / f"{tag}.json"
        setup_s = runner.timed_setup(base + ["--out", str(out)] + extra + cache_args())
        with open(out, encoding="utf-8") as handle:
            return setup_s, json.load(handle)

    if not args.trace:
        setups = [runner.timed_setup(base + ["--probe"] + cache_args(probe=True))
                  for _ in range(SETUP_PROBES)]
        setup_s, result = worker("run", [])
        setups.append(setup_s)
        results = [result]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (jobs_per_s(result), "1/s"),
            "request_p50_ms": (request_percentile(result, 50), "ms"),
            "request_p90_ms": (request_percentile(result, 90), "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "mean_2q_count": (result["mean_2q_count"], "gates"),
            "mean_app_metric": (result["mean_app_metric"], "score"),
        }
        correct = True
    else:
        fixed = ["--fixed-work"]
        _, untraced = worker("untraced", fixed)
        spans = str(state / f"spans-{args.workload}.jsonl")
        _, traced = worker("traced-1", fixed + ["--traced", "--spans-out", spans])
        _, again = worker("traced-2", fixed + ["--traced", "--spans-out", spans + ".2"])
        results = [untraced, traced, again]
        metrics = layer_metrics(untraced, traced)
        repeat = layer_metrics(untraced, again)
        correct = True
        for name in EXACT_COUNTS:
            if serving and name in SERVE_TIMING_DEPENDENT:
                continue
            if metrics[name][0] != repeat[name][0]:
                correct = False
                print(f"perfbench: exact count {name} differs between traced runs: "
                      f"{metrics[name][0]} vs {repeat[name][0]}", file=sys.stderr)
        os.replace(spans + ".2", spans + ".repeat")
    for result in results:
        for name, ok in result["checks"].items():
            if not ok:
                correct = False
                print(f"perfbench: output check {name} failed", file=sys.stderr)
        for note in result["notes"]:
            print(f"perfbench: {note}", file=sys.stderr)
        if not rows_complete(result):
            correct = False
            print("perfbench: incomplete study rows", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Toolflow benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under src/repro; nothing to measure",
              file=sys.stderr)
        return 2
    state = ROOT / ".bench_build" / "perfbench"
    state.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state))
    try:
        result = measure(args, state, tmp)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
