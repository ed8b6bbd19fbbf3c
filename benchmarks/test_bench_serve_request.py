"""Warm serve-request benchmark: what a repeated design study costs the daemon.

An in-process :class:`~repro.service.server.StudyService` serves the
instruction-set design study (4 applications x Google {S1, G3, FullfSim}
and Rigetti {S3, R2, FullXY} on a line device, one circuit each: 8 study
specs, 24 jobs).  The first pass over the 8 specs is cold (compiles and
simulates), one more pass warms the memos, then every timed request is a
warm repeat served from the memory tiers.  This records

* ``warm_request_us`` -- wall time of one warm request (build, prepare,
  fetch, stream and merge), averaged over the timed passes;
* ``build_study_us`` / ``circuit_fingerprint_us`` /
  ``calibration_fingerprint_us`` -- per-call wall time of the three
  steps a warm request repeats most, on the objects a warm request
  touches: the 8 specs, the suite and compiled circuits, and each
  study's calibrated device,

in the ``BENCH_15.json`` artifact when run with
``REPRO_BENCH_JSON=BENCH_15.json``.

The asserts check correctness only: every warm request streams rows
byte-identical to its cold request and executes nothing, and every
memoised circuit digest equals a from-scratch digest of an identical,
freshly built circuit.  Wall times are recorded, never asserted.
"""

from __future__ import annotations

import json
import time

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.hashing import circuit_fingerprint
from repro.core.pipeline import compile_circuit_cached
from repro.experiments.engine import clear_experiment_caches
from repro.service.protocol import StudySpec
from repro.service.server import StudyService

APPLICATIONS = (("qv", 3, "hop"), ("qaoa", 4, "xed"), ("fh", 4, "xeb"), ("qft", 3, "xeb"))
CATALOGUES = (("google", ("S1", "G3", "FullfSim")), ("rigetti", ("S3", "R2", "FullXY")))
CIRCUIT_SEED = 2021
DEVICE_SEED = 7
TIMED_PASSES = 10
MICRO_REPEATS = 20


def _design_specs():
    return [
        StudySpec(
            application=application,
            num_qubits=num_qubits,
            seed=CIRCUIT_SEED,
            metric=metric,
            catalogue=catalogue,
            sets=sets,
            device_seed=DEVICE_SEED,
            sim_seed=11 + index,
        )
        for index, (application, num_qubits, metric) in enumerate(APPLICATIONS)
        for catalogue, sets in CATALOGUES
    ]


def _study_rows(records):
    (study,) = [record for record in records if record["type"] == "study"]
    return json.dumps(study["rows"], sort_keys=True)


def _scratch_digest(circuit):
    fresh = QuantumCircuit(circuit.num_qubits).extend(circuit.operations)
    return circuit_fingerprint(fresh)


def _per_call_us(function, arguments):
    started = time.perf_counter()
    for _ in range(MICRO_REPEATS):
        for argument in arguments:
            function(argument)
    return round((time.perf_counter() - started) / (MICRO_REPEATS * len(arguments)) * 1e6, 2)


def test_bench_serve_request(bench_json_record, tmp_path):
    clear_experiment_caches()
    specs = _design_specs()
    service = StudyService(cache_dir=str(tmp_path))
    try:
        cold = {spec: _study_rows(service.run_study_spec(spec)) for spec in specs}
        for spec in specs:  # discarded warm-up pass
            list(service.run_study_spec(spec))

        started = time.perf_counter()
        for _ in range(TIMED_PASSES):
            for spec in specs:
                records = list(service.run_study_spec(spec))
                assert _study_rows(records) == cold[spec], spec
                assert records[-1]["executed"] == 0
        warm_request_us = (time.perf_counter() - started) / (TIMED_PASSES * len(specs)) * 1e6

        # The objects a warm request touches: suite circuits, the compiled
        # circuits the memory compile tier serves, and calibrated devices.
        circuits, devices = [], []
        for spec in specs:
            parts = service.build_study(spec)
            circuits += parts["circuits"]
            for instruction_set in parts["instruction_sets"].values():
                for circuit in parts["circuits"]:
                    compiled = compile_circuit_cached(circuit, parts["device"], instruction_set)
                    circuits.append(compiled.circuit)
            devices.append(parts["device"])

        assert len(circuits) == len(specs) * (1 + 3)
        for circuit in circuits:
            assert circuit_fingerprint(circuit) == _scratch_digest(circuit)

        timings = {
            "warm_request_us": round(warm_request_us, 2),
            "build_study_us": _per_call_us(service.build_study, specs),
            "circuit_fingerprint_us": _per_call_us(circuit_fingerprint, circuits),
            "calibration_fingerprint_us": _per_call_us(
                lambda device: device.calibration_fingerprint(), devices
            ),
        }
    finally:
        service.close()
        clear_experiment_caches()

    print(f"\nwarm serve requests: {len(specs)} specs x {TIMED_PASSES} passes")
    for key, value in timings.items():
        print(f"  {key:28s} {value:10.2f}")
    bench_json_record(specs=len(specs), timed_requests=TIMED_PASSES * len(specs), **timings)
