"""Calibration-fingerprint benchmark: a memo hit against the full formula.

The design-study device states are a fresh line device (seed 7) after
each gate-type registration the perfbench design study makes, in study
order (4 applications x Google/Rigetti sets; the registration logs and
their digests are the golden data in
``tests/golden/calibration_digests.json``).  This records

* ``memo_hit_us`` -- per-call wall time of
  ``Device.calibration_fingerprint`` with the process-wide memo warm;
* ``formula_us`` -- per-call wall time of ``_calibration_digest``, the
  unmemoised formula that fills the memo,

in the ``BENCH_16.json`` artifact when run with
``REPRO_BENCH_JSON=BENCH_16.json``.

The asserts check equality only: on every state the memoised digest, the
formula and the golden digest agree.  Wall times are recorded, never
asserted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.devices.device import _calibration_digest
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "calibration_digests.json"
DEVICE_SEED = 7
REPEATS = 200


def _design_states():
    """``(device, golden digest)`` for every design-study device state."""
    states = []
    for study in json.loads(GOLDEN.read_text())["design"]:
        steps = [(None, None, study["fresh"])] + study["steps"]
        for count in range(len(steps)):
            device = synthetic_device(study["num_qubits"], "line", seed=DEVICE_SEED)
            for type_key, scale, _ in steps[1 : count + 1]:
                device.register_gate_type(type_key, scale=scale)
            states.append((device, steps[count][2]))
    return states


def _per_call_us(function, devices):
    started = time.perf_counter()
    for _ in range(REPEATS):
        for device in devices:
            function(device)
    return round((time.perf_counter() - started) / (REPEATS * len(devices)) * 1e6, 3)


def test_bench_calibration_fingerprint(bench_json_record):
    clear_experiment_caches()
    try:
        states = _design_states()
        for device, golden in states:
            assert device.calibration_fingerprint() == golden
            assert _calibration_digest(device) == golden
        devices = [device for device, _ in states]
        timings = {
            "memo_hit_us": _per_call_us(lambda device: device.calibration_fingerprint(), devices),
            "formula_us": _per_call_us(_calibration_digest, devices),
        }
    finally:
        clear_experiment_caches()

    print(f"\ncalibration fingerprint: {len(devices)} design-study device states")
    for key, value in timings.items():
        print(f"  {key:14s} {value:10.3f}")
    bench_json_record(states=len(devices), **timings)
