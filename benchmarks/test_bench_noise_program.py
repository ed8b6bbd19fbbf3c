"""Noise-program benchmark: build, lower and fingerprint, per operation.

The cold instruction-set design study (4 applications x Google {S1, G3,
FullfSim} and Rigetti {S3, R2, FullXY} on a line device, one circuit
each: 24 compiled circuits) lowers every compiled circuit into a
:class:`~repro.simulators.noise_program.NoiseProgram`, derives its fused
superoperators and fingerprints it for the simulation cache.  With the
channel memos and the noise-program cache emptied, this records

* ``build_us_per_op`` / ``lower_us_per_op`` / ``fingerprint_us_per_op``
  -- wall time of :func:`build_noise_program`, :func:`lower_noise_program`
  and :meth:`NoiseProgram.fingerprint` over all 24 programs, divided by
  their total gate count;
* ``<memo>_calls`` / ``<memo>_distinct`` -- how often the noise model
  asked each memoised channel constructor for a channel, and how many
  distinct channels were actually built,

in the ``BENCH_14.json`` artifact when run with
``REPRO_BENCH_JSON=BENCH_14.json``.

The asserts check correctness only: the 24 program fingerprints and
fused superoperators are bit-identical to those of the same programs
rebuilt with the memos bypassed (a fresh channel object per gate, so
nothing is reused), and the memos built fewer channels than they were
asked for.  Wall times are recorded, never asserted.
"""

from __future__ import annotations

import hashlib
import time

from repro.applications.registry import build_suite
from repro.core.instruction_sets import google_catalogue, rigetti_catalogue
from repro.core.pipeline import compile_circuit_cached
from repro.devices.synthetic import synthetic_device
from repro.simulators import noise_model as noise_model_module
from repro.simulators.noise import depolarizing_channel
from repro.simulators.noise_model import CHANNEL_MEMOS, relaxation_channel
from repro.simulators.noise_program import (
    build_noise_program,
    clear_noise_program_cache,
)
from repro.simulators.superop import lower_noise_program

APPLICATIONS = (("qv", 3), ("qaoa", 4), ("fh", 4), ("qft", 3))
CATALOGUES = (
    (google_catalogue, ("S1", "G3", "FullfSim")),
    (rigetti_catalogue, ("S3", "R2", "FullXY")),
)
CIRCUIT_SEED = 2021
DEVICE_SEED = 7


def _design_jobs():
    """(compiled circuit, device) of every design-study job, in study order.

    One fresh device per (application, catalogue) study, compiled in set
    order, so each device samples its calibration in the same order as
    the study does.
    """
    jobs = []
    for application, num_qubits in APPLICATIONS:
        (circuit,) = build_suite(application, num_qubits, 1, CIRCUIT_SEED)
        for catalogue_factory, names in CATALOGUES:
            catalogue = catalogue_factory()
            device = synthetic_device(max(num_qubits, 2), "line", seed=DEVICE_SEED)
            for name in names:
                compiled = compile_circuit_cached(circuit, device, catalogue[name])
                jobs.append((compiled, device))
    return jobs


class _Digests:
    """SHA-256 over program fingerprints, and over every fused group's
    (qubits, superoperator bytes), in study order."""

    def __init__(self):
        self.fingerprints = hashlib.sha256()
        self.fused_groups = hashlib.sha256()

    def update(self, fingerprint, lowered):
        self.fingerprints.update(fingerprint.encode())
        for group in lowered.groups:
            self.fused_groups.update(repr(group.qubits).encode())
            self.fused_groups.update(group.superoperator.tobytes())

    def hexdigests(self):
        return self.fingerprints.hexdigest(), self.fused_groups.hexdigest()


def _unshared_digests(jobs, monkeypatch):
    """Digests of the same programs built with the channel memos bypassed."""
    digests = _Digests()
    with monkeypatch.context() as patch:
        patch.setattr(
            noise_model_module, "depolarizing_channel", depolarizing_channel.__wrapped__
        )
        patch.setattr(noise_model_module, "relaxation_channel", relaxation_channel.__wrapped__)
        for compiled, device in jobs:
            program = build_noise_program(
                compiled.circuit, device.noise_model, list(compiled.physical_qubits)
            )
            digests.update(program.fingerprint(), lower_noise_program(program))
    return digests.hexdigests()


def test_bench_noise_program(bench_json_record, monkeypatch):
    jobs = _design_jobs()
    clear_noise_program_cache()
    assert all(memo.cache_info().currsize == 0 for memo in CHANNEL_MEMOS)

    seconds = {"build": 0.0, "lower": 0.0, "fingerprint": 0.0}
    digests = _Digests()
    operations = 0
    for compiled, device in jobs:
        started = time.perf_counter()
        program = build_noise_program(
            compiled.circuit, device.noise_model, list(compiled.physical_qubits)
        )
        built = time.perf_counter()
        lowered = lower_noise_program(program)
        lowered_at = time.perf_counter()
        fingerprint = program.fingerprint()
        done = time.perf_counter()
        seconds["build"] += built - started
        seconds["lower"] += lowered_at - built
        seconds["fingerprint"] += done - lowered_at
        operations += program.num_operations()
        digests.update(fingerprint, lowered)

    assert digests.hexdigests() == _unshared_digests(jobs, monkeypatch)

    constructors = {}
    for memo in CHANNEL_MEMOS:
        info = memo.cache_info()
        constructors[f"{memo.__name__}_calls"] = info.hits + info.misses
        constructors[f"{memo.__name__}_distinct"] = info.misses
    # The noise model asks for depolarizing channels directly and for
    # relaxation channels through the `relaxation_channel` memo.
    for name in ("depolarizing_channel", "relaxation_channel"):
        assert 0 < constructors[f"{name}_distinct"] < constructors[f"{name}_calls"], (
            name,
            constructors,
        )

    per_op = {
        f"{phase}_us_per_op": round(elapsed / operations * 1e6, 2)
        for phase, elapsed in seconds.items()
    }
    print(f"\nnoise programs: {len(jobs)} programs, {operations} operations")
    for key, value in per_op.items():
        print(f"  {key:24s} {value:8.2f}")
    for key, value in constructors.items():
        print(f"  {key:40s} {value:6d}")
    bench_json_record(
        programs=len(jobs),
        operations=operations,
        **per_op,
        **constructors,
    )
    clear_noise_program_cache()
