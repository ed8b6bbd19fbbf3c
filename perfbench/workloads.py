"""Inputs of the benchmark workloads, generated from the workload seed.

Every study is described by a ``repro serve`` study-spec dict, so the
library workloads and the daemon see the same inputs.  :class:`LibraryStudy`
materialises a spec for :func:`repro.experiments.engine.run_study` the way
the daemon's ``StudyService.build_study`` does; the serve workload checks
that both produce the same rows.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

# The paper's four applications with the metric each is scored by.
DESIGN_APPS: Tuple[Tuple[str, int, str], ...] = (
    ("qv", 3, "hop"),
    ("qaoa", 4, "xed"),
    ("fh", 4, "xeb"),
    ("qft", 3, "xeb"),
)
# Discrete sets plus each vendor's continuous family (Table II).
DESIGN_CATALOGUES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("google", ("S1", "G3", "FullfSim")),
    ("rigetti", ("S3", "R2", "FullXY")),
)

# Circuits and device calibration are fixed: together they set the compiled
# output and the NuOp cost, so every seed compiles the same study and its
# compile entries can be prepared once per source tree.  The workload seed
# draws the sampling seeds (and the serve traffic).
CIRCUIT_SEED = 2021
DEVICE_SEED = 7

# serve_warm traffic: share of schedule slots that carry a fresh sampling
# seed (submitted by both clients back to back); the rest repeat warm specs.
FRESH_SHARE = 0.05
SCHEDULE_SLOTS = 20000
FRESH_SIM_SEED_BASE = 1 << 20


def design_specs(seed: int) -> List[Dict[str, object]]:
    """The instruction-set study: 4 apps x 2 vendor catalogues, 3 sets each."""
    rng = random.Random(f"design-{seed}")
    specs = []
    for application, qubits, metric in DESIGN_APPS:
        sim_seed = rng.randrange(1 << 16)
        for catalogue, sets in DESIGN_CATALOGUES:
            specs.append(
                {
                    "application": application,
                    "num_qubits": qubits,
                    "num_circuits": 1,
                    "seed": CIRCUIT_SEED,
                    "metric": metric,
                    "catalogue": catalogue,
                    "sets": list(sets),
                    "topology": "line",
                    "device_seed": DEVICE_SEED,
                    "sim_seed": sim_seed,
                }
            )
    return specs


def serve_schedule(seed: int, num_warm: int) -> List[Tuple[str, int, int]]:
    """Request slots ``(kind, warm_spec_index, sim_seed)``.

    ``kind`` is ``"warm"`` (repeat the warm spec) or ``"fresh"`` (the warm
    spec with a sampling seed no earlier request used).

    A fresh slot is followed by a second slot with the same spec, so the
    two client threads submit it back to back.
    """
    rng = random.Random(f"serve-{seed}")
    slots: List[Tuple[str, int, int]] = []
    while len(slots) < SCHEDULE_SLOTS:
        index = rng.randrange(num_warm)
        if rng.random() < FRESH_SHARE:
            fresh_seed = FRESH_SIM_SEED_BASE + len(slots)
            slots.append(("fresh", index, fresh_seed))
            slots.append(("fresh", index, fresh_seed))
        else:
            slots.append(("warm", index, 0))
    return slots


def with_sim_seed(spec: Dict[str, object], sim_seed: int) -> Dict[str, object]:
    return dict(spec, sim_seed=sim_seed)


def spec_key(spec: Dict[str, object]) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def rows_key(rows: Sequence[Dict[str, object]]) -> str:
    """Canonical bytes of study rows, for byte-identity checks."""
    return json.dumps(list(rows), sort_keys=True, separators=(",", ":"))


def row_means(all_rows: Sequence[Sequence[Dict[str, object]]]) -> Tuple[float, float]:
    """Mean two-qubit gate count and mean application metric over rows."""
    flat = [row for rows in all_rows for row in rows]
    count = sum(float(row["mean_2q_count"]) for row in flat) / len(flat)
    metric = sum(float(row["mean_metric"]) for row in flat) / len(flat)
    return count, metric


class LibraryStudy:
    """One spec materialised for ``run_study`` (mirrors the daemon's build)."""

    def __init__(self, spec: Dict[str, object]) -> None:
        from repro.applications.registry import build_suite
        from repro.core.instruction_sets import google_catalogue, rigetti_catalogue
        from repro.devices.synthetic import synthetic_device
        from repro.experiments.runner import SimulationOptions
        from repro.metrics.hop import heavy_output_probability
        from repro.metrics.xeb import (
            cross_entropy_difference,
            normalized_linear_xeb_fidelity,
        )

        metrics = {
            "hop": ("HOP", heavy_output_probability),
            "xed": ("XED", cross_entropy_difference),
            "xeb": ("XEB", normalized_linear_xeb_fidelity),
        }
        catalogue = {"google": google_catalogue, "rigetti": rigetti_catalogue}[
            spec["catalogue"]
        ]()
        wanted = set(spec["sets"])
        qubits = int(spec["num_qubits"])
        topology = str(spec["topology"])
        device_seed = int(spec["device_seed"])
        self.spec = spec
        self.application = str(spec["application"])
        self.metric_name, self.metric = metrics[str(spec["metric"])]
        self.instruction_sets = {name: catalogue[name] for name in catalogue if name in wanted}
        self.circuits = build_suite(
            self.application, qubits, int(spec["num_circuits"]), int(spec["seed"])
        )
        self.device_factory = lambda: synthetic_device(
            max(qubits, 2), topology, seed=device_seed
        )
        self.options = SimulationOptions(seed=int(spec["sim_seed"]))
        self.num_jobs = len(self.instruction_sets) * len(self.circuits)

    def run(self, cache_dir: Optional[str]):
        """``run_study`` of this spec, with ``cache_dir`` as the disk tier."""
        from repro.experiments.engine import run_study

        return run_study(
            self.application,
            self.circuits,
            self.metric_name,
            self.metric,
            self.device_factory,
            self.instruction_sets,
            options=self.options,
            cache_dir=cache_dir,
        )

    def load_compiled(self, cache_dir: str) -> None:
        """Promote this study's compile entries from disk into memory.

        Compiles in ``run_study``'s canonical order on a fresh device, so
        the later memory hits replay the same calibration draws.
        """
        from repro.caching.disk import disk_cache_for
        from repro.core.pipeline import compile_circuit_cached

        disk = disk_cache_for(cache_dir)
        device = self.device_factory()
        for instruction_set in self.instruction_sets.values():
            for circuit in self.circuits:
                compile_circuit_cached(circuit, device, instruction_set, disk_cache=disk)
