"""Golden data for the cold instruction-set design study.

``tests/golden/design_study_compiled.json`` was captured before NuOp
answered clearly sub-exact layer counts in closed form, and recaptured
when it began synthesising layers 2-3 of CZ- and iSWAP-class gates from
KAK decompositions (which moved only the S3, G3 and R2 compiles' keys,
fingerprints, ``F_d`` and ``mean_metric``).  It pins, for the
eight specs of the benchmark's design study (seed 7): the compile-cache
key digest, compiled-circuit fingerprint, 2q count and per-operation
``F_d`` of every (instruction set, circuit) compile, and the study rows.
It also pins the quick Table I/II, Figure 6 and Figure 7 report text.
Every value must be reproduced byte for byte from a cold start.

Regenerate (only when a change is *meant* to move compiled output)::

    PYTHONPATH=src python tests/test_golden_design_study.py --write
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Dict, List

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "design_study_compiled.json"

# The benchmark's design study: 4 apps x 2 vendor catalogues, 3 sets each,
# one circuit per app, line devices; the seed only draws sampling seeds.
_APPS = (("qv", 3, "hop"), ("qaoa", 4, "xed"), ("fh", 4, "xeb"), ("qft", 3, "xeb"))
_CATALOGUES = (("google", ("S1", "G3", "FullfSim")), ("rigetti", ("S3", "R2", "FullXY")))
_SEED = 7


def design_specs(seed: int = _SEED) -> List[Dict[str, object]]:
    rng = random.Random(f"design-{seed}")
    specs = []
    for application, qubits, metric in _APPS:
        sim_seed = rng.randrange(1 << 16)
        for catalogue, sets in _CATALOGUES:
            specs.append(
                {
                    "application": application,
                    "num_qubits": qubits,
                    "num_circuits": 1,
                    "seed": 2021,
                    "metric": metric,
                    "catalogue": catalogue,
                    "sets": list(sets),
                    "topology": "line",
                    "device_seed": 7,
                    "sim_seed": sim_seed,
                }
            )
    return specs


def _study(spec: Dict[str, object]) -> Dict[str, object]:
    """Compile every (set, circuit) of ``spec`` cold, then run its study."""
    from repro.applications.registry import build_suite
    from repro.caching.disk import cache_key_digest
    from repro.circuits.hashing import circuit_fingerprint
    from repro.core.decomposer import NuOpDecomposer
    from repro.core.instruction_sets import google_catalogue, rigetti_catalogue
    from repro.core.pipeline import compilation_cache_key, compile_circuit_cached, resolve_pipeline
    from repro.devices.synthetic import synthetic_device
    from repro.experiments.engine import run_study
    from repro.experiments.runner import SimulationOptions
    from repro.metrics.hop import heavy_output_probability
    from repro.metrics.xeb import cross_entropy_difference, normalized_linear_xeb_fidelity

    metric_name, metric = {
        "hop": ("HOP", heavy_output_probability),
        "xed": ("XED", cross_entropy_difference),
        "xeb": ("XEB", normalized_linear_xeb_fidelity),
    }[spec["metric"]]
    catalogue = {"google": google_catalogue, "rigetti": rigetti_catalogue}[spec["catalogue"]]()
    sets = {name: catalogue[name] for name in catalogue if name in spec["sets"]}
    qubits = int(spec["num_qubits"])
    circuits = build_suite(
        str(spec["application"]), qubits, int(spec["num_circuits"]), int(spec["seed"])
    )

    def device_factory():
        return synthetic_device(
            max(qubits, 2), str(spec["topology"]), seed=int(spec["device_seed"])
        )

    # run_study's canonical compile order, on one fresh device.
    device = device_factory()
    decomposer = NuOpDecomposer()
    compiled_records = []
    for set_name, instruction_set in sets.items():
        for index, circuit in enumerate(circuits):
            key = compilation_cache_key(
                circuit, device, instruction_set, decomposer, True, True, True, 1.0, None,
                resolve_pipeline("default"),
            )
            compiled = compile_circuit_cached(circuit, device, instruction_set)
            compiled_records.append(
                {
                    "set": set_name,
                    "circuit": index,
                    "key": cache_key_digest(key),
                    "fingerprint": circuit_fingerprint(compiled.circuit),
                    "two_qubit_count": compiled.two_qubit_gate_count,
                    "decomposition_fidelities": [
                        float(value) for value in compiled.decomposition_fidelities
                    ],
                }
            )
    result = run_study(
        str(spec["application"]), circuits, metric_name, metric, device_factory, sets,
        options=SimulationOptions(seed=int(spec["sim_seed"])),
    )
    return {"compiled": compiled_records, "rows": result.rows()}


def _report(command: str) -> str:
    from repro import cli

    args = cli.build_parser().parse_args([command])
    return cli._FIGURE_COMMANDS[command](args)


def capture() -> Dict[str, object]:
    from repro.core.decomposer import clear_profile_cache
    from repro.experiments.engine import clear_experiment_caches

    clear_experiment_caches()
    clear_profile_cache()
    specs = design_specs()
    studies = [_study(spec) for spec in specs]
    reports = {command: _report(command) for command in ("table1", "table2", "fig6", "fig7")}
    return {"specs": specs, "studies": studies, "reports": reports}


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def captured():
    from repro.core.decomposer import clear_profile_cache
    from repro.experiments.engine import clear_experiment_caches

    yield capture()
    clear_experiment_caches()
    clear_profile_cache()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_specs_match(golden):
    assert golden["specs"] == design_specs()


@pytest.mark.parametrize("index", range(8))
def test_compiled_circuits_match(captured, golden, index):
    assert _canonical(captured["studies"][index]["compiled"]) == _canonical(
        golden["studies"][index]["compiled"]
    )


@pytest.mark.parametrize("index", range(8))
def test_study_rows_match(captured, golden, index):
    assert _canonical(captured["studies"][index]["rows"]) == _canonical(
        golden["studies"][index]["rows"]
    )


@pytest.mark.parametrize("command", ["table1", "table2", "fig6", "fig7"])
def test_report_text_matches(captured, golden, command):
    assert captured["reports"][command] == golden["reports"][command]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    data = capture()
    data = {
        "_about": (
            "Cold design study (benchmark specs, seed 7) and quick report text, "
            "captured before closed-form sub-exact NuOp layer counts and recaptured "
            "with KAK-synthesised CZ/iSWAP layers 2-3. "
            "See tests/test_golden_design_study.py."
        ),
        **data,
    }
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
