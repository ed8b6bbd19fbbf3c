"""Golden digests of the NuOp objective's value and gradient bytes.

``tests/golden/objective_digests.json`` pins, for every template family
the decomposer builds, the exact bytes :meth:`TemplateSpec.objective_with_gradient`
returns at seeded parameter points: a sha256 of the value's and the
gradient's float64 bytes per point.  A rewrite of the objective that
keeps these digests keeps every optimiser trajectory, so it may leave
``OBJECTIVE_VERSION`` as it is; one that moves a digest changes the
arithmetic and must bump it (and recapture this file).

Cases: no layer; fixed CZ, SYC and sqrt(iSWAP) at 1-3 layers; FullfSim
at 1-2 layers; FullXY at 1-3 layers; and the zero-overlap early return.

Regenerate (only when a change is *meant* to move the objective)::

    PYTHONPATH=src python tests/test_golden_objective.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.templates import TemplateSpec, continuous_family_template, fixed_gate_template
from repro.gates.standard import CZ, SQRT_ISWAP, SYC, X
from repro.gates.unitary import random_su4, random_unitary

GOLDEN_PATH = Path(__file__).parent / "golden" / "objective_digests.json"

_POINTS = 8
"""Parameter points per case: zeros, then seeded uniform draws."""


def _cases() -> Dict[str, TemplateSpec]:
    cases = {"L0": TemplateSpec(num_layers=0)}
    for name, matrix in (("cz", CZ), ("syc", SYC), ("sqrt_iswap", SQRT_ISWAP)):
        for layers in (1, 2, 3):
            cases[f"{name}_L{layers}"] = fixed_gate_template(layers, matrix)
    for layers in (1, 2):
        cases[f"fsim_L{layers}"] = continuous_family_template(layers, "fsim")
    for layers in (1, 2, 3):
        cases[f"xy_L{layers}"] = continuous_family_template(layers, "xy")
    return cases


def _points(template: TemplateSpec, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(params, target)`` pairs: SU(4) and U(4) Haar targets, mixed scales."""
    rng = np.random.default_rng(seed)
    targets = [random_su4(rng), random_unitary(4, rng)]
    points = [(np.zeros(template.num_parameters), targets[0])]
    for index in range(1, _POINTS):
        scale = np.pi if index % 3 else 10.0
        points.append((rng.uniform(-scale, scale, template.num_parameters), targets[index % 2]))
    return points


def _digest(template: TemplateSpec, params: np.ndarray, target: np.ndarray) -> str:
    value, gradient = template.objective_with_gradient(params, target)
    data = np.float64(value).tobytes() + np.asarray(gradient, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def _early_return_cases() -> Dict[str, Tuple[TemplateSpec, np.ndarray]]:
    """Points whose overlap is exactly zero (``magnitude < 1e-12``)."""
    flip = np.kron(X, np.eye(2))
    return {
        "early_return_L0": (TemplateSpec(num_layers=0), flip),
        "early_return_cz_L1": (fixed_gate_template(1, CZ), flip @ CZ),
    }


def capture() -> Dict[str, List[str]]:
    digests = {}
    for seed, (name, template) in enumerate(_cases().items()):
        digests[name] = [_digest(template, *point) for point in _points(template, seed)]
    for name, (template, target) in _early_return_cases().items():
        digests[name] = [_digest(template, np.zeros(template.num_parameters), target)]
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.fixture(scope="module")
def captured():
    return capture()


def test_cases_match(golden, captured):
    assert sorted(golden) == sorted(captured)


@pytest.mark.parametrize("name", list(_cases()) + list(_early_return_cases()))
def test_value_and_gradient_bytes_match(golden, captured, name):
    assert captured[name] == golden[name]


def test_early_return_is_taken():
    for template, target in _early_return_cases().values():
        value, gradient = template.objective_with_gradient(
            np.zeros(template.num_parameters), target
        )
        assert value == 1.0
        assert not gradient.any()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    data = {
        "_about": (
            "sha256 of TemplateSpec.objective_with_gradient value + gradient bytes "
            "at seeded points. See tests/test_golden_objective.py."
        ),
        "digests": capture(),
    }
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
