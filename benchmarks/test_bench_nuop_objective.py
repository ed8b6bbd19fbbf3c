"""NuOp objective benchmark: cost per evaluation and per optimisation.

Every NuOp optimisation evaluates
:meth:`repro.core.templates.TemplateSpec.objective_with_gradient`, so the
cold design study's compile time is evaluations x cost per evaluation.
For each template family (fixed CZ, fixed SYC, FullfSim, FullXY) and
``L = 0..4`` this records

* ``us_per_eval`` -- mean wall time of one value-and-gradient
  evaluation at a random point, and
* ``evals`` -- the exact objective-evaluation count of one seeded
  ``NuOpDecomposer._optimise_template`` call (all starts included),

plus one cold ``fidelity_profile`` run (profile cache cleared) of a
random SU(4) target into CZ, in the ``BENCH_13.json`` artifact when run
with ``REPRO_BENCH_JSON=BENCH_13.json``.

The asserts check correctness only -- the analytic gradient against
central differences at every parameter index, and the known exact layer
counts of CZ / SYC / SWAP targets into CZ and SYC.  Wall times are
recorded, never asserted.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.gate import named_gate
from repro.core.decomposer import NuOpDecomposer, clear_profile_cache
from repro.core.templates import (
    TemplateSpec,
    continuous_family_template,
    fixed_gate_template,
)
from repro.gates.standard import CZ, SWAP, SYC
from repro.gates.unitary import random_su4

FAMILIES = {
    "cz": lambda layers: fixed_gate_template(layers, CZ),
    "syc": lambda layers: fixed_gate_template(layers, SYC),
    "fsim": lambda layers: continuous_family_template(layers, "fsim"),
    "xy": lambda layers: continuous_family_template(layers, "xy"),
}
LAYERS = range(5)
TIMED_EVALS = 200

# (target, hardware gate) -> exact layer count.
EXACT_LAYERS = {
    ("cz", "cz"): 1,
    ("syc", "cz"): 3,
    ("swap", "cz"): 3,
    ("cz", "syc"): 2,
    ("syc", "syc"): 1,
    ("swap", "syc"): 3,
}
TARGETS = {"cz": CZ, "syc": SYC, "swap": SWAP}


def _max_gradient_error(template: TemplateSpec, params, target) -> float:
    _, gradient = template.objective_with_gradient(params, target)
    epsilon = 1e-6
    worst = 0.0
    for index in range(template.num_parameters):
        step = np.zeros_like(params)
        step[index] = epsilon
        up, _ = template.objective_with_gradient(params + step, target)
        down, _ = template.objective_with_gradient(params - step, target)
        worst = max(worst, abs(gradient[index] - (up - down) / (2 * epsilon)))
    return worst


def test_bench_nuop_objective(monkeypatch, bench_json_record):
    evaluations = [0]
    objective = TemplateSpec.objective_with_gradient

    def counted_objective(self, flat_params, target):
        evaluations[0] += 1
        return objective(self, flat_params, target)

    monkeypatch.setattr(TemplateSpec, "objective_with_gradient", counted_objective)
    rng = np.random.default_rng(13)
    target = random_su4(rng)
    decomposer = NuOpDecomposer()
    per_template = {}
    for family, factory in FAMILIES.items():
        for num_layers in LAYERS:
            template = factory(num_layers)
            params = rng.uniform(-np.pi, np.pi, template.num_parameters)
            gradient_error = _max_gradient_error(template, params, target)
            assert gradient_error < 1e-7, (family, num_layers, gradient_error)

            started = time.perf_counter()
            for _ in range(TIMED_EVALS):
                template.objective_with_gradient(params, target)
            us_per_eval = (time.perf_counter() - started) / TIMED_EVALS * 1e6

            evaluations[0] = 0
            fidelity, _, _ = decomposer._optimise_template(
                target, template, np.random.default_rng(decomposer.seed)
            )
            per_template[f"{family}_L{num_layers}"] = {
                "us_per_eval": round(us_per_eval, 1),
                "evals": evaluations[0],
                "fidelity": float(fidelity),
                "max_gradient_error": float(gradient_error),
            }

    cz = named_gate("cz")
    clear_profile_cache()
    evaluations[0] = 0
    started = time.perf_counter()
    profile = decomposer.fidelity_profile(target, gate=cz)
    profile_s = time.perf_counter() - started
    profile_evals = evaluations[0]

    for (target_name, gate_name), expected in EXACT_LAYERS.items():
        clear_profile_cache()
        result = decomposer.decompose_exact(TARGETS[target_name], gate=named_gate(gate_name))
        assert result.num_layers == expected, (target_name, gate_name, result.num_layers)
        assert result.decomposition_fidelity >= decomposer.exact_threshold

    print("\nNuOp objective: family  L  us/eval  evals")
    for key, row in per_template.items():
        print(f"  {key:8s} {row['us_per_eval']:8.1f} {row['evals']:6d}")
    print(
        f"cold CZ fidelity_profile: {profile_s:.3f}s, {profile_evals} evals, "
        f"{len(profile) - 1} layers max"
    )
    bench_json_record(
        per_template=per_template,
        cold_profile_s=round(profile_s, 4),
        cold_profile_evals=profile_evals,
        cold_profile_fidelities=[float(s.fidelity) for s in profile],
    )
    clear_profile_cache()
