"""Lazy, bound-driven NuOp profiles against the all-counts reference loop.

Replays every NuOp query of the cold design study: the eight benchmark
specs of ``tests/golden/design_study_compiled.json`` are compiled once
with a recording decomposer, which collects each
``decompose_approximate`` call (the study's distinct targets x its
distinct gate types and families) with the ``floor`` it was given.
The calls are then answered twice from a cold profile cache:

* **shipped** -- ``NuOpDecomposer.decompose_approximate`` as shipped,
  each instruction-set query's later gate types floored by the best
  ``F_d * F_h`` so far, as ``decompose_with_instruction_set`` does;
* **reference** -- the profile loop that optimises every layer count on
  one shared restart generator (a test-local copy), then Eq. 2 per type
  and the per-type ``+1e-12`` selection over each query.  Like the
  shipped profiles it does not optimise layers 2-3 of CZ- and
  iSWAP-class gates: it records their known optimum (``|cos t_z|`` for
  two layers, 1 for three) without parameters.

Recorded in the ``BENCH_17.json`` artifact when run with
``REPRO_BENCH_JSON=BENCH_17.json``: calls, queries, distinct profiles,
objective evaluations and wall time of both paths, how many layer counts
the shipped profiles optimised (directly, or after a query selected
them), synthesised from KAK decompositions (also split by gate),
answered in closed form (also split by form: no layer, one fixed layer,
two supercontrolled layers, one FullXY layer, one FullfSim layer) or
never examined, and how many gate types the floor pruned.  The asserts
check that every decomposition the shipped path returns, and every
query's winner, is byte-identical to the reference, except a
synthesised one, whose label, layer count and ``F_h`` must be equal and
``F_d`` within 1e-12 of the known optimum; that a pruned type would not
have won its query; that the shipped path makes no more objective
evaluations than the reference (it optimises a subset of the
reference's counts from the same restart draws); and that no objective
evaluation goes to layers 2-3 of a CZ- or iSWAP-class gate.  Wall times
are recorded, never asserted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.applications.registry import build_suite
from repro.core.decomposer import (
    LayerSolution,
    NuOpDecomposer,
    TwoQubitDecomposition,
    clear_profile_cache,
    supercontrolled_kind,
)
from repro.core.instruction_sets import google_catalogue, rigetti_catalogue
from repro.core.pipeline import compile_circuit
from repro.core.templates import TemplateSpec
from repro.devices.synthetic import synthetic_device
from repro.gates.kak import weyl_coordinates

GOLDEN = (
    Path(__file__).resolve().parents[1] / "tests" / "golden" / "design_study_compiled.json"
)


def synthesis_kind(gate):
    return None if gate is None else supercontrolled_kind(weyl_coordinates(gate.matrix))


def synthesised(solution_layers, gate):
    """Whether the shipped profile synthesises this count instead of optimising it."""
    return solution_layers in (2, 3) and synthesis_kind(gate) is not None


def reference_profile(decomposer, target, gate, family, limit):
    """The profile loop without closed forms: every count optimised in turn,
    except supercontrolled layers 2-3, recorded at their known optimum."""
    rng = np.random.default_rng(decomposer.seed)
    t_z = weyl_coordinates(target)[2]
    profile = []
    for num_layers in range(limit + 1):
        if synthesised(num_layers, gate):
            fidelity = abs(np.cos(t_z)) if num_layers == 2 else 1.0
            profile.append(LayerSolution(num_layers, fidelity, None))
        else:
            template = decomposer._make_template(num_layers, gate, family)
            fidelity, params, _ = decomposer._optimise_template(target, template, rng)
            profile.append(LayerSolution(num_layers, fidelity, params))
        if fidelity >= decomposer.exact_threshold:
            break
    return profile


def reference_approximate(profile, gate_fidelity, single_qubit_fidelity):
    """Eq. 2 over a fully optimised profile: ``(solution, F_h)``."""
    best, best_overall, best_hardware = None, -np.inf, 1.0
    for solution in profile:
        hardware = gate_fidelity**solution.num_layers
        hardware *= single_qubit_fidelity ** (2 * (solution.num_layers + 1))
        overall = solution.fidelity * hardware
        if overall > best_overall + 1e-12:
            best, best_overall, best_hardware = solution, overall, hardware
    return best, best_hardware


def keeps(best, candidate):
    """``decompose_with_instruction_set``'s rule: a later type wins by > 1e-12."""
    if candidate is None:
        return False
    return best is None or candidate.overall_fidelity > best.overall_fidelity + 1e-12


def _record_study_calls(monkeypatch):
    """Every ``decompose_approximate`` call of one cold design-study compile.

    Each call is recorded with the ``floor`` it was given: ``None`` starts
    a new instruction-set query (its first gate type, or a continuous set).
    """
    calls = []
    original = NuOpDecomposer.decompose_approximate

    def recording(self, target, gate=None, family=None, gate_fidelity=1.0,
                  single_qubit_fidelity=1.0, max_layers=None, label=None, **kwargs):
        calls.append((np.array(target), gate, family, gate_fidelity,
                      single_qubit_fidelity, max_layers, label, kwargs.get("floor")))
        return original(self, target, gate, family, gate_fidelity,
                        single_qubit_fidelity, max_layers, label, **kwargs)

    catalogues = {"google": google_catalogue(), "rigetti": rigetti_catalogue()}
    with monkeypatch.context() as patch:
        patch.setattr(NuOpDecomposer, "decompose_approximate", recording)
        clear_profile_cache()
        for spec in json.loads(GOLDEN.read_text())["specs"]:
            qubits = int(spec["num_qubits"])
            circuits = build_suite(spec["application"], qubits, 1, int(spec["seed"]))
            device = synthetic_device(max(qubits, 2), spec["topology"], seed=spec["device_seed"])
            for name in spec["sets"]:
                compile_circuit(circuits[0], device, catalogues[spec["catalogue"]][name])
    return calls


def closed_form_kind(num_layers, family):
    """Which closed form of ``closed_form_fidelity`` answered a count."""
    if num_layers == 0:
        return "none"
    if family is None:
        return "fixed_L1" if num_layers == 1 else "supercontrolled_L2"
    return {"xy": "FullXY_L1", "fsim": "FullfSim_L1"}[family]


def assert_same_decomposition(got, want):
    """Byte identity; for a synthesised count (``want`` carries no
    parameters) label, layers and ``F_h`` exactly and ``F_d`` to 1e-12."""
    assert got.num_layers == want.num_layers
    assert got.gate_type_label == want.gate_type_label
    assert got.hardware_fidelity == want.hardware_fidelity
    for mine, theirs in zip(got.hardware_gates, want.hardware_gates):
        assert mine.matrix.tobytes() == theirs.matrix.tobytes()
    if want.single_qubit_params is None:
        assert abs(got.decomposition_fidelity - want.decomposition_fidelity) < 1e-12
    else:
        assert got.decomposition_fidelity == want.decomposition_fidelity
        assert got.single_qubit_params.tobytes() == want.single_qubit_params.tobytes()


def test_bench_closed_form_profile(monkeypatch, bench_json_record):
    calls = _record_study_calls(monkeypatch)
    decomposer = NuOpDecomposer()
    evaluations = [0]
    evaluated_templates = set()
    objective = TemplateSpec.objective_with_gradient

    def counted(self, flat_params, target):
        evaluations[0] += 1
        if self.fixed_gate_matrix is not None:
            evaluated_templates.add((self.num_layers, self.fixed_gate_matrix.tobytes()))
        return objective(self, flat_params, target)

    monkeypatch.setattr(TemplateSpec, "objective_with_gradient", counted)

    # Shipped: each query's later gate types get the best so far as floor.
    clear_profile_cache()
    started = time.perf_counter()
    shipped, winners = [], []
    for target, gate, family, fh, f1q, layers, label, floor in calls:
        if floor is None:
            winners.append(None)
        else:
            floor = winners[-1].overall_fidelity
        result = decomposer.decompose_approximate(
            target, gate, family, fh, f1q, layers, label, floor=floor
        )
        shipped.append(result)
        if keeps(winners[-1], result):
            winners[-1] = result
    shipped_s = time.perf_counter() - started
    shipped_evals = evaluations[0]
    gates_by_bytes = {call[1].matrix.tobytes(): call[1] for call in calls if call[1] is not None}
    synthesis_evaluated = sorted(
        (gates_by_bytes[matrix].type_key, layers)
        for layers, matrix in evaluated_templates
        if synthesised(layers, gates_by_bytes[matrix])
    )

    def profile_key(target, gate, family, layers):
        gate_key = gate.type_key if gate is not None else f"family:{family}"
        return (decomposer._target_cache_key(target), gate_key, layers)

    # The shipped profiles as the queries left them (cache hits, no evals).
    optimised = skipped = 0
    skipped_by_form = dict.fromkeys(
        ("none", "fixed_L1", "supercontrolled_L2", "FullXY_L1", "FullfSim_L1"), 0
    )
    synthesised_by_gate = {}
    seen = set()
    for target, gate, family, _, _, layers, _, _ in calls:
        key = profile_key(target, gate, family, layers)
        if key not in seen:
            seen.add(key)
            for solution in decomposer._cached_profile(target, gate, family, layers)[1].entries:
                if synthesised(solution.num_layers, gate):
                    synthesised_by_gate[gate.type_key] = synthesised_by_gate.get(gate.type_key, 0) + 1
                    continue
                optimised += solution.parameters is not None
                if solution.parameters is None:
                    skipped += 1
                    skipped_by_form[closed_form_kind(solution.num_layers, family)] += 1
    clear_profile_cache()

    # Reference: every count of every type optimised, then Eq. 2 per type
    # and the per-type selection over each query.
    evaluations[0] = 0
    profiles = {}
    expected, kept, expected_winners = [], [], []
    started = time.perf_counter()
    for target, gate, family, fh, f1q, layers, label, floor in calls:
        key = profile_key(target, gate, family, layers)
        if key not in profiles:
            limit = decomposer.max_layers if layers is None else layers
            profiles[key] = reference_profile(decomposer, target, gate, family, limit)
        chosen, hardware = reference_approximate(profiles[key], fh, f1q)
        if chosen.parameters is None:  # synthesised in the shipped profile
            want = TwoQubitDecomposition(
                target, [gate] * chosen.num_layers, None, chosen.fidelity, hardware, label
            )
        else:
            want = decomposer._build_decomposition(target, chosen, gate, family, hardware, label)
        if floor is None:
            expected_winners.append(None)
        expected.append(want)
        kept.append(keeps(expected_winners[-1], want))
        if kept[-1]:
            expected_winners[-1] = want
    reference_s = time.perf_counter() - started
    reference_evals = evaluations[0]

    for got, want, was_kept in zip(shipped, expected, kept):
        if got is None:
            assert not was_kept  # a pruned type never wins its query
        else:
            assert_same_decomposition(got, want)
    assert len(winners) == len(expected_winners)
    for got, want in zip(winners, expected_winners):
        assert_same_decomposition(got, want)
    assert shipped_evals <= reference_evals
    assert skipped_by_form["FullfSim_L1"] > 0
    assert synthesised_by_gate  # the study's S3 and S4 sets reach layer 2
    assert synthesis_evaluated == []

    targets = {decomposer._target_cache_key(call[0]) for call in calls}
    reference_counts = sum(len(profile) for profile in profiles.values())
    synthesised_counts = sum(synthesised_by_gate.values())
    unexamined = reference_counts - optimised - synthesised_counts - skipped
    pruned = sum(result is None for result in shipped)
    forms = ", ".join(f"{kind} {count}" for kind, count in skipped_by_form.items())
    by_gate = ", ".join(f"{gate} {count}" for gate, count in sorted(synthesised_by_gate.items()))
    print(
        f"\nclosed-form profile: {len(calls)} calls in {len(winners)} queries, "
        f"{len(profiles)} profiles ({len(targets)} targets); "
        f"evals {reference_evals} -> {shipped_evals}, "
        f"wall {reference_s:.2f}s -> {shipped_s:.2f}s; "
        f"{optimised} counts optimised, {synthesised_counts} synthesised ({by_gate}), "
        f"{skipped} answered in closed form ({forms}), "
        f"{unexamined} never examined; {pruned} types pruned"
    )
    bench_json_record(
        calls=len(calls),
        queries=len(winners),
        profiles=len(profiles),
        targets=len(targets),
        reference_evals=reference_evals,
        closed_form_evals=shipped_evals,
        reference_s=round(reference_s, 4),
        closed_form_s=round(shipped_s, 4),
        reference_counts=reference_counts,
        optimised_counts=optimised,
        synthesised_counts=synthesised_counts,
        synthesised_counts_by_gate=synthesised_by_gate,
        closed_form_counts=skipped,
        closed_form_counts_by_form=skipped_by_form,
        unexamined_counts=unexamined,
        pruned_types=pruned,
    )
