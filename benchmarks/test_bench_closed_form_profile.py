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
* **reference** -- the profile loop that examines every layer count in
  turn (a test-local copy): built where synthesis applies, advancing one
  shared restart generator as the optimiser would, otherwise optimised
  on it; then Eq. 2 per type and the per-type ``+1e-12`` selection over
  each query.  Each built count's ``F_d``, measured on its template, is
  checked to 1e-12 against the optimum known without building it: the
  closed form at zero and one layer, ``|cos t_z|`` at two CZ- or
  iSWAP-class layers, and 1 at three layers and at two FullXY/FullfSim
  layers inside ``x >= y + |z|``.

Recorded in the ``BENCH_17.json`` artifact when run with
``REPRO_BENCH_JSON=BENCH_17.json``: calls, queries, distinct profiles,
objective evaluations and wall time of both paths, how many layer counts
the shipped profiles optimised, built, left at their closed form (never
selected) or never examined, the built and closed-form counts split by
form (``none_L0``, ``fixed_L1``, ``cz_L2``, ``sqrt_iswap_L3``,
``FullXY_L2`` ...), how many gate types the floor pruned, and the
largest gap between a built ``F_d`` and its known optimum.  The
asserts check that every decomposition the shipped path returns, and
every query's winner, is byte-identical to the reference; that a pruned
type would not have won its query; that the shipped path makes no more
objective evaluations than the reference (it optimises a subset of the
reference's counts from the same restart draws); and that no objective
evaluation goes to a count synthesis answers.  Wall times are recorded,
never asserted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.applications.registry import build_suite
from repro.core.decomposer import LayerSolution, NuOpDecomposer, clear_profile_cache
from repro.core.instruction_sets import google_catalogue, rigetti_catalogue
from repro.core.pipeline import compile_circuit
from repro.core.synthesis import (
    closed_form_fidelity,
    gate_kind,
    matrix_key,
    synthesise,
    synthesises,
)
from repro.core.templates import TemplateSpec
from repro.devices.synthetic import synthetic_device
from repro.gates.kak import weyl_coordinates

GOLDEN = (
    Path(__file__).resolve().parents[1] / "tests" / "golden" / "design_study_compiled.json"
)


def points(target, gate):
    return weyl_coordinates(target), None if gate is None else weyl_coordinates(gate.matrix)


def form(num_layers, gate, family):
    """Name of the construction that answers a synthesised count."""
    if num_layers == 0:
        return "none_L0"
    if family is not None:
        return {"xy": "FullXY", "fsim": "FullfSim"}[family] + f"_L{num_layers}"
    kind = gate_kind(weyl_coordinates(gate.matrix)) if num_layers > 1 else "fixed"
    return f"{kind}_L{num_layers}"


def known_optimum(target_point, gate_point, family, num_layers):
    """Best ``F_d`` of a count synthesis builds, worked out without building it."""
    if num_layers < 2:
        return closed_form_fidelity(target_point, gate_point, family, num_layers)
    if num_layers == 2 and family is None:  # CZ- or iSWAP-class: t_z dropped
        return abs(np.cos(target_point[2]))
    return 1.0  # three layers, or two family layers inside x >= y + |z|


def reference_profile(decomposer, target, gate, family, limit, gaps):
    """The all-counts loop: every count in turn, built where synthesis
    applies, otherwise optimised on one shared restart generator.

    A built count's ``F_d``, measured on its template, must be its
    :func:`known_optimum` to 1e-12; each gap is appended to ``gaps``.
    """
    rng = np.random.default_rng(decomposer.seed)
    target_point, gate_point = points(target, gate)
    profile = []
    for num_layers in range(limit + 1):
        template = decomposer._make_template(num_layers, gate, family)
        if synthesises(target_point, gate_point, family, num_layers):
            fidelity, params = synthesise(target, template)
            measured = abs(np.vdot(template.unitary(params), target)) / 4.0
            optimum = known_optimum(target_point, gate_point, family, num_layers)
            gaps.append(max(abs(measured - optimum), abs(fidelity - optimum)))
            assert gaps[-1] < 1e-12, (form(num_layers, gate, family), fidelity, optimum)
            rng.random(decomposer._restart_draws(template, fidelity))
        else:
            fidelity, params, _ = decomposer._optimise_template(target, template, rng)
        profile.append(LayerSolution(num_layers, fidelity, params))
        if fidelity >= decomposer.exact_threshold:
            break
    return profile


def reference_approximate(profile, gate_fidelity, single_qubit_fidelity):
    """Eq. 2 over a fully examined profile: ``(solution, F_h)``."""
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


def assert_same_decomposition(got, want):
    assert got.num_layers == want.num_layers
    assert got.gate_type_label == want.gate_type_label
    assert got.hardware_fidelity == want.hardware_fidelity
    assert got.decomposition_fidelity == want.decomposition_fidelity
    assert got.single_qubit_params.tobytes() == want.single_qubit_params.tobytes()
    for mine, theirs in zip(got.hardware_gates, want.hardware_gates):
        assert mine.matrix.tobytes() == theirs.matrix.tobytes()


def test_bench_closed_form_profile(monkeypatch, bench_json_record):
    calls = _record_study_calls(monkeypatch)
    decomposer = NuOpDecomposer()
    evaluations = [0]
    evaluated = set()
    objective = TemplateSpec.objective_with_gradient

    def counted(self, flat_params, target):
        evaluations[0] += 1
        gate = self.fixed_gate_matrix
        gate_key = self.two_qubit_family if gate is None else gate.tobytes()
        evaluated.add((matrix_key(target), gate_key, self.num_layers))
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

    def profile_key(target, gate, family, layers):
        gate_key = gate.type_key if gate is not None else f"family:{family}"
        return (matrix_key(target), gate_key, layers)

    # The shipped profiles as the queries left them (cache hits, no evals).
    optimised = 0
    built_by_form, closed_by_form, evaluated_at_synthesis = {}, {}, []
    seen = set()
    for target, gate, family, _, _, layers, _, _ in calls:
        key = profile_key(target, gate, family, layers)
        if key in seen:
            continue
        seen.add(key)
        target_point, gate_point = points(target, gate)
        gate_key = family if gate is None else np.asarray(gate.matrix, dtype=complex).tobytes()
        for solution in decomposer._cached_profile(target, gate, family, layers)[1].entries:
            count = solution.num_layers
            if not synthesises(target_point, gate_point, family, count):
                optimised += 1
                continue
            tally = built_by_form if solution.parameters is not None else closed_by_form
            name = form(count, gate, family)
            tally[name] = tally.get(name, 0) + 1
            if (matrix_key(target), gate_key, count) in evaluated:
                evaluated_at_synthesis.append(name)
    clear_profile_cache()

    # Reference: every count of every type examined, then Eq. 2 per type
    # and the per-type selection over each query.
    evaluations[0] = 0
    profiles, gaps = {}, []
    expected, kept, expected_winners = [], [], []
    started = time.perf_counter()
    for target, gate, family, fh, f1q, layers, label, floor in calls:
        key = profile_key(target, gate, family, layers)
        if key not in profiles:
            limit = decomposer.max_layers if layers is None else layers
            profiles[key] = reference_profile(decomposer, target, gate, family, limit, gaps)
        chosen, hardware = reference_approximate(profiles[key], fh, f1q)
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
    assert evaluated_at_synthesis == []
    # The study builds one-layer FullfSim circuits, CZ/iSWAP layers 2-3
    # and sqrt(iSWAP) layer 3.
    assert built_by_form.get("FullfSim_L1", 0) > 0
    assert built_by_form.get("cz_L2", 0) > 0
    assert built_by_form.get("sqrt_iswap_L3", 0) > 0

    targets = {matrix_key(call[0]) for call in calls}
    reference_counts = sum(len(profile) for profile in profiles.values())
    built, closed = sum(built_by_form.values()), sum(closed_by_form.values())
    unexamined = reference_counts - optimised - built - closed
    pruned = sum(result is None for result in shipped)

    def listing(tally):
        return ", ".join(f"{name} {count}" for name, count in sorted(tally.items()))

    print(
        f"\nclosed-form profile: {len(calls)} calls in {len(winners)} queries, "
        f"{len(profiles)} profiles ({len(targets)} targets); "
        f"evals {reference_evals} -> {shipped_evals}, "
        f"wall {reference_s:.2f}s -> {shipped_s:.2f}s; "
        f"{optimised} counts optimised, {built} built ({listing(built_by_form)}), "
        f"{closed} left at their closed form ({listing(closed_by_form)}), "
        f"{unexamined} never examined; {pruned} types pruned; "
        f"built F_d within {max(gaps):.1e} of the known optimum"
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
        built_counts=built,
        built_counts_by_form=built_by_form,
        closed_form_counts=closed,
        closed_form_counts_by_form=closed_by_form,
        unexamined_counts=unexamined,
        pruned_types=pruned,
        built_optimum_gap=float(max(gaps)),
    )
