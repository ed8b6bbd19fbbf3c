"""Bound-driven NuOp profiles and cross-type pruning.

Contracts under test (:mod:`repro.core.decomposer`,
:mod:`repro.core.noise_adaptive`):

* **lazy == eager** -- a profile examines layer counts only as far as a
  query needs them, yet every ``decompose_approximate`` and
  ``decompose_exact`` result is byte-identical to the test-local loop
  that examines every count in turn (built where synthesis applies,
  advancing one shared restart generator as the optimiser would,
  otherwise optimised on it), followed by Eq. 2 or the exact rule.
  Queries run in shuffled orders on a cold cache, so profiles are
  extended by several queries; after a partial set of queries
  ``fidelity_profile()`` completes each profile to the loop's counts,
  generator offsets and values;
* **cross-type pruning** -- ``decompose_with_instruction_set`` floors
  each later gate type at the best ``F_d * F_h`` so far; the chosen
  label, parameters and ``F_h`` match the unpruned per-type loop under
  random per-edge fidelities and exact ties, and a type Eq. 2 rules out
  from its bounds is not examined further.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposer import LayerSolution, NuOpDecomposer, clear_profile_cache
from repro.core.gate_types import all_google_types, rigetti_gate_type
from repro.core.instruction_sets import google_instruction_set, rigetti_instruction_set
from repro.core.noise_adaptive import decompose_with_instruction_set
from repro.core.synthesis import synthesise, synthesises
from repro.core.templates import TemplateSpec
from repro.gates.kak import weyl_coordinates
from repro.gates.parametric import cphase
from repro.gates.standard import CZ
from repro.gates.unitary import random_su4

CATALOGUE_GATES = [gate_type.gate for gate_type in all_google_types().values()] + [
    rigetti_gate_type(label).gate for label in ("S2", "S4", "S5", "S6")
]
TYPES = [(gate, None) for gate in CATALOGUE_GATES] + [(None, "xy"), (None, "fsim")]
GATE_FIDELITIES = (1.0, 0.999, 0.99, 0.95)
SINGLE_QUBIT_FIDELITIES = (1.0, 0.998)
THRESHOLDS = (1.0 - 1e-6, 0.99)


def all_counts_profile(decomposer, target, gate, family):
    """Every count in turn, with offsets: built where synthesis applies
    (advancing the shared generator as the optimiser would), otherwise
    optimised on that generator."""
    rng = np.random.default_rng(decomposer.seed)
    target_point = weyl_coordinates(target)
    gate_point = None if gate is None else weyl_coordinates(gate.matrix)
    profile, offset = [], 0
    for num_layers in range(decomposer.max_layers + 1):
        template = decomposer._make_template(num_layers, gate, family)
        if synthesises(target_point, gate_point, family, num_layers):
            fidelity, params = synthesise(target, template)
            draws = decomposer._restart_draws(template, fidelity)
            rng.random(draws)
        else:
            fidelity, params, draws = decomposer._optimise_template(target, template, rng)
        profile.append(LayerSolution(num_layers, fidelity, params, offset))
        offset += draws
        if fidelity >= decomposer.exact_threshold:
            break
    return profile


def eq2(profile, gate_fidelity, single_qubit_fidelity):
    """Eq. 2 with the decomposer's 1e-12 tie rule: ``(solution, F_h)``."""
    best, best_overall, best_hardware = None, -np.inf, 1.0
    for solution in profile:
        hardware = gate_fidelity**solution.num_layers
        hardware *= single_qubit_fidelity ** (2 * (solution.num_layers + 1))
        overall = solution.fidelity * hardware
        if overall > best_overall + 1e-12:
            best, best_overall, best_hardware = solution, overall, hardware
    return best, best_hardware


def first_meeting(profile, threshold):
    return next(
        (solution for solution in profile if solution.fidelity >= threshold),
        max(profile, key=lambda solution: solution.fidelity),
    )


def assert_same_decomposition(got, want):
    assert got.num_layers == want.num_layers
    assert got.gate_type_label == want.gate_type_label
    assert got.decomposition_fidelity == want.decomposition_fidelity
    assert got.hardware_fidelity == want.hardware_fidelity
    assert got.single_qubit_params.tobytes() == want.single_qubit_params.tobytes()
    for mine, theirs in zip(got.hardware_gates, want.hardware_gates):
        assert mine.matrix.tobytes() == theirs.matrix.tobytes()


@pytest.fixture(autouse=True)
def _cold_profiles():
    clear_profile_cache()
    yield
    clear_profile_cache()


class TestLazyEqualsEager:
    TARGETS = [random_su4(np.random.default_rng(31)), cphase(0.7)]

    @pytest.fixture(scope="class")
    def references(self):
        decomposer = NuOpDecomposer()
        return {
            (index, type_index): all_counts_profile(decomposer, target, gate, family)
            for index, target in enumerate(self.TARGETS)
            for type_index, (gate, family) in enumerate(TYPES)
        }

    def queries(self):
        """Every (target, type) x Eq. 2 setting and exact threshold."""
        items = []
        for index in range(len(self.TARGETS)):
            for type_index in range(len(TYPES)):
                for fh in GATE_FIDELITIES:
                    for f1q in SINGLE_QUBIT_FIDELITIES:
                        items.append((index, type_index, "approximate", (fh, f1q)))
                for threshold in THRESHOLDS:
                    items.append((index, type_index, "exact", threshold))
        return items

    def check_query(self, decomposer, references, query):
        index, type_index, mode, setting = query
        target = self.TARGETS[index]
        gate, family = TYPES[type_index]
        reference = references[(index, type_index)]
        if mode == "approximate":
            fh, f1q = setting
            got = decomposer.decompose_approximate(
                target, gate=gate, family=family, gate_fidelity=fh, single_qubit_fidelity=f1q
            )
            chosen, hardware = eq2(reference, fh, f1q)
        else:
            got = decomposer.decompose_exact(
                target, gate=gate, family=family, fidelity_threshold=setting
            )
            chosen, hardware = first_meeting(reference, setting), 1.0
        want = decomposer._build_decomposition(target, chosen, gate, family, hardware, None)
        assert_same_decomposition(got, want)

    def check_profiles(self, decomposer, references):
        for (index, type_index), reference in references.items():
            gate, family = TYPES[type_index]
            profile = decomposer.fidelity_profile(
                self.TARGETS[index], gate=gate, family=family
            )
            assert [s.num_layers for s in profile] == [s.num_layers for s in reference]
            offsets = [solution.rng_offset for solution in profile]
            assert offsets == [solution.rng_offset for solution in reference]
            assert offsets == sorted(offsets)
            for mine, theirs in zip(profile, reference):
                if mine.parameters is None:  # closed form, built on selection
                    assert abs(mine.fidelity - theirs.fidelity) < 1e-12
                else:
                    assert mine.fidelity == theirs.fidelity
                    assert mine.parameters.tobytes() == theirs.parameters.tobytes()

    @pytest.mark.parametrize("order_seed", [0, 1])
    def test_shuffled_queries_match_the_all_counts_loop(self, references, order_seed):
        decomposer = NuOpDecomposer()
        queries = self.queries()
        np.random.default_rng(order_seed).shuffle(queries)
        half = len(queries) // 2
        for query in queries[:half]:
            self.check_query(decomposer, references, query)
        self.check_profiles(decomposer, references)
        for query in queries[half:]:
            self.check_query(decomposer, references, query)

    def test_queries_examine_only_what_they_need(self):
        """A noisy CZ query stops short of the counts the full profile holds."""
        decomposer = NuOpDecomposer()
        target = self.TARGETS[0]
        gate = rigetti_gate_type("S3").gate
        decomposer.decompose_approximate(target, gate=gate, gate_fidelity=0.5)
        partial = decomposer._cached_profile(target, gate, None, None)[1]
        assert not partial.complete
        assert len(partial.entries) < len(decomposer.fidelity_profile(target, gate=gate))


def unpruned(decomposer, target, instruction_set, fidelities, single_qubit_fidelity):
    """The per-type loop of ``decompose_with_instruction_set`` without a floor."""
    best = None
    for gate_type in instruction_set.gate_types:
        candidate = decomposer.decompose_approximate(
            target,
            gate=gate_type.gate,
            gate_fidelity=fidelities[gate_type.type_key],
            single_qubit_fidelity=single_qubit_fidelity,
            label=gate_type.label,
        )
        if best is None or candidate.overall_fidelity > best.overall_fidelity + 1e-12:
            best = candidate
    return best


CROSS_TYPE_SETS = {
    "G3": google_instruction_set("G3"),
    "R2": rigetti_instruction_set("R2"),
    "Aspen-8 CZ+XY(pi)": rigetti_instruction_set("R1"),
}


class TestCrossTypePruning:
    @pytest.mark.parametrize("name", list(CROSS_TYPE_SETS))
    def test_random_edge_fidelities_match_the_unpruned_loop(self, name):
        instruction_set = CROSS_TYPE_SETS[name]
        decomposer = NuOpDecomposer()
        rng = np.random.default_rng(41)
        for _ in range(4):
            target = random_su4(rng)
            fidelities = {key: float(rng.uniform(0.9, 1.0)) for key in instruction_set.type_keys()}
            f1q = float(rng.uniform(0.995, 1.0))
            got = decompose_with_instruction_set(
                decomposer, target, instruction_set, fidelities, single_qubit_fidelity=f1q
            )
            want = unpruned(decomposer, target, instruction_set, fidelities, f1q)
            assert_same_decomposition(got, want)

    @pytest.mark.parametrize("name", list(CROSS_TYPE_SETS))
    def test_exact_ties_keep_the_first_type(self, name):
        """A near-local target ties every type at layer 0 bit for bit."""
        instruction_set = CROSS_TYPE_SETS[name]
        decomposer = NuOpDecomposer()
        fidelities = {key: 0.9 for key in instruction_set.type_keys()}
        target = cphase(1e-3)
        got = decompose_with_instruction_set(decomposer, target, instruction_set, fidelities)
        want = unpruned(decomposer, target, instruction_set, fidelities, 1.0)
        assert_same_decomposition(got, want)
        assert got.num_layers == 0
        assert got.gate_type_label == instruction_set.gate_types[0].label

    def test_ruled_out_type_makes_no_objective_evaluation(self, monkeypatch):
        """A CZ target on an edge where CZ is good and XY(pi) is poor.

        One CZ layer is built, so neither type evaluates the objective;
        XY(pi) stops at its floor without building anything."""
        instruction_set = CROSS_TYPE_SETS["Aspen-8 CZ+XY(pi)"]
        cz_key, xy_key = instruction_set.type_keys()
        evaluations = [0]
        objective = TemplateSpec.objective_with_gradient

        def counted(self, flat_params, target):
            evaluations[0] += 1
            return objective(self, flat_params, target)

        per_call = []
        approximate = NuOpDecomposer.decompose_approximate

        def recording(self, *args, **kwargs):
            before = evaluations[0]
            result = approximate(self, *args, **kwargs)
            per_call.append((kwargs["label"], result, evaluations[0] - before))
            return result

        monkeypatch.setattr(TemplateSpec, "objective_with_gradient", counted)
        monkeypatch.setattr(NuOpDecomposer, "decompose_approximate", recording)
        decomposer = NuOpDecomposer()
        fidelities = {cz_key: 0.99, xy_key: 0.5}
        chosen = decompose_with_instruction_set(decomposer, CZ, instruction_set, fidelities)
        assert chosen.gate_type_label == "S3"
        assert chosen.num_layers == 1
        (cz_label, cz_result, cz_evals), (xy_label, xy_result, xy_evals) = per_call
        assert (cz_label, xy_label) == ("S3", "S4")
        assert cz_result is chosen and cz_evals == 0
        assert xy_result is None and xy_evals == 0
        xy_gate = instruction_set.gate_types[1].gate
        xy_profile = decomposer._cached_profile(CZ, xy_gate, None, None)[1]
        assert all(entry.parameters is None for entry in xy_profile.entries)
        assert unpruned(decomposer, CZ, instruction_set, fidelities, 1.0).gate_type_label == "S3"
