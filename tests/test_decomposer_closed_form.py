"""Closed forms and built circuits of NuOp layer counts.

Contracts under test (:mod:`repro.core.synthesis`, :mod:`repro.core.decomposer`):

* **soundness** -- on 100 Haar targets per catalogue gate type (the 12
  distinct Table II matrices), FullXY and FullfSim, every closed form is
  at least the default optimiser's value minus 1e-9, and so is every
  built deeper count; one layer of a gate that is not its own mirror
  image has no closed form;
* **synthesis** -- the circuit built for a closed-form count has that
  ``F_d`` to 1e-12; two CZ/iSWAP-class layers give ``|cos t_z|`` and
  three rebuild the target to 1e-10; the two-sqrt(iSWAP) middle hits
  points of ``x >= y + |z|`` to 1e-8; three sqrt(iSWAP)-class layers
  (fixed, FullXY, FullfSim) and two FullXY / FullfSim layers inside the
  region reach ``F_d >= 1 - 1e-10``; a target no signed placement of
  the gate splits is optimised at three layers, not built;
* **reachability** -- on 10 targets per type a 60-restart optimiser
  reaches every closed form to 1e-8; where the default optimiser sits in
  a local minimum (one ``xy(2pi/3)`` and one FullfSim target), a query
  now gets the closed form's circuit;
* **near-exact counts** -- counts whose closed-form infidelity is ~1e-3
  (the near-miss band) or ~1e-7 (near exact) are built at once and
  advance the generator as the optimiser would;
* **bit identity** -- profiles and ``decompose_approximate`` /
  ``decompose_exact`` match the reference loop below (every count in
  turn: built where synthesis applies, otherwise optimised on one shared
  generator) byte for byte;
* **cache bookkeeping** -- building a selected count writes the LRU
  without counting a hit or miss, and ``clear_profile_cache`` empties
  the KAK memo.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.circuits.gate import fsim_gate
from repro.core import synthesis as synthesis_module
from repro.core.decomposer import (
    LayerSolution,
    NuOpDecomposer,
    clear_profile_cache,
    profile_cache_stats,
)
from repro.core.gate_types import all_google_types, google_gate_type, rigetti_gate_type
from repro.core.synthesis import (
    closed_form_fidelity,
    gate_kind,
    in_sqrt_iswap_region,
    synthesise,
    synthesises,
)
from repro.core.templates import continuous_family_template, fixed_gate_template
from repro.experiments.engine import clear_experiment_caches
from repro.gates.kak import canonical_unitary, weyl_coordinates
from repro.gates.parametric import canonical_gate, cphase, fsim, rzz, xy
from repro.gates.unitary import random_su4, random_unitary

CATALOGUE_GATES = [gate_type.gate for gate_type in all_google_types().values()] + [
    rigetti_gate_type(label).gate for label in ("S2", "S4", "S5", "S6")
]
"""The 12 distinct gate matrices of the Table II catalogue (fSim, CZ, SWAP, XY)."""

TYPES = [(gate, None) for gate in CATALOGUE_GATES] + [(None, "xy"), (None, "fsim")]
TYPE_IDS = [gate.type_key for gate in CATALOGUE_GATES] + ["FullXY", "FullfSim"]
SQRT_ISWAP_TYPES = {
    "S2": (google_gate_type("S2").gate, None),
    "rigetti-S2": (rigetti_gate_type("S2").gate, None),
    "FullXY": (None, "xy"),
    "FullfSim": (None, "fsim"),
}


def gate_point(gate):
    return None if gate is None else weyl_coordinates(gate.matrix)


def reference_profile(decomposer, target, gate, family, limit):
    """The all-counts loop: every count in turn, built where synthesis
    applies (advancing the shared generator as the optimiser would for
    that value), otherwise optimised on that generator."""
    rng = np.random.default_rng(decomposer.seed)
    target_point, point = weyl_coordinates(target), gate_point(gate)
    profile = []
    for num_layers in range(limit + 1):
        template = decomposer._make_template(num_layers, gate, family)
        if synthesises(target_point, point, family, num_layers):
            fidelity, params = synthesise(target, template)
            rng.random(decomposer._restart_draws(template, fidelity))
        else:
            fidelity, params, _ = decomposer._optimise_template(target, template, rng)
        profile.append(LayerSolution(num_layers, fidelity, params))
        if fidelity >= decomposer.exact_threshold:
            break
    return profile


def reference_approximate(profile, gate_fidelity, single_qubit_fidelity=1.0):
    """Eq. 2 over a fully examined profile: ``(solution, F_h)``."""
    best, best_overall, best_hardware = None, -np.inf, 1.0
    for solution in profile:
        hardware = gate_fidelity**solution.num_layers
        hardware *= single_qubit_fidelity ** (2 * (solution.num_layers + 1))
        overall = solution.fidelity * hardware
        if overall > best_overall + 1e-12:
            best, best_overall, best_hardware = solution, overall, hardware
    return best, best_hardware


def assert_same_decomposition(got, want):
    assert got.num_layers == want.num_layers
    assert got.decomposition_fidelity == want.decomposition_fidelity
    assert got.hardware_fidelity == want.hardware_fidelity
    assert got.single_qubit_params.tobytes() == want.single_qubit_params.tobytes()
    for mine, theirs in zip(got.hardware_gates, want.hardware_gates):
        assert mine.matrix.tobytes() == theirs.matrix.tobytes()


def haar_targets(count, seed):
    rng = np.random.default_rng(seed)
    return [random_su4(rng) for _ in range(count)]


def dressed(point, seed):
    """``canonical_gate(*point)`` between random single-qubit layers."""
    rng = np.random.default_rng(seed)

    def local():
        return np.kron(random_unitary(2, rng), random_unitary(2, rng))

    return local() @ canonical_gate(*point) @ local()


def template_for(gate, family, num_layers):
    if family is not None:
        return continuous_family_template(num_layers, family)
    return fixed_gate_template(num_layers, gate.matrix)


def default_optimum(decomposer, target, gate, family, num_layers):
    template = decomposer._make_template(num_layers, gate, family)
    fidelity, _, _ = decomposer._optimise_template(
        target, template, np.random.default_rng(decomposer.seed)
    )
    return fidelity


def built_counts(gate, family):
    """Layer counts beyond one that this type builds for every target."""
    kind = "sqrt_iswap" if family is not None else gate_kind(gate_point(gate))
    return {"cz": (2, 3), "iswap": (2, 3), "sqrt_iswap": (3,)}.get(kind, ())


def rebuild_error(unitary, target):
    """Largest entry of ``unitary - target`` after removing the global phase."""
    overlap = np.vdot(unitary, target)
    return float(np.abs(unitary * (overlap / abs(overlap)) - target).max())


FACE_POINTS = [
    (0.0, 0.0, 0.0),
    (np.pi / 4, 0.0, 0.0),
    (np.pi / 4, np.pi / 4, 0.0),
    (np.pi / 4, np.pi / 4, np.pi / 4),
    (np.pi / 8, np.pi / 8, 0.0),
    (np.pi / 4, np.pi / 4, np.pi / 24),
    (0.4, 0.0, 0.0),
    (0.5, 0.3, -0.3),
    (np.pi / 4, 0.3, 0.1),
    (0.5, 0.3, 0.2),
    (1e-6, 0.0, 0.0),
]
"""Chamber faces and edges: identity, CZ, iSWAP, SWAP, sqrt(iSWAP), SYC and others."""

STRUCTURED_TARGETS = {
    "cphase": cphase(0.7),
    "rzz": rzz(0.4),
    "fsim": fsim(0.9, 0.3),
}


@pytest.fixture(autouse=True)
def _cold_profiles():
    clear_profile_cache()
    yield
    clear_profile_cache()


class TestSoundness:
    def test_no_layer_closed_form_is_at_least_the_optimiser(self):
        decomposer = NuOpDecomposer()
        worst = np.inf
        for target in haar_targets(100, seed=100):
            bound = closed_form_fidelity(weyl_coordinates(target), None, None, 0)
            optimum = default_optimum(decomposer, target, None, None, 0)
            worst = min(worst, bound - optimum)
        assert worst >= -1e-9

    @pytest.mark.parametrize("gate, family", TYPES, ids=TYPE_IDS)
    def test_closed_forms_are_at_least_the_optimiser(self, gate, family):
        decomposer = NuOpDecomposer()
        point = gate_point(gate)
        worst = np.inf
        for target in haar_targets(100, seed=101):
            bound = closed_form_fidelity(weyl_coordinates(target), point, family, 1)
            optimum = default_optimum(decomposer, target, gate, family, 1)
            worst = min(worst, bound - optimum)
        assert worst >= -1e-9

    @pytest.mark.parametrize("name", ["S3", "S4", "S2", "FullXY"])
    def test_built_counts_are_at_least_the_optimiser(self, name):
        gate, family = (None, "xy") if name == "FullXY" else (google_gate_type(name).gate, None)
        decomposer = NuOpDecomposer()
        worst = np.inf
        for target in haar_targets(40, seed=104):
            for num_layers in built_counts(gate, family):
                built, _ = synthesise(target, template_for(gate, family, num_layers))
                optimum = default_optimum(decomposer, target, gate, family, num_layers)
                worst = min(worst, built - optimum)
        assert worst >= -1e-9

    def test_deeper_counts_have_no_closed_form(self):
        point = weyl_coordinates(haar_targets(1, seed=3)[0])
        for gate, family in TYPES:
            assert closed_form_fidelity(point, gate_point(gate), family, 2) is None

    def test_one_layer_reaches_every_class_of_its_family(self):
        for theta, phi in np.random.default_rng(8).uniform(-np.pi, np.pi, (20, 2)):
            fsim_point = weyl_coordinates(fsim(theta, phi))
            xy_point = weyl_coordinates(xy(theta))
            assert closed_form_fidelity(fsim_point, None, "fsim", 1) == pytest.approx(1.0, abs=1e-12)
            assert closed_form_fidelity(xy_point, None, "xy", 1) == pytest.approx(1.0, abs=1e-12)

    def test_mirror_asymmetric_gate_has_no_one_layer_form(self):
        """``fsim(0.9, 0.5)`` sits at ``(0.45, 0.45, -0.125)``, off both faces
        where a point equals its mirror image.  The 8-sign maximum would
        credit it with its mirror's reach (0.983 on this target, where 20
        restarts find 0.933), so one layer is optimised, not built."""
        gate = fsim_gate(0.9, 0.5)
        point = gate_point(gate)
        target = haar_targets(2, seed=107)[1]
        target_point = weyl_coordinates(target)
        assert closed_form_fidelity(target_point, point, None, 1) is None
        assert not synthesises(target_point, point, None, 1)
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        every_sign = max(
            abs(np.trace(canonical_unitary(target_point - s * point))) / 4 for s in signs
        )
        template = fixed_gate_template(1, gate.matrix)
        assert many_restart_optimum(template, target, every_sign, restarts=20) < every_sign - 0.04
        profile = NuOpDecomposer(max_layers=1).fidelity_profile(target, gate=gate)
        assert profile[1].parameters is not None


def many_restart_optimum(template, target, goal, restarts=60, seed=11):
    """Best value of up to ``restarts`` random starts, stopping at ``goal``."""
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(restarts):
        result = minimize(
            lambda flat: template.objective_with_gradient(flat, target),
            template.initial_parameters(rng),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 250, "ftol": 1e-14, "gtol": 1e-10},
        )
        best = max(best, 1.0 - float(result.fun))
        if best >= goal:
            break
    return best


class TestReachability:
    @pytest.mark.parametrize("gate, family", TYPES, ids=TYPE_IDS)
    def test_many_restart_optimiser_reaches_the_closed_forms(self, gate, family):
        decomposer = NuOpDecomposer()
        point = gate_point(gate)
        for target in haar_targets(10, seed=102):
            target_point = weyl_coordinates(target)
            for num_layers in (0, 1):
                bound = closed_form_fidelity(target_point, point, family, num_layers)
                template = decomposer._make_template(num_layers, gate, family)
                assert many_restart_optimum(template, target, bound - 1e-8) >= bound - 1e-8

    def check_local_minimum(self, target, gate, family, bound, stuck_by, gate_fidelity):
        """The default optimiser stops ``stuck_by`` short of the one-layer
        closed form; a query selecting that count gets the built circuit,
        with ``F_d`` the closed form, and the reference decomposition."""
        decomposer = NuOpDecomposer()
        profile = decomposer.fidelity_profile(target, gate=gate, family=family)
        assert profile[1].parameters is None
        assert profile[1].fidelity == pytest.approx(bound, abs=1e-12)
        template = decomposer._make_template(1, gate, family)
        rng = np.random.default_rng(decomposer.seed)
        rng.random(profile[1].rng_offset)  # where the optimiser would start
        stuck, _, _ = decomposer._optimise_template(target, template, rng)
        assert bound - stuck > stuck_by
        assert many_restart_optimum(template, target, bound - 1e-8) >= bound - 1e-8

        reference = reference_profile(decomposer, target, gate, family, decomposer.max_layers)
        chosen, hardware = reference_approximate(reference, gate_fidelity)
        assert chosen.num_layers == 1
        result = decomposer.decompose_approximate(
            target, gate=gate, family=family, gate_fidelity=gate_fidelity
        )
        want = decomposer._build_decomposition(target, chosen, gate, family, hardware, None)
        assert_same_decomposition(result, want)
        assert abs(result.decomposition_fidelity - bound) < 1e-12
        assert abs(result.verify() - bound) < 1e-12

    def test_xy_two_thirds_pi_local_minimum(self):
        target = random_su4(np.random.default_rng(24))
        gate = rigetti_gate_type("S5").gate
        self.check_local_minimum(target, gate, None, 0.9710691620301352, 0.1, 0.95)

    def test_fsim_local_minimum(self):
        target = random_su4(np.random.default_rng(28))
        self.check_local_minimum(target, None, "fsim", 0.9892274102077399, 0.04, 0.97)


class TestNearExactCounts:
    @pytest.mark.parametrize("infidelity", [1e-3, 1e-7])
    def test_near_exact_one_layer_is_built(self, infidelity):
        gate = google_gate_type("S3").gate
        angle = float(np.arccos(1.0 - infidelity))
        # One CZ layer reaches (pi/4, angle, 0) to cos(angle).
        target = dressed((np.pi / 4, angle, 0.0), seed=5)
        bound = closed_form_fidelity(weyl_coordinates(target), gate_point(gate), None, 1)
        assert 1.0 - bound == pytest.approx(infidelity, rel=1e-6)
        decomposer = NuOpDecomposer()
        profile = decomposer.fidelity_profile(target, gate=gate)
        reference = reference_profile(decomposer, target, gate, None, decomposer.max_layers)
        assert profile[0].parameters is None  # far from exact: closed form only
        assert profile[1].parameters is not None
        assert abs(profile[1].fidelity - bound) < 1e-12
        # Two CZ layers reach (pi/4, angle, 0) exactly.
        assert len(profile) == len(reference) == (2 if infidelity < 1e-6 else 3)
        if infidelity > 1e-6:
            # A near miss: random starts plus confirmation restarts.
            starts = 1 + decomposer.confirmation_restarts
            assert profile[2].rng_offset - profile[1].rng_offset == starts * 12
        for mine, theirs in zip(profile[1:], reference[1:]):
            assert mine.fidelity == theirs.fidelity
            assert mine.parameters.tobytes() == theirs.parameters.tobytes()


class TestSynthesis:
    GATES = {
        "S3": google_gate_type("S3").gate,
        "S4": google_gate_type("S4").gate,
        "rigetti-S4": rigetti_gate_type("S4").gate,
    }

    @pytest.mark.parametrize("gate, family", TYPES, ids=TYPE_IDS)
    def test_closed_form_counts_reach_their_closed_form(self, gate, family):
        point = gate_point(gate)
        targets = haar_targets(30, seed=108) + list(STRUCTURED_TARGETS.values())
        targets += [dressed(p, seed=7) for p in FACE_POINTS]
        for target in targets:
            target_point = weyl_coordinates(target)
            for num_layers in (0, 1):
                template = template_for(gate, family, num_layers)
                fidelity, params = synthesise(target, template)
                bound = closed_form_fidelity(target_point, point, family, num_layers)
                assert abs(fidelity - bound) < 1e-12
                assert abs(abs(np.vdot(template.unitary(params), target)) / 4 - bound) < 1e-12

    @pytest.mark.parametrize("name", list(GATES))
    def test_two_layers_drop_tz_and_three_are_exact(self, name):
        gate = self.GATES[name]
        assert gate_kind(gate_point(gate)) in ("cz", "iswap")
        targets = haar_targets(100, seed=105) + list(STRUCTURED_TARGETS.values())
        targets += [dressed(point, seed=6) for point in FACE_POINTS]
        for target in targets:
            t_z = weyl_coordinates(target)[2]
            template = fixed_gate_template(2, gate.matrix)
            fidelity, params = synthesise(target, template)
            assert abs(fidelity - abs(np.cos(t_z))) < 1e-12
            assert abs(abs(np.vdot(template.unitary(params), target)) / 4 - fidelity) < 1e-15
            template = fixed_gate_template(3, gate.matrix)
            fidelity, params = synthesise(target, template)
            assert rebuild_error(template.unitary(params), target) < 1e-10
            assert fidelity >= 1.0 - 1e-12

    def test_two_sqrt_iswap_middle_hits_region_points(self):
        square_root = canonical_unitary((np.pi / 8, np.pi / 8, 0.0))
        rng = np.random.default_rng(109)
        points = list(FACE_POINTS)
        while len(points) < 1000:
            x = rng.uniform(0, np.pi / 4) * rng.choice([1.0, 1e-3, 1e-6])
            y = rng.uniform(0, x)
            z = rng.uniform(-y, y)
            points.append((x, y, z))
        points = [p for p in points if in_sqrt_iswap_region(p) and p[1] >= abs(p[2])]
        points = [p for p in points if not (p[0] == np.pi / 4 and p[2] < 0)]
        assert len(points) > 500
        for point in points:
            first, second = synthesis_module._sqrt_iswap_middle(np.array(point))
            product = square_root @ np.kron(first, second) @ square_root
            assert np.abs(weyl_coordinates(product) - point).max() < 1e-8, point

    @pytest.mark.parametrize("name", list(SQRT_ISWAP_TYPES))
    def test_three_sqrt_iswap_layers_are_exact(self, name):
        gate, family = SQRT_ISWAP_TYPES[name]
        template = template_for(gate, family, 3)
        targets = haar_targets(100, seed=110) + list(STRUCTURED_TARGETS.values())
        targets += [dressed(point, seed=8) for point in FACE_POINTS]
        for target in targets:
            assert synthesises(weyl_coordinates(target), gate_point(gate), family, 3)
            fidelity, params = synthesise(target, template)
            assert fidelity >= 1.0 - 1e-10
            assert rebuild_error(template.unitary(params), target) < 1e-7

    def test_three_sqrt_iswap_layers_without_a_placement_are_optimised(self, monkeypatch):
        """A target no placement splits falls back to L-BFGS-B, not an error."""
        monkeypatch.setattr(synthesis_module, "_SQRT_ISWAP_IMAGES", [])
        gate = google_gate_type("S2").gate
        target = dressed((0.6, 0.5, 0.3), seed=113)  # outside x >= y + |z|
        assert not synthesises(weyl_coordinates(target), gate_point(gate), None, 3)
        clear_profile_cache()
        profile = NuOpDecomposer(max_layers=3).fidelity_profile(target, gate=gate)
        assert len(profile) == 4 and profile[3].parameters is not None
        assert profile[3].fidelity >= 1.0 - 1e-6
        clear_profile_cache()

    @pytest.mark.parametrize("family", ["xy", "fsim"])
    def test_two_family_layers_inside_the_region_are_exact(self, family):
        """Haar targets outside the region are moved in by halving ``y`` and ``z``."""
        template = continuous_family_template(2, family)
        for index, target in enumerate(haar_targets(100, seed=112)):
            point = weyl_coordinates(target)
            assert synthesises(point, None, family, 2) == in_sqrt_iswap_region(point)
            if not in_sqrt_iswap_region(point):
                target = dressed((point[0], point[1] / 2, point[2] / 2), seed=index)
            fidelity, _ = synthesise(target, template)
            assert fidelity >= 1.0 - 1e-10

    @pytest.mark.parametrize("infidelity", [1e-3, 1e-7])
    @pytest.mark.parametrize("label", ["S3", "S4"])
    def test_near_exact_layer_two_is_built(self, label, infidelity):
        # Two layers of a supercontrolled gate reach (x, y, angle) to cos(angle).
        gate = google_gate_type(label).gate
        angle = float(np.arccos(1.0 - infidelity))
        target = dressed((0.6, 0.4, angle), seed=5)
        decomposer = NuOpDecomposer()
        profile = decomposer.fidelity_profile(target, gate=gate)
        assert profile[0].parameters is None  # far from exact: closed form only
        assert 1.0 - profile[2].fidelity == pytest.approx(infidelity, rel=1e-6)
        # 1e-7 is within the exact threshold, so the profile stops at two layers.
        exact_at = 2 if infidelity < 1.0 - decomposer.exact_threshold else 3
        assert len(profile) == exact_at + 1
        assert profile[-1].fidelity >= decomposer.exact_threshold

    @pytest.mark.parametrize("label", ["S3", "S2"])
    def test_built_profiles_evaluate_nothing(self, monkeypatch, label):
        """CZ profiles are built throughout; sqrt(iSWAP) optimises layer 2 only."""
        from repro.core.templates import TemplateSpec

        layers_evaluated = set()
        objective = TemplateSpec.objective_with_gradient

        def counted(self, flat_params, target):
            layers_evaluated.add(self.num_layers)
            return objective(self, flat_params, target)

        monkeypatch.setattr(TemplateSpec, "objective_with_gradient", counted)
        gate = google_gate_type(label).gate
        target = haar_targets(1, seed=106)[0]
        decomposer = NuOpDecomposer()
        profile = decomposer.fidelity_profile(target, gate=gate)
        assert [entry.num_layers for entry in profile] == [0, 1, 2, 3]
        assert layers_evaluated == (set() if label == "S3" else {2})
        for below, entry in zip(profile, profile[1:]):
            template = decomposer._make_template(below.num_layers, gate, None)
            draws = entry.rng_offset - below.rng_offset
            if below.num_layers != 2 or label == "S3":
                assert draws == decomposer._restart_draws(template, below.fidelity)


BIT_IDENTITY_TARGETS = dict(
    STRUCTURED_TARGETS, **{f"haar{i}": t for i, t in enumerate(haar_targets(2, seed=103))}
)
GATE_FIDELITIES = (1.0, 0.999, 0.99, 0.97, 0.9, 0.8, 0.6)


class TestBitIdentity:
    @pytest.mark.parametrize("gate, family", TYPES, ids=TYPE_IDS)
    def test_profile_and_queries_match_the_reference_loop(self, gate, family):
        decomposer = NuOpDecomposer()
        for name, target in BIT_IDENTITY_TARGETS.items():
            clear_profile_cache()
            reference = reference_profile(decomposer, target, gate, family, decomposer.max_layers)
            profile = decomposer.fidelity_profile(target, gate=gate, family=family)
            assert len(profile) == len(reference), name
            for mine, theirs in zip(profile, reference):
                if mine.parameters is None:  # closed form, built on selection
                    assert abs(mine.fidelity - theirs.fidelity) < 1e-12, name
                else:
                    assert mine.fidelity == theirs.fidelity, name
                    assert mine.parameters.tobytes() == theirs.parameters.tobytes(), name
            for gate_fidelity in GATE_FIDELITIES:
                chosen, hardware = reference_approximate(reference, gate_fidelity)
                want = decomposer._build_decomposition(target, chosen, gate, family, hardware, None)
                got = decomposer.decompose_approximate(
                    target, gate=gate, family=family, gate_fidelity=gate_fidelity
                )
                assert_same_decomposition(got, want)
            for threshold in (None, 0.99, 0.9):
                got = decomposer.decompose_exact(
                    target, gate=gate, family=family, fidelity_threshold=threshold
                )
                floor = decomposer.exact_threshold if threshold is None else threshold
                chosen = next(
                    (item for item in reference if item.fidelity >= floor),
                    max(reference, key=lambda item: item.fidelity),
                )
                want = decomposer._build_decomposition(target, chosen, gate, family, 1.0, None)
                assert_same_decomposition(got, want)


class TestCacheBookkeeping:
    def test_selected_count_is_written_back_without_counting(self):
        gate = rigetti_gate_type("S5").gate
        target = random_su4(np.random.default_rng(24))
        decomposer = NuOpDecomposer()
        before = profile_cache_stats()
        decomposer.decompose_approximate(target, gate=gate, gate_fidelity=0.95)
        after = profile_cache_stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] == before["hits"]
        assert after["entries"] == 1
        profile = decomposer.fidelity_profile(target, gate=gate)
        assert profile[1].parameters is not None
        assert profile_cache_stats()["hits"] == after["hits"] + 1

    def test_clear_profile_cache_empties_the_kak_memo(self):
        decomposer = NuOpDecomposer(max_layers=1)
        target = haar_targets(1, seed=4)[0]
        decomposer.decompose_exact(target, gate=CATALOGUE_GATES[0])
        assert len(synthesis_module._KAK_CACHE) == 3  # target, gate and image
        clear_profile_cache()
        assert len(synthesis_module._KAK_CACHE) == 0

    def test_clear_experiment_caches_empties_the_nuop_tiers(self):
        decomposer = NuOpDecomposer(max_layers=1)
        decomposer.decompose_exact(haar_targets(1, seed=4)[0], gate=CATALOGUE_GATES[0])
        assert profile_cache_stats()["entries"] == 1
        clear_experiment_caches()
        assert profile_cache_stats()["entries"] == 0
        assert len(synthesis_module._KAK_CACHE) == 0

    def test_counts_record_generator_offsets(self):
        decomposer = NuOpDecomposer()
        gate = CATALOGUE_GATES[2]
        profile = decomposer.fidelity_profile(haar_targets(1, seed=6)[0], gate=gate)
        sizes = [
            decomposer._make_template(layers, gate, None).num_parameters
            for layers in range(len(profile))
        ]
        # Every CZ count is built: one random start per count (no near
        # misses here), as the optimiser would have drawn.
        offsets = [solution.rng_offset for solution in profile]
        assert offsets == list(np.cumsum([0] + sizes[:-1]))
