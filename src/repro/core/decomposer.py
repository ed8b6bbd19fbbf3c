"""NuOp: numerical-optimisation gate decomposition (Section V of the paper).

Given a target two-qubit application unitary and a hardware gate type,
NuOp builds template circuits with a growing number of entangling layers
(:mod:`repro.core.templates`), optimises the interleaved single-qubit
rotations with L-BFGS-B (scipy's Fortran-derived routine, driven directly
by :func:`minimise_lbfgsb`) to maximise the decomposition fidelity ``F_d``
(Eq. 1), and selects the decomposition that satisfies the requested
fidelity threshold (exact mode) or maximises ``F_d * F_h`` (approximate /
noise-aware mode, Eq. 2).

The expensive part -- the per-layer-count optimisation -- depends only on
the target unitary and the hardware gate type, so results are cached and
re-used across qubit pairs and across circuits.  A profile examines layer
counts in ascending order and only as far as a query needs them: Eq. 2
cannot pick a deeper count once ``F_h`` alone rules it out.  Wherever the
best circuit of a count is known -- zero and one layer of every type,
deeper counts of CZ-, iSWAP- and sqrt(iSWAP)-class gates -- it is built
instead of optimised (:mod:`repro.core.synthesis`); a clearly sub-exact
count keeps only its closed-form ``F_d`` and is built when a query
selects it.  This module holds the profiles and Eq. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize._lbfgsb import setulb

from repro.caching.lru import register_cache
from repro.circuits.circuit import Operation, QuantumCircuit
from repro.circuits.gate import Gate, fsim_gate, u3_gate, xy_gate
from repro.core.synthesis import (
    clear_kak_cache,
    closed_form_fidelity,
    matrix_key,
    memoised_kak,
    synthesise,
    synthesises,
)
from repro.core.templates import (
    TemplateSpec,
    continuous_family_template,
    fixed_gate_template,
)
from repro.gates.unitary import hilbert_schmidt_fidelity, nearest_kronecker_product

EXACT_FIDELITY_THRESHOLD = 1.0 - 1e-6
"""Decomposition fidelity treated as numerically exact (paper uses 1e-6..1e-8 infidelity)."""

NEAR_MISS_INFIDELITY = 2e-3
"""Infidelity below which an inexact optimum earns confirmation restarts."""

PROFILE_CACHE_SIZE = 4096
"""Entry bound of the process-wide fidelity-profile LRU."""

# Process-wide fidelity-profile LRU.  Keys fold in the decomposer's
# optimisation knobs (see NuOpDecomposer._profile_cache_key), so
# differently-configured decomposer instances never alias; identically
# configured ones share work, which is what a serve worker wants.
_PROFILE_CACHE = register_cache("decomposer profiles", PROFILE_CACHE_SIZE)


def profile_cache_stats() -> Dict[str, int]:
    """Counters + occupancy of the process-wide profile LRU (for the CLI)."""
    return _PROFILE_CACHE.stats()


def clear_profile_cache() -> None:
    """Drop every cached fidelity profile and KAK decomposition."""
    _PROFILE_CACHE.clear()
    clear_kak_cache()


# ---------------------------------------------------------------------------
# L-BFGS-B, driven directly
# ---------------------------------------------------------------------------
#
# ``minimize(method="L-BFGS-B")`` spends ~45 us of Python per evaluation
# (a ScalarFunction, a copy of x per call, MemoizeJac) next to ~140 us for
# the objective itself.  The loop below drives the same reverse-
# communication routine exactly as scipy's ``_minimize_lbfgsb`` does
# (scipy >= 1.15, the C port whose ``setulb`` signature this is): same
# workspace, the first evaluation at x0, a new evaluation only when x
# moved, and the same iteration stop.  ``tests/test_lbfgsb_loop.py``
# checks it against ``minimize`` bit for bit.

_LBFGSB_FTOL = 1e-14
_LBFGSB_GTOL = 1e-10
_LBFGSB_CORRECTIONS = 10
_LBFGSB_MAX_LINE_SEARCH = 20


def minimise_lbfgsb(
    objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    maxiter: int,
) -> Tuple[np.ndarray, float, int, int]:
    """Unbounded L-BFGS-B from ``x0`` under NuOp's tolerances.

    ``objective(x)`` returns the value and gradient at ``x``.  Returns
    ``(x, value, iterations, evaluations)``; ``x`` and ``value`` are the
    bytes ``minimize(objective, x0, jac=True, method="L-BFGS-B",
    options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10})`` gives.
    """
    m = _LBFGSB_CORRECTIONS
    x = np.array(x0, dtype=np.float64)
    n = x.size
    no_bounds = np.zeros(n)
    bound_kinds = np.zeros(n, np.int32)
    workspace = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    int_workspace = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    line_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = _LBFGSB_FTOL / np.finfo(float).eps
    value, gradient = np.float64(0.0), np.zeros(n)
    evaluated_at = None
    iterations = evaluations = 0
    while True:
        setulb(
            m, x, no_bounds, no_bounds, bound_kinds, value, gradient, factr,
            _LBFGSB_GTOL, workspace, int_workspace, task, lsave, isave, dsave,
            _LBFGSB_MAX_LINE_SEARCH, line_task,
        )
        if task[0] == 3:  # FG: wants the value and gradient at x
            if evaluated_at is None or not np.array_equal(x, evaluated_at):
                evaluated_at = x.copy()
                value, gradient = objective(evaluated_at)
                evaluations += 1
        elif task[0] == 1:  # NEW_X: an iteration finished
            iterations += 1
            if iterations >= maxiter:
                task[0], task[1] = 5, 504  # STOP: iteration limit
        else:
            return x, value, iterations, evaluations


@dataclass(frozen=True)
class LayerSolution:
    """Best decomposition found for one specific layer count.

    ``parameters`` is ``None`` when ``fidelity`` is a closed-form value
    whose circuit has not been built yet.  ``rng_offset`` counts the
    restart draws the counts below this one take from the profile's
    restart generator; an optimised count runs on the generator advanced
    that far.
    """

    num_layers: int
    fidelity: float
    parameters: Optional[np.ndarray]
    rng_offset: int = 0


@dataclass(frozen=True)
class _Profile:
    """A fidelity profile examined from count 0 up to ``len(entries) - 1``.

    ``next_offset`` is the restart-generator offset of the next count and
    ``complete`` says no count is left to examine (the last one reached
    the exact threshold or the layer limit).  Records are never mutated:
    examining a count or building its circuit makes a new one, so a completed
    record's list can be handed out as is.
    """

    entries: List[LayerSolution]
    next_offset: int
    complete: bool

    @property
    def candidates(self) -> List[LayerSolution]:
        """The entries plus, while incomplete, a frontier entry for the next
        count with ``F_d`` bound 1.0 and no parameters."""
        if self.complete:
            return self.entries
        return self.entries + [LayerSolution(len(self.entries), 1.0, None, self.next_offset)]


@dataclass
class TwoQubitDecomposition:
    """A complete NuOp decomposition of one application two-qubit unitary.

    Attributes
    ----------
    target:
        The application unitary that was decomposed.
    hardware_gates:
        Concrete entangling gates, one per layer (all identical for fixed
        gate types; per-layer angles for continuous families).
    single_qubit_params:
        Array of shape ``(layers + 1, 2, 3)`` holding the U3 angles.
    decomposition_fidelity:
        ``F_d`` of Eq. 1.
    hardware_fidelity:
        ``F_h``: product of the calibrated fidelities of the gates in the
        decomposition (1.0 when no noise information was supplied).
    gate_type_label:
        Table II label of the chosen gate type (``None`` for continuous
        families).
    """

    target: np.ndarray
    hardware_gates: List[Gate]
    single_qubit_params: np.ndarray
    decomposition_fidelity: float
    hardware_fidelity: float = 1.0
    gate_type_label: Optional[str] = None

    @property
    def num_layers(self) -> int:
        """Number of entangling gates used."""
        return len(self.hardware_gates)

    @property
    def overall_fidelity(self) -> float:
        """``F_u = F_d * F_h`` (Eq. 2)."""
        return self.decomposition_fidelity * self.hardware_fidelity

    def operations(self, qubits: Sequence[int] = (0, 1)) -> List[Operation]:
        """Expand the decomposition into concrete operations on ``qubits``."""
        a, b = int(qubits[0]), int(qubits[1])
        result: List[Operation] = []

        def add_single_layer(layer_params: np.ndarray) -> None:
            for qubit, angles in zip((a, b), layer_params):
                result.append(Operation(u3_gate(*[float(v) for v in angles]), (qubit,)))

        add_single_layer(self.single_qubit_params[0])
        for index, gate in enumerate(self.hardware_gates):
            result.append(Operation(gate, (a, b)))
            add_single_layer(self.single_qubit_params[index + 1])
        return result

    def to_circuit(self) -> QuantumCircuit:
        """Two-qubit circuit fragment implementing the decomposition."""
        circuit = QuantumCircuit(2, name="nuop_decomposition")
        for operation in self.operations((0, 1)):
            circuit.append_operation(operation)
        return circuit

    def verify(self) -> float:
        """Recompute ``F_d`` from the expanded circuit (consistency check)."""
        return hilbert_schmidt_fidelity(self.to_circuit().to_unitary(), self.target)


@dataclass
class NuOpDecomposer:
    """Numerical-optimisation decomposer for two-qubit unitaries.

    Fidelity profiles live in a process-wide LRU and grow on demand: a
    query examines (builds, answers in closed form, or optimises) the next layer
    count only when Eq. 2 or the exact rule could still pick it.

    Parameters
    ----------
    max_layers:
        Largest template size tried (the paper uses up to 10 but notes
        fewer than 4 layers almost always suffice).
    restarts:
        Number of random restarts per layer count, in addition to the
        deterministic all-zeros start.
    maxiter:
        L-BFGS-B iteration cap per restart.
    exact_threshold:
        ``F_d`` above which a decomposition is treated as exact; a profile
        examines no count past the first one reaching it.
    seed:
        Seed of the restart generator (results are deterministic for a
        fixed seed).
    """

    max_layers: int = 4
    restarts: int = 1
    confirmation_restarts: int = 2
    maxiter: int = 250
    exact_threshold: float = EXACT_FIDELITY_THRESHOLD
    seed: int = 7

    # -- low-level optimisation -------------------------------------------------

    def _num_random_starts(self, template: TemplateSpec) -> int:
        """Random starts per layer count, drawn up front from the shared generator."""
        if template.num_two_qubit_parameters > 0:
            # Continuous-family templates have a rugged landscape (the
            # two-qubit angles are variables too); a handful of extra random
            # starts is needed to reliably find e.g. the one-layer
            # fSim(pi/2, pi) = SWAP solution instead of a two-layer local
            # optimum.  The early break in _optimise_template keeps the
            # common case cheap.
            return max(self.restarts, 6)
        return self.restarts

    def _optimise_template(
        self,
        target: np.ndarray,
        template: TemplateSpec,
        rng: np.random.Generator,
    ) -> Tuple[float, np.ndarray, int]:
        """Best fidelity and parameters for one template size.

        Also returns how many doubles were drawn from ``rng`` (every random
        start is drawn up front; confirmation restarts draw more).
        """
        target = np.asarray(target, dtype=complex)

        def objective(flat: np.ndarray):
            return template.objective_with_gradient(flat, target)

        best_value = np.inf
        best_params = template.initial_parameters()

        def run_start(start: np.ndarray) -> None:
            nonlocal best_value, best_params
            params, value, _, _ = minimise_lbfgsb(objective, start, self.maxiter)
            if value < best_value:
                best_value = float(value)
                best_params = params

        num_random = self._num_random_starts(template)
        starts = [template.initial_parameters()]
        starts += [template.initial_parameters(rng) for _ in range(num_random)]
        for start in starts:
            run_start(start)
            if best_value < 1.0 - self.exact_threshold:
                break
        # Near-misses (fidelity just below the exact threshold) are usually
        # local minima; spend a few extra restarts to confirm whether an
        # exact solution exists before reporting an approximate one.
        extra = 0
        while (
            1.0 - self.exact_threshold <= best_value < NEAR_MISS_INFIDELITY
            and extra < self.confirmation_restarts
        ):
            run_start(template.initial_parameters(rng))
            extra += 1
        return 1.0 - best_value, best_params, (num_random + extra) * template.num_parameters

    def _restart_draws(self, template: TemplateSpec, fidelity: float) -> int:
        """Doubles :meth:`_optimise_template` draws when its best ``F_d`` is ``fidelity``.

        Its random starts, plus the confirmation restarts of a near miss.
        A built count advances the generator by this much, so every
        optimised count after it sees the draws it would see if the
        optimiser had found that count's optimum.
        """
        starts = self._num_random_starts(template)
        if 1.0 - self.exact_threshold <= 1.0 - fidelity < NEAR_MISS_INFIDELITY:
            starts += self.confirmation_restarts
        return starts * template.num_parameters

    def _profile_cache_key(self, target_key: bytes, gate_key: str, limit: int) -> Tuple:
        """Key into the process-wide profile LRU.

        Folds in every optimisation knob: the cache is shared between
        decomposer instances.
        """
        return (
            target_key,
            gate_key,
            limit,
            self.restarts,
            self.confirmation_restarts,
            self.maxiter,
            self.exact_threshold,
            self.seed,
        )

    def _make_template(self, num_layers: int, gate: Optional[Gate], family: Optional[str]) -> TemplateSpec:
        if family is None:
            if num_layers == 0:
                return TemplateSpec(num_layers=0, two_qubit_family="fixed", fixed_gate_matrix=None)
            return fixed_gate_template(num_layers, gate.matrix)
        return continuous_family_template(num_layers, family)

    # -- fidelity profiles -------------------------------------------------------

    def fidelity_profile(
        self,
        target: np.ndarray,
        gate: Optional[Gate] = None,
        family: Optional[str] = None,
        max_layers: Optional[int] = None,
    ) -> List[LayerSolution]:
        """Best ``F_d`` for every layer count from 0 up to ``max_layers``.

        Either ``gate`` (a fixed hardware gate) or ``family`` (``"xy"`` /
        ``"fsim"``) must be provided.  The profile stops at the first count
        that reaches the exact threshold.  Decomposition queries examine
        counts only as far as Eq. 2 or the exact rule needs them (see
        :meth:`_select`); this call examines the rest and, until a query
        changes the profile, returns the cached list itself.  Entries with
        ``parameters=None`` hold a closed-form ``F_d`` (see
        :func:`repro.core.synthesis.closed_form_fidelity`) whose circuit
        the queries build only when they select it.
        """
        cache_key, profile, solve = self._cached_profile(target, gate, family, max_layers)
        while not profile.complete:
            profile = solve(profile, profile.candidates[-1])
            _PROFILE_CACHE.put(cache_key, profile)
        return profile.entries

    def _cached_profile(
        self,
        target: np.ndarray,
        gate: Optional[Gate],
        family: Optional[str],
        max_layers: Optional[int],
    ) -> Tuple[Tuple, _Profile, Callable[[_Profile, LayerSolution], _Profile]]:
        """The query's LRU key, its profile so far, and its ``solve`` step.

        ``solve(profile, entry)`` examines ``entry``: the frontier, or a
        closed-form count a query selected, whose circuit it builds.  A
        new count is built (:func:`repro.core.synthesis.synthesise`)
        wherever its best circuit is known; if it is one whose closed-form
        infidelity is beyond both the near-miss band and the exact
        threshold, only that value is recorded until a query selects it.
        Built counts advance the restart generator by the draws the
        optimiser would have made for their value
        (:meth:`_restart_draws`).  Any other count is optimised on the
        generator advanced to its offset.
        """
        if (gate is None) == (family is None):
            raise ValueError("provide exactly one of 'gate' or 'family'")
        limit = self.max_layers if max_layers is None else int(max_layers)
        target_key = matrix_key(target)
        cache_key = self._profile_cache_key(
            target_key, gate.type_key if gate is not None else f"family:{family}", limit
        )
        skip_above = max(NEAR_MISS_INFIDELITY, 1.0 - self.exact_threshold) + 1e-9

        def solve(profile: _Profile, entry: LayerSolution) -> _Profile:
            entries, count = profile.entries, entry.num_layers
            template = self._make_template(count, gate, family)
            if count < len(entries):
                fidelity, params = synthesise(target, template)
                solved = replace(entry, fidelity=fidelity, parameters=params)
                return replace(profile, entries=[solved if e is entry else e for e in entries])
            target_kak = memoised_kak(target, target_key)
            gate_kak = None if gate is None else memoised_kak(gate.matrix)
            known = target_kak is not None and (gate is None or gate_kak is not None)
            target_point = None if target_kak is None else target_kak.point
            gate_point = None if gate_kak is None else gate_kak.point
            if known and synthesises(target_point, gate_point, family, count):
                bound = closed_form_fidelity(target_point, gate_point, family, count)
                if bound is not None and 1.0 - bound > skip_above:
                    solved = replace(entry, fidelity=bound)
                else:
                    fidelity, params = synthesise(target, template)
                    solved = replace(entry, fidelity=fidelity, parameters=params)
                draws = self._restart_draws(template, solved.fidelity)
            else:
                rng = np.random.Generator(np.random.PCG64(self.seed).advance(entry.rng_offset))
                fidelity, params, draws = self._optimise_template(target, template, rng)
                solved = replace(entry, fidelity=fidelity, parameters=params)
            complete = solved.fidelity >= self.exact_threshold or count >= limit
            return _Profile(entries + [solved], entry.rng_offset + draws, complete)

        return cache_key, _PROFILE_CACHE.get(cache_key) or _Profile([], 0, limit < 0), solve

    def _select(
        self,
        target: np.ndarray,
        gate: Optional[Gate],
        family: Optional[str],
        max_layers: Optional[int],
        pick: Callable[[List[LayerSolution]], Optional[LayerSolution]],
    ) -> Optional[LayerSolution]:
        """The profile entry ``pick`` selects, examining only what it needs.

        ``pick`` sees the profile's candidates: the frontier entry's bound
        of 1.0 is safe because ``F_d <= 1`` and ``F_h`` does not grow with
        the count, so no deeper count can beat it.  Choosing the frontier
        examines that count; choosing a closed-form entry builds its
        circuit.  Either way the updated profile goes back into the LRU
        (counting no hit or miss) and ``pick`` runs again, until it
        selects an entry with parameters or gives up (``None``).
        """
        cache_key, profile, solve = self._cached_profile(target, gate, family, max_layers)
        while True:
            chosen = pick(profile.candidates)
            if chosen is None or chosen.parameters is not None:
                return chosen
            profile = solve(profile, chosen)
            _PROFILE_CACHE.put(cache_key, profile)

    # -- decomposition construction ------------------------------------------------

    def _build_decomposition(
        self,
        target: np.ndarray,
        solution: LayerSolution,
        gate: Optional[Gate],
        family: Optional[str],
        hardware_fidelity: float,
        label: Optional[str],
    ) -> TwoQubitDecomposition:
        template = self._make_template(solution.num_layers, gate, family)
        single, two = template.split_parameters(solution.parameters)
        if family is None:
            hardware_gates = [gate] * solution.num_layers
        else:
            hardware_gates = []
            for angles in template.two_qubit_angles(two):
                if family == "fsim":
                    hardware_gates.append(fsim_gate(*angles))
                else:
                    hardware_gates.append(xy_gate(*angles))
        return TwoQubitDecomposition(
            target=np.asarray(target, dtype=complex),
            hardware_gates=hardware_gates,
            single_qubit_params=single,
            decomposition_fidelity=solution.fidelity,
            hardware_fidelity=hardware_fidelity,
            gate_type_label=label,
        )

    def decompose_exact(
        self,
        target: np.ndarray,
        gate: Optional[Gate] = None,
        family: Optional[str] = None,
        fidelity_threshold: Optional[float] = None,
        max_layers: Optional[int] = None,
        label: Optional[str] = None,
    ) -> TwoQubitDecomposition:
        """Smallest-layer decomposition whose ``F_d`` meets the threshold.

        If no template within ``max_layers`` reaches the threshold the best
        decomposition found is returned (its fidelity tells the caller how
        close it got).
        """
        threshold = self.exact_threshold if fidelity_threshold is None else fidelity_threshold

        def first_meeting_threshold(profile: List[LayerSolution]) -> LayerSolution:
            for solution in profile:
                if solution.fidelity >= threshold:
                    return solution
            return max(profile, key=lambda item: item.fidelity)

        chosen = self._select(target, gate, family, max_layers, first_meeting_threshold)
        return self._build_decomposition(target, chosen, gate, family, 1.0, label)

    def decompose_approximate(
        self,
        target: np.ndarray,
        gate: Optional[Gate] = None,
        family: Optional[str] = None,
        gate_fidelity: float = 1.0,
        single_qubit_fidelity: float = 1.0,
        max_layers: Optional[int] = None,
        label: Optional[str] = None,
        *,
        floor: Optional[float] = None,
    ) -> Optional[TwoQubitDecomposition]:
        """Decomposition maximising ``F_d * F_h`` (Eq. 2).

        ``gate_fidelity`` is the calibrated fidelity of the hardware
        two-qubit gate on the edge where the decomposition will run;
        ``single_qubit_fidelity`` optionally accounts for the interleaved
        U3 layers (two gates per boundary).  Both are taken to lie in [0, 1].

        ``floor`` is an ``F_d * F_h`` the caller already has (another gate
        type's).  When Eq. 2 lands on a count without parameters (the
        frontier, or a closed form) whose ``F_d`` bound times ``F_h`` is at
        most ``floor``, no count of this type can beat ``floor`` by more
        than Eq. 2's 1e-12 tie margin, and ``None`` is returned without
        examining anything more.
        """

        def hardware_fidelity(solution: LayerSolution) -> float:
            hardware = gate_fidelity**solution.num_layers
            return hardware * single_qubit_fidelity ** (2 * (solution.num_layers + 1))

        def maximising_overall(profile: List[LayerSolution]) -> LayerSolution:
            best_solution = None
            best_overall = -np.inf
            for solution in profile:
                overall = solution.fidelity * hardware_fidelity(solution)
                if overall > best_overall + 1e-12:
                    best_overall = overall
                    best_solution = solution
            if floor is not None and best_solution.parameters is None and best_overall <= floor:
                return None
            return best_solution

        chosen = self._select(target, gate, family, max_layers, maximising_overall)
        if chosen is None:
            return None
        return self._build_decomposition(
            target, chosen, gate, family, hardware_fidelity(chosen), label
        )

    def decompose_for_threshold(
        self,
        target: np.ndarray,
        gate: Optional[Gate] = None,
        family: Optional[str] = None,
        hardware_fidelity_target: float = 0.99,
        max_layers: Optional[int] = None,
        label: Optional[str] = None,
    ) -> TwoQubitDecomposition:
        """Approximate decomposition in the style of Figure 6's NuOp-99%/95% variants.

        ``hardware_fidelity_target`` plays the role of the per-gate
        hardware fidelity assumed when trading decomposition error against
        gate count (e.g. ``NuOp-95%`` assumes each additional hardware gate
        costs 5% fidelity).
        """
        return self.decompose_approximate(
            target,
            gate=gate,
            family=family,
            gate_fidelity=hardware_fidelity_target,
            max_layers=max_layers,
            label=label,
        )

    def clear_cache(self) -> None:
        """Drop every cached fidelity profile (the process-wide LRU)."""
        clear_profile_cache()


def decompose_local_unitary(target: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Factor a 4x4 unitary into single-qubit gates when it is a tensor product.

    Returns ``(A, B)`` such that ``target = A (x) B`` up to numerical error,
    or ``None`` when the unitary is entangling.  Used as a fast path so
    non-entangling application operations never consume hardware two-qubit
    gates.
    """
    a, b, residual = nearest_kronecker_product(np.asarray(target, dtype=complex))
    if residual < 1e-7:
        # The rank-1 factors carry an arbitrary reciprocal scale; renormalise
        # each to a proper unitary (up to global phase).
        a = a / np.sqrt(abs(np.linalg.det(a)))
        b = b / np.sqrt(abs(np.linalg.det(b)))
        return a, b
    return None
