"""NuOp: numerical-optimisation gate decomposition (Section V of the paper).

Given a target two-qubit application unitary and a hardware gate type,
NuOp builds template circuits with a growing number of entangling layers
(:mod:`repro.core.templates`), optimises the interleaved single-qubit
rotations with BFGS to maximise the decomposition fidelity ``F_d``
(Eq. 1), and selects the decomposition that satisfies the requested
fidelity threshold (exact mode) or maximises ``F_d * F_h`` (approximate /
noise-aware mode, Eq. 2).

The expensive part -- the per-layer-count optimisation -- depends only on
the target unitary and the hardware gate type, so results are cached and
re-used across qubit pairs and across circuits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.circuits.circuit import Operation, QuantumCircuit
from repro.circuits.gate import Gate, fsim_gate, u3_gate, xy_gate
from repro.config import positive_int_env
from repro.core.templates import (
    TemplateSpec,
    continuous_family_template,
    fixed_gate_template,
)
from repro.gates.unitary import hilbert_schmidt_fidelity, nearest_kronecker_product

EXACT_FIDELITY_THRESHOLD = 1.0 - 1e-6
"""Decomposition fidelity treated as numerically exact (paper uses 1e-6..1e-8 infidelity)."""

PROFILE_CACHE_SIZE_ENV_VAR = "REPRO_DECOMP_CACHE_SIZE"
"""Entry cap of the process-wide fidelity-profile LRU (default 4096).

The profile cache used to be an unbounded per-decomposer dict; a long
``repro serve`` worker decomposing a stream of distinct targets would
grow it without limit.  Invalid values warn and fall back to the default
(:func:`repro.config.positive_int_env`, the policy every cache-bound
variable shares).  Read once at import, like
``REPRO_COMPILE_CACHE_SIZE``."""

_DEFAULT_PROFILE_CACHE_SIZE = 4096

_PROFILE_CACHE_MAX_ENTRIES = positive_int_env(
    PROFILE_CACHE_SIZE_ENV_VAR,
    _DEFAULT_PROFILE_CACHE_SIZE,
    invalid_note="profile cache keeps the default size",
)

# Process-wide fidelity-profile LRU.  Keys fold in the decomposer's
# optimisation knobs (see NuOpDecomposer._profile_cache_key), so
# differently-configured decomposer instances never alias; identically
# configured ones share work, which is what a serve worker wants.  Every
# mutation happens under the paired lock (the lock-discipline source lint
# enforces the pairing).
_PROFILE_CACHE: "OrderedDict[Tuple, List[LayerSolution]]" = OrderedDict()
_PROFILE_CACHE_LOCK = threading.Lock()
_PROFILE_CACHE_COUNTERS = {"hits": 0, "misses": 0}


def _profile_cache_get(key: Tuple) -> Optional[List["LayerSolution"]]:
    """LRU lookup: a hit refreshes recency and returns the cached list itself."""
    with _PROFILE_CACHE_LOCK:
        profile = _PROFILE_CACHE.get(key)
        if profile is None:
            _PROFILE_CACHE_COUNTERS["misses"] += 1
            return None
        _PROFILE_CACHE.move_to_end(key)
        _PROFILE_CACHE_COUNTERS["hits"] += 1
        return profile


def _profile_cache_put(key: Tuple, profile: List["LayerSolution"]) -> None:
    with _PROFILE_CACHE_LOCK:
        _PROFILE_CACHE[key] = profile
        _PROFILE_CACHE.move_to_end(key)
        while len(_PROFILE_CACHE) > _PROFILE_CACHE_MAX_ENTRIES:
            _PROFILE_CACHE.popitem(last=False)


def profile_cache_stats() -> Dict[str, int]:
    """Counters + occupancy of the process-wide profile LRU (for the CLI)."""
    with _PROFILE_CACHE_LOCK:
        return {
            "hits": _PROFILE_CACHE_COUNTERS["hits"],
            "misses": _PROFILE_CACHE_COUNTERS["misses"],
            "entries": len(_PROFILE_CACHE),
            "max_entries": _PROFILE_CACHE_MAX_ENTRIES,
        }


def clear_profile_cache() -> None:
    """Drop every cached fidelity profile (counters keep accumulating)."""
    with _PROFILE_CACHE_LOCK:
        _PROFILE_CACHE.clear()


@dataclass(frozen=True)
class LayerSolution:
    """Best decomposition found for one specific layer count."""

    num_layers: int
    fidelity: float
    parameters: np.ndarray


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

    Parameters
    ----------
    max_layers:
        Largest template size tried (the paper uses up to 10 but notes
        fewer than 4 layers almost always suffice).
    restarts:
        Number of random restarts per layer count, in addition to the
        deterministic all-zeros start.
    maxiter:
        BFGS iteration cap per restart.
    exact_threshold:
        ``F_d`` above which a decomposition is treated as exact and layer
        growth stops.
    seed:
        Seed of the restart generator (results are deterministic for a
        fixed seed).
    tabulation:
        Weyl-chamber tabulation knob.  ``None`` (default) consults the
        ``REPRO_DECOMP_TABULATION`` environment flag; ``False`` forces the
        classic per-target optimisation; ``True`` enables tabulation with
        the default grid; a
        :class:`repro.compiler.tabulation.TabulationConfig` enables it
        with explicit settings.  When inactive, every query follows the
        pre-tabulation code path bit for bit.
    """

    max_layers: int = 4
    restarts: int = 1
    confirmation_restarts: int = 2
    maxiter: int = 250
    exact_threshold: float = EXACT_FIDELITY_THRESHOLD
    seed: int = 7
    tabulation: object = None

    # -- low-level optimisation -------------------------------------------------

    def _optimise_template(
        self,
        target: np.ndarray,
        template: TemplateSpec,
        rng: np.random.Generator,
    ) -> Tuple[float, np.ndarray]:
        """Best fidelity and parameters for one template size."""
        target = np.asarray(target, dtype=complex)

        def objective(flat: np.ndarray):
            return template.objective_with_gradient(flat, target)

        best_value = np.inf
        best_params = template.initial_parameters()

        def run_start(start: np.ndarray) -> None:
            nonlocal best_value, best_params
            result = minimize(
                objective,
                start,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": self.maxiter, "ftol": 1e-14, "gtol": 1e-10},
            )
            if result.fun < best_value:
                best_value = float(result.fun)
                best_params = np.asarray(result.x, dtype=float)

        starts = [template.initial_parameters()]
        num_random = self.restarts
        if template.num_two_qubit_parameters > 0:
            # Continuous-family templates have a rugged landscape (the
            # two-qubit angles are variables too); a handful of extra random
            # starts is needed to reliably find e.g. the one-layer
            # fSim(pi/2, pi) = SWAP solution instead of a two-layer local
            # optimum.  The early break below keeps the common case cheap.
            num_random = max(self.restarts, 6)
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
            1.0 - self.exact_threshold <= best_value < 2e-3
            and extra < self.confirmation_restarts
        ):
            run_start(template.initial_parameters(rng))
            extra += 1
        return 1.0 - best_value, best_params

    def _target_cache_key(self, target: np.ndarray) -> bytes:
        """Exact-bytes cache key for a target, canonicalised in global phase.

        The old key rounded entries to 10 decimals, so two *distinct*
        targets straddling a rounding boundary could collide and silently
        share one profile.  Hashing the exact bytes removes the aliasing;
        rotating the global phase first (largest-magnitude entry made
        real-positive) keeps the useful half of the old behaviour, because
        the objective ``|Tr(U^dagger target)| / 4`` is phase-invariant.
        """
        matrix = np.ascontiguousarray(np.asarray(target, dtype=complex))
        flat = matrix.reshape(-1)
        pivot = flat[int(np.argmax(np.abs(flat)))]
        magnitude = abs(pivot)
        if magnitude > 0.0:
            matrix = matrix * (pivot.conjugate() / magnitude)
        return matrix.tobytes()

    def _profile_cache_key(
        self, target: np.ndarray, gate_key: str, limit: int
    ) -> Tuple:
        """Key into the process-wide profile LRU.

        Folds in every optimisation knob (the cache is shared between
        decomposer instances) and the resolved tabulation state (a
        tabulated profile is polished from grid starts, so it must never
        alias an exhaustively optimised one).
        """
        config = self.resolved_tabulation()
        return (
            self._target_cache_key(target),
            gate_key,
            limit,
            self.restarts,
            self.confirmation_restarts,
            self.maxiter,
            self.exact_threshold,
            self.seed,
            None if config is None else config.fingerprint(),
        )

    def resolved_tabulation(self):
        """The active tabulation config, or ``None`` for the classic path."""
        from repro.compiler.tabulation import resolve_tabulation

        return resolve_tabulation(self.tabulation)

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
        ``"fsim"``) must be provided.  Layer growth stops early once the
        exact threshold is reached; the profile is cached in the
        process-wide LRU.  With tabulation active the per-layer solutions
        are polished from the nearest Weyl-chamber grid entry instead of
        being optimised from scratch.
        """
        if (gate is None) == (family is None):
            raise ValueError("provide exactly one of 'gate' or 'family'")
        limit = self.max_layers if max_layers is None else int(max_layers)
        cache_key = self._profile_cache_key(
            target, gate.type_key if gate is not None else f"family:{family}", limit
        )
        cached = _profile_cache_get(cache_key)
        if cached is not None:
            return cached

        profile: Optional[List[LayerSolution]] = None
        config = self.resolved_tabulation()
        if config is not None:
            from repro.compiler.tabulation import tabulated_profile

            profile = tabulated_profile(self, target, gate, family, limit, config)
        if profile is None:
            profile = self._optimised_profile(target, gate, family, limit)
        _profile_cache_put(cache_key, profile)
        return profile

    def _optimised_profile(
        self,
        target: np.ndarray,
        gate: Optional[Gate],
        family: Optional[str],
        limit: int,
    ) -> List[LayerSolution]:
        """The classic per-layer BFGS profile (the untabulated code path)."""
        rng = np.random.default_rng(self.seed)
        profile: List[LayerSolution] = []
        for num_layers in range(limit + 1):
            template = self._make_template(num_layers, gate, family)
            fidelity, params = self._optimise_template(target, template, rng)
            profile.append(LayerSolution(num_layers, fidelity, params))
            if fidelity >= self.exact_threshold:
                break
        return profile

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
        config = self.resolved_tabulation()
        if config is not None:
            from repro.compiler.tabulation import tabulated_decompose_exact

            result = tabulated_decompose_exact(
                self, target, gate, family, threshold, max_layers, label, config
            )
            if result is not None:
                return result
        profile = self.fidelity_profile(target, gate=gate, family=family, max_layers=max_layers)
        chosen = None
        for solution in profile:
            if solution.fidelity >= threshold:
                chosen = solution
                break
        if chosen is None:
            chosen = max(profile, key=lambda item: item.fidelity)
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
    ) -> TwoQubitDecomposition:
        """Decomposition maximising ``F_d * F_h`` (Eq. 2).

        ``gate_fidelity`` is the calibrated fidelity of the hardware
        two-qubit gate on the edge where the decomposition will run;
        ``single_qubit_fidelity`` optionally accounts for the interleaved
        U3 layers (two gates per boundary).

        With tabulation active the layer count is selected from the
        tabulated fidelity estimates and only the winner's single-qubit
        angles are polished, which is what makes warm lookups an order of
        magnitude cheaper than the full profile.
        """
        config = self.resolved_tabulation()
        if config is not None:
            from repro.compiler.tabulation import tabulated_decompose_approximate

            result = tabulated_decompose_approximate(
                self,
                target,
                gate,
                family,
                gate_fidelity,
                single_qubit_fidelity,
                max_layers,
                label,
                config,
            )
            if result is not None:
                return result
        profile = self.fidelity_profile(target, gate=gate, family=family, max_layers=max_layers)
        best_solution = None
        best_overall = -np.inf
        best_hardware = 1.0
        for solution in profile:
            hardware = gate_fidelity**solution.num_layers
            hardware *= single_qubit_fidelity ** (2 * (solution.num_layers + 1))
            overall = solution.fidelity * hardware
            if overall > best_overall + 1e-12:
                best_overall = overall
                best_solution = solution
                best_hardware = hardware
        return self._build_decomposition(
            target, best_solution, gate, family, best_hardware, label
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
