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
cannot pick a deeper count once ``F_h`` alone rules it out.  Layer counts
that are clearly below exact exist only to report their ``F_d`` to Eq. 2;
where that value has a closed form in the Weyl coordinates of the target
and the gate (:func:`closed_form_fidelity`), the profile records it
instead of optimising, and optimises such a count only if a query selects
it.  Two and three layers of a CZ- or iSWAP-class gate are built from KAK
decompositions instead (:func:`synthesise_supercontrolled`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize._lbfgsb import setulb

from repro.caching.lru import MISSING, register_cache
from repro.circuits.circuit import Operation, QuantumCircuit
from repro.circuits.gate import Gate, fsim_gate, u3_gate, xy_gate
from repro.gates import standard
from repro.core.templates import (
    TemplateSpec,
    continuous_family_template,
    fixed_gate_template,
)
from repro.gates.kak import canonical_unitary, kak_decomposition, weyl_coordinates
from repro.gates.unitary import hilbert_schmidt_fidelity, nearest_kronecker_product

EXACT_FIDELITY_THRESHOLD = 1.0 - 1e-6
"""Decomposition fidelity treated as numerically exact (paper uses 1e-6..1e-8 infidelity)."""

NEAR_MISS_INFIDELITY = 2e-3
"""Infidelity below which an inexact optimum earns confirmation restarts."""

SYNTHESIS_VERSION = 1
"""Revision of the layer counts NuOp builds without optimising
(:func:`synthesise_supercontrolled`).

Folded into the compilation-cache key with the objective's revision: a
change here moves compiled circuits under unchanged inputs, so entries
written under an older revision must never be served."""

PROFILE_CACHE_SIZE = 4096
"""Entry bound of the process-wide fidelity-profile and Weyl-coordinate LRUs."""

# Process-wide fidelity-profile LRU.  Keys fold in the decomposer's
# optimisation knobs (see NuOpDecomposer._profile_cache_key), so
# differently-configured decomposer instances never alias; identically
# configured ones share work, which is what a serve worker wants.
_PROFILE_CACHE = register_cache("decomposer profiles", PROFILE_CACHE_SIZE)


def profile_cache_stats() -> Dict[str, int]:
    """Counters + occupancy of the process-wide profile LRU (for the CLI)."""
    return _PROFILE_CACHE.stats()


def clear_profile_cache() -> None:
    """Drop every cached fidelity profile and Weyl-coordinate memo entry."""
    _PROFILE_CACHE.clear()
    _COORDINATE_CACHE.clear()


# ---------------------------------------------------------------------------
# Closed-form F_d of sub-exact layer counts
# ---------------------------------------------------------------------------
#
# In the chamber convention of :mod:`repro.gates.kak` the canonical gate
# A(x, y, z) = exp(i (x XX + y YY + z ZZ)) has |Tr A| / 4 equal to
# |cos x cos y cos z + i sin x sin y sin z|, the "trace" of Cross et al.
# (PRA 100, 032328) and Peterson et al. (Quantum 6, 696).  With t the
# target's and g the gate's coordinates:
#
# * no layer:        F_d = trace(t);
# * one fixed layer: F_d = max over the 8 sign vectors s of trace(t - s g);
# * one XY layer:    the same, maximised over theta with g = (theta/4, theta/4, 0);
# * one fSim layer:  the same, maximised over theta and phi with
#                    g = (theta/2, theta/2, phi/4) in every coordinate order;
# * two layers of a supercontrolled gate (g = (pi/4, b, 0)): F_d = |cos t_z|.
#
# Weyl coordinates depend only on the local-equivalence class, so each
# target and gate is analysed once, memoised under the phase-canonical
# target key the profile LRU builds.

_COORDINATE_CACHE = register_cache("weyl coordinates", PROFILE_CACHE_SIZE)

_SIGN_VECTORS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def _weyl_point(key: bytes, matrix: np.ndarray) -> Optional[np.ndarray]:
    """Memoised chamber coordinates, ``None`` when ``matrix`` is not unitary."""
    point = _COORDINATE_CACHE.get(key, MISSING)
    if point is MISSING:
        try:
            point = weyl_coordinates(matrix)
        except ValueError:
            point = None
        _COORDINATE_CACHE.put(key, point)
    return point


def _trace_fidelity(points: np.ndarray) -> np.ndarray:
    """``|Tr A(x, y, z)| / 4`` over the last axis of ``points``."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    return np.hypot(
        np.cos(x) * np.cos(y) * np.cos(z), np.sin(x) * np.sin(y) * np.sin(z)
    )


def _xy_layer_fidelity(target: np.ndarray) -> float:
    """Best ``F_d`` of one ``XY(theta)`` layer over every ``theta``.

    ``XY(theta)`` is locally equivalent to ``A(a, a, 0)`` with
    ``a = theta / 4``, so one layer reaches ``trace(t - s * (a, a, 0))``
    for every ``a`` and sign vector ``s`` (for a chamber target ``t``,
    other placements of ``(a, a, 0)`` never do better).  With ``u``, ``v`` the first
    two coordinates of ``t - s * (a, a, 0)``, ``2 cos u cos v`` and
    ``2 sin u sin v`` are ``cos d +- cos w``, where ``d = t_x -+ t_y`` is
    fixed and ``w = u +- v`` is free in ``a``.  So ``4 trace^2`` is
    ``cos^2 t_z (cos d + cos w)^2 + sin^2 t_z (cos d - cos w)^2``, convex
    in ``cos w`` and largest at ``cos w = +-1``.
    """
    x, y, z = target
    ends = np.cos(np.array([x - y, x + y]))
    ends = np.concatenate([ends, -ends])
    return 0.5 * float(np.hypot(np.cos(z) * (1.0 + ends), np.sin(z) * (1.0 - ends)).max())


def _fsim_layer_fidelity(target: np.ndarray) -> float:
    """Best ``F_d`` of one ``fSim(theta, phi)`` layer over every angle pair.

    ``fSim(theta, phi)`` is locally equivalent to ``A(a, a, c)`` with
    ``a = theta / 2`` and ``c = phi / 4``, and every Weyl image of a gate
    is reachable with local layers, so one layer reaches
    ``trace(t - s * p)`` for every ``a``, ``c``, placement ``p`` of
    ``(a, a, c)`` and sign vector ``s``.  As in
    :func:`_xy_layer_fidelity`, with ``(k, l)`` the coordinates carrying
    ``a`` and ``d = t_k -+ t_l``, ``4 trace^2`` is
    ``cos^2 w' (cos d + cos w)^2 + sin^2 w' (cos d - cos w)^2``; here
    ``w'``, the coordinate carrying ``c``, is free as well, so the peak
    is ``(1 + |cos d|) / 2``, maximised over the three pairs and both signs.
    """
    x, y, z = target
    pairs = np.array([x - y, x + y, x - z, x + z, y - z, y + z])
    return 0.5 * (1.0 + float(np.abs(np.cos(pairs)).max()))


def closed_form_fidelity(
    target: np.ndarray, gate: Optional[np.ndarray], family: Optional[str], num_layers: int
) -> Optional[float]:
    """Best ``F_d`` of ``num_layers`` layers from Weyl coordinates, if known.

    ``target`` and ``gate`` are chamber coordinates (``gate`` is ``None``
    for a continuous ``family``).  Returns ``None`` where no closed form
    is implemented: three or more layers, two layers of a gate that is
    not supercontrolled, and two continuous layers.
    """
    if num_layers == 0:
        return float(_trace_fidelity(target))
    if num_layers == 1 and family is None:
        return float(_trace_fidelity(target - _SIGN_VECTORS * gate).max())
    if num_layers == 1 and family == "xy":
        return _xy_layer_fidelity(target)
    if num_layers == 1 and family == "fsim":
        return _fsim_layer_fidelity(target)
    if (
        num_layers == 2
        and family is None
        and abs(gate[0] - np.pi / 4) < 1e-9
        and abs(gate[2]) < 1e-9
    ):
        return float(abs(np.cos(target[2])))
    return None


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


# ---------------------------------------------------------------------------
# Supercontrolled layers 2-3 from KAK
# ---------------------------------------------------------------------------
#
# For a gate locally equivalent to CZ, A(pi/4, 0, 0), or to iSWAP,
# A(pi/4, pi/4, 0), the best circuits of two and three layers are known:
# two layers reach every chamber point (x, y, 0), so the best two-layer
# F_d keeps the target's t_x, t_y and drops t_z (F_d = |cos t_z|, the
# closed form above), and three layers are exact (Vatan & Williams,
# PRA 69, 032315).  With A the gate's canonical part, a product A M A (or
# A M_2 A M_1 A) of suitable single-qubit middles M reaches the wanted
# chamber point; the KAK decompositions of that product, of the gate and
# of the target then give the outer U3 layers.  No optimiser runs and no
# random number is drawn.

_SUPERCONTROLLED_POINTS = {
    "cz": np.array([np.pi / 4, 0.0, 0.0]),
    "iswap": np.array([np.pi / 4, np.pi / 4, 0.0]),
}


def _rotation(pauli: np.ndarray, angle: float) -> np.ndarray:
    """``exp(i angle P)`` for a Pauli matrix ``P``."""
    return np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * pauli


def supercontrolled_kind(gate_point: Optional[np.ndarray]) -> Optional[str]:
    """``"cz"`` or ``"iswap"`` when a gate's chamber point is that class's, else ``None``."""
    if gate_point is not None:
        for kind, point in _SUPERCONTROLLED_POINTS.items():
            if np.abs(gate_point - point).max() < 1e-9:
                return kind
    return None


def _cz_middles(point: np.ndarray, num_layers: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Middles ``M_j`` (first-applied first) putting ``A M_1 A [M_2 A]`` at ``point``.

    ``A = A(pi/4, 0, 0) = exp(i pi/4 XX)``.  Two layers: ``A`` conjugates
    ``ZI`` to ``YX`` and ``IZ`` to ``XY``, so ``A (e^{ixZ} (x) e^{iyZ})
    A^dagger = exp(i (x YX + y XY))``, locally ``A(x, y, 0)``, and the
    second ``A`` differs from ``A^dagger`` by the local ``i XX``.  Three
    layers: the Vatan-Williams three-CNOT circuit with each CNOT written
    as ``A`` between single-qubit factors that commute with it.
    """
    x, y, z = point
    X, Y, Z, H = standard.X, standard.Y, standard.Z, standard.H
    if num_layers == 2:
        return [(_rotation(Z, x), _rotation(Z, y))]
    quarter = np.pi / 4
    return [
        (H @ _rotation(X, -quarter), _rotation(Y, y - quarter) @ _rotation(Z, -quarter) @ H),
        (_rotation(Z, z - 2 * quarter) @ H, H @ _rotation(Y, quarter - x) @ _rotation(X, -quarter)),
    ]


def _iswap_middles(point: np.ndarray, num_layers: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """:func:`_cz_middles` for ``A = A(pi/4, pi/4, 0)``.

    ``A(pi/4, pi/4, 0) = e^{i pi/4} SWAP C`` with ``C = exp(-i pi/4 ZZ)``
    of the CZ class, and ``C = W exp(i pi/4 XX) W^dagger`` with ``W = XH
    (x) H``.  SWAPs commute past single-qubit layers by exchanging their
    qubits, so ``L`` iSWAP layers are ``SWAP^L`` times ``L`` layers of
    ``C`` whose first (third, ...) middle has its qubits exchanged.  ``SWAP`` is
    ``A(pi/4, pi/4, pi/4)`` up to phase, so three layers must reach
    ``point - (pi/4, pi/4, pi/4)`` with ``C``.
    """
    if num_layers == 3:
        point = point - np.pi / 4
    frame = (standard.X @ standard.H, standard.H)
    middles = []
    for index, pair in enumerate(_cz_middles(point, num_layers)):
        a, b = (w @ m @ w.conj().T for w, m in zip(frame, pair))
        middles.append((b, a) if index % 2 == 0 else (a, b))
    return middles


def _u3_angles(matrix: np.ndarray) -> Tuple[float, float, float]:
    """``(alpha, beta, lam)`` of a U3 equal to a 2x2 unitary up to phase.

    In the convention of :func:`repro.core.templates._batched_u3`,
    ``e^{i delta} [[c, -e^{i lam} s], [e^{i beta} s, e^{i (beta + lam)} c]]``.
    Phases are read off the larger pair of entries (``beta + lam`` from
    the diagonal when ``c >= s``), so an angle read off a vanishing entry
    only ever multiplies that entry's vanishing magnitude.
    """
    (m00, m01), (m10, m11) = matrix
    delta = np.angle(m00)
    lam = np.angle(-m01) - delta
    if abs(m00) >= abs(m10):
        beta = np.angle(m11) - delta - lam
    else:
        beta = np.angle(m10) - delta
    return 2.0 * float(np.arctan2(abs(m10), abs(m00))), float(beta), float(lam)


def synthesise_supercontrolled(
    target: np.ndarray, gate_matrix: np.ndarray, kind: str, num_layers: int
) -> Tuple[float, np.ndarray]:
    """``F_d`` and flat U3 parameters of the best ``num_layers``-layer (2 or 3) template.

    ``kind`` is :func:`supercontrolled_kind` of the gate.  Two layers
    reach the target's chamber point with ``t_z`` dropped, three reach it
    exactly; ``F_d`` is measured on the template's unitary.  With the KAK
    decompositions ``T = t (a1 (x) b1) A(t) (a2 (x) b2)`` of the target,
    ``G = g (g1 (x) h1) A (g2 (x) h2)`` of the gate and ``P = p (p1 (x)
    q1) A(t') (p2 (x) q2)`` of the canonical product, the template's
    layers are ``g2^dagger p2^dagger a2`` first, ``g2^dagger M_j
    g1^dagger`` between gates and ``a1 p1^dagger g1^dagger`` last
    (likewise on the second qubit).
    """
    target = np.asarray(target, dtype=complex)
    goal = kak_decomposition(target)
    gate = kak_decomposition(gate_matrix)
    point = goal.point if num_layers == 3 else goal.point * np.array([1.0, 1.0, 0.0])
    build = _cz_middles if kind == "cz" else _iswap_middles
    middles = build(point, num_layers)
    canonical = canonical_unitary(gate.point)
    product = canonical
    for a, b in middles:
        product = canonical @ np.kron(a, b) @ product
    frame = kak_decomposition(product)
    (g1, h1), (g2, h2) = gate.left, gate.right
    (p1, q1), (p2, q2) = frame.left, frame.right
    (a1, b1), (a2, b2) = goal.left, goal.right

    def dagger(u: np.ndarray) -> np.ndarray:
        return u.conj().T

    layers = [(dagger(g2) @ dagger(p2) @ a2, dagger(h2) @ dagger(q2) @ b2)]
    layers += [(dagger(g2) @ a @ dagger(g1), dagger(h2) @ b @ dagger(h1)) for a, b in middles]
    layers.append((a1 @ dagger(p1) @ dagger(g1), b1 @ dagger(q1) @ dagger(h1)))
    params = np.array([[_u3_angles(u) for u in pair] for pair in layers]).ravel()
    unitary = fixed_gate_template(num_layers, gate_matrix).unitary(params)
    return float(abs(np.vdot(unitary, target))) / 4.0, params


@dataclass(frozen=True)
class LayerSolution:
    """Best decomposition found for one specific layer count.

    ``parameters`` is ``None`` when ``fidelity`` is a closed-form value the
    optimiser has not run for.  ``rng_offset`` counts the restart draws the
    counts below this one take from the profile's restart generator; the
    count is optimised on the generator advanced that far, so it gets the
    same draws whenever, and in whatever order, counts are optimised.
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
    examining or optimising a count makes a new one, so a completed
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
    query examines (answers in closed form, or optimises) the next layer
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
        :func:`closed_form_fidelity`) that is at least the optimiser's
        value; the queries optimise such an entry only when they select it.
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

        ``solve(profile, entry)`` examines ``entry``, the frontier or a
        closed-form count.  Layers 2 and 3 of a CZ- or iSWAP-class gate are
        synthesised (:func:`synthesise_supercontrolled`) and draw nothing;
        they are the last counts of their profile (three layers are exact).
        A new count whose closed-form infidelity is beyond both the
        near-miss band and the exact threshold is not optimised: the
        optimiser could neither reach exact there nor run confirmation
        restarts, so its draws are exactly its random starts, and the next
        count's offset skips them.  Any other count is optimised on the
        restart generator advanced to its offset.  Counts are examined in
        ascending order, so every optimised count sees the same draws, and
        returns the same parameters, as when every count is optimised.
        """
        if (gate is None) == (family is None):
            raise ValueError("provide exactly one of 'gate' or 'family'")
        limit = self.max_layers if max_layers is None else int(max_layers)
        target_key = self._target_cache_key(target)
        cache_key = self._profile_cache_key(
            target_key, gate.type_key if gate is not None else f"family:{family}", limit
        )
        skip_above = max(NEAR_MISS_INFIDELITY, 1.0 - self.exact_threshold) + 1e-9

        def solve(profile: _Profile, entry: LayerSolution) -> _Profile:
            entries, count = profile.entries, entry.num_layers
            template = self._make_template(count, gate, family)
            bound = kind = None
            if count == len(entries):
                target_point = _weyl_point(target_key, target)
                gate_point = None
                if gate is not None:
                    gate_point = _weyl_point(self._target_cache_key(gate.matrix), gate.matrix)
                if target_point is not None and (gate is None or gate_point is not None):
                    if count in (2, 3):
                        kind = supercontrolled_kind(gate_point)
                    bound = closed_form_fidelity(target_point, gate_point, family, count)
            if kind is not None:
                fidelity, params = synthesise_supercontrolled(target, gate.matrix, kind, count)
                solved = replace(entry, fidelity=fidelity, parameters=params)
                draws = 0
            elif bound is not None and 1.0 - bound > skip_above:
                solved = replace(entry, fidelity=bound)
                draws = self._num_random_starts(template) * template.num_parameters
            else:
                rng = np.random.Generator(np.random.PCG64(self.seed).advance(entry.rng_offset))
                fidelity, params, draws = self._optimise_template(target, template, rng)
                solved = replace(entry, fidelity=fidelity, parameters=params)
            if count < len(entries):
                return replace(profile, entries=[solved if e is entry else e for e in entries])
            exact = solved.parameters is not None and solved.fidelity >= self.exact_threshold
            return _Profile(entries + [solved], entry.rng_offset + draws, exact or count >= limit)

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
        examines that count; choosing a closed-form entry optimises it.
        Either way the updated profile goes back into the LRU (counting no
        hit or miss) and ``pick`` runs again.  Closed forms are never
        below the optimiser's value, so this ends on the entry ``pick``
        selects from the fully optimised profile, or on ``None`` when
        ``pick`` gives up on an unoptimised entry.
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
        type's).  When Eq. 2 lands on a count not yet optimised whose
        bound times ``F_h`` is at most ``floor``, no count of this type
        can beat ``floor`` by more than Eq. 2's 1e-12 tie margin, and
        ``None`` is returned without optimising anything.
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
