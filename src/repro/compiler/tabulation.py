"""Weyl-chamber decomposition tabulation: 2q synthesis as a table lookup.

NuOp's per-layer BFGS optimisation (Section V of the paper) depends on the
target unitary only through its local-equivalence class, i.e. its Weyl
chamber coordinates.  This module precomputes, per (gate type | continuous
family) x ``max_layers``, a grid over the chamber ``pi/4 >= x >= y >= |z|``
mapping KAK coordinates to optimised gate sequences plus single-qubit
parameters.  A query is answered by

1. computing the target's local invariants (one eigenvalue call),
2. picking the nearest grid entry -- nearest in the invariant metric of
   :func:`repro.gates.kak.invariant_distance`, evaluated in closed form
   over the whole grid at once (:func:`repro.gates.kak.canonical_invariants`),
3. a cheap 1q-only BFGS polish: the layer structure and any continuous
   two-qubit angles are frozen at the tabulated values and only the
   ``(layers + 1, 2, 3)`` U3 angles are re-optimised from the tabulated
   start.

Tables live in three tiers: a small in-process LRU, the ``decomp``
namespace of the content-addressed disk cache
(:mod:`repro.caching.disk`, own ``decomp_hits/misses/writes`` counters),
and build-on-miss.  They are content-addressed by gate-type fingerprint x
grid resolution x decomposer knobs, so differently-configured decomposers
never share a table.

The subsystem is opt-in (``REPRO_DECOMP_TABULATION`` or the
``tabulation=`` knob of :class:`repro.core.decomposer.NuOpDecomposer`);
when inactive, the decomposer follows the classic per-target optimisation
bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
import dataclasses
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.circuits.gate import Gate
from repro.circuits.hashing import gate_fingerprint, hash_scalars
from repro.config import flag_env, positive_int_env
from repro.core import templates
from repro.core.decomposer import LayerSolution, NuOpDecomposer
from repro.gates.kak import canonical_invariants, local_invariants
from repro.gates.parametric import canonical_gate

TABULATION_ENV_VAR = "REPRO_DECOMP_TABULATION"
"""Opt-in flag: truthy values turn tabulated synthesis on for every
decomposer whose ``tabulation`` knob is left at ``None``."""

GRID_RESOLUTION_ENV_VAR = "REPRO_DECOMP_GRID_RESOLUTION"
"""Number of grid points per chamber axis (default 5, i.e. 45 chamber
points).  Larger grids give closer polish starts at a cubically growing
build cost.  Invalid values warn and keep the default."""

_DEFAULT_GRID_RESOLUTION = 5

TABULATION_SCHEMA_VERSION = 2
"""Folded into every table cache key; bump when the table layout, the
grid construction or the polish contract changes.  The revision of the
objective that builds the tables, ``templates.OBJECTIVE_VERSION``, is
folded in separately."""

_POLISH_OPTIONS = {"maxiter": 120, "ftol": 1e-13, "gtol": 1e-9}
# Polish tolerances are looser than the full optimisation's
# (ftol 1e-14 / gtol 1e-10): the start is a converged solution of a
# nearby chamber point, so the remaining descent is short and the last
# digits of convergence buy nothing the fidelity guard would notice.

_ESTIMATE_SLACK = 0.05
# How far a target's achievable F_d may exceed the nearest grid entry's
# estimate.  Used to decide which layer counts are worth polishing: the
# estimate belongs to a chamber point up to half a grid step away, where
# F_d varies smoothly but not negligibly.

_BUILD_RETRIES = 3
# Extra optimisation attempts per (grid point, layer count) when the
# first attempt lands below an earlier layer's fidelity.  The reachable
# sets nest for one or more layers (two adjacent entanglers can merge or
# cancel), so such a drop always means a poor basin -- and an
# under-estimating entry is worse than a slow build, because queries
# prune layer counts whose estimate (+ slack) cannot win.

_BUILD_RESTARTS = 3
# Random-restart floor during table builds.  A table is built once and
# queried thousands of times, so build quality dominates build time:
# with the classic default of one random start, grid points on special
# subvarieties (say the CZ-exact ``z = 0`` plane at two layers) can
# stall in a poor basin and poison the pruning estimates.  The boost is
# a pure function of the spec'd knobs, so tables stay content-addressed.


def default_grid_resolution() -> int:
    """Grid resolution from the environment (warn-and-default policy)."""
    return positive_int_env(
        GRID_RESOLUTION_ENV_VAR,
        _DEFAULT_GRID_RESOLUTION,
        invalid_note="tabulation grid keeps the default resolution",
    )


@dataclass(frozen=True)
class TabulationConfig:
    """Resolved tabulation settings of one decomposer.

    ``resolution`` is the number of grid points per chamber axis;
    ``build_on_miss`` controls whether a missing table is built inline
    (the CLI's ``repro tabulate`` pre-builds tables so serve workers can
    set this to False and fall back to the classic path instead of
    stalling on a cold build).
    """

    resolution: int
    build_on_miss: bool = True

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError("tabulation grid needs at least 2 points per axis")

    def fingerprint(self) -> Tuple:
        """Cache-key component; excludes ``build_on_miss`` (it only
        changes *when* a table is built, never its content)."""
        return ("tabulation", TABULATION_SCHEMA_VERSION, self.resolution)


def resolve_tabulation(knob: object) -> Optional[TabulationConfig]:
    """Resolve a decomposer's ``tabulation`` knob to a config or ``None``.

    ``None`` consults the ``REPRO_DECOMP_TABULATION`` flag; booleans force
    the choice; a :class:`TabulationConfig` passes through.
    """
    if isinstance(knob, TabulationConfig):
        return knob
    if knob is None:
        if not flag_env(TABULATION_ENV_VAR):
            return None
        return TabulationConfig(resolution=default_grid_resolution())
    if knob:
        return TabulationConfig(resolution=default_grid_resolution())
    return None


# ---------------------------------------------------------------------------
# Grid + table data model
# ---------------------------------------------------------------------------


def chamber_grid(resolution: int) -> List[Tuple[float, float, float]]:
    """Grid points of the Weyl chamber ``pi/4 >= x >= y >= |z|``.

    Index-based: each axis takes ``resolution`` equidistant values in
    ``[0, pi/4]`` and only index triples inside the chamber are kept
    (``i >= j >= |k|``, with ``k >= 0`` on the ``x = pi/4`` face where
    ``(x, y, -z)`` is equivalent to ``(x, y, z)``).
    """
    axis = np.linspace(0.0, np.pi / 4, int(resolution))
    points: List[Tuple[float, float, float]] = []
    for i in range(len(axis)):
        for j in range(i + 1):
            for k in range(-j, j + 1):
                if i == len(axis) - 1 and k < 0:
                    continue
                z = axis[k] if k >= 0 else -axis[-k]
                points.append((float(axis[i]), float(axis[j]), float(z)))
    return points


@dataclass(frozen=True)
class TableEntry:
    """Optimised solutions of one chamber grid point, all layer counts.

    Unlike query profiles, entries do **not** stop at the first exact
    layer count: a grid point on a special subvariety (say the ``z = 0``
    plane, exact at two CZ layers) must still provide three-layer starts
    for the generic targets around it.
    """

    coords: Tuple[float, float, float]
    solutions: Tuple[LayerSolution, ...]


@dataclass(frozen=True)
class TableSpec:
    """Identity of one table: target gate/family x grid x decomposer knobs."""

    target_key: str
    target_fingerprint: str
    resolution: int
    max_layers: int
    restarts: int
    confirmation_restarts: int
    maxiter: int
    exact_threshold: float
    seed: int

    def cache_key(self) -> Tuple:
        """Content-addressed key tuple (feeds the disk cache's digest)."""
        return (
            "decomp-table",
            TABULATION_SCHEMA_VERSION,
            templates.OBJECTIVE_VERSION,
            self.target_key,
            self.target_fingerprint,
            self.resolution,
            self.max_layers,
            self.restarts,
            self.confirmation_restarts,
            self.maxiter,
            self.exact_threshold,
            self.seed,
        )

    def digest(self) -> str:
        return hash_scalars(*self.cache_key())


@dataclass
class DecompositionTable:
    """A built Weyl-chamber lookup table for one gate type or family."""

    spec: TableSpec
    entries: List[TableEntry]
    build_seconds: float = 0.0
    _invariants: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    def _entry_invariants(self) -> np.ndarray:
        """Closed-form invariants of every grid point, built lazily.

        Derived data: recomputed after unpickling rather than persisted,
        so the disk payload stays small and version-proof.
        """
        if self._invariants is None:
            coords = np.asarray([entry.coords for entry in self.entries])
            self._invariants = np.stack(
                canonical_invariants(coords[:, 0], coords[:, 1], coords[:, 2]),
                axis=-1,
            )
        return self._invariants

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_invariants"] = None
        return state

    def nearest(self, target: np.ndarray) -> TableEntry:
        """Grid entry nearest to a target, in the local-invariant metric.

        ``target`` is a 4x4 unitary.  Both sign branches of the SU(4)
        fourth-root ambiguity are considered, exactly like
        :func:`repro.gates.kak.invariant_distance`.
        """
        invariants = np.asarray(local_invariants(target))
        candidates = self._entry_invariants()
        flip = np.array([-1.0, 1.0, -1.0])
        distances = np.minimum(
            np.linalg.norm(candidates - invariants, axis=-1),
            np.linalg.norm(candidates * flip - invariants, axis=-1),
        )
        return self.entries[int(np.argmin(distances))]


# ---------------------------------------------------------------------------
# Fast 1q-only polish
# ---------------------------------------------------------------------------


def _polish_solution(
    decomposer: NuOpDecomposer,
    target: np.ndarray,
    solution: LayerSolution,
    gate: Optional[Gate],
    family: Optional[str],
) -> LayerSolution:
    """Re-optimise only the U3 angles of a tabulated solution for ``target``.

    Falls back to deterministic rescue restarts (zeros plus seeded random
    starts) when the tabulated start lands in a poor basin; the layer
    count and any continuous entangling angles stay frozen throughout.
    """
    template = decomposer._make_template(solution.num_layers, gate, family)
    single, two = template.split_parameters(solution.parameters)

    def objective(flat_single: np.ndarray) -> Tuple[float, np.ndarray]:
        # The shared template objective with the entangling angles frozen:
        # only the single-qubit block of the gradient is optimised.
        value, gradient = template.objective_with_gradient(
            np.concatenate([flat_single, two]), target
        )
        return value, gradient[: flat_single.size]

    def run(start: np.ndarray) -> Tuple[float, np.ndarray]:
        result = minimize(
            objective, start, jac=True, method="L-BFGS-B", options=_POLISH_OPTIONS
        )
        return float(result.fun), np.asarray(result.x, dtype=float)

    best_value, best_single = run(single.ravel())
    if 1.0 - best_value < solution.fidelity - _ESTIMATE_SLACK:
        # Rescue: the polish trails the grid point's own fidelity by more
        # than the smooth target-to-gridpoint variation can explain, so
        # the start landed in a wrong basin -- retry from the
        # deterministic starts the classic optimiser would use.  (Small
        # shortfalls are expected and legitimate: a grid point on a
        # special subvariety, say the CZ-exact ``z = 0`` plane, reports a
        # fidelity its off-plane neighbours cannot reach.)
        rng = np.random.default_rng(decomposer.seed)
        starts = [np.zeros(single.size)]
        starts += [
            rng.uniform(-np.pi, np.pi, size=single.size)
            for _ in range(max(decomposer.confirmation_restarts, 1))
        ]
        for start in starts:
            value, params = run(start)
            if value < best_value:
                best_value, best_single = value, params
            if 1.0 - best_value >= solution.fidelity - _ESTIMATE_SLACK:
                break
    flat = np.concatenate([best_single, two])
    return LayerSolution(solution.num_layers, 1.0 - best_value, flat)


# ---------------------------------------------------------------------------
# Table build + the three-tier store
# ---------------------------------------------------------------------------


def table_spec(
    decomposer: NuOpDecomposer,
    gate: Optional[Gate],
    family: Optional[str],
    config: TabulationConfig,
) -> TableSpec:
    """The table identity a decomposer/config pair resolves to."""
    if (gate is None) == (family is None):
        raise ValueError("provide exactly one of 'gate' or 'family'")
    if gate is not None:
        target_key = gate.type_key
        target_fp = gate_fingerprint(gate)
    else:
        target_key = f"family:{family}"
        target_fp = hash_scalars("family", family)
    return TableSpec(
        target_key=target_key,
        target_fingerprint=target_fp,
        resolution=config.resolution,
        max_layers=decomposer.max_layers,
        restarts=decomposer.restarts,
        confirmation_restarts=decomposer.confirmation_restarts,
        maxiter=decomposer.maxiter,
        exact_threshold=decomposer.exact_threshold,
        seed=decomposer.seed,
    )


def build_table(
    decomposer: NuOpDecomposer,
    gate: Optional[Gate],
    family: Optional[str],
    config: TabulationConfig,
) -> DecompositionTable:
    """Optimise every chamber grid point for every layer count.

    Grid points are optimised with the decomposer's own template
    machinery and seed, but with a restart floor (see ``_BUILD_RESTARTS``)
    and *without* the early stop at the exact threshold -- see
    :class:`TableEntry`.
    """
    import time

    spec = table_spec(decomposer, gate, family, config)
    builder = dataclasses.replace(
        decomposer, restarts=max(decomposer.restarts, _BUILD_RESTARTS)
    )
    started = time.perf_counter()
    entries: List[TableEntry] = []
    for coords in chamber_grid(config.resolution):
        point_target = canonical_gate(*coords)
        rng = np.random.default_rng(decomposer.seed)
        solutions = []
        floor = 0.0
        for num_layers in range(spec.max_layers + 1):
            template = builder._make_template(num_layers, gate, family)
            fidelity, params = builder._optimise_template(
                point_target, template, rng
            )
            # ``floor`` is the best fidelity over layer counts >= 1 so
            # far; dropping below it flags a failed optimisation (see
            # _BUILD_RETRIES).  Layer zero is excluded from the floor:
            # a single fixed entangler cannot emulate the identity, so
            # F(1) < F(0) is legitimate near the chamber origin.
            for _ in range(_BUILD_RETRIES):
                if fidelity >= floor - 1e-9:
                    break
                retry_fidelity, retry_params = builder._optimise_template(
                    point_target, template, rng
                )
                if retry_fidelity > fidelity:
                    fidelity, params = retry_fidelity, retry_params
            if num_layers >= 1:
                floor = max(floor, fidelity)
            solutions.append(LayerSolution(num_layers, fidelity, params))
        entries.append(TableEntry(coords=coords, solutions=tuple(solutions)))
    return DecompositionTable(
        spec=spec,
        entries=entries,
        build_seconds=time.perf_counter() - started,
    )


_TABLE_CACHE: "OrderedDict[str, DecompositionTable]" = OrderedDict()
_TABLE_CACHE_LOCK = Lock()
_TABLE_CACHE_MAX_ENTRIES = 32
# A table is ~tens of KB; 32 covers both devices' Table II catalogues
# plus the continuous families with room to spare, while bounding a
# serve worker that cycles through many decomposer configurations.
_TABLE_COUNTERS = {"hits": 0, "disk_loads": 0, "builds": 0}


def _table_cache_insert(digest: str, table: DecompositionTable, counter: str) -> None:
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE[digest] = table
        _TABLE_CACHE.move_to_end(digest)
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAX_ENTRIES:
            _TABLE_CACHE.popitem(last=False)
        _TABLE_COUNTERS[counter] += 1


def table_cache_stats() -> Dict[str, int]:
    """Counters + occupancy of the in-process table cache (for the CLI)."""
    with _TABLE_CACHE_LOCK:
        return {
            "hits": _TABLE_COUNTERS["hits"],
            "disk_loads": _TABLE_COUNTERS["disk_loads"],
            "builds": _TABLE_COUNTERS["builds"],
            "entries": len(_TABLE_CACHE),
        }


def clear_table_cache() -> None:
    """Drop every in-process table (the disk tier is unaffected)."""
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE.clear()


def table_for(
    decomposer: NuOpDecomposer,
    gate: Optional[Gate],
    family: Optional[str],
    config: TabulationConfig,
    build: Optional[bool] = None,
) -> Optional[DecompositionTable]:
    """Memory -> disk -> build resolution of one table.

    Returns ``None`` when the table is absent from both caches and
    building is disabled (``config.build_on_miss`` / the ``build``
    override); callers then fall back to the classic optimiser.  A built
    table is persisted to the ``decomp`` disk namespace when the disk
    tier is configured.
    """
    from repro.caching.disk import get_global_disk_cache

    spec = table_spec(decomposer, gate, family, config)
    digest = spec.digest()
    with _TABLE_CACHE_LOCK:
        table = _TABLE_CACHE.get(digest)
        if table is not None:
            _TABLE_CACHE.move_to_end(digest)
            _TABLE_COUNTERS["hits"] += 1
            return table
    disk = get_global_disk_cache()
    if disk is not None:
        table = disk.get_decomposition_table(spec.cache_key())
        if isinstance(table, DecompositionTable):
            _table_cache_insert(digest, table, "disk_loads")
            return table
    if not (config.build_on_miss if build is None else build):
        return None
    table = build_table(decomposer, gate, family, config)
    _table_cache_insert(digest, table, "builds")
    if disk is not None:
        disk.put_decomposition_table(spec.cache_key(), table)
    return table


# ---------------------------------------------------------------------------
# Query paths (called from NuOpDecomposer)
# ---------------------------------------------------------------------------


def _polished_solution_cached(
    decomposer: NuOpDecomposer,
    target: np.ndarray,
    entry: TableEntry,
    num_layers: int,
    gate: Optional[Gate],
    family: Optional[str],
) -> LayerSolution:
    """Polish one layer count, memoised in the process-wide profile LRU."""
    from repro.core.decomposer import _profile_cache_get, _profile_cache_put

    gate_key = gate.type_key if gate is not None else f"family:{family}"
    cache_key = decomposer._profile_cache_key(
        target, f"{gate_key}|polish", num_layers
    )
    cached = _profile_cache_get(cache_key)
    if cached is not None:
        return cached[0]
    polished = _polish_solution(
        decomposer, target, entry.solutions[num_layers], gate, family
    )
    _profile_cache_put(cache_key, [polished])
    return polished


def tabulated_profile(
    decomposer: NuOpDecomposer,
    target: np.ndarray,
    gate: Optional[Gate],
    family: Optional[str],
    limit: int,
    config: TabulationConfig,
) -> Optional[List[LayerSolution]]:
    """Full fidelity profile from the table: polish every layer count.

    Mirrors the classic profile's shape (ascending layer counts,
    truncated after the first solution at the exact threshold).  Returns
    ``None`` when no table is available or it is too shallow for
    ``limit``, so the caller falls back to the classic optimiser.
    """
    table = table_for(decomposer, gate, family, config)
    if table is None or limit > table.spec.max_layers:
        return None
    entry = table.nearest(target)
    profile: List[LayerSolution] = []
    for num_layers in range(limit + 1):
        polished = _polished_solution_cached(
            decomposer, target, entry, num_layers, gate, family
        )
        profile.append(polished)
        if polished.fidelity >= decomposer.exact_threshold:
            break
    return profile


def tabulated_decompose_exact(
    decomposer: NuOpDecomposer,
    target: np.ndarray,
    gate: Optional[Gate],
    family: Optional[str],
    threshold: float,
    max_layers: Optional[int],
    label: Optional[str],
    config: TabulationConfig,
):
    """Smallest-layer tabulated decomposition meeting ``threshold``.

    Candidate layer counts come from the grid entry's fidelity estimates
    (minus the slack a nearby chamber point's estimate can be off by);
    only candidates are polished.  Returns ``None`` (classic fallback)
    when no polished candidate reaches the threshold -- the classic
    optimiser both retries harder and defines the best-effort contract
    for unreachable thresholds.
    """
    limit = decomposer.max_layers if max_layers is None else int(max_layers)
    table = table_for(decomposer, gate, family, config)
    if table is None or limit > table.spec.max_layers:
        return None
    entry = table.nearest(target)
    for num_layers in range(limit + 1):
        if entry.solutions[num_layers].fidelity < threshold - _ESTIMATE_SLACK:
            continue
        polished = _polished_solution_cached(
            decomposer, target, entry, num_layers, gate, family
        )
        if polished.fidelity >= threshold:
            return decomposer._build_decomposition(
                target, polished, gate, family, 1.0, label
            )
    return None


def tabulated_decompose_approximate(
    decomposer: NuOpDecomposer,
    target: np.ndarray,
    gate: Optional[Gate],
    family: Optional[str],
    gate_fidelity: float,
    single_qubit_fidelity: float,
    max_layers: Optional[int],
    label: Optional[str],
    config: TabulationConfig,
):
    """Eq. 2 selection over polished candidates, pruned by estimates.

    Layer counts are polished in descending order of their *estimated*
    ``F_d * F_h`` so the strongest candidate sets the bar first; a layer
    count is skipped when even its upper bound -- the tabulated estimate
    plus the slack a nearby chamber point's estimate can be off by,
    capped at the unit fidelity bound -- times its hardware fidelity
    cannot beat the best polished score.  In the common CZ case this
    polishes the two contending layer counts and prunes the rest.

    The winner is then chosen from *polished* fidelities by replaying the
    classic ascending strict-improvement loop (including its truncation
    at the first exact solution), so the selected layer count matches the
    classic path whenever the polish reproduces the optimised fidelity.
    Returns ``None`` (classic fallback) when nothing was polished.
    """
    limit = decomposer.max_layers if max_layers is None else int(max_layers)
    table = table_for(decomposer, gate, family, config)
    if table is None or limit > table.spec.max_layers:
        return None
    entry = table.nearest(target)

    def hardware(num_layers: int) -> float:
        return gate_fidelity**num_layers * single_qubit_fidelity ** (
            2 * (num_layers + 1)
        )

    order = sorted(
        range(limit + 1),
        key=lambda L: (entry.solutions[L].fidelity * hardware(L), -L),
        reverse=True,
    )
    polished: Dict[int, LayerSolution] = {}
    best_overall = -np.inf
    for num_layers in order:
        factor = hardware(num_layers)
        bound = min(1.0, entry.solutions[num_layers].fidelity + _ESTIMATE_SLACK)
        if factor * bound <= best_overall + 1e-12:
            continue
        candidate = _polished_solution_cached(
            decomposer, target, entry, num_layers, gate, family
        )
        polished[num_layers] = candidate
        best_overall = max(best_overall, candidate.fidelity * factor)
    if not polished:
        return None
    best_solution: Optional[LayerSolution] = None
    best_hardware = 1.0
    best_overall = -np.inf
    for num_layers in sorted(polished):
        candidate = polished[num_layers]
        factor = hardware(num_layers)
        overall = candidate.fidelity * factor
        if overall > best_overall + 1e-12:
            best_overall = overall
            best_solution = candidate
            best_hardware = factor
        if candidate.fidelity >= decomposer.exact_threshold:
            break
    return decomposer._build_decomposition(
        target, best_solution, gate, family, best_hardware, label
    )
