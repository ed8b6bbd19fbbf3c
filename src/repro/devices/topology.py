"""Device connectivity graphs.

Wraps a :class:`networkx.Graph` with the handful of queries the compiler
and the experiment drivers need: adjacency tests, shortest paths / swap
distances and connected-subgraph enumeration for initial qubit placement.
Constructors are provided for the topologies used in the paper: rings and
octagon chains (Rigetti Aspen family) and rectangular grids (Google
Sycamore).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

Edge = Tuple[int, int]


class Topology:
    """Undirected device connectivity graph over integer-labelled qubits.

    Qubits are ``0 .. num_qubits - 1`` minus ``missing_qubits`` (labels
    keep their gaps, matching vendor calibration data).  The graph is
    frozen (``networkx.freeze``) once built, so the sorted edge list and
    the distance table are computed once and stay valid.
    """

    def __init__(
        self,
        num_qubits: int,
        edges: Iterable[Sequence[int]],
        name: str = "topology",
        missing_qubits: Iterable[int] = (),
    ):
        self.name = name
        missing = {int(q) for q in missing_qubits}
        graph = nx.Graph()
        graph.add_nodes_from(q for q in range(int(num_qubits)) if q not in missing)
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("self-loop edges are not allowed")
            if a >= num_qubits or b >= num_qubits or a < 0 or b < 0:
                raise ValueError(f"edge ({a}, {b}) outside qubit range")
            if a in missing or b in missing:
                raise ValueError(f"edge ({a}, {b}) touches a missing qubit")
            graph.add_edge(*sorted((a, b)))
        self.graph: nx.Graph = nx.freeze(graph)
        self._edges: Tuple[Edge, ...] = tuple(sorted(tuple(sorted(edge)) for edge in graph.edges))
        self._distances: Optional[Dict[int, Dict[int, int]]] = None

    # -- basic queries --------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits (nodes)."""
        return self.graph.number_of_nodes()

    @property
    def edges(self) -> List[Edge]:
        """Sorted list of coupler edges (a new list per call; the graph is frozen)."""
        return list(self._edges)

    def degree(self, qubit: int) -> int:
        """Number of couplers attached to ``qubit``."""
        return self.graph.degree[qubit]

    def neighbors(self, qubit: int) -> List[int]:
        """Qubits directly coupled to ``qubit``."""
        return sorted(self.graph.neighbors(qubit))

    def are_connected(self, a: int, b: int) -> bool:
        """True when a two-qubit gate can act directly on ``(a, b)``."""
        return self.graph.has_edge(int(a), int(b))

    def is_connected_subset(self, qubits: Sequence[int]) -> bool:
        """True when ``qubits`` induce a connected subgraph."""
        subgraph = self.graph.subgraph(qubits)
        return len(qubits) > 0 and nx.is_connected(subgraph)

    # -- distances ------------------------------------------------------------

    def _ensure_distances(self) -> Dict[int, Dict[int, int]]:
        if self._distances is None:
            self._distances = dict(nx.all_pairs_shortest_path_length(self.graph))
        return self._distances

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance (in couplers) between two qubits."""
        return self._ensure_distances()[int(a)][int(b)]

    def shortest_path(self, a: int, b: int) -> List[int]:
        """A shortest path of qubits from ``a`` to ``b`` inclusive."""
        return nx.shortest_path(self.graph, int(a), int(b))

    def swap_distance(self, a: int, b: int) -> int:
        """Number of SWAPs needed to make ``a`` and ``b`` adjacent."""
        return max(self.distance(a, b) - 1, 0)

    # -- placement helpers -----------------------------------------------------

    def connected_subgraphs(self, size: int, limit: int = 200) -> List[Tuple[int, ...]]:
        """Enumerate up to ``limit`` connected qubit subsets of the given size.

        Uses a breadth-first expansion from every qubit; sufficient for the
        small application sizes (3-6 qubits) the paper evaluates.
        """
        if size < 1 or size > self.num_qubits:
            return []
        found: List[Tuple[int, ...]] = []
        seen = set()
        for start in sorted(self.graph.nodes):
            frontier = [(start,)]
            while frontier and len(found) < limit:
                subset = frontier.pop()
                if len(subset) == size:
                    key = tuple(sorted(subset))
                    if key not in seen:
                        seen.add(key)
                        found.append(key)
                    continue
                last_neighbors = set()
                for qubit in subset:
                    last_neighbors.update(self.graph.neighbors(qubit))
                for candidate in sorted(last_neighbors - set(subset)):
                    frontier.append(subset + (candidate,))
            if len(found) >= limit:
                break
        return found

    def subgraph_edges(self, qubits: Sequence[int]) -> List[Edge]:
        """Edges of the induced subgraph over ``qubits``."""
        subgraph = self.graph.subgraph(qubits)
        return sorted(tuple(sorted(edge)) for edge in subgraph.edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.name!r}, qubits={self.num_qubits}, "
            f"edges={self.graph.number_of_edges()})"
        )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def line_topology(num_qubits: int, name: str = "line") -> Topology:
    """A 1D chain of qubits."""
    return Topology(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)], name=name)


def ring_topology(num_qubits: int, name: str = "ring") -> Topology:
    """A single ring of qubits."""
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return Topology(num_qubits, edges, name=name)


def grid_topology(rows: int, cols: int, name: str = "grid") -> Topology:
    """A ``rows x cols`` rectangular grid (the paper describes Sycamore as grid-connected)."""
    def index(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((index(r, c), index(r, c + 1)))
            if r + 1 < rows:
                edges.append((index(r, c), index(r + 1, c)))
    return Topology(rows * cols, edges, name=name)


def octagon_chain_topology(
    num_rings: int,
    ring_size: int = 8,
    missing_qubits: Sequence[int] = (),
    name: str = "octagon_chain",
) -> Topology:
    """Chain of octagonal rings, the Rigetti Aspen family layout.

    Ring ``k`` occupies qubits ``k*ring_size .. (k+1)*ring_size - 1`` wired
    in a cycle.  Adjacent rings are joined by two couplers connecting the
    facing sides of the octagons (qubits 1 and 2 of one ring to qubits 6
    and 5 of the next, mirroring the Aspen-8 lattice).  ``missing_qubits``
    removes non-functional qubits and their couplers.
    """
    total = num_rings * ring_size
    edges: List[Edge] = []
    for ring in range(num_rings):
        base = ring * ring_size
        for offset in range(ring_size):
            edges.append((base + offset, base + (offset + 1) % ring_size))
        if ring + 1 < num_rings:
            next_base = (ring + 1) * ring_size
            edges.append((base + 1, next_base + 6))
            edges.append((base + 2, next_base + 5))
    missing = set(int(q) for q in missing_qubits)
    kept_edges = [e for e in edges if e[0] not in missing and e[1] not in missing]
    # Relabelling is intentionally *not* done: Aspen qubit ids keep gaps
    # for non-functional qubits, matching vendor calibration data.
    return Topology(total, kept_edges, name=name, missing_qubits=missing)
