"""Tests for device topologies."""

import networkx as nx
import pytest

from repro.devices.topology import (
    Topology,
    grid_topology,
    line_topology,
    octagon_chain_topology,
    ring_topology,
)


class TestTopologyConstruction:
    def test_basic_properties(self):
        topology = Topology(4, [(0, 1), (1, 2), (2, 3)], name="path")
        assert topology.num_qubits == 4
        assert topology.edges == [(0, 1), (1, 2), (2, 3)]
        assert topology.degree(1) == 2
        assert topology.neighbors(1) == [0, 2]

    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Topology(2, [(0, 0)])
        with pytest.raises(ValueError):
            Topology(2, [(0, 5)])

    def test_line_ring_grid_counts(self):
        assert len(line_topology(5).edges) == 4
        assert len(ring_topology(5).edges) == 5
        grid = grid_topology(3, 4)
        assert grid.num_qubits == 12
        assert len(grid.edges) == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_grid_connectivity_degree_bounds(self):
        grid = grid_topology(6, 9)
        assert grid.num_qubits == 54
        assert max(grid.degree(q) for q in range(54)) == 4
        assert nx.is_connected(grid.graph)


class TestDistancesAndPaths:
    def test_distance_and_swap_distance(self):
        line = line_topology(5)
        assert line.distance(0, 4) == 4
        assert line.swap_distance(0, 4) == 3
        assert line.swap_distance(0, 1) == 0
        assert line.are_connected(0, 1)
        assert not line.are_connected(0, 2)

    def test_shortest_path_endpoints(self):
        ring = ring_topology(6)
        path = ring.shortest_path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 4

    def test_connected_subset_check(self):
        line = line_topology(5)
        assert line.is_connected_subset([1, 2, 3])
        assert not line.is_connected_subset([0, 2])


class TestSubgraphEnumeration:
    def test_connected_subgraphs_size_and_connectivity(self):
        grid = grid_topology(3, 3)
        subsets = grid.connected_subgraphs(3, limit=50)
        assert subsets
        assert len(subsets) <= 50
        for subset in subsets:
            assert len(subset) == 3
            assert grid.is_connected_subset(subset)

    def test_subgraph_edges(self):
        line = line_topology(4)
        assert line.subgraph_edges([0, 1, 2]) == [(0, 1), (1, 2)]


class TestOctagonChain:
    def test_aspen_like_structure(self):
        topology = octagon_chain_topology(4, 8)
        assert topology.num_qubits == 32
        # Each ring contributes 8 edges, plus 2 inter-ring couplers per junction.
        assert len(topology.edges) == 4 * 8 + 3 * 2
        assert nx.is_connected(topology.graph)

    def test_missing_qubits_are_removed(self):
        topology = octagon_chain_topology(4, 8, missing_qubits=(17, 27))
        assert topology.num_qubits == 30
        assert 17 not in topology.graph.nodes
        assert all(17 not in edge and 27 not in edge for edge in topology.edges)

    def test_first_ring_is_a_cycle(self):
        topology = octagon_chain_topology(4, 8)
        for offset in range(8):
            assert topology.are_connected(offset, (offset + 1) % 8)


class TestFrozenTopology:
    """Topologies are frozen once built, so the edge list and distances stay valid."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: line_topology(5),
            lambda: ring_topology(6),
            lambda: grid_topology(3, 4),
            lambda: octagon_chain_topology(4, 8, missing_qubits=(17, 27)),
            lambda: Topology(4, [(1, 0), (2, 1), (3, 2)]),
        ],
        ids=["line", "ring", "grid", "octagon-missing", "explicit"],
    )
    def test_writes_raise_and_edges_stay(self, build):
        topology = build()
        expected = sorted(tuple(sorted(edge)) for edge in topology.graph.edges)
        assert nx.is_frozen(topology.graph)
        assert topology.edges == expected
        mutations = [
            lambda graph: graph.add_edge(0, 2),
            lambda graph: graph.add_node(99),
            lambda graph: graph.remove_edge(*expected[0]),
            lambda graph: graph.remove_node(0),
            lambda graph: graph.add_edges_from([(0, 3)]),
        ]
        for mutate in mutations:
            with pytest.raises(nx.NetworkXError):
                mutate(topology.graph)
        topology.edges.append((98, 99))  # callers get their own list
        assert topology.edges == expected

    def test_missing_qubits_dropped_before_freezing(self):
        topology = octagon_chain_topology(4, 8, missing_qubits=(17, 27))
        assert sorted(topology.graph.nodes) == [q for q in range(32) if q not in (17, 27)]
        with pytest.raises(ValueError):
            Topology(4, [(0, 1), (1, 2)], missing_qubits=(2,))
