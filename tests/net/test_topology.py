"""Tests for deployments and the Topology container."""

from __future__ import annotations

import pytest

from repro import RngStreams
from repro.errors import TopologyError
from repro.net.topology import (
    PAPER_AREA_M,
    PAPER_RANGE_M,
    Topology,
    grid_deployment,
    random_deployment,
    regular_topology,
)


class TestRandomDeployment:
    def test_node_count(self):
        topo = random_deployment(50, seed=1)
        assert topo.node_count == 50

    def test_positions_inside_area(self):
        topo = random_deployment(100, area=200.0, seed=2)
        for point in topo.positions:
            assert 0.0 <= point.x <= 200.0
            assert 0.0 <= point.y <= 200.0

    def test_base_station_centered_by_default(self):
        topo = random_deployment(10, seed=3)
        assert topo.positions[0].x == pytest.approx(PAPER_AREA_M / 2)
        assert topo.positions[0].y == pytest.approx(PAPER_AREA_M / 2)

    def test_base_station_random_when_disabled(self):
        topo = random_deployment(10, seed=3, base_station_center=False)
        centered = (
            topo.positions[0].x == pytest.approx(PAPER_AREA_M / 2)
            and topo.positions[0].y == pytest.approx(PAPER_AREA_M / 2)
        )
        assert not centered

    def test_reproducible_with_seed(self):
        a = random_deployment(30, seed=7)
        b = random_deployment(30, seed=7)
        assert a.positions == b.positions

    def test_streams_override_seed(self):
        a = random_deployment(30, streams=RngStreams(5))
        b = random_deployment(30, streams=RngStreams(5))
        c = random_deployment(30, streams=RngStreams(6))
        assert a.positions == b.positions
        assert a.positions != c.positions

    def test_require_connected(self):
        topo = random_deployment(
            60, area=150.0, seed=4, require_connected=True
        )
        assert topo.is_connected()

    def test_require_connected_impossible_raises(self):
        with pytest.raises(TopologyError):
            random_deployment(
                3,
                area=10_000.0,
                radio_range=1.0,
                seed=4,
                require_connected=True,
                max_attempts=3,
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(TopologyError):
            random_deployment(0)
        with pytest.raises(TopologyError):
            random_deployment(5, area=-1.0)

    def test_default_paper_parameters(self):
        topo = random_deployment(400, seed=1)
        assert topo.radio_range == PAPER_RANGE_M
        # Dense regime: Table I says average degree ~18.6 at N=400.
        assert 14 < topo.average_degree() < 22


class TestGridDeployment:
    def test_neighbourhood_structure(self):
        topo = grid_deployment(3, 3, spacing=10.0, radio_range=10.0)
        # Centre node (index 4) touches 4 orthogonal neighbours only.
        assert topo.neighbors(4) == frozenset({1, 3, 5, 7})

    def test_diagonals_with_larger_range(self):
        topo = grid_deployment(3, 3, spacing=10.0, radio_range=15.0)
        assert topo.neighbors(4) == frozenset({0, 1, 2, 3, 5, 6, 7, 8})

    def test_rejects_bad_dimensions(self):
        with pytest.raises(TopologyError):
            grid_deployment(0, 3, spacing=1.0)
        with pytest.raises(TopologyError):
            grid_deployment(3, 3, spacing=0.0)

    def test_line_is_connected(self):
        topo = grid_deployment(1, 6, spacing=40.0, radio_range=50.0)
        assert topo.is_connected()
        assert topo.degree(0) == 1
        assert topo.degree(1) == 2


class TestRegularTopology:
    def test_every_node_has_exact_degree(self):
        topo = regular_topology(30, 4, seed=2)
        assert all(topo.degree(i) == 4 for i in range(30))

    def test_rejects_odd_total(self):
        with pytest.raises(TopologyError):
            regular_topology(5, 3)

    def test_rejects_degree_too_large(self):
        with pytest.raises(TopologyError):
            regular_topology(5, 5)

    def test_reproducible(self):
        a = regular_topology(20, 4, seed=9)
        b = regular_topology(20, 4, seed=9)
        assert a.adjacency == b.adjacency


class TestTopologyQueries:
    def test_unknown_node_raises(self):
        topo = grid_deployment(2, 2, spacing=10.0)
        with pytest.raises(TopologyError):
            topo.neighbors(99)

    def test_edges_unique_and_ordered(self):
        topo = grid_deployment(2, 2, spacing=10.0, radio_range=10.0)
        edges = topo.edges()
        assert edges == sorted(set(edges))
        assert all(i < j for i, j in edges)

    def test_average_degree_matches_edges(self):
        topo = random_deployment(50, area=150.0, seed=6)
        assert topo.average_degree() == pytest.approx(
            2 * len(topo.edges()) / topo.node_count
        )

    def test_degree_histogram_totals(self):
        topo = random_deployment(50, area=150.0, seed=6)
        hist = topo.degree_histogram()
        assert sum(hist.values()) == topo.node_count

    def test_connected_component(self):
        # Two far-apart pairs.
        from repro.net.geometry import Point

        topo = Topology(
            positions=[Point(0, 0), Point(1, 0), Point(100, 0), Point(101, 0)],
            radio_range=2.0,
        )
        assert not topo.is_connected()
        assert topo.connected_component_of(0) == frozenset({0, 1})
        assert topo.connected_component_of(3) == frozenset({2, 3})

    def test_zero_range_rejected(self):
        from repro.net.geometry import Point

        with pytest.raises(TopologyError):
            Topology(positions=[Point(0, 0)], radio_range=0.0)


class TestExplicitAdjacency:
    @staticmethod
    def _topology(adjacency):
        import numpy as np

        return Topology(
            coords=np.zeros((len(adjacency), 2)),
            radio_range=1.0,
            adjacency=adjacency,
        )

    @pytest.mark.parametrize(
        "adjacency",
        [
            {0: {1}, 1: set()},
            {0: set(), 1: {0}},
            {0: {1, 2}, 1: {0}, 2: set()},
            {0: {1}},  # node 1 has no entry at all
        ],
    )
    def test_one_way_link_rejected(self, adjacency):
        with pytest.raises(TopologyError, match="one direction"):
            self._topology(adjacency)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="own neighbour"):
            self._topology({0: {0, 1}, 1: {0}})

    def test_symmetric_adjacency_accepted(self):
        topo = self._topology(
            {0: frozenset({1}), 1: frozenset({0, 2}), 2: frozenset({1})}
        )
        assert topo.edges() == [(0, 1), (1, 2)]
        assert topo.neighbors(1) == frozenset({0, 2})

    def test_node_missing_from_the_dict_is_isolated(self):
        import numpy as np

        topo = Topology(
            coords=np.zeros((3, 2)),
            radio_range=1.0,
            adjacency={0: frozenset({1}), 1: frozenset({0})},
        )
        assert topo.neighbors(2) == frozenset()
        assert topo.edges() == [(0, 1)]

    def test_regular_topology_is_undirected(self):
        topo = regular_topology(30, 4, seed=3)
        assert all(
            node in topo.neighbors(nbr)
            for node in range(30)
            for nbr in topo.neighbors(node)
        )
