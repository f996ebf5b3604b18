"""Tests for ETX/ETT metrics, Dijkstra routing and the routing matrix."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net.routing import (
    FlowRoute,
    Router,
    build_routing_matrix,
    dijkstra,
    ett,
    etx,
    path_loss_probability,
)
from repro.phy.radio import RATE_1MBPS, RATE_11MBPS


class TestEtxEtt:
    def test_etx_perfect_link(self):
        assert etx(0.0, 0.0) == pytest.approx(1.0)

    def test_etx_symmetrical_loss(self):
        assert etx(0.5, 0.0) == pytest.approx(2.0)
        assert etx(0.0, 0.5) == pytest.approx(2.0)

    def test_etx_dead_link_is_infinite(self):
        assert etx(1.0, 0.0) == float("inf")

    def test_ett_scales_with_rate(self):
        slow = ett(0.0, 0.0, 1500, RATE_1MBPS)
        fast = ett(0.0, 0.0, 1500, RATE_11MBPS)
        assert slow == pytest.approx(11 * fast, rel=1e-6)

    def test_ett_dead_link(self):
        assert ett(1.0, 0.0, 1500, RATE_11MBPS) == float("inf")

    @given(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=0.0, max_value=0.99))
    def test_etx_at_least_one(self, p_fwd, p_rev):
        assert etx(p_fwd, p_rev) >= 1.0


class TestDijkstra:
    def test_simple_chain(self):
        nodes = [0, 1, 2]
        weights = {(0, 1): 1.0, (1, 2): 1.0, (1, 0): 1.0, (2, 1): 1.0}
        result = dijkstra(nodes, weights, 0)
        assert result.path_to(2) == [0, 1, 2]
        assert result.distance[2] == pytest.approx(2.0)

    def test_prefers_lower_cost_path(self):
        nodes = [0, 1, 2]
        weights = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 5.0}
        assert dijkstra(nodes, weights, 0).path_to(2) == [0, 1, 2]
        weights[(0, 2)] = 1.5
        assert dijkstra(nodes, weights, 0).path_to(2) == [0, 2]

    def test_unreachable_destination(self):
        result = dijkstra([0, 1, 2], {(0, 1): 1.0}, 0)
        assert result.path_to(2) is None

    def test_infinite_weight_treated_as_absent(self):
        result = dijkstra([0, 1], {(0, 1): float("inf")}, 0)
        assert result.path_to(1) is None

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            dijkstra([0, 1], {(0, 1): -1.0}, 0)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            dijkstra([0, 1], {(0, 1): 1.0}, 7)

    def test_agrees_with_networkx_on_random_graphs(self):
        import networkx as nx

        rng = np.random.default_rng(4)
        for _ in range(5):
            n = 8
            graph = nx.gnp_random_graph(n, 0.4, seed=int(rng.integers(1e6)))
            weights = {}
            for u, v in graph.edges:
                w = float(rng.uniform(0.5, 3.0))
                weights[(u, v)] = w
                weights[(v, u)] = w
                graph[u][v]["weight"] = w
            ours = dijkstra(list(range(n)), weights, 0)
            theirs = nx.single_source_dijkstra_path_length(graph, 0, weight="weight")
            for node, dist in theirs.items():
                assert ours.distance[node] == pytest.approx(dist)


class TestRouter:
    def test_shortest_paths(self):
        nodes = [0, 1, 2, 3]
        weights = {}
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            weights[(a, b)] = 1.0
            weights[(b, a)] = 1.0
        router = Router(nodes, weights)
        assert router.shortest_path(0, 3) == [0, 1, 2, 3]
        assert router.shortest_path(1, 3) == [1, 2, 3]

    def test_no_path_is_none(self):
        router = Router([0, 1, 2], {(0, 1): 1.0, (1, 0): 1.0})
        assert router.shortest_path(0, 2) is None


class TestRoutingMatrix:
    def test_matrix_shape_and_entries(self):
        flows = [
            FlowRoute(0, 0, 2, [0, 1, 2]),
            FlowRoute(1, 1, 2, [1, 2]),
        ]
        routing = build_routing_matrix(flows)
        assert routing.matrix.shape == (2, 2)
        idx_01 = routing.links.index((0, 1))
        idx_12 = routing.links.index((1, 2))
        assert routing.matrix[idx_01, 0] == 1.0
        assert routing.matrix[idx_01, 1] == 0.0
        assert routing.matrix[idx_12, 0] == 1.0
        assert routing.matrix[idx_12, 1] == 1.0

    def test_explicit_link_order_respected(self):
        flows = [FlowRoute(0, 0, 1, [0, 1])]
        routing = build_routing_matrix(flows, links=[(5, 6), (0, 1)])
        assert routing.matrix[0, 0] == 0.0
        assert routing.matrix[1, 0] == 1.0

    def test_missing_link_raises(self):
        flows = [FlowRoute(0, 0, 1, [0, 1])]
        with pytest.raises(ValueError):
            build_routing_matrix(flows, links=[(5, 6)])


class TestPathLoss:
    def test_single_link(self):
        assert path_loss_probability({(0, 1): 0.2}, [0, 1]) == pytest.approx(0.2)

    def test_two_links_compose(self):
        losses = {(0, 1): 0.1, (1, 2): 0.2}
        assert path_loss_probability(losses, [0, 1, 2]) == pytest.approx(1 - 0.9 * 0.8)

    def test_unknown_links_lossless(self):
        assert path_loss_probability({}, [0, 1, 2]) == pytest.approx(0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
    def test_bounded_and_monotone(self, losses):
        path = list(range(len(losses) + 1))
        mapping = {(i, i + 1): p for i, p in enumerate(losses)}
        total = path_loss_probability(mapping, path)
        assert 0.0 <= total <= 1.0
        assert total >= max(losses) - 1e-12
