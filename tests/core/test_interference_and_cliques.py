"""Tests for LIR, interference maps, clique enumeration and conflict graphs."""

import gc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _parent_oracles as oracle
from repro.core.cliques import (
    adjacency_from_edges,
    maximal_cliques,
    maximal_independent_sets,
)
from repro.core.conflict_graph import ConflictGraph
from repro.core.controller import LinkProbes, ProbeWindow, build_conflict_graph
from repro.core.interference import (
    BinaryLirClassifier,
    PairwiseInterferenceMap,
    link_interference_ratio,
    two_hop_conflict_matrix,
)
from repro.mac.constants import DEFAULT_MAC_CONFIG
from repro.phy.radio import RATE_11MBPS


def _two_hop(links, neighbors):
    """``two_hop_conflict_matrix`` on a neighbour map, as the conflict graph."""
    nodes = sorted({n for link in links for n in link}.union(neighbors, *neighbors.values()))
    index = {node: i for i, node in enumerate(nodes)}
    heard = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for node, near in neighbors.items():
        heard[index[node], [index[other] for other in near]] = True
    endpoints = np.array([(index[a], index[b]) for a, b in links], dtype=int).reshape(-1, 2)
    rows = two_hop_conflict_matrix(endpoints, heard).tolist()
    adjacency = {a: {b for b, hit in zip(links, row) if hit} for a, row in zip(links, rows)}
    return ConflictGraph(links, adjacency)


class TestLir:
    def test_no_interference(self):
        assert link_interference_ratio(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_perfect_time_sharing(self):
        assert link_interference_ratio(1.0, 1.0, 0.5, 0.5) == pytest.approx(0.5)

    def test_total_starvation(self):
        assert link_interference_ratio(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_zero_capacity_pair(self):
        assert link_interference_ratio(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            link_interference_ratio(-1.0, 1.0, 0.5, 0.5)

    def test_classifier_threshold(self):
        classifier = BinaryLirClassifier(threshold=0.95)
        assert classifier.interferes(0.7)
        assert not classifier.interferes(0.97)

    def test_classifier_validation(self):
        with pytest.raises(ValueError):
            BinaryLirClassifier(threshold=0.0)


class TestInterferenceMap:
    def test_add_and_query_conflicts(self):
        links = [(0, 1), (2, 3), (4, 5)]
        imap = PairwiseInterferenceMap(links)
        imap.add_conflict((0, 1), (2, 3))
        assert imap.interferes((0, 1), (2, 3))
        assert imap.interferes((2, 3), (0, 1))
        assert not imap.interferes((0, 1), (4, 5))
        assert imap.conflicts_of((0, 1)) == [(2, 3)]

    def test_self_conflict_ignored(self):
        imap = PairwiseInterferenceMap([(0, 1)])
        imap.add_conflict((0, 1), (0, 1))
        assert not imap.interferes((0, 1), (0, 1))

    def test_unknown_link_rejected(self):
        imap = PairwiseInterferenceMap([(0, 1)])
        with pytest.raises(KeyError):
            imap.add_conflict((0, 1), (8, 9))

    def test_duplicate_links_rejected(self):
        with pytest.raises(ValueError):
            PairwiseInterferenceMap([(0, 1), (0, 1)])

    def test_from_lir_measurements(self):
        links = [(0, 1), (2, 3), (4, 5)]
        lirs = {((0, 1), (2, 3)): 0.5, ((0, 1), (4, 5)): 0.99}
        imap = PairwiseInterferenceMap.from_lir_measurements(lirs, links)
        assert imap.interferes((0, 1), (2, 3))
        assert not imap.interferes((0, 1), (4, 5))

    def test_two_hop_shared_endpoint(self):
        links = [(0, 1), (1, 2), (3, 4)]
        graph = _two_hop(links, neighbors={})
        assert graph.interferes((0, 1), (1, 2))
        assert not graph.interferes((0, 1), (3, 4))

    def test_two_hop_neighbourhood(self):
        # Links (0,1) and (2,3) don't share endpoints, but node 1 and node 2
        # are neighbours, so the two-hop rule marks them as conflicting.
        links = [(0, 1), (2, 3)]
        graph = _two_hop(links, neighbors={1: {2}, 2: {1}})
        assert graph.interferes((0, 1), (2, 3))

    def test_two_hop_far_links_do_not_conflict(self):
        links = [(0, 1), (4, 5)]
        neighbors = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        graph = _two_hop(links, neighbors)
        assert not graph.interferes((0, 1), (4, 5))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=14, unique=True
        ),
        st.dictionaries(st.integers(0, 11), st.sets(st.integers(0, 11), max_size=4), max_size=10),
    )
    def test_two_hop_equals_the_set_based_relation(self, links, neighbors):
        """Any link list (self-loops and both directions included) under
        any neighbour map, symmetric or not: the boolean matrix algebra
        is the reach-set construction it replaced, and the pairwise
        definition before that."""
        graph = _two_hop(links, neighbors)
        assert graph.links == links
        assert graph.adjacency == oracle.from_two_hop(links, neighbors)
        assert graph.adjacency == oracle.two_hop_adjacency(links, neighbors)

    def test_a_conflict_graph_owns_its_adjacency(self):
        links = [(0, 1), (2, 3), (4, 5)]
        imap = PairwiseInterferenceMap(links)
        imap.add_conflict(links[0], links[1])
        graph = ConflictGraph.from_interference_map(imap)
        imap.add_conflict(links[0], links[2])
        assert graph.adjacency == {links[0]: {links[1]}, links[1]: {links[0]}, links[2]: set()}

    def test_membership_is_checked_against_a_set(self):
        """``add_conflict`` on a dense 60-link map stays linear per edge:
        it used to scan the link list twice per call."""

        class CountingLink(tuple):
            comparisons = 0

            def __eq__(self, other):
                CountingLink.comparisons += 1
                return tuple.__eq__(self, other)

            __hash__ = tuple.__hash__

        links = [CountingLink((2 * i, 2 * i + 1)) for i in range(60)]
        imap = PairwiseInterferenceMap(links)
        CountingLink.comparisons = 0
        for i, link_a in enumerate(links):
            for link_b in links[i + 1 :]:
                imap.add_conflict(link_a, link_b)
        # 1770 edges; a list scan costs ~60 comparisons for each of them.
        assert CountingLink.comparisons < 20 * 1770
        assert all(len(imap.adjacency[link]) == 59 for link in links)
        assert imap.interferes(links[0], links[59]) and not imap.interferes(links[0], (7, 7))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 9),
        st.data(),
        st.sampled_from([0.3, 0.5, 0.8]),
    )
    def test_connectivity_from_the_ack_table_equals_the_dict_map(self, size, data, threshold):
        """The controller's neighbour relation read from the ``N x N`` ACK
        table (NaN rows for nodes that never probed) is the dict-of-sets
        map built from its ``ack_loss_rates`` view, through to the
        two-hop conflict graph."""
        losses = st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0, float("nan")])
        row = st.lists(losses, min_size=size, max_size=size)
        table = np.array(data.draw(st.lists(row, min_size=size, max_size=size)))
        silent = data.draw(st.lists(st.integers(0, size - 1), max_size=2))
        table[silent] = np.nan
        np.fill_diagonal(table, np.nan)
        links = data.draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        nothing = np.zeros(0, dtype=int)
        probes = {link: LinkProbes(RATE_11MBPS, nothing, nothing) for link in links}
        window = ProbeWindow.from_probes(probes, range(size), table, DEFAULT_MAC_CONFIG)
        graph = build_conflict_graph(window, connectivity_threshold=threshold)
        assert graph.adjacency == oracle.conflict_adjacency(window, threshold)


class TestCliques:
    def test_triangle_cliques(self):
        adjacency = adjacency_from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        cliques = maximal_cliques(adjacency)
        assert cliques == [frozenset({1, 2, 3})]

    def test_path_graph_cliques(self):
        adjacency = adjacency_from_edges([1, 2, 3], [(1, 2), (2, 3)])
        assert set(maximal_cliques(adjacency)) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_empty_graph(self):
        assert maximal_cliques({}) == []

    def test_isolated_vertices_are_their_own_cliques(self):
        adjacency = {1: set(), 2: set()}
        assert set(maximal_cliques(adjacency)) == {frozenset({1}), frozenset({2})}

    def test_independent_sets_of_path(self):
        adjacency = adjacency_from_edges([1, 2, 3], [(1, 2), (2, 3)])
        assert set(maximal_independent_sets(adjacency)) == {
            frozenset({1, 3}),
            frozenset({2}),
        }

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            maximal_cliques({1: {2}, 2: set()})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            maximal_cliques({1: {1}})

    def test_an_enumeration_leaves_no_reference_cycle(self):
        """The controller enumerates once per cycle: a recursion that
        holds itself (a nested function calling itself) would leave the
        graph behind as cyclic garbage every time."""
        adjacency = adjacency_from_edges(range(6), [(v, v + 1) for v in range(5)])
        gc.collect()
        gc.disable()
        try:
            assert len(maximal_independent_sets(adjacency)) > 1
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.1, max_value=0.7))
    def test_matches_networkx_on_random_graphs(self, seed, density):
        graph = nx.gnp_random_graph(9, density, seed=seed)
        adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes}
        ours = set(maximal_cliques(adjacency))
        theirs = {frozenset(c) for c in nx.find_cliques(graph)}
        assert ours == theirs

    @pytest.mark.parametrize(
        "adjacency",
        [
            {},
            {7: set()},
            adjacency_from_edges(range(12), [(a, b) for a in range(12) for b in range(a)]),
            {**adjacency_from_edges(range(5), [(0, 1), (1, 2), (3, 4)]), 10: set(), 11: set()},
            adjacency_from_edges([(0, 1), (1, 2), (2, 3), (10, 7)], [((0, 1), (1, 2))]),
        ],
        ids=["empty", "one-vertex", "complete", "isolated-vertices", "links"],
    )
    def test_named_graphs_enumerate_as_the_set_based_search(self, adjacency):
        assert maximal_cliques(adjacency) == oracle.maximal_cliques(adjacency)
        assert maximal_independent_sets(adjacency) == oracle.maximal_independent_sets(adjacency)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=24),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
    )
    def test_bitmasks_enumerate_as_the_set_based_search(self, size, density, seed, as_links):
        """The same list in the same order — the order the secondary
        extreme points, and so the solver's bits, follow — for integer
        vertices (whose reprs sort "10" before "2") and link tuples."""
        graph = nx.gnp_random_graph(size, density, seed=seed)
        name = (lambda v: (v % 7, v)) if as_links else (lambda v: v)
        adjacency = {name(v): {name(u) for u in graph.neighbors(v)} for v in graph.nodes}
        assert maximal_cliques(adjacency) == oracle.maximal_cliques(adjacency)
        assert maximal_independent_sets(adjacency) == oracle.maximal_independent_sets(adjacency)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_independent_sets_are_independent_and_maximal(self, seed):
        graph = nx.gnp_random_graph(8, 0.4, seed=seed)
        adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes}
        for mis in maximal_independent_sets(adjacency):
            # Independence: no edge inside the set.
            for a in mis:
                assert not (adjacency[a] & mis)
            # Maximality: every vertex outside has a neighbour inside.
            for v in set(adjacency) - mis:
                assert adjacency[v] & mis


class TestConflictGraph:
    def _simple_graph(self):
        links = [(0, 1), (2, 3), (4, 5)]
        imap = PairwiseInterferenceMap(links)
        imap.add_conflict((0, 1), (2, 3))
        imap.add_conflict((2, 3), (4, 5))
        return ConflictGraph.from_interference_map(imap)

    def test_edges_and_degree(self):
        graph = self._simple_graph()
        assert graph.num_edges == 2
        assert graph.degree((2, 3)) == 2
        assert graph.interferes((0, 1), (2, 3))
        assert not graph.interferes((0, 1), (4, 5))

    def test_independent_sets(self):
        graph = self._simple_graph()
        sets = set(graph.independent_sets())
        assert frozenset({(0, 1), (4, 5)}) in sets
        assert frozenset({(2, 3)}) in sets

    def test_networkx_export(self):
        graph = self._simple_graph()
        exported = graph.to_networkx()
        assert exported.number_of_nodes() == 3
        assert exported.number_of_edges() == 2

    def test_adjacency_must_cover_links(self):
        with pytest.raises(ValueError):
            ConflictGraph(links=[(0, 1)], adjacency={})
