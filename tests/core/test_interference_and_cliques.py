"""Tests for LIR, interference maps, clique enumeration and conflict graphs."""

import gc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import _parent_oracles as oracle
from repro.core.cliques import (
    adjacency_from_edges,
    complement_graph,
    maximal_cliques,
    maximal_independent_sets,
)
from repro.core.conflict_graph import ConflictGraph
from repro.core.interference import (
    BinaryLirClassifier,
    PairwiseInterferenceMap,
    connectivity_from_loss_rates,
    link_interference_ratio,
)


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
        imap = PairwiseInterferenceMap.from_two_hop(links, neighbors={})
        assert imap.interferes((0, 1), (1, 2))
        assert not imap.interferes((0, 1), (3, 4))

    def test_two_hop_neighbourhood(self):
        # Links (0,1) and (2,3) don't share endpoints, but node 1 and node 2
        # are neighbours, so the two-hop rule marks them as conflicting.
        links = [(0, 1), (2, 3)]
        imap = PairwiseInterferenceMap.from_two_hop(links, neighbors={1: {2}, 2: {1}})
        assert imap.interferes((0, 1), (2, 3))

    def test_two_hop_far_links_do_not_conflict(self):
        links = [(0, 1), (4, 5)]
        neighbors = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        imap = PairwiseInterferenceMap.from_two_hop(links, neighbors)
        assert not imap.interferes((0, 1), (4, 5))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=14, unique=True
        ),
        st.dictionaries(st.integers(0, 11), st.sets(st.integers(0, 11), max_size=4), max_size=10),
    )
    def test_two_hop_equals_the_pairwise_definition(self, links, neighbors):
        """Any link list (self-loops and both directions included) under
        any neighbour map, symmetric or not: the reach-set construction
        is the nested set algebra it replaced."""
        imap = PairwiseInterferenceMap.from_two_hop(links, neighbors)
        expected = oracle.two_hop_adjacency(links, neighbors)
        assert imap.adjacency == expected
        graph = ConflictGraph.from_interference_map(imap)
        assert graph.links == links and graph.adjacency == expected
        # The graph owns its adjacency: later conflicts do not reach it.
        imap.add_conflict(links[0], links[-1])
        assert graph.adjacency == expected

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

    def test_connectivity_from_loss_rates(self):
        loss = {(0, 1): 0.1, (1, 0): 0.2, (0, 2): 0.95}
        neighbors = connectivity_from_loss_rates(loss, delivery_threshold=0.5)
        assert 1 in neighbors[0] and 0 in neighbors[1]
        assert 2 not in neighbors.get(0, set())


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

    def test_complement_graph(self):
        adjacency = adjacency_from_edges([1, 2, 3], [(1, 2)])
        comp = complement_graph(adjacency)
        assert comp[1] == {3}
        assert comp[3] == {1, 2}

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
