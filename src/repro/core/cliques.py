"""Maximal clique / maximal independent set enumeration (Section 3.2).

Implements the combinatorial step behind Eq. (4) of the paper: the
secondary extreme points of the feasibility model are one per *maximal
independent set* of the link conflict graph — the largest sets of links
that can transmit simultaneously.  The paper uses the Makino–Uno
enumeration algorithm; we implement the classical Bron–Kerbosch
algorithm with pivoting, which enumerates the same family of sets and
is more than fast enough for mesh-sized conflict graphs (the paper's
worst case was ~200 extreme points).

Graphs are given as adjacency mappings ``vertex -> set of neighbours``;
helpers convert to/from the complement so independent sets can be
enumerated as cliques of the complement graph, exactly as the paper does.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, TypeVar

Vertex = TypeVar("Vertex", bound=Hashable)
Adjacency = Mapping[Vertex, set]


def _validate_adjacency(adjacency: Adjacency) -> dict:
    graph = {v: set(neigh) for v, neigh in adjacency.items()}
    for vertex, neighbours in graph.items():
        if vertex in neighbours:
            raise ValueError(f"self-loop on vertex {vertex!r}")
        for other in neighbours:
            if other not in graph:
                raise ValueError(f"edge to unknown vertex {other!r}")
            if vertex not in graph[other]:
                raise ValueError("adjacency must be symmetric")
    return graph


def complement_graph(adjacency: Adjacency) -> dict:
    """The complement of an undirected graph (no self loops)."""
    graph = _validate_adjacency(adjacency)
    vertices = set(graph)
    return {v: (vertices - {v}) - graph[v] for v in graph}


def _expand(graph: dict, r: set, p: set, x: set) -> Iterator[frozenset]:
    """The Bron–Kerbosch recursion.  Module-level on purpose: a nested
    function that calls itself is a reference cycle (function <-> its
    own closure cell) that would keep ``graph`` alive after every
    enumeration, one per controller cycle."""
    if not p and not x:
        yield frozenset(r)
        return
    # Pivot on the vertex of P ∪ X with the most neighbours in P to
    # prune the branching.
    pivot = max(p | x, key=lambda v: len(graph[v] & p))
    for vertex in list(p - graph[pivot]):
        yield from _expand(graph, r | {vertex}, p & graph[vertex], x & graph[vertex])
        p.remove(vertex)
        x.add(vertex)


def bron_kerbosch_cliques(adjacency: Adjacency) -> Iterator[frozenset]:
    """Enumerate all maximal cliques (Bron–Kerbosch with pivoting)."""
    graph = _validate_adjacency(adjacency)
    if graph:
        yield from _expand(graph, set(), set(graph), set())


def maximal_cliques(adjacency: Adjacency) -> list[frozenset]:
    """All maximal cliques as a list (deterministically ordered)."""
    cliques = list(bron_kerbosch_cliques(adjacency))
    return sorted(cliques, key=lambda c: sorted(map(repr, c)))


def maximal_independent_sets(adjacency: Adjacency) -> list[frozenset]:
    """All maximal independent sets: maximal cliques of the complement."""
    return maximal_cliques(complement_graph(adjacency))


def adjacency_from_edges(
    vertices: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> dict:
    """Build a symmetric adjacency mapping from a vertex and edge list."""
    graph: dict = {v: set() for v in vertices}
    for a, b in edges:
        if a not in graph or b not in graph:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")
        if a == b:
            continue
        graph[a].add(b)
        graph[b].add(a)
    return graph
