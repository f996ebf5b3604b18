"""Maximal clique / maximal independent set enumeration (Section 3.2).

Implements the combinatorial step behind Eq. (4) of the paper: the
secondary extreme points of the feasibility model are one per *maximal
independent set* of the link conflict graph — the largest sets of links
that can transmit simultaneously.  The paper uses the Makino–Uno
enumeration algorithm; we implement the classical Bron–Kerbosch
algorithm with pivoting, which enumerates the same family of sets and
is more than fast enough for mesh-sized conflict graphs (the paper's
worst case was ~200 extreme points).

Graphs are given as adjacency mappings ``vertex -> set of neighbours``,
searched as bitmasks; independent sets are enumerated as cliques of the
complement graph, exactly as the paper does.
"""

from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterable, Mapping, TypeVar

import numpy as np

Vertex = TypeVar("Vertex", bound=Hashable)
Adjacency = Mapping[Vertex, set]


def _bit_graph(adjacency: Adjacency) -> tuple[list, list[int]]:
    """``(vertices, masks)``: vertex ``i`` is bit ``i``, numbered in
    descending ``repr`` order, and ``masks[i]`` is its neighbours."""
    vertices = sorted(adjacency, key=repr, reverse=True)
    bit = {vertex: 1 << i for i, vertex in enumerate(vertices)}
    try:
        masks = [sum(map(bit.__getitem__, set(adjacency[vertex]))) for vertex in vertices]
    except KeyError as unknown:
        raise ValueError(f"edge to unknown vertex {unknown.args[0]!r}") from None
    edges = _bit_rows(masks, len(masks))
    if edges.diagonal().any() or (edges != edges.T).any():
        raise ValueError("adjacency must be symmetric, without self-loops")
    return vertices, masks


def _bit_rows(masks: list[int], width: int) -> np.ndarray:
    """Boolean rows: ``[k, i]`` is bit ``i`` of ``masks[k]``."""
    size = (width + 7) // 8
    packed = np.frombuffer(b"".join([mask.to_bytes(size, "little") for mask in masks]), np.uint8)
    rows = np.unpackbits(packed.reshape(len(masks), size), axis=1, count=width, bitorder="little")
    return rows.view(bool)


def _expand(masks: list[int], r: int, p: int, x: int, out: list[int]) -> None:
    """The Bron–Kerbosch recursion, appending each maximal clique to
    ``out``.  Module-level on purpose: a nested function that calls
    itself is a reference cycle (function <-> its own closure cell) that
    would keep ``masks`` alive after every enumeration, one per
    controller cycle."""
    if not p:
        if not x:
            out.append(r)
        return
    # Pivot on the vertex of P ∪ X with the most neighbours in P (the
    # lowest-numbered of ties) to prune the branching.
    most, rest = -1, p | x
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if (count := (masks[v] & p).bit_count()) > most:
            most, pivot = count, v
    candidates = p & ~masks[pivot]
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        candidates &= candidates - 1
        _expand(masks, r | 1 << v, p & masks[v], x & masks[v], out)
        p &= ~(1 << v)
        x |= 1 << v


def _clique_rows(masks: list[int]) -> np.ndarray:
    """Every maximal clique of ``masks`` as a boolean row, by sorted member
    reprs: a smaller ``repr`` is a higher bit, so of two sets neither of
    which holds the other, the one whose reprs sort first is larger."""
    cliques: list[int] = []
    if masks:
        _expand(masks, 0, (1 << len(masks)) - 1, 0, cliques)
    return _bit_rows(sorted(cliques, reverse=True), len(masks))


def maximal_cliques(adjacency: Adjacency) -> list[frozenset]:
    """All maximal cliques, ordered by their sorted member reprs."""
    vertices, masks = _bit_graph(adjacency)
    return [frozenset(compress(vertices, row)) for row in _clique_rows(masks).tolist()]


def independent_set_rows(adjacency: Adjacency) -> tuple[list, np.ndarray]:
    """``(vertices, rows)``: :func:`maximal_independent_sets` as boolean
    rows over ``vertices`` — the maximal cliques of the complement."""
    vertices, masks = _bit_graph(adjacency)
    everyone = (1 << len(masks)) - 1
    return vertices, _clique_rows([everyone & ~(mask | 1 << i) for i, mask in enumerate(masks)])


def maximal_independent_sets(adjacency: Adjacency) -> list[frozenset]:
    """All maximal independent sets, ordered by their sorted member reprs."""
    vertices, rows = independent_set_rows(adjacency)
    return [frozenset(compress(vertices, row)) for row in rows.tolist()]


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
