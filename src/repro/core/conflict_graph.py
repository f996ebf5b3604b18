"""Conflict graph over directed links.

Vertices are directed links, edges mark mutual exclusion (interference).
The conflict graph is the bridge between the interference model (binary
LIR or two-hop) and the feasibility model: its maximal independent sets
define the secondary extreme points of Eq. (4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.cliques import adjacency_from_edges, maximal_independent_sets
from repro.core.interference import Link, PairwiseInterferenceMap


@dataclass
class ConflictGraph:
    """An undirected conflict graph over a fixed, ordered link set."""

    links: list[Link]
    adjacency: dict[Link, set[Link]]

    def __post_init__(self) -> None:
        if set(self.adjacency) != set(self.links):
            raise ValueError("adjacency must cover exactly the link set")

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_interference_map(cls, interference: PairwiseInterferenceMap) -> "ConflictGraph":
        adjacency = {link: set(others) for link, others in interference.adjacency.items()}
        return cls(links=list(interference.links), adjacency=adjacency)

    @classmethod
    def from_edges(
        cls, links: Iterable[Link], edges: Iterable[tuple[Link, Link]]
    ) -> "ConflictGraph":
        links = list(links)
        return cls(links=links, adjacency=adjacency_from_edges(links, edges))

    # ---------------------------------------------------------------- queries
    @property
    def num_edges(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency.values()) // 2

    def independent_sets(self) -> list[frozenset]:
        """All maximal independent sets (each is a set of links)."""
        return maximal_independent_sets(self.adjacency)
