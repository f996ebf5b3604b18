"""Conflict graph over directed links.

Vertices are directed links, edges mark mutual exclusion (interference).
The conflict graph is the bridge between the interference model (binary
LIR or two-hop) and the feasibility model: its maximal independent sets
define the secondary extreme points of Eq. (4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.cliques import adjacency_from_edges, maximal_independent_sets
from repro.core.interference import Link, PairwiseInterferenceMap

if TYPE_CHECKING:
    import networkx as nx


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
    def interferes(self, link_a: Link, link_b: Link) -> bool:
        return link_b in self.adjacency.get(link_a, set())

    @property
    def num_edges(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency.values()) // 2

    def degree(self, link: Link) -> int:
        return len(self.adjacency[link])

    def independent_sets(self) -> list[frozenset]:
        """All maximal independent sets (each is a set of links)."""
        return maximal_independent_sets(self.adjacency)

    def to_networkx(self) -> "nx.Graph":
        """Export to a :class:`networkx.Graph` (for cross-checks and plots).

        networkx is not a runtime dependency: it is loaded here, its only
        use, and ships with the ``test`` extra.
        """
        try:
            import networkx as nx
        except ImportError as exc:
            raise ImportError(
                "ConflictGraph.to_networkx needs networkx, which is not a runtime "
                "dependency; it comes with the `test` extra (pip install -e '.[test]')"
            ) from exc
        graph = nx.Graph()
        graph.add_nodes_from(self.links)
        for link, neighbours in self.adjacency.items():
            for other in neighbours:
                graph.add_edge(link, other)
        return graph
