"""Interference models: the LIR metric, its binary classification, and
the online two-hop approximation.

Three ways of deciding which link pairs conflict appear in the paper:

* **LIR** (Link Interference Ratio, Padhye et al.) — measured by
  activating the two links alone and together; ``LIR = (c31 + c32) /
  (c11 + c22)``.  Values near 1 mean independence, lower values mean the
  links share the channel.
* **Binary LIR** — a threshold (0.95 in the paper) turns the continuous
  LIR into a binary conflict relation used to build the conflict graph.
* **Two-hop model** — the online-computable approximation of Section
  5.5: a link conflicts with every link whose endpoints are within one
  hop of its own endpoints in the connectivity graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

Link = tuple[int, int]

#: LIR threshold above which a link pair is classified as non-interfering.
DEFAULT_LIR_THRESHOLD = 0.95


def link_interference_ratio(c11: float, c22: float, c31: float, c32: float) -> float:
    """Eq. (5): LIR of a link pair from isolated and joint throughputs."""
    for value in (c11, c22, c31, c32):
        if value < 0:
            raise ValueError("throughputs must be non-negative")
    denominator = c11 + c22
    if denominator <= 0:
        return 0.0
    return (c31 + c32) / denominator


@dataclass(frozen=True)
class BinaryLirClassifier:
    """Thresholds a measured LIR into interfering / non-interfering."""

    threshold: float = DEFAULT_LIR_THRESHOLD

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.5:
            raise ValueError("LIR threshold should lie in (0, 1.5]")

    def interferes(self, lir: float) -> bool:
        """True when the pair must be treated as mutually exclusive."""
        return lir < self.threshold


class PairwiseInterferenceMap:
    """A symmetric conflict relation over a set of directed links.

    Built either from measured LIRs (:meth:`from_lir_measurements`) or
    from the two-hop rule (:meth:`from_two_hop`), and consumed by the
    conflict-graph / extreme-point machinery.
    """

    def __init__(self, links: Iterable[Link]) -> None:
        self.links: list[Link] = list(links)
        #: ``link -> conflicting links``; written through :meth:`add_conflict`.
        self.adjacency: dict[Link, set[Link]] = {link: set() for link in self.links}
        if len(self.adjacency) != len(self.links):
            raise ValueError("duplicate links in interference map")

    # ------------------------------------------------------------- mutation
    def add_conflict(self, link_a: Link, link_b: Link) -> None:
        """Declare that two links interfere (symmetric)."""
        if link_a == link_b:
            return
        if link_a not in self.adjacency or link_b not in self.adjacency:
            raise KeyError("both links must belong to the map")
        self.adjacency[link_a].add(link_b)
        self.adjacency[link_b].add(link_a)

    # -------------------------------------------------------------- queries
    def interferes(self, link_a: Link, link_b: Link) -> bool:
        return link_b in self.adjacency.get(link_a, ())

    def conflicts_of(self, link: Link) -> list[Link]:
        """All links that conflict with ``link``."""
        return [other for other in self.links if self.interferes(link, other)]

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_lir_measurements(
        cls,
        lir_values: Mapping[tuple[Link, Link], float],
        links: Iterable[Link],
        classifier: BinaryLirClassifier | None = None,
    ) -> "PairwiseInterferenceMap":
        """Build the conflict relation from measured pairwise LIRs.

        Pairs absent from ``lir_values`` are assumed non-interfering.
        """
        classifier = classifier or BinaryLirClassifier()
        mapping = cls(links)
        for (link_a, link_b), lir in lir_values.items():
            if classifier.interferes(lir):
                mapping.add_conflict(link_a, link_b)
        return mapping

    @classmethod
    def from_two_hop(
        cls,
        links: Iterable[Link],
        neighbors: Mapping[int, set[int]],
    ) -> "PairwiseInterferenceMap":
        """Build the two-hop interference relation of Section 5.5.

        Two links conflict when they share an endpoint, or when any
        endpoint of one is a one-hop neighbour (per the connectivity map
        ``neighbors``) of any endpoint of the other.
        """
        mapping = cls(links)
        # A link is disturbed by every node within one hop of either end.
        reach = {
            node: {node, *neighbors.get(node, ())} for link in mapping.links for node in link
        }
        extended = {link: reach[link[0]] | reach[link[1]] for link in mapping.links}
        for i, link_a in enumerate(mapping.links):
            near_a = extended[link_a]
            for link_b in mapping.links[i + 1 :]:
                if not (near_a.isdisjoint(link_b) and extended[link_b].isdisjoint(link_a)):
                    mapping.add_conflict(link_a, link_b)
        return mapping


def connectivity_from_loss_rates(
    loss_rates: Mapping[Link, float], delivery_threshold: float = 0.5
) -> dict[int, set[int]]:
    """Derive a symmetric neighbour map from probe loss rates.

    A pair of nodes are neighbours when probes get through in at least
    one direction with delivery ratio above ``delivery_threshold``; this
    is the connectivity input of the two-hop interference model when run
    online.
    """
    neighbors: dict[int, set[int]] = {}
    for (tx, rx), loss in loss_rates.items():
        if 1.0 - loss >= delivery_threshold:
            neighbors.setdefault(tx, set()).add(rx)
            neighbors.setdefault(rx, set()).add(tx)
    return neighbors
