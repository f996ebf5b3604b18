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
from typing import Iterable

import numpy as np

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

    Built from measured LIRs (a :class:`BinaryLirClassifier` verdict per
    pair, through :meth:`add_conflict`) and consumed by the conflict-graph /
    extreme-point machinery; the two-hop rule is
    :func:`two_hop_conflict_matrix`.
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


def two_hop_conflict_matrix(endpoints: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Section 5.5, ``L x L``: links (rows of ``endpoints``, node indices)
    conflict when they share an endpoint, or an endpoint of one is a one-hop
    neighbour (``neighbors[a, b]``: ``b`` of ``a``) of one of the other."""
    reach = neighbors | np.eye(len(neighbors), dtype=bool)
    # Every node within one hop of either end, per link.
    disturbed = reach[endpoints[:, 0]] | reach[endpoints[:, 1]]
    hits = disturbed[:, endpoints[:, 0]] | disturbed[:, endpoints[:, 1]]
    conflicts = hits | hits.T
    np.fill_diagonal(conflicts, False)
    return conflicts
