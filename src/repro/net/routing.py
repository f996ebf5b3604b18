"""Routing: ETX/ETT link metrics, Dijkstra path computation and the
routing matrix used by the optimizer.

The paper's implementation reuses the Srcr routing protocol with the ETT
metric of Draves et al. and fixes routes for the duration of each
experiment.  We reproduce the functional pieces: link metrics derived
from probe loss rates and link rates, shortest paths under those metrics,
per-node next-hop table installation, and construction of the binary
routing matrix ``R`` (links x flows) consumed by the convex optimization
of Section 6.1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.phy.radio import PhyRate


Link = tuple[int, int]


def etx(p_forward: float, p_reverse: float = 0.0) -> float:
    """Expected transmission count of a link.

    ``ETX = 1 / ((1 - p_fwd) * (1 - p_rev))`` where ``p_fwd`` is the DATA
    loss probability and ``p_rev`` the ACK loss probability.  Returns
    ``inf`` for unusable links.
    """
    delivery = (1.0 - min(max(p_forward, 0.0), 1.0)) * (1.0 - min(max(p_reverse, 0.0), 1.0))
    if delivery <= 0.0:
        return float("inf")
    return 1.0 / delivery


def ett(p_forward: float, p_reverse: float, packet_bytes: int, rate: PhyRate) -> float:
    """Expected transmission time of a link in seconds.

    ``ETT = ETX * S / B`` with packet size ``S`` and link bandwidth ``B``.
    """
    count = etx(p_forward, p_reverse)
    if count == float("inf"):
        return float("inf")
    return count * (packet_bytes * 8) / rate.bps


@dataclass
class RouteResult:
    """Output of a shortest-path computation from one source."""

    source: int
    distance: dict[int, float]
    predecessor: dict[int, int]

    def path_to(self, destination: int) -> list[int] | None:
        """Node sequence from the source to ``destination`` or ``None``."""
        if destination == self.source:
            return [self.source]
        if destination not in self.predecessor:
            return None
        path = [destination]
        while path[-1] != self.source:
            path.append(self.predecessor[path[-1]])
        path.reverse()
        return path


def dijkstra(
    nodes: list[int], weights: dict[Link, float], source: int
) -> RouteResult:
    """Dijkstra single-source shortest paths over a directed link-weight map.

    Links with infinite weight are treated as absent.
    """
    if source not in nodes:
        raise ValueError(f"source {source} is not a node")
    adjacency: dict[int, list[tuple[int, float]]] = {n: [] for n in nodes}
    for (u, v), w in weights.items():
        if w == float("inf"):
            continue
        if w < 0:
            raise ValueError("link weights must be non-negative")
        if u in adjacency:
            adjacency[u].append((v, w))
    distance = {source: 0.0}
    predecessor: dict[int, int] = {}
    visited: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        for v, w in adjacency[u]:
            nd = dist + w
            if nd < distance.get(v, float("inf")) - 1e-15:
                distance[v] = nd
                predecessor[v] = u
                heapq.heappush(heap, (nd, v))
    return RouteResult(source=source, distance=distance, predecessor=predecessor)


@dataclass
class FlowRoute:
    """A routed multi-hop flow."""

    flow_id: int
    source: int
    destination: int
    path: list[int]

    @property
    def links(self) -> list[Link]:
        """Directed links traversed by the flow, in order."""
        return list(zip(self.path[:-1], self.path[1:]))

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1


@dataclass
class RoutingMatrix:
    """Binary routing matrix ``R`` with links as rows and flows as columns."""

    links: list[Link]
    flows: list[FlowRoute]
    matrix: np.ndarray

    def link_index(self, link: Link) -> int:
        return self.links.index(link)

    def flows_on_link(self, link: Link) -> list[FlowRoute]:
        idx = self.link_index(link)
        return [f for j, f in enumerate(self.flows) if self.matrix[idx, j] > 0]


class Router:
    """Centralised route computation mirroring Srcr's behaviour.

    Routes are computed from a global view of link weights (each node in
    the real system floods its measurements; centralising the computation
    changes nothing about the resulting paths) and installed into the
    per-node next-hop tables of a :class:`repro.sim.network.MeshNetwork`.
    """

    def __init__(self, nodes: list[int], weights: dict[Link, float]) -> None:
        self.nodes = list(nodes)
        self.weights = dict(weights)
        self._route_cache: dict[int, RouteResult] = {}

    def update_weights(self, weights: dict[Link, float]) -> None:
        """Replace the link weights and invalidate cached shortest paths."""
        self.weights = dict(weights)
        self._route_cache.clear()

    def shortest_path(self, source: int, destination: int) -> list[int] | None:
        if source not in self._route_cache:
            self._route_cache[source] = dijkstra(self.nodes, self.weights, source)
        return self._route_cache[source].path_to(destination)

    def route_flows(
        self, demands: list[tuple[int, int]], first_flow_id: int = 0
    ) -> list[FlowRoute]:
        """Route a list of (source, destination) demands.

        Raises:
            ValueError: if any demand has no path under the current weights.
        """
        flows = []
        for offset, (src, dst) in enumerate(demands):
            path = self.shortest_path(src, dst)
            if path is None:
                raise ValueError(f"no route from {src} to {dst}")
            flows.append(
                FlowRoute(flow_id=first_flow_id + offset, source=src, destination=dst, path=path)
            )
        return flows


def first_use_links(flows: Iterable[Any]) -> list[Link]:
    """Directed links used by at least one of ``flows`` (anything with a
    ``links`` list: routes, flow handles), each once, in first-use order
    — the row order of the routing matrix and of everything indexed like
    it (capacities, conflict graph, extreme points)."""
    return list(dict.fromkeys(link for flow in flows for link in flow.links))


def build_routing_matrix(flows: list[FlowRoute], links: list[Link] | None = None) -> RoutingMatrix:
    """Build the binary links-by-flows routing matrix of Section 6.1.

    If ``links`` is omitted, the link set is the union of all links used
    by the flows, in first-use order.
    """
    if links is None:
        links = first_use_links(flows)
    index = {link: i for i, link in enumerate(links)}
    matrix = np.zeros((len(links), len(flows)), dtype=float)
    for j, flow in enumerate(flows):
        for link in flow.links:
            if link not in index:
                raise ValueError(f"flow {flow.flow_id} uses link {link} not in the link set")
            matrix[index[link], j] = 1.0
    return RoutingMatrix(links=list(links), flows=list(flows), matrix=matrix)


def path_loss_probability(link_losses: dict[Link, float], path: list[int]) -> float:
    """End-to-end loss probability of a path: ``1 - prod(1 - p_l)``.

    This is the ``p_s`` the paper uses to translate target output rates
    into input rates (``x_s = y_s / (1 - p_s)``).
    """
    survival = 1.0
    for link in zip(path[:-1], path[1:]):
        p = min(max(link_losses.get(link, 0.0), 0.0), 1.0)
        survival *= 1.0 - p
    return 1.0 - survival
