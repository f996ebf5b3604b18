"""The online optimization loop (Section 6 of the paper).

A cycle is measure -> estimate -> model -> optimize -> actuate.  The
middle three are :func:`decide`, a pure function of one
:class:`ProbeWindow` and the flows' routes: the Section 5.3 estimator and
Eq. (6) turn the probe series into link capacities
(:func:`estimate_links`), the two-hop interference model (or a supplied
binary-LIR map) gives the conflict graph and the Section 3.2 extreme
points (:func:`build_conflict_graph`), and the alpha-fair program is
solved over that polytope.  Measuring and actuating belong to the
simulated network: ``MeshNetwork.probe_window`` reads a window, and each
flow's source programs its decided input rate (``set_rate``).
:class:`OnlineOptimizer` runs the cycle on a live network, and its
:class:`ControlDecision` records every intermediate quantity for the
figures of Sections 4.5 and 6.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import compress
from typing import Any, Literal

import numpy as np

from repro.core.capacity import CapacityModel, max_udp_throughputs_bps
from repro.core.conflict_graph import ConflictGraph
from repro.core.extreme_points import FeasibilityRegion
from repro.core.interference import PairwiseInterferenceMap, two_hop_conflict_matrix
from repro.core.loss_estimator import estimate_channel_loss_rates, stack_series
from repro.core.optimizer import OptimizationResult, RateOptimizer, SolverError
from repro.core.utility import AlphaFairUtility, PROPORTIONAL_FAIR
from repro.mac.constants import MacConfig
from repro.net.routing import (
    FlowRoute,
    build_routing_matrix,
    first_use_links,
    path_loss_probability,
)
from repro.phy.radio import PhyRate

Link = tuple[int, int]


def _same_values(record: Any, other: Any) -> bool:
    """Field-by-field equality; arrays by shape and entries, NaN == NaN."""
    if type(other) is not type(record):
        return NotImplemented
    pairs = ((getattr(record, f.name), getattr(other, f.name)) for f in fields(record))
    return all(
        np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
        for a, b in pairs
    )


@dataclass(frozen=True, eq=False)
class LinkProbes:
    """One link's probe losses (0/1, 1 = lost): DATA sent forward at the
    link's ``rate``, ACK sent in reverse."""

    rate: PhyRate
    data: np.ndarray
    ack: np.ndarray

    __eq__ = _same_values


@dataclass(frozen=True, eq=False)
class ProbeWindow:
    """The measurement record a cycle decides from (§5.2), stacked once:
    row ``i`` of ``losses`` is the DATA series of ``links[i]`` at
    ``rates[i]``, row ``L + i`` its reverse ACK series, row ``r`` in its
    first ``lengths[r]`` columns; ``ack_loss[a, b]`` is the ACK loss rate
    ``nodes[a] -> nodes[b]`` (the two-hop model's connectivity), NaN on
    the diagonal and in the row of a node that sent no ACK probe."""

    links: list[Link]
    rates: list[PhyRate]
    losses: np.ndarray
    lengths: np.ndarray
    nodes: list[int]
    ack_loss: np.ndarray
    mac_config: MacConfig

    __eq__ = _same_values

    @classmethod
    def from_probes(
        cls, probes: dict[Link, LinkProbes], nodes: list[int], ack_loss: np.ndarray, mac: MacConfig
    ) -> "ProbeWindow":
        """The window of each link's probes, stacked in order."""
        records = list(probes.values())
        losses, lengths = stack_series([p.data for p in records] + [p.ack for p in records])
        rates = [p.rate for p in records]
        return cls(list(probes), rates, losses, lengths, list(nodes), ack_loss, mac)

    @property
    def probes(self) -> dict[Link, LinkProbes]:
        """Each link's series, as views of ``losses``."""
        rows = [row[:size] for row, size in zip(self.losses, self.lengths.tolist())]
        series = zip(self.rates, rows, rows[len(self.links) :])
        return {link: LinkProbes(*probes) for link, probes in zip(self.links, series)}

    @property
    def ack_loss_rates(self) -> dict[Link, float]:
        """``ack_loss`` as ``{(sender, receiver): loss}``, NaNs left out."""
        rows = zip(self.nodes, self.ack_loss.tolist())
        return {(a, b): loss for a, row in rows for b, loss in zip(self.nodes, row) if loss == loss}


@dataclass
class LinkEstimate:
    """Online estimate of one directed link's loss and capacity."""

    link: Link
    data_loss: float
    ack_loss: float
    channel_loss: float
    capacity_bps: float
    estimator_case: int


@dataclass
class ControlDecision:
    """Everything produced by one optimization cycle."""

    link_estimates: dict[Link, LinkEstimate]
    region: FeasibilityRegion
    conflict_graph: ConflictGraph
    optimization: OptimizationResult
    flow_ids: list[int]
    target_outputs_bps: dict[int, float]
    input_rates_bps: dict[int, float]
    path_losses: dict[int, float] = field(default_factory=dict)


def estimate_links(
    window: ProbeWindow, *, payload_bytes: int, min_probes_for_estimator: int
) -> dict[Link, LinkEstimate]:
    """Estimate channel loss and capacity for every link of ``window``.

    Both directions of every link (DATA forward, ACK reverse) go
    through the Section 5.3 estimator in one batch, but for two kinds:
    a direction with fewer than ``min_probes_for_estimator`` probes in
    its window keeps its raw measured loss rate (Case 1), and one with
    *no* probes at all reads as loss ``0.0`` (optimistic).
    """
    lengths = window.lengths
    loss = window.losses.sum(axis=1) / np.maximum(lengths, 1)
    case = np.ones(lengths.size, dtype=int)
    estimated = lengths >= max(min_probes_for_estimator, 1)
    loss[estimated], case[estimated], _ = estimate_channel_loss_rates(
        window.losses[estimated], lengths[estimated]
    )
    count, mac = len(window.links), window.mac_config
    data, ack = loss[:count], loss[count:]
    channel = 1.0 - (1.0 - data) * (1.0 - ack)
    cycle = {r: CapacityModel(payload_bytes, r, mac).cycle_time_s() for r in set(window.rates)}
    capacity = max_udp_throughputs_bps(
        np.minimum(channel, 0.999999), [cycle[r] for r in window.rates], payload_bytes, mac
    )
    cases = np.maximum(case[:count], case[count:])
    columns = zip(data.tolist(), ack.tolist(), channel.tolist(), capacity.tolist(), cases.tolist())
    return {link: LinkEstimate(link, *values) for link, values in zip(window.links, columns)}


def build_conflict_graph(
    window: ProbeWindow,
    *,
    connectivity_threshold: float,
    interference: PairwiseInterferenceMap | None = None,
) -> ConflictGraph:
    """Conflict graph over the window's links: ``interference`` when given,
    else the two-hop model (§5.5) on the pairs that exchange basic-rate
    (ACK) probes — the widest decode range, so the most conservative
    neighbour relation and conflict set."""
    if interference is not None:
        return ConflictGraph.from_interference_map(interference)
    links, loss = window.links, window.ack_loss
    index = {node: i for i, node in enumerate(window.nodes)}
    ends = np.array([(index[tx], index[rx]) for tx, rx in links], dtype=int).reshape(-1, 2)
    heard = np.zeros(loss.shape, dtype=bool)
    np.greater_equal(1.0 - loss, connectivity_threshold, out=heard, where=~np.isnan(loss))
    rows = two_hop_conflict_matrix(ends, heard | heard.T).tolist()
    return ConflictGraph(list(links), {a: set(compress(links, r)) for a, r in zip(links, rows)})


def _decision(
    estimates: dict[Link, LinkEstimate],
    conflict_graph: ConflictGraph,
    routes: list[FlowRoute],
    utility: AlphaFairUtility,
) -> ControlDecision:
    capacities = {link: est.capacity_bps for link, est in estimates.items()}
    region = FeasibilityRegion.from_capacities_and_conflicts(capacities, conflict_graph)
    routing = build_routing_matrix(routes, links=region.links)
    result = RateOptimizer(region, routing, utility).solve()
    if not result.success:
        # An unconverged iterate must never be programmed into the
        # shapers as a decision.
        raise SolverError(f"rate optimization failed: {result.message}")
    link_losses = {link: est.channel_loss for link, est in estimates.items()}
    targets: dict[int, float] = {}
    inputs: dict[int, float] = {}
    path_losses: dict[int, float] = {}
    for route, flow_rate in zip(routes, result.flow_rates):
        # The one place a solver iterate becomes a decision: LAPACK's
        # last ULP is not stable across builds, so decisions carry a
        # 1e-3 b/s grain (far below anything the shapers resolve).
        y = round(float(flow_rate), 3)
        p_s = path_loss_probability(link_losses, route.path)
        targets[route.flow_id] = y
        path_losses[route.flow_id] = p_s
        # Path-loss compensation (§6.1): the source injects x = y / (1 - p).
        inputs[route.flow_id] = y / max(1.0 - p_s, 1e-6)
    return ControlDecision(
        link_estimates=estimates,
        region=region,
        conflict_graph=conflict_graph,
        optimization=result,
        flow_ids=[route.flow_id for route in routes],
        target_outputs_bps=targets,
        input_rates_bps=inputs,
        path_losses=path_losses,
    )


def decide(
    window: ProbeWindow,
    routes: list[FlowRoute],
    *,
    utility: AlphaFairUtility,
    payload_bytes: int,
    connectivity_threshold: float,
    min_probes_for_estimator: int,
    interference: PairwiseInterferenceMap | None = None,
) -> ControlDecision:
    """Estimate, model and optimize from one probe window: the rates
    ``routes`` should be driven at.  Nothing is read or programmed."""
    estimates = estimate_links(
        window, payload_bytes=payload_bytes, min_probes_for_estimator=min_probes_for_estimator
    )
    graph = build_conflict_graph(
        window, connectivity_threshold=connectivity_threshold, interference=interference
    )
    return _decision(estimates, graph, routes, utility)


class OnlineOptimizer:
    """The measurement + optimization + rate-control loop on a live
    network: ``network.probe_window``, :func:`decide`, then each flow's
    ``source.set_rate``.

    Args:
        network: the live mesh network; its probing must be enabled
            before a cycle runs.
        flows: the flows to optimize (UDP and/or TCP handles).
        utility: optimization objective (defaults to proportional
            fairness, the paper's TCP-Prop).
        probing_window: number of probes per link direction used by the
            channel-loss estimator (the paper's ``S``).
        interference_mode: ``"two_hop"`` (online, Section 5.5) or a
            pre-built :class:`PairwiseInterferenceMap` for the binary-LIR
            reference model.
        payload_bytes: packet payload assumed by the capacity model.
        min_probes_for_estimator: below this many probes the raw loss
            rate is used instead of the sliding-window estimator.
    """

    def __init__(
        self,
        network: Any,
        flows: list[Any],
        utility: AlphaFairUtility = PROPORTIONAL_FAIR,
        probing_window: int = 200,
        interference_mode: Literal["two_hop"] | PairwiseInterferenceMap = "two_hop",
        payload_bytes: int = 1470,
        connectivity_threshold: float = 0.5,
        min_probes_for_estimator: int = 40,
    ) -> None:
        if not flows:
            raise ValueError("at least one flow is required")
        self.network = network
        self.flows = list(flows)
        self.utility = utility
        self.probing_window = probing_window
        self.interference_mode = interference_mode
        self.payload_bytes = payload_bytes
        self.connectivity_threshold = connectivity_threshold
        self.min_probes_for_estimator = min_probes_for_estimator

    @property
    def links(self) -> list[Link]:
        """Directed links used by at least one flow, in first-use order."""
        return first_use_links(self.flows)

    def _flow_routes(self) -> list[FlowRoute]:
        return [
            FlowRoute(f.flow_id, source=f.path[0], destination=f.path[-1], path=list(f.path))
            for f in self.flows
        ]

    def _window(self) -> ProbeWindow:
        return self.network.probe_window(self.links, self.probing_window)

    def _interference(self) -> PairwiseInterferenceMap | None:
        mode = self.interference_mode
        return mode if isinstance(mode, PairwiseInterferenceMap) else None

    def estimate_links(self) -> dict[Link, LinkEstimate]:
        """:func:`estimate_links` on the network's current window."""
        return estimate_links(
            self._window(),
            payload_bytes=self.payload_bytes,
            min_probes_for_estimator=self.min_probes_for_estimator,
        )

    def build_conflict_graph(self) -> ConflictGraph:
        """:func:`build_conflict_graph` on the network's current window."""
        return build_conflict_graph(
            self._window(),
            connectivity_threshold=self.connectivity_threshold,
            interference=self._interference(),
        )

    def optimize(
        self,
        estimates: dict[Link, LinkEstimate] | None = None,
        conflict_graph: ConflictGraph | None = None,
    ) -> ControlDecision:
        """:func:`decide` on the network's current window, or on the
        ``estimates`` / ``conflict_graph`` passed in; programs nothing."""
        if estimates is None and conflict_graph is None:
            return decide(
                self._window(),
                self._flow_routes(),
                utility=self.utility,
                payload_bytes=self.payload_bytes,
                connectivity_threshold=self.connectivity_threshold,
                min_probes_for_estimator=self.min_probes_for_estimator,
                interference=self._interference(),
            )
        return _decision(
            self.estimate_links() if estimates is None else estimates,
            self.build_conflict_graph() if conflict_graph is None else conflict_graph,
            self._flow_routes(),
            self.utility,
        )

    def apply(self, decision: ControlDecision) -> None:
        """Program every flow's source at its decided input rate."""
        for flow in self.flows:
            flow.source.set_rate(decision.input_rates_bps[flow.flow_id])

    def run_cycle(self) -> ControlDecision:
        """One full measurement/optimization/rate-control cycle."""
        decision = self.optimize()
        self.apply(decision)
        return decision
