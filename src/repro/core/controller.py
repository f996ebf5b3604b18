"""The online optimization loop (Section 6 of the paper).

:class:`OnlineOptimizer` ties every piece together on a live
:class:`repro.sim.network.MeshNetwork`:

1. read the broadcast-probe loss series of every link used by the
   configured flows (capacity estimation module),
2. separate channel losses from collision losses with the estimator of
   Section 5.3 and turn them into link capacities via Eq. (6),
3. build the conflict graph with the two-hop interference model (or a
   supplied binary-LIR map), enumerate maximal independent sets and form
   the extreme points (Section 3.2),
4. solve the alpha-fair rate optimization over the resulting polytope
   (optimizer module),
5. translate output rates into input rates and program the per-flow
   shapers (rate-control module).

Each cycle returns a :class:`ControlDecision` recording every
intermediate quantity, which the benchmarks use to regenerate the
figures of Sections 4.5 and 6.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.core.capacity import CapacityModel, combine_data_ack_losses
from repro.core.conflict_graph import ConflictGraph
from repro.core.extreme_points import FeasibilityRegion
from repro.core.interference import (
    PairwiseInterferenceMap,
    connectivity_from_loss_rates,
)
from repro.core.loss_estimator import estimate_channel_loss_rates
from repro.core.optimizer import OptimizationResult, RateOptimizer, SolverError
from repro.core.rate_control import RateController
from repro.core.utility import AlphaFairUtility, PROPORTIONAL_FAIR
from repro.net.routing import (
    FlowRoute,
    build_routing_matrix,
    first_use_links,
    path_loss_probability,
)
from repro.sim.network import MeshNetwork, TcpFlowHandle, UdpFlowHandle

Link = tuple[int, int]
FlowHandle = UdpFlowHandle | TcpFlowHandle


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


class OnlineOptimizer:
    """Periodic measurement + optimization + rate-control loop.

    Args:
        network: the live mesh network (probing must be enabled before
            running a cycle, or pass ``auto_probing=True``).
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
        network: MeshNetwork,
        flows: list[FlowHandle],
        utility: AlphaFairUtility = PROPORTIONAL_FAIR,
        probing_window: int = 200,
        interference_mode: Literal["two_hop"] | PairwiseInterferenceMap = "two_hop",
        payload_bytes: int = 1470,
        connectivity_threshold: float = 0.5,
        min_probes_for_estimator: int = 40,
        auto_probing: bool = True,
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
        self.rate_controller = RateController()
        if network.probing is None and auto_probing:
            network.enable_probing()

    # ----------------------------------------------------------------- links
    @property
    def links(self) -> list[Link]:
        """Directed links used by at least one flow, in first-use order."""
        return first_use_links(self.flows)

    def _flow_routes(self) -> list[FlowRoute]:
        routes = []
        for flow in self.flows:
            routes.append(
                FlowRoute(
                    flow_id=flow.flow_id,
                    source=flow.path[0],
                    destination=flow.path[-1],
                    path=list(flow.path),
                )
            )
        return routes

    # ----------------------------------------------------- capacity estimation
    def estimate_links(self) -> dict[Link, LinkEstimate]:
        """Estimate channel loss and capacity for every used link.

        Both directions of every link (DATA forward, ACK reverse) go
        through the Section 5.3 estimator in one batch, but for two kinds:
        a direction with fewer than ``min_probes_for_estimator`` probes in
        its window keeps its raw measured loss rate (Case 1), and one with
        *no* probes at all reads as loss ``0.0`` — optimistic, where
        :meth:`ProbingSystem.loss_rate` says ``1.0`` of the same stream.
        """
        probing = self.network.probing
        if probing is None:
            raise RuntimeError("probing is not enabled on the network")
        links = self.links
        rates = [self.network.link_rate(link) for link in links]
        window, enough = self.probing_window, max(self.min_probes_for_estimator, 1)
        series = [
            probing.loss_series(link[0], link[1], "data", window, rate)
            for link, rate in zip(links, rates)
        ] + [probing.loss_series(rx, tx, "ack", window) for tx, rx in links]
        estimated = iter(estimate_channel_loss_rates([s for s in series if s.size >= enough]))
        # (loss, case) per direction: DATA of every link, then ACK of every link.
        directions = [
            next(estimated)[:2] if s.size >= enough else (float(s.mean()) if s.size else 0.0, 1)
            for s in series
        ]
        models = {
            rate: CapacityModel(self.payload_bytes, rate, self.network.mac_config)
            for rate in set(rates)
        }
        estimates: dict[Link, LinkEstimate] = {}
        for link, rate, (data_loss, data_case), (ack_loss, ack_case) in zip(
            links, rates, directions, directions[len(links) :]
        ):
            channel_loss = combine_data_ack_losses(data_loss, ack_loss)
            estimates[link] = LinkEstimate(
                link=link,
                data_loss=data_loss,
                ack_loss=ack_loss,
                channel_loss=channel_loss,
                capacity_bps=models[rate].max_udp_throughput_bps(min(channel_loss, 0.999999)),
                estimator_case=max(data_case, ack_case),
            )
        return estimates

    # -------------------------------------------------------------- conflicts
    def build_conflict_graph(self) -> ConflictGraph:
        """Conflict graph over the used links under the configured model."""
        if isinstance(self.interference_mode, PairwiseInterferenceMap):
            return ConflictGraph.from_interference_map(self.interference_mode)
        probing = self.network.probing
        if probing is None:
            raise RuntimeError("probing is not enabled on the network")
        # Connectivity: any node pair that can exchange basic-rate (ACK)
        # probes.  The basic rate has the widest decode range, so this is
        # the most conservative neighbour relation and therefore yields
        # the most conservative two-hop conflict set.
        neighbors = connectivity_from_loss_rates(
            probing.loss_rates("ack", self.probing_window), self.connectivity_threshold
        )
        interference = PairwiseInterferenceMap.from_two_hop(self.links, neighbors)
        return ConflictGraph.from_interference_map(interference)

    # ------------------------------------------------------------ optimization
    def optimize(
        self,
        estimates: dict[Link, LinkEstimate] | None = None,
        conflict_graph: ConflictGraph | None = None,
    ) -> ControlDecision:
        """Run measurement + optimization; does not program the sources."""
        estimates = estimates if estimates is not None else self.estimate_links()
        conflict_graph = conflict_graph if conflict_graph is not None else self.build_conflict_graph()
        capacities = {link: est.capacity_bps for link, est in estimates.items()}
        region = FeasibilityRegion.from_capacities_and_conflicts(capacities, conflict_graph)
        routes = self._flow_routes()
        routing = build_routing_matrix(routes, links=region.links)
        optimizer = RateOptimizer(region, routing, self.utility)
        result = optimizer.solve()
        if not result.success:
            # An unconverged iterate must never be programmed into the
            # shapers as a decision.
            raise SolverError(f"rate optimization failed: {result.message}")
        link_losses = {link: est.channel_loss for link, est in estimates.items()}
        targets: dict[int, float] = {}
        inputs: dict[int, float] = {}
        path_losses: dict[int, float] = {}
        for idx, flow in enumerate(self.flows):
            # The one place a solver iterate becomes a decision: LAPACK's
            # last ULP is not stable across builds, so decisions carry a
            # 1e-3 b/s grain (far below anything the shapers resolve).
            y = round(float(result.flow_rates[idx]), 3)
            p_s = path_loss_probability(link_losses, flow.path)
            targets[flow.flow_id] = y
            path_losses[flow.flow_id] = p_s
            inputs[flow.flow_id] = y / max(1.0 - p_s, 1e-6)
        return ControlDecision(
            link_estimates=estimates,
            region=region,
            conflict_graph=conflict_graph,
            optimization=result,
            flow_ids=[f.flow_id for f in self.flows],
            target_outputs_bps=targets,
            input_rates_bps=inputs,
            path_losses=path_losses,
        )

    def apply(self, decision: ControlDecision) -> None:
        """Program every flow's shaper/CBR rate from a decision."""
        for flow in self.flows:
            target = decision.target_outputs_bps[flow.flow_id]
            loss = decision.path_losses.get(flow.flow_id, 0.0)
            if isinstance(flow, TcpFlowHandle):
                self.rate_controller.program_tcp(flow, target, loss)
            else:
                self.rate_controller.program_udp(flow, target, loss)

    def run_cycle(self) -> ControlDecision:
        """One full measurement/optimization/rate-control cycle."""
        decision = self.optimize()
        self.apply(decision)
        return decision
