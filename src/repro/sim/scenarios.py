"""Canned experiment scenarios used by the validation and the benchmarks.

These helpers assemble the multi-hop, multi-flow configurations of the
paper's evaluation on top of the synthetic 18-node testbed:

* ETT-routed random multi-flow configurations (Sections 4.5, 5.5, 6.3),
  with up to six flows and at most four hops per route, at 1 Mb/s,
  11 Mb/s or a mix;
* the two-flow upstream TCP starvation scenario of Figure 13, built on a
  gateway chain whose endpoints are hidden from each other (reduced
  carrier-sense sensitivity), which is what makes TCP ACKs collide with
  data and starve the two-hop flow.

Route selection uses ETT weights computed from ground-truth link quality
(the medium's SNR-derived error rates).  The *online* machinery never
sees that ground truth — it still estimates capacities from probes — but
scenario construction does not need to burn simulated time discovering
routes the real Srcr protocol would find anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.net.routing import FlowRoute, Router, first_use_links
from repro.phy.radio import RadioConfig
from repro.sim.generators import (
    assign_link_rates,
    ett_link_weights,
    ground_truth_link_error,
    radio_profile_config,
)
from repro.sim.network import MeshNetwork, TcpFlowHandle, UdpFlowHandle
from repro.sim.topology import chain_topology, testbed_positions, testbed_propagation

__all__ = [
    "MultiFlowScenario",
    "StarvationScenario",
    "assign_link_rates",
    "build_testbed_network",
    "ett_link_weights",
    "ground_truth_link_error",
    "hidden_terminal_radio",
    "random_multiflow_scenario",
    "starvation_scenario",
    "traffic_seed",
]

Link = tuple[int, int]
RateMode = Literal["1", "11", "mixed"]


def traffic_seed(seed: int, run_seed: int | None) -> int:
    """The seed of a network's traffic/backoff randomness.

    ``seed`` fixes the physical configuration (positions, shadowing,
    routes); ``run_seed``, defaulting to it, re-seeds only the traffic,
    so one configuration can be exercised by several independent runs —
    which is how the stability metric of Figure 14(d) is measured.
    """
    return seed if run_seed is None else run_seed


def build_testbed_network(
    seed: int = 0,
    data_rate_mbps: float = 11,
    shadowing_sigma_db: float = 6.0,
    radio: RadioConfig | None = None,
    run_seed: int | None = None,
) -> MeshNetwork:
    """The synthetic 18-node testbed as a ready-to-use MeshNetwork
    (``seed`` / ``run_seed`` as in :func:`traffic_seed`)."""
    return MeshNetwork(
        testbed_positions(seed=seed),
        seed=traffic_seed(seed, run_seed),
        radio=radio,
        propagation=testbed_propagation(seed=seed, shadowing_sigma_db=shadowing_sigma_db),
        data_rate_mbps=data_rate_mbps,
    )


@dataclass
class MultiFlowScenario:
    """A routed multi-flow configuration on the testbed."""

    name: str
    network: MeshNetwork
    flows: list[UdpFlowHandle] | list[TcpFlowHandle]
    routes: list[FlowRoute]
    rate_mode: RateMode

    @property
    def links(self) -> list[Link]:
        return first_use_links(self.flows)


def _pick_demands(
    router: Router,
    node_ids: list[int],
    num_flows: int,
    max_hops: int,
    rng: np.random.Generator,
    max_tries: int = 400,
) -> list[tuple[int, int]]:
    demands: list[tuple[int, int]] = []
    tries = 0
    while len(demands) < num_flows and tries < max_tries:
        tries += 1
        src, dst = (int(x) for x in rng.choice(node_ids, size=2, replace=False))
        if (src, dst) in demands:
            continue
        path = router.shortest_path(src, dst)
        if path is None:
            continue
        hops = len(path) - 1
        if 1 <= hops <= max_hops:
            demands.append((src, dst))
    if len(demands) < num_flows:
        raise RuntimeError(
            f"could only find {len(demands)} routable demands (wanted {num_flows})"
        )
    return demands


def random_multiflow_scenario(
    seed: int,
    num_flows: int = 4,
    max_hops: int = 4,
    rate_mode: RateMode = "mixed",
    transport: Literal["udp", "tcp"] = "udp",
    name: str | None = None,
    run_seed: int | None = None,
) -> MultiFlowScenario:
    """A random ETT-routed multi-flow configuration on the testbed.

    Mirrors the configurations of Sections 4.5 and 6.3: a handful of
    simultaneous, mutually interfering multi-hop flows with routes of at
    most ``max_hops`` hops, over links fixed at 1 / 11 Mb/s.  ``run_seed``
    re-seeds only the traffic randomness, keeping topology and routes
    identical across repeated runs of the same configuration.
    """
    rng = np.random.default_rng(seed)
    network = build_testbed_network(seed=seed, run_seed=run_seed)
    assign_link_rates(network, rate_mode, rng)
    weights = ett_link_weights(network)
    router = Router(network.node_ids, weights)
    demands = _pick_demands(router, network.node_ids, num_flows, max_hops, rng)
    routes = router.route_flows(demands)
    flows: list[UdpFlowHandle] | list[TcpFlowHandle] = []
    for route in routes:
        if transport == "udp":
            flows.append(network.add_udp_flow(route.path, rate_bps=0.0))
        else:
            flows.append(network.add_tcp_flow(route.path))
    return MultiFlowScenario(
        name=name or f"scenario-{seed}-{rate_mode}-{transport}",
        network=network,
        flows=flows,
        routes=routes,
        rate_mode=rate_mode,
    )


# ---------------------------------------------------------------------------
# Figure 13: upstream TCP starvation at a gateway
# ---------------------------------------------------------------------------
def hidden_terminal_radio(data_rate_mbps: float = 1) -> RadioConfig:
    """Radio configuration with reduced carrier-sense sensitivity.

    Thin preset over the ``"hidden_terminal"`` profile of
    :mod:`repro.sim.generators`: raising the CS threshold (a knob real
    drivers expose) shrinks the carrier-sense range below two hops and
    recreates the data/ACK collision pattern of Shi et al. that
    Figure 13 studies.
    """
    return radio_profile_config("hidden_terminal", data_rate_mbps=data_rate_mbps)


@dataclass
class StarvationScenario:
    """The two-flow upstream TCP scenario of Figure 13."""

    network: MeshNetwork
    two_hop: TcpFlowHandle
    one_hop: TcpFlowHandle

    @property
    def flows(self) -> list[TcpFlowHandle]:
        return [self.two_hop, self.one_hop]


def starvation_scenario(
    seed: int = 0, data_rate_mbps: float = 1, run_seed: int | None = None
) -> StarvationScenario:
    """One 2-hop and one 1-hop TCP flow sending upstream to a gateway.

    Node 2 is the gateway; node 0 reaches it via relay node 1.  The radio
    uses :func:`hidden_terminal_radio`, so node 0 and the gateway do not
    sense each other and the 2-hop flow's ACKs collide with the 1-hop
    flow's data at the relay.  The topology is fixed; ``run_seed``
    (defaulting to ``seed``) re-seeds the traffic/backoff randomness for
    independent repeated runs.
    """
    from repro.sim.topology import no_shadowing_propagation

    positions = chain_topology(3, spacing_m=62.0)
    network = MeshNetwork(
        positions,
        seed=traffic_seed(seed, run_seed),
        radio=hidden_terminal_radio(data_rate_mbps),
        propagation=no_shadowing_propagation(),
        data_rate_mbps=data_rate_mbps,
    )
    two_hop = network.add_tcp_flow([0, 1, 2])
    one_hop = network.add_tcp_flow([1, 2])
    return StarvationScenario(network=network, two_hop=two_hop, one_hop=one_hop)
