#!/usr/bin/env python3
"""TCP starvation at a mesh gateway, with and without rate control.

Reproduces the scenario of Figure 13 of the paper: a 1-hop and a 2-hop
TCP flow send upstream to a gateway.  Without rate control the 2-hop
flow starves because its ACKs collide with the 1-hop flow's data.  The
online optimizer with a proportional-fairness objective removes the
starvation at a modest cost in aggregate throughput; the
maximum-throughput objective reproduces the starvation (it is optimal to
starve the expensive flow).

Run with:  python examples/tcp_starvation.py
"""

from __future__ import annotations

from repro.analysis import jain_fairness_index
from repro.core import MAX_THROUGHPUT, OnlineOptimizer, PROPORTIONAL_FAIR
from repro.experiment import ScenarioSpec, build_scenario

MEASURE_S = 25.0
PROBE_WARMUP_S = 60.0


def run_variant(label: str, utility=None, seed: int = 0) -> tuple[float, float]:
    scenario = build_scenario(ScenarioSpec(scenario="starvation", seed=seed, data_rate_mbps=1))
    network = scenario.network
    two_hop_flow, one_hop_flow = scenario.flows
    if utility is not None:
        network.enable_probing(period_s=0.5)
        network.run(PROBE_WARMUP_S)
        controller = OnlineOptimizer(
            network, scenario.flows, utility=utility, probing_window=100
        )
        controller.run_cycle()
    two_hop_flow.start()
    one_hop_flow.start()
    network.run(MEASURE_S)
    start, end = network.now - (MEASURE_S - 5.0), network.now
    two_hop = two_hop_flow.throughput_bps(start, end)
    one_hop = one_hop_flow.throughput_bps(start, end)
    scenario.close()
    jfi = jain_fairness_index([two_hop, one_hop])
    print(
        f"{label:10s}  2-hop flow: {two_hop / 1e3:6.1f} kb/s   "
        f"1-hop flow: {one_hop / 1e3:6.1f} kb/s   total: {(two_hop + one_hop) / 1e3:6.1f} kb/s   "
        f"Jain index: {jfi:.2f}"
    )
    return two_hop, one_hop


def main() -> None:
    print("Upstream TCP starvation scenario (1 Mb/s links), cf. Figure 13\n")
    run_variant("TCP-noRC", utility=None)
    run_variant("TCP-Max", utility=MAX_THROUGHPUT)
    run_variant("TCP-Prop", utility=PROPORTIONAL_FAIR)
    print(
        "\nTCP-noRC and TCP-Max starve the 2-hop flow; TCP-Prop trades a little"
        "\naggregate throughput for a fair share, as in the paper."
    )


if __name__ == "__main__":
    main()
