"""Figure 12 — the online two-hop interference model vs the binary LIR
reference model.

On a multi-flow configuration the optimizer is run twice with the same
capacities but two different conflict graphs: one built from measured
pairwise LIRs (the Section 4 reference) and one from the two-hop rule of
Section 5.5.  The paper finds the two yield very similar achieved
throughput (two-hop is an excellent online approximation).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ExperimentReport, format_table
from repro.core import (
    BinaryLirClassifier,
    OnlineOptimizer,
    PROPORTIONAL_FAIR,
    PairwiseInterferenceMap,
    link_interference_ratio,
)
from repro.sim.measurement import measure_flows, measure_isolated
from repro.experiment import ScenarioSpec, build_scenario

from conftest import run_once

SCENARIO_SPECS = [dict(seed=7, num_flows=3, rate_mode="11")]
PROBE_WARMUP_S = 45.0
MEASURE_S = 8.0
PAIR_MEASURE_S = 0.8


def _measure_lir_map(network, links):
    """Measured pairwise-LIR conflict relation over the scenario's links."""
    flows = {link: network.add_udp_flow(list(link), payload_bytes=1470, install_route=False)
             for link in links}
    isolated = {
        link: measure_isolated(network, flow, PAIR_MEASURE_S).throughput_bps
        for link, flow in flows.items()
    }
    classifier = BinaryLirClassifier()
    interference = PairwiseInterferenceMap(links)
    for i, link_a in enumerate(links):
        for link_b in links[i + 1:]:
            if set(link_a) & set(link_b):
                interference.add_conflict(link_a, link_b)
                continue
            together = measure_flows(network, [flows[link_a], flows[link_b]], PAIR_MEASURE_S)
            lir = link_interference_ratio(
                isolated[link_a], isolated[link_b],
                together[0].throughput_bps, together[1].throughput_bps,
            )
            if classifier.interferes(lir):
                interference.add_conflict(link_a, link_b)
    return interference


def _run_variant(spec, interference_mode):
    scenario = build_scenario(ScenarioSpec(scenario="random_multiflow", transport="udp", **spec))
    network = scenario.network
    network.enable_probing(period_s=0.5)
    network.run(PROBE_WARMUP_S)
    if interference_mode == "lir":
        mode = _measure_lir_map(network, scenario.links)
    else:
        mode = "two_hop"
    controller = OnlineOptimizer(
        network, scenario.flows, utility=PROPORTIONAL_FAIR,
        probing_window=80, interference_mode=mode,
    )
    decision = controller.run_cycle()
    for flow in scenario.flows:
        flow.start()
    network.run(MEASURE_S)
    start, end = network.now - MEASURE_S + 2.0, network.now
    estimated, achieved = [], []
    for flow in scenario.flows:
        estimated.append(decision.target_outputs_bps[flow.flow_id])
        achieved.append(flow.throughput_bps(start, end))
    return np.array(estimated), np.array(achieved)


def _run_all():
    results = {}
    for mode in ("lir", "two_hop"):
        est_all, got_all = [], []
        for spec in SCENARIO_SPECS:
            est, got = _run_variant(spec, mode)
            est_all.extend(est)
            got_all.extend(got)
        results[mode] = (np.array(est_all), np.array(got_all))
    return results


def test_fig12_two_hop_matches_lir(benchmark):
    results = run_once(benchmark, _run_all)
    report = ExperimentReport(
        "Figure 12", "binary-LIR vs two-hop interference model (achieved/estimated)"
    )
    rows = []
    ratios = {}
    for mode, (est, got) in results.items():
        ratio = got / np.maximum(est, 1.0)
        ratios[mode] = ratio
        rows.append([mode, float(np.mean(ratio)), float(np.min(ratio)),
                     float(np.sqrt(np.mean((1 - np.minimum(ratio, 1.0)) ** 2)))])
    report.add(format_table(["interference model", "mean achieved/est", "min", "RMSE vs y=x"], rows))
    report.add_comparison(
        "two-hop approximation quality", "matches the LIR model closely",
        f"mean ratio LIR={float(np.mean(ratios['lir'])):.2f} vs two-hop={float(np.mean(ratios['two_hop'])):.2f}",
    )
    report.emit()
    # Shape: the two models lead to comparable outcomes (within 30% of each
    # other on average) and neither grossly over-estimates.
    assert abs(float(np.mean(ratios["lir"])) - float(np.mean(ratios["two_hop"]))) < 0.3
