"""Figure 7 — network validation: estimated vs achieved throughput.

Multi-flow ETT-routed configurations on the testbed are driven at the
proportionally fair rates computed from the online model; the benchmark
reports how the achieved throughputs compare with the estimates (the
paper: most points on y=x, maximum error 38%, only a handful of points
below y=0.8x).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ExperimentReport, format_cdf_summary
from repro.core import OnlineOptimizer, PROPORTIONAL_FAIR
from repro.experiment import ScenarioSpec, build_scenario

from conftest import run_once

SCENARIOS = [
    dict(seed=7, num_flows=4, rate_mode="11"),
    dict(seed=3, num_flows=4, rate_mode="mixed"),
    dict(seed=11, num_flows=3, rate_mode="mixed"),
]
PROBE_WARMUP_S = 50.0
MEASURE_S = 10.0


def run_validation_scenario(spec, scale: float = 1.0, utility=PROPORTIONAL_FAIR):
    """Run one configuration and return (estimated, achieved) per flow."""
    scenario = build_scenario(ScenarioSpec(scenario="random_multiflow", transport="udp", **spec))
    network = scenario.network
    network.enable_probing(period_s=0.5)
    network.run(PROBE_WARMUP_S)
    controller = OnlineOptimizer(network, scenario.flows, utility=utility, probing_window=90)
    decision = controller.optimize()
    estimated = []
    achieved = []
    for flow in scenario.flows:
        target = decision.target_outputs_bps[flow.flow_id] * scale
        loss = decision.path_losses[flow.flow_id]
        flow.source.set_rate(target / max(1.0 - loss, 1e-6))
        estimated.append(target)
        flow.start()
    network.run(MEASURE_S)
    start, end = network.now - MEASURE_S + 2.0, network.now
    for flow in scenario.flows:
        achieved.append(flow.throughput_bps(start, end))
        flow.stop()
    return np.array(estimated), np.array(achieved)


def _run_all():
    points = []
    for spec in SCENARIOS:
        estimated, achieved = run_validation_scenario(spec)
        points.extend(zip(estimated, achieved))
    return points


def test_fig07_overestimation_scatter(benchmark):
    points = run_once(benchmark, _run_all)
    estimated = np.array([p[0] for p in points])
    achieved = np.array([p[1] for p in points])
    ratios = achieved / np.maximum(estimated, 1.0)
    report = ExperimentReport("Figure 7", "estimated vs achieved flow throughput (over-estimation)")
    for est, got in points:
        report.add(f"  estimated {est/1e3:8.1f} kb/s   achieved {got/1e3:8.1f} kb/s   ratio {got/max(est,1):.2f}")
    report.add(format_cdf_summary("achieved/estimated", ratios))
    fraction_above_08 = float(np.mean(ratios >= 0.8))
    report.add_comparison(
        "points at or above y=0.8x", "all but ~10 of the tested points", f"{fraction_above_08:.0%}"
    )
    report.emit()
    # Shape: the majority of flows achieve at least 80% of the estimate and
    # the median is close to the y=x line.
    assert fraction_above_08 >= 0.5
    assert float(np.median(ratios)) >= 0.7
