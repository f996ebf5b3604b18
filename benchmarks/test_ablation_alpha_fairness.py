"""Ablation — the throughput/fairness trade-off of the alpha-fair family.

Not a figure of the paper per se, but the design choice its Section 6
relies on: alpha = 0 maximises aggregate throughput (and may starve
multi-hop flows), alpha = 1 is the proportional fairness used by
TCP-Prop, and larger alpha approaches max-min fairness.  The benchmark
sweeps alpha on one measured configuration and reports aggregate
throughput and Jain index of the optimizer's rate allocation.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ExperimentReport, format_table, jain_fairness_index
from repro.core import AlphaFairUtility, OnlineOptimizer
from repro.experiment import ScenarioSpec, build_scenario

from conftest import run_once

ALPHAS = [0.0, 1.0, 2.0, 4.0]
PROBE_WARMUP_S = 45.0


def _run():
    scenario = build_scenario(
        ScenarioSpec(scenario="random_multiflow", seed=7, num_flows=4, rate_mode="11", transport="udp")
    )
    network = scenario.network
    network.enable_probing(period_s=0.5)
    network.run(PROBE_WARMUP_S)
    allocations = {}
    for alpha in ALPHAS:
        controller = OnlineOptimizer(
            network, scenario.flows, utility=AlphaFairUtility(alpha=alpha), probing_window=80
        )
        decision = controller.optimize()
        allocations[alpha] = np.array(
            [decision.target_outputs_bps[f.flow_id] for f in scenario.flows]
        )
    return allocations


def test_ablation_alpha_fairness(benchmark):
    allocations = run_once(benchmark, _run)
    report = ExperimentReport(
        "Ablation", "alpha-fairness sweep of the optimizer on one configuration"
    )
    rows = []
    aggregates, jfis = {}, {}
    for alpha, rates in allocations.items():
        aggregates[alpha] = float(rates.sum())
        jfis[alpha] = jain_fairness_index(rates)
        rows.append([alpha, float(rates.sum()) / 1e3, jfis[alpha], float(rates.min()) / 1e3])
    report.add(format_table(["alpha", "aggregate kb/s", "Jain index", "min flow kb/s"], rows))
    report.add(
        "alpha=0 maximises aggregate throughput; increasing alpha trades aggregate "
        "throughput for fairness (higher Jain index, higher minimum rate)."
    )
    report.emit()
    assert aggregates[0.0] >= max(aggregates.values()) - 1e-6
    assert jfis[4.0] >= jfis[0.0]
    assert allocations[4.0].min() >= allocations[0.0].min() - 1e-6
