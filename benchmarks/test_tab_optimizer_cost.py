"""Section 6.1 cost figures — what one controller cycle costs.

The paper reports that its worst-case conflict graph produced about 200
extreme points, enumerated in under 10 ms, and that the convex program
solved in under 3 s (Matlab).  This benchmark times our Bron–Kerbosch
enumeration and the proportional-fair solve (the interior-point Newton
iteration of ``repro.core.optimizer``, plain numpy) on a conflict graph
of similar size — and, so that the table covers the whole measure ->
model -> optimize cycle of Sections 5.2–5.5, the measurement half on a
live network: reading every link direction's probe window through the
channel-loss estimator into Eq. (6) capacities (``estimate_links``) and
rebuilding the two-hop conflict graph from the ACK-probe loss table
(``build_conflict_graph``) on the 18-node testbed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import ExperimentReport
from repro.core import (
    ConflictGraph,
    FeasibilityRegion,
    OnlineOptimizer,
    PROPORTIONAL_FAIR,
    PairwiseInterferenceMap,
    RateOptimizer,
)
from repro.net.routing import FlowRoute, RoutingMatrix
from repro.experiment import ScenarioSpec, build_scenario

NUM_LINKS = 24
EDGE_PROBABILITY = 0.55
NUM_FLOWS = 6
LINKS_PER_FLOW = 3

# The measure/model stage: 12 ETT-routed UDP flows on the 18-node testbed
# after 45 s of broadcast probing (90 probes a stream; S = 80 are read).
MESH_SEED = 7
MESH_FLOWS = 12
PROBING_WARMUP_S = 45.0
PROBING_WINDOW = 80
MEASURE_REPEATS = 30


def _build_problem():
    rng = np.random.default_rng(42)
    links = [(2 * i, 2 * i + 1) for i in range(NUM_LINKS)]
    interference = PairwiseInterferenceMap(links)
    for i in range(NUM_LINKS):
        for j in range(i + 1, NUM_LINKS):
            if rng.random() < EDGE_PROBABILITY:
                interference.add_conflict(links[i], links[j])
    graph = ConflictGraph.from_interference_map(interference)
    capacities = {link: float(rng.uniform(0.8e6, 6e6)) for link in links}
    return graph, capacities, links


def _routing_matrix(region: FeasibilityRegion) -> RoutingMatrix:
    """Each flow traverses ``LINKS_PER_FLOW`` of the region's links."""
    matrix = np.zeros((region.num_links, NUM_FLOWS))
    flows = []
    for f in range(NUM_FLOWS):
        used = [(3 * f + k) % region.num_links for k in range(LINKS_PER_FLOW)]
        matrix[used, f] = 1.0
        first, last = region.links[used[0]], region.links[used[-1]]
        flows.append(FlowRoute(f, first[0], last[1], [first[0], last[1]]))
    return RoutingMatrix(links=list(region.links), flows=flows, matrix=matrix)


def _solve_once():
    graph, capacities, links = _build_problem()
    t0 = time.perf_counter()
    independent_sets = graph.independent_sets()
    enumeration_s = time.perf_counter() - t0
    region = FeasibilityRegion.from_capacities_and_conflicts(capacities, graph)
    routing = _routing_matrix(region)
    t1 = time.perf_counter()
    result = RateOptimizer(region, routing, PROPORTIONAL_FAIR).solve()
    solve_s = time.perf_counter() - t1
    return {
        "independent_sets": len(independent_sets),
        "extreme_points": region.num_extreme_points,
        "enumeration_s": enumeration_s,
        "solve_s": solve_s,
        "success": result.success,
    }


def _best_of(func, repeats: int = MEASURE_REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _measure_model_cost() -> dict[str, float]:
    """Best-of-N wall time of the cycle's first half on a warmed mesh
    (the first call of each stage, which builds the estimator's window
    tables, is left out: a controller pays it once, not per cycle)."""
    scenario = build_scenario(ScenarioSpec(
        scenario="random_multiflow", seed=MESH_SEED, num_flows=MESH_FLOWS, rate_mode="11",
        transport="udp",
    ))
    try:
        network = scenario.network
        network.enable_probing()
        network.run(PROBING_WARMUP_S)
        controller = OnlineOptimizer(
            network, scenario.flows, probing_window=PROBING_WINDOW, payload_bytes=1460
        )
        controller.estimate_links(), controller.build_conflict_graph()
        estimate_s, estimates = _best_of(controller.estimate_links)
        graph_s, graph = _best_of(controller.build_conflict_graph)
        return {
            "nodes": float(len(network.node_ids)),
            "links": float(len(estimates)),
            "directions": float(2 * len(estimates)),
            "case2_links": float(sum(e.estimator_case == 2 for e in estimates.values())),
            "conflict_edges": float(graph.num_edges),
            "estimate_links_s": estimate_s,
            "conflict_graph_s": graph_s,
        }
    finally:
        scenario.close()


def test_optimizer_cost(benchmark):
    stats = benchmark(_solve_once)
    mesh = _measure_model_cost()
    report = ExperimentReport(
        "Sec. 6.1 (optimizer cost)", "one cycle: measure/model, enumeration, solver runtime"
    )
    report.add(
        f"conflict graph: {NUM_LINKS} links, {stats['independent_sets']} maximal independent sets, "
        f"{stats['extreme_points']} extreme points"
    )
    report.add_comparison("extreme points (worst case)", "~200", str(stats["extreme_points"]))
    report.add_comparison("enumeration time", "< 10 ms", f"{stats['enumeration_s'] * 1e3:.1f} ms")
    report.add_comparison("solver time", "< 3 s (Matlab)", f"{stats['solve_s'] * 1e3:.1f} ms")
    report.add(
        f"measure/model on a live mesh: {mesh['nodes']:.0f} nodes, {mesh['links']:.0f} links "
        f"({mesh['directions']:.0f} probe windows of S = {PROBING_WINDOW}, "
        f"{mesh['case2_links']:.0f} links in Case 2), {mesh['conflict_edges']:.0f} conflict edges"
    )
    report.add_comparison(
        "loss estimation + Eq. (6) capacities, all links",
        "not reported (probing period 0.5 s)",
        f"{mesh['estimate_links_s'] * 1e3:.2f} ms",
    )
    report.add_comparison(
        "two-hop conflict graph from the probe table",
        "not reported",
        f"{mesh['conflict_graph_s'] * 1e3:.2f} ms",
    )
    report.emit()
    assert stats["success"]
    assert stats["extreme_points"] >= 50
    assert stats["enumeration_s"] < 1.0
    assert stats["solve_s"] < 10.0
    assert mesh["nodes"] == 18 and mesh["links"] >= 10 and mesh["conflict_edges"] > 0
    # The whole first half must stay far below one probing period.
    assert mesh["estimate_links_s"] + mesh["conflict_graph_s"] < 0.1
