"""Property/invariant suite over a seeded spec grid (Sec. 3 constraints).

These are the invariants any execution backend must preserve and any
simulation change must keep true:

* Jain's fairness index of achieved throughputs lies in ``[1/n, 1]``;
* per-flow achieved and optimized rates are non-negative;
* LIR estimates — analytic, synthetic, and simulator-measured — lie in
  ``[0, 1]``;
* optimizer outputs respect the Section 3 capacity constraints: the
  optimized link-rate vector is inside the extreme-point polytope, and
  every maximal clique of the conflict graph time-shares at most the
  whole channel (``sum y_l / c_l <= 1``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import jain_fairness_index
from repro.core.cliques import maximal_cliques
from repro.core.lir_error import PairSample
from repro.experiment.runner import Experiment
from repro.experiment.specs import (
    ChurnSpec,
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    MobilitySpec,
    ProbingSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

# --------------------------------------------------------------------------
# The seeded grid: scenarios x controllers — canned presets plus
# generator-built scenarios (grid and parking-lot topologies with
# controller-managed workloads) — all cheap enough for tier-1.
# --------------------------------------------------------------------------
def _grid() -> list[ExperimentSpec]:
    chain = ScenarioSpec(
        scenario="chain",
        flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
    )
    specs = []
    for seed, controller in [
        (1, ControllerSpec(alpha=1.0, probing_window=40)),
        (2, ControllerSpec(alpha=0.0, probing_window=40)),
        (3, ControllerSpec(enabled=False)),
    ]:
        specs.append(
            ExperimentSpec(
                scenario=chain.with_seed(seed),
                probing=ProbingSpec(warmup_s=5.0),
                controller=controller,
                cycles=1,
                cycle_measure_s=2.0,
                settle_s=0.5,
                label=f"grid-chain-{seed}",
            )
        )
    specs.append(
        ExperimentSpec(
            scenario=ScenarioSpec(scenario="starvation", seed=0, data_rate_mbps=1),
            probing=ProbingSpec(warmup_s=8.0),
            controller=ControllerSpec(alpha=1.0, probing_window=60),
            cycles=1,
            cycle_measure_s=4.0,
            settle_s=1.0,
            label="grid-starvation",
        )
    )
    # Generator-built scenarios: the invariants must hold for the open
    # scenario space too, not just the four canned presets.
    for label, topology, workload in [
        (
            "grid-generated-grid",
            TopologySpec(kind="grid", rows=2, cols=2, spacing_m=55.0),
            WorkloadSpec(generator="saturated_udp", num_flows=2, max_hops=2, rate_bps=0.0),
        ),
        (
            "grid-generated-parking-lot",
            TopologySpec(kind="parking_lot", num_nodes=3, spacing_m=55.0),
            WorkloadSpec(generator="gravity", num_flows=2, max_hops=3, rate_bps=0.0),
        ),
    ]:
        specs.append(
            ExperimentSpec(
                scenario=ScenarioSpec(
                    scenario="generated",
                    seed=4,
                    topology=topology,
                    workload=workload,
                    rate_mode="11",
                ),
                probing=ProbingSpec(warmup_s=5.0),
                controller=ControllerSpec(alpha=1.0, probing_window=40),
                cycles=1,
                cycle_measure_s=2.0,
                settle_s=0.5,
                label=label,
            )
        )
    # Dynamic scenarios: the same invariants must hold per cycle while
    # nodes move (waypoint epochs rebuilding the power tables mid-run)
    # and while a relay churns out and back in.
    for label, mobility, churn in [
        (
            "grid-dynamic-mobility",
            MobilitySpec(model="waypoint", epoch_s=0.5, speed_mps=1.5),
            None,
        ),
        (
            "grid-dynamic-churn",
            None,
            ChurnSpec(num_events=1, start_s=5.5, end_s=6.0, down_s=0.5),
        ),
    ]:
        specs.append(
            ExperimentSpec(
                scenario=ScenarioSpec(
                    scenario="generated",
                    seed=5,
                    topology=TopologySpec(kind="grid", rows=2, cols=2, spacing_m=55.0),
                    workload=WorkloadSpec(
                        generator="saturated_udp", num_flows=2, max_hops=2, rate_bps=0.0
                    ),
                    rate_mode="11",
                    mobility=mobility,
                    churn=churn,
                ),
                probing=ProbingSpec(warmup_s=5.0),
                controller=ControllerSpec(alpha=1.0, probing_window=40),
                cycles=1,
                cycle_measure_s=2.0,
                settle_s=0.5,
                label=label,
            )
        )
    return specs


@pytest.fixture(scope="module")
def grid_results():
    return [Experiment(spec, keep_decisions=True).run(cache=False) for spec in _grid()]


@pytest.mark.slow
class TestExperimentInvariants:
    def test_throughputs_non_negative(self, grid_results):
        for result in grid_results:
            for cycle in result.cycles:
                assert all(v >= 0.0 for v in cycle.achieved_bps.values())
                assert all(v >= 0.0 for v in cycle.target_bps.values())

    def test_jain_index_bounds(self, grid_results):
        for result in grid_results:
            n = len(result.flow_ids)
            assert 1.0 / n - 1e-12 <= result.jain_index <= 1.0 + 1e-12

    def test_optimizer_respects_section3_constraints(self, grid_results):
        checked = 0
        for result in grid_results:
            for cycle in result.cycles:
                decision = cycle.decision
                if decision is None:  # noRC baselines decide nothing
                    continue
                checked += 1
                region = decision.region
                y = decision.optimization.link_rates
                assert (y >= -1e-6).all()
                scale = float(region.extreme_points.max())
                # Inside the extreme-point polytope (free disposal), up
                # to solver slack.
                assert region.contains(y.clip(min=0.0), tolerance=1e-6 * scale)
                # Clique capacity: every maximal clique of the conflict
                # graph time-shares at most the whole channel.
                capacities = {
                    link: est.capacity_bps
                    for link, est in decision.link_estimates.items()
                }
                for clique in maximal_cliques(decision.conflict_graph.adjacency):
                    share = 0.0
                    for link in clique:
                        rate = float(y[region.links.index(link)])
                        capacity = capacities[link]
                        if capacity <= 0.0:
                            assert rate <= 1e-6 * scale
                            continue
                        share += rate / capacity
                    assert share <= 1.0 + 1e-6
        # The grid genuinely exercises the optimizer — including on the
        # generator-built grid and parking-lot scenarios and on the
        # dynamic mobility/churn rows.
        assert checked >= 7

    def test_lir_estimates_in_unit_interval(self, grid_results):
        """Measured pair throughputs can only realize LIRs in [0, 1]."""
        from repro.sim.network import MeshNetwork
        from repro.sim.topology import carrier_sense_pair, no_shadowing_propagation
        from repro.sim.measurement import measure_pair

        topo = carrier_sense_pair()
        network = MeshNetwork(
            topo.positions,
            seed=7,
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
        )
        flow1 = network.add_udp_flow(list(topo.links[0]))
        flow2 = network.add_udp_flow(list(topo.links[1]))
        pair = measure_pair(network, flow1, flow2, duration_s=1.5)
        assert 0.0 <= pair.lir <= 1.0 + 1e-9
        assert 0.0 <= PairSample(pair.c11, pair.c22, pair.c31, pair.c32).lir <= 1.0 + 1e-9


# --------------------------------------------------------------------------
# Pure-math properties (hypothesis): no simulation involved, always fast.
# --------------------------------------------------------------------------
_rates = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestMetricProperties:
    @given(st.lists(_rates, min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_jain_index_always_in_bounds(self, values):
        index = jain_fairness_index(values)
        n = len(values)
        # The bound is exact in real arithmetic; in floats, (sum x)^2 /
        # (n * sum x^2) can overshoot by ~1e-8 for near-equal values of
        # large magnitude (hypothesis finds such cases), so the epsilon
        # admits rounding noise without weakening the invariant.
        assert 1.0 / n - 1e-6 <= index <= 1.0 + 1e-6

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_jain_index_of_equal_allocation_is_one(self, values):
        equal = [values[0]] * len(values)
        assert math.isclose(jain_fairness_index(equal), 1.0, rel_tol=1e-9)


class TestLirProperties:
    @given(
        c11=st.floats(min_value=1e-3, max_value=1e7),
        c22=st.floats(min_value=1e-3, max_value=1e7),
        f1=st.floats(min_value=0.0, max_value=1.0),
        f2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_physical_pair_has_lir_in_unit_interval(self, c11, c22, f1, f2):
        """Simultaneous throughputs cannot exceed isolated ones, so the
        LIR of any physically realizable pair lies in [0, 1]."""
        sample = PairSample(c11=c11, c22=c22, c31=f1 * c11, c32=f2 * c22)
        assert 0.0 <= sample.lir <= 1.0 + 1e-9
