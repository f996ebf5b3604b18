"""Experiment runner: end-to-end smoke runs and result typing."""

from __future__ import annotations

import pytest

from repro.experiment.runner import Experiment, ExperimentResult, run_experiment
from repro.experiment.specs import (
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    NO_RATE_CONTROL,
    ProbingSpec,
    ScenarioSpec,
)


@pytest.fixture(scope="module")
def chain_result() -> ExperimentResult:
    """One smoke run on a 3-node chain, shared by the assertions below."""
    spec = ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="chain",
            seed=1,
            flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
        ),
        probing=ProbingSpec(warmup_s=20.0),
        controller=ControllerSpec(alpha=1.0, probing_window=40),
        cycles=2,
        cycle_measure_s=5.0,
        settle_s=1.0,
        label="smoke",
    )
    return Experiment(spec).run()


class TestRun:
    def test_one_cycle_result_per_requested_cycle(self, chain_result):
        assert [c.index for c in chain_result.cycles] == [0, 1]

    def test_flows_achieve_throughput(self, chain_result):
        throughputs = chain_result.flow_throughputs_bps
        assert set(throughputs) == {0, 1}
        assert all(bps > 0 for bps in throughputs.values())

    def test_decisions_kept_and_typed(self, chain_result):
        for cycle in chain_result.cycles:
            decision = cycle.decision
            assert decision is not None
            assert set(decision.target_outputs_bps) == {0, 1}
            assert (0, 1) in decision.link_estimates

    def test_targets_recorded_per_cycle(self, chain_result):
        for cycle in chain_result.cycles:
            assert set(cycle.target_bps) == {0, 1}
            assert all(bps > 0 for bps in cycle.target_bps.values())

    def test_utility_and_aggregates(self, chain_result):
        assert chain_result.aggregate_bps == pytest.approx(
            sum(chain_result.flow_throughputs_bps.values())
        )
        assert 0.0 < chain_result.jain_index <= 1.0
        assert chain_result.utility == chain_result.final_cycle.utility

    def test_runtime_stats_populated(self, chain_result):
        assert chain_result.sim_time_s == pytest.approx(20.0 + 2 * 5.0)
        assert chain_result.wall_time_s > 0
        assert chain_result.events_processed > 0

    def test_feasibility_ratios_cover_every_flow(self, chain_result):
        ratios = chain_result.feasibility_ratios()
        assert set(ratios) == {0, 1}
        assert all(r > 0 for r in ratios.values())


class TestNoRateControl:
    def test_norc_skips_probing_and_warmup(self):
        spec = ExperimentSpec(
            scenario=ScenarioSpec(
                scenario="chain", seed=1, flows=(FlowSpec("udp", (0, 1), rate_bps=200e3),)
            ),
            controller=NO_RATE_CONTROL,
            cycles=1,
            cycle_measure_s=3.0,
            settle_s=0.5,
        )
        result = run_experiment(spec)
        assert result.sim_time_s == pytest.approx(3.0)  # no warmup ran
        assert result.final_cycle.decision is None
        assert result.final_cycle.target_bps == {}
        assert result.flow_throughputs_bps[0] > 0

    def test_norc_default_udp_flow_is_backlogged(self):
        # A FlowSpec without rate_bps is a saturating source, so a noRC
        # baseline measures raw 802.11 rather than silent zeros.
        spec = ExperimentSpec(
            scenario=ScenarioSpec(scenario="chain", seed=1, flows=(FlowSpec("udp", (0, 1)),)),
            controller=NO_RATE_CONTROL,
            cycles=1,
            cycle_measure_s=3.0,
            settle_s=0.5,
        )
        assert run_experiment(spec).flow_throughputs_bps[0] > 1e6


class TestDeterminismAndSerialization:
    def test_same_spec_same_results(self, chain_result):
        repeat = Experiment(chain_result.spec).run()
        assert repeat.to_dict(include_runtime=False) == chain_result.to_dict(
            include_runtime=False
        )

    def test_result_round_trips_without_runtime(self, chain_result):
        payload = chain_result.to_dict(include_runtime=False)
        restored = ExperimentResult.from_dict(payload)
        assert restored.to_dict(include_runtime=False) == payload
        assert restored.flow_throughputs_bps == chain_result.flow_throughputs_bps

    def test_scenario_meta_survives_serialization(self):
        spec = ExperimentSpec(
            scenario=ScenarioSpec(scenario="starvation", data_rate_mbps=1),
            probing=ProbingSpec(warmup_s=5.0),
            controller=NO_RATE_CONTROL,
            cycles=1,
            cycle_measure_s=3.0,
            settle_s=0.5,
        )
        result = run_experiment(spec)
        restored = ExperimentResult.from_dict(result.to_dict())
        assert restored.meta == result.meta
        assert set(restored.meta) == {"two_hop", "one_hop"}

    def test_prebuilt_scenario_is_the_one_run(self):
        spec = ExperimentSpec(
            scenario=ScenarioSpec(scenario="chain", seed=1, flows=(FlowSpec("udp", (0, 1)),)),
            probing=ProbingSpec(warmup_s=5.0),
            controller=ControllerSpec(probing_window=20),
            cycles=1,
            cycle_measure_s=3.0,
            settle_s=0.5,
        )
        experiment = Experiment(spec)
        scenario = experiment.build()
        result = experiment.run(scenario)
        # The inspected network advanced: it is the instance that ran.
        assert scenario.network.now == pytest.approx(result.sim_time_s)

    def test_keep_decisions_false_drops_decisions_only(self, chain_result):
        light = Experiment(chain_result.spec, keep_decisions=False).run()
        assert all(cycle.decision is None for cycle in light.cycles)
        assert light.to_dict(include_runtime=False) == chain_result.to_dict(
            include_runtime=False
        )
