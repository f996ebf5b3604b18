"""The scenarios as built: the testbed and its ground-truth link
quality, the ETT-routed multi-flow configurations, the Figure 13 chain."""

import numpy as np
import pytest

from repro.experiment.registry import build_scenario
from repro.experiment.specs import FlowSpec, ScenarioSpec, TopologySpec
from repro.sim.generators import (
    assign_link_rates,
    ett_link_weights,
    ground_truth_link_error,
    radio_profile_config,
)
from repro.transport.tcp import TcpSource

STARVATION = ScenarioSpec(scenario="starvation", data_rate_mbps=1)


def _testbed(**fields):
    """The 18-node testbed at 11 Mb/s with 6 dB shadowing, as
    ``random_multiflow`` builds it, carrying one explicit flow."""
    return build_scenario(
        ScenarioSpec(
            scenario="generated", topology=TopologySpec(kind="testbed"),
            shadowing_sigma_db=6.0, rate_mode="11", flows=(FlowSpec("udp", (0, 1)),),
            **fields,
        )
    ).network


def _multiflow(**fields):
    return build_scenario(ScenarioSpec(scenario="random_multiflow", **fields))


class TestTestbedHelpers:
    def test_build_testbed_network(self):
        assert len(_testbed(seed=0).nodes) == 18

    def test_run_seed_changes_traffic_randomness_only(self):
        a, b = _testbed(seed=0, run_seed=1), _testbed(seed=0, run_seed=2)
        assert a.positions == b.positions
        assert a.sim.seed != b.sim.seed

    def test_ground_truth_link_error_bounds(self):
        network = _testbed(seed=0)
        for link in [(0, 1), (0, 17), (0, 10)]:
            assert 0.0 <= ground_truth_link_error(network, link) <= 1.0

    def test_ett_weights_exclude_marginal_links(self):
        network = _testbed(seed=0)
        weights = ett_link_weights(network, min_snr_margin_db=14.0)
        assert weights, "expected at least some usable links"
        for link in weights:
            snr = network.medium.rx_power_dbm(*link) - network.medium.capture.noise_floor_dbm
            assert snr >= network.link_rate(link).min_sinr_db + 14.0

    def test_assign_link_rates_modes(self):
        rng = np.random.default_rng(0)
        network = _testbed(seed=0)
        for mode in ("1", "2", "5.5", "11"):
            assign_link_rates(network, mode, rng)
            assert network.link_rate((0, 1)).bps == pytest.approx(float(mode) * 1e6)
        assign_link_rates(network, "mixed", rng)
        rates = {network.link_rate((tx, rx)).bps for tx in range(18) for rx in range(18) if tx != rx}
        assert rates == {1e6, 11e6}


class TestMultiFlowScenario:
    def test_scenario_routes_within_hop_budget(self):
        scenario = _multiflow(seed=7, num_flows=4, max_hops=4)
        assert len(scenario.flows) == 4
        for path in scenario.meta["routes"]:
            assert 1 <= len(path) - 1 <= 4

    def test_scenario_is_reproducible(self):
        assert _multiflow(seed=7, num_flows=3).meta == _multiflow(seed=7, num_flows=3).meta

    def test_tcp_transport_option(self):
        scenario = _multiflow(seed=3, num_flows=2, transport="tcp")
        assert all(isinstance(flow.source, TcpSource) for flow in scenario.flows)

    def test_links_property_deduplicates(self):
        scenario = _multiflow(seed=7, num_flows=4)
        assert len(scenario.links) == len(set(scenario.links))


class TestStarvationScenario:
    def test_gateway_is_hidden_from_far_node(self):
        medium = build_scenario(STARVATION).network.medium
        assert not medium.can_sense(0, 2)
        assert medium.can_sense(0, 1)
        assert medium.can_sense(1, 2)

    def test_hidden_terminal_profile_reduces_cs_range(self):
        assert radio_profile_config("hidden_terminal", 1).cs_threshold_dbm > -91.0

    def test_flows_are_routed_upstream(self):
        two_hop, one_hop = build_scenario(STARVATION).flows
        assert two_hop.path == [0, 1, 2]
        assert one_hop.path == [1, 2]
