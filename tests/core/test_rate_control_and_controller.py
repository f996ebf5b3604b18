"""Tests for rate-control helpers and the online optimization controller."""

import dataclasses

import pytest

from repro.core.controller import OnlineOptimizer
from repro.core.optimizer import RateOptimizer, SolverError
from repro.core.rate_control import tcp_ack_airtime_factor
from repro.core.utility import MAX_THROUGHPUT, PROPORTIONAL_FAIR
from repro.sim.network import MeshNetwork
from repro.sim.topology import chain_topology, no_shadowing_propagation


class TestRateControlHelpers:
    def test_ack_factor_matches_paper_formula(self):
        # (A + H) / (A + H + D) with 40-byte headers, 40-byte ACK, 1460 payload.
        factor = tcp_ack_airtime_factor(40, 40, 1460)
        assert factor == pytest.approx(1 - 80 / 1540)

    def test_ack_factor_validation(self):
        with pytest.raises(ValueError):
            tcp_ack_airtime_factor(0, 0, 0)

    def test_udp_limit_rate_sets_cbr_rate(self, cs_pair_network):
        flow = cs_pair_network.add_udp_flow([0, 1])
        flow.limit_rate(1.25e6)
        assert flow.source.rate_bps == 1.25e6

    def test_tcp_limit_rate_installs_one_shaper(self, chain_network):
        flow = chain_network.add_tcp_flow([0, 1, 2])
        flow.limit_rate(1e6)
        shaper = flow.flow.source.shaper
        assert shaper.rate_bps == 1e6 * tcp_ack_airtime_factor()
        # Re-programming updates the same shaper in place.
        flow.limit_rate(2e6)
        assert flow.flow.source.shaper is shaper
        assert shaper.rate_bps == 2e6 * tcp_ack_airtime_factor()


@pytest.fixture(scope="module")
def probed_chain():
    """A 3-node chain with two flows and two minutes of accumulated probes."""
    net = MeshNetwork(
        chain_topology(3, spacing_m=60.0),
        seed=21,
        propagation=no_shadowing_propagation(),
        data_rate_mbps=11,
    )
    two_hop = net.add_udp_flow([0, 1, 2])
    one_hop = net.add_udp_flow([1, 2])
    net.enable_probing(period_s=0.5)
    net.run(80.0)
    return net, two_hop, one_hop


class TestOnlineOptimizer:
    def test_requires_flows(self, chain_network):
        with pytest.raises(ValueError):
            OnlineOptimizer(chain_network, [])

    def test_links_enumerated_in_flow_order(self, probed_chain):
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(net, [two_hop, one_hop], probing_window=100)
        assert controller.links == [(0, 1), (1, 2)]

    def test_link_estimates_reasonable_on_clean_chain(self, probed_chain):
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(net, [two_hop, one_hop], probing_window=100)
        estimates = controller.estimate_links()
        for link, estimate in estimates.items():
            assert estimate.channel_loss < 0.05
            assert 4e6 < estimate.capacity_bps < 6.5e6

    def test_two_hop_conflict_graph_marks_adjacent_links(self, probed_chain):
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(net, [two_hop, one_hop], probing_window=100)
        graph = controller.build_conflict_graph()
        assert (1, 2) in graph.adjacency[(0, 1)]

    def test_proportional_fair_decision_shape(self, probed_chain):
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(
            net, [two_hop, one_hop], utility=PROPORTIONAL_FAIR, probing_window=100
        )
        decision = controller.optimize()
        assert decision.optimization.success
        y_long = decision.target_outputs_bps[two_hop.flow_id]
        y_short = decision.target_outputs_bps[one_hop.flow_id]
        # Chain proportional fairness: the 1-hop flow gets about twice the
        # 2-hop flow's rate.
        assert y_short == pytest.approx(2 * y_long, rel=0.1)
        # Input rates exceed outputs only by the (small) path loss factor.
        for flow_id, x in decision.input_rates_bps.items():
            assert x >= decision.target_outputs_bps[flow_id]

    def test_max_throughput_gives_all_to_short_flow(self, probed_chain):
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(
            net, [two_hop, one_hop], utility=MAX_THROUGHPUT, probing_window=100
        )
        decision = controller.optimize()
        assert decision.target_outputs_bps[one_hop.flow_id] > 5 * max(
            decision.target_outputs_bps[two_hop.flow_id], 1.0
        )

    @pytest.mark.parametrize("utility", [PROPORTIONAL_FAIR, MAX_THROUGHPUT])
    def test_solver_failure_raises_instead_of_deciding(self, probed_chain, monkeypatch, utility):
        """A failed solve (an unconverged Newton iterate, the LP's all-zero
        placeholder) must never become a decision `apply` would program."""
        net, two_hop, one_hop = probed_chain
        solve = RateOptimizer.solve

        def failing(self):
            result = solve(self)
            result.success, result.message = False, "Iteration limit reached"
            return result

        monkeypatch.setattr(RateOptimizer, "solve", failing)
        controller = OnlineOptimizer(net, [two_hop, one_hop], utility=utility, probing_window=100)
        before = (two_hop.source.rate_bps, one_hop.source.rate_bps)
        with pytest.raises(SolverError, match="Iteration limit reached"):
            controller.run_cycle()
        assert issubclass(SolverError, RuntimeError)
        assert (two_hop.source.rate_bps, one_hop.source.rate_bps) == before

    def test_a_rate_floor_that_does_not_fit_raises_instead_of_deciding(self, probed_chain):
        """No monkeypatch: link (1, 2) carries both flows, and at 1.5 b/s it
        cannot give each the 1 b/s rate floor, so the program has no
        optimum and the shipped solve itself reports the failure."""
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(net, [two_hop, one_hop], probing_window=100)
        estimates = controller.estimate_links()
        estimates[(1, 2)] = dataclasses.replace(estimates[(1, 2)], capacity_bps=1.5)
        before = (two_hop.source.rate_bps, one_hop.source.rate_bps)
        with pytest.raises(SolverError, match="interior point: no optimum"):
            controller.apply(controller.optimize(estimates))
        assert (two_hop.source.rate_bps, one_hop.source.rate_bps) == before

    def test_apply_programs_udp_sources(self, probed_chain):
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(
            net, [two_hop, one_hop], utility=PROPORTIONAL_FAIR, probing_window=100
        )
        decision = controller.run_cycle()
        assert two_hop.source.rate_bps == pytest.approx(
            decision.input_rates_bps[two_hop.flow_id]
        )
        assert one_hop.source.rate_bps == pytest.approx(
            decision.input_rates_bps[one_hop.flow_id]
        )

    def test_rate_controlled_flows_achieve_targets(self, probed_chain):
        """End-to-end: programmed UDP rates are actually delivered."""
        net, two_hop, one_hop = probed_chain
        controller = OnlineOptimizer(
            net, [two_hop, one_hop], utility=PROPORTIONAL_FAIR, probing_window=100
        )
        decision = controller.run_cycle()
        two_hop.start()
        one_hop.start()
        net.run(6.0)
        start, end = net.now - 5.0, net.now
        for flow in (two_hop, one_hop):
            achieved = flow.throughput_bps(start, end)
            target = decision.target_outputs_bps[flow.flow_id]
            assert achieved == pytest.approx(target, rel=0.2)
        two_hop.stop()
        one_hop.stop()

    def test_probing_required(self):
        net = MeshNetwork(
            chain_topology(2), seed=1, propagation=no_shadowing_propagation()
        )
        flow = net.add_udp_flow([0, 1])
        controller = OnlineOptimizer(net, [flow])
        assert net.probing is None
        for read in (controller.estimate_links, controller.optimize):
            with pytest.raises(RuntimeError, match="probing is not enabled"):
                read()
