"""Tests for the two-phase measurement drivers of Section 4."""

import pytest

from repro.sim.measurement import apply_input_rates, measure_flows, measure_isolated, measure_pair
from repro.sim.network import MeshNetwork
from repro.sim.topology import (
    carrier_sense_pair,
    independent_pair,
    information_asymmetry_pair,
    no_shadowing_propagation,
)


def _pair_network(factory, mbps=11, seed=13, **kwargs):
    topo = factory()
    net = MeshNetwork(
        topo.positions, seed=seed, propagation=no_shadowing_propagation(),
        data_rate_mbps=mbps, **kwargs,
    )
    return net, net.add_udp_flow([0, 1]), net.add_udp_flow([2, 3])


class TestMeasureFlows:
    def test_duration_must_be_positive(self):
        net, f1, f2 = _pair_network(carrier_sense_pair)
        with pytest.raises(ValueError):
            measure_flows(net, [f1], duration_s=0.0)

    def test_isolated_measurement_reports_loss(self):
        net, f1, _ = _pair_network(
            carrier_sense_pair, link_error_override={(0, 1): 0.995, (1, 0): 0.0}
        )
        result = measure_isolated(net, f1, duration_s=2.0)
        assert result.loss_rate > 0.1
        assert result.throughput_bps < 2e6

    def test_clean_link_has_negligible_loss(self):
        net, f1, _ = _pair_network(carrier_sense_pair)
        result = measure_isolated(net, f1, duration_s=1.5)
        assert result.loss_rate < 0.02

    def test_flows_stopped_after_measurement(self):
        net, f1, _ = _pair_network(carrier_sense_pair)
        measure_isolated(net, f1, duration_s=1.0)
        quiet_start = net.now
        net.run(1.0)
        assert f1.throughput_bps(quiet_start, net.now) == 0.0


class TestMeasurePair:
    def test_lir_of_cs_pair_near_half(self):
        net, f1, f2 = _pair_network(carrier_sense_pair)
        result = measure_pair(net, f1, f2, duration_s=1.5)
        assert 0.4 < result.lir < 0.75

    def test_lir_of_independent_pair_near_one(self):
        net, f1, f2 = _pair_network(independent_pair)
        result = measure_pair(net, f1, f2, duration_s=1.5)
        assert result.lir > 0.9

    def test_ia_pair_at_11mbps_starves_one_link(self):
        """With a reduced carrier-sense range, the hidden transmitter's
        frames overlap at receiver 1 below the 11 Mb/s capture threshold,
        starving link 1 (the classic IA outcome)."""
        from repro.sim.topology import reduced_carrier_sense_radio

        topo = information_asymmetry_pair(link1_len_m=65.0, link2_len_m=50.0, tx_gap_m=185.0)
        net = MeshNetwork(
            topo.positions,
            seed=13,
            radio=reduced_carrier_sense_radio(11),
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
        )
        f1, f2 = net.add_udp_flow([0, 1]), net.add_udp_flow([2, 3])
        result = measure_pair(net, f1, f2, duration_s=1.5)
        assert min(result.c31, result.c32) < 0.25 * max(result.c31, result.c32)

    def test_ia_pair_at_1mbps_captures(self):
        """The same IA geometry at 1 Mb/s mostly captures: the feasible
        region rises above the time-sharing line (Figure 5's effect)."""
        from repro.sim.topology import reduced_carrier_sense_radio

        topo = information_asymmetry_pair(link1_len_m=65.0, link2_len_m=50.0, tx_gap_m=185.0)
        net = MeshNetwork(
            topo.positions,
            seed=13,
            radio=reduced_carrier_sense_radio(1),
            propagation=no_shadowing_propagation(),
            data_rate_mbps=1,
        )
        f1, f2 = net.add_udp_flow([0, 1]), net.add_udp_flow([2, 3])
        result = measure_pair(net, f1, f2, duration_s=1.5)
        assert result.lir > 0.7

    def test_primary_points_positive(self):
        net, f1, f2 = _pair_network(carrier_sense_pair)
        result = measure_pair(net, f1, f2, duration_s=1.0)
        assert result.c11 > 1e6 and result.c22 > 1e6


class TestApplyInputRates:
    def test_feasible_vector_is_reported_feasible(self):
        net, f1, f2 = _pair_network(carrier_sense_pair)
        result = apply_input_rates(net, [f1, f2], [1.5e6, 1.5e6], duration_s=2.0)
        assert result.feasible
        assert all(a > 1.2e6 for a in result.achieved_bps)

    def test_infeasible_vector_is_reported_infeasible(self):
        net, f1, f2 = _pair_network(carrier_sense_pair)
        result = apply_input_rates(net, [f1, f2], [4.5e6, 4.5e6], duration_s=2.0)
        assert not result.feasible

    def test_rate_count_must_match(self):
        net, f1, f2 = _pair_network(carrier_sense_pair)
        with pytest.raises(ValueError):
            apply_input_rates(net, [f1, f2], [1e6], duration_s=1.0)

    def test_expected_accounts_for_loss(self):
        net, f1, f2 = _pair_network(carrier_sense_pair)
        result = apply_input_rates(
            net, [f1], [1e6], loss_rates=[0.3], duration_s=1.0
        )
        assert result.expected_bps[0] == pytest.approx(0.7e6)
