"""Tests for the simplified TCP Reno implementation."""

import pytest

from repro.net.shaper import TokenBucketShaper
from repro.sim.network import MeshNetwork
from repro.sim.topology import chain_topology, no_shadowing_propagation


def _chain(num_nodes=3, rate_mbps=11, seed=5):
    return MeshNetwork(
        chain_topology(num_nodes, spacing_m=55.0),
        seed=seed,
        propagation=no_shadowing_propagation(),
        data_rate_mbps=rate_mbps,
    )


class TestSingleFlow:
    def test_tcp_delivers_data_in_order(self):
        net = _chain()
        flow = net.add_tcp_flow([0, 1])
        flow.start()
        net.run(3.0)
        sink = flow.flow.sink
        assert sink.cumulative_ack > 50
        assert sink.cumulative_ack == len(sink.received_seqs)

    def test_tcp_reaches_good_utilisation_on_clean_link(self):
        net = _chain()
        flow = net.add_tcp_flow([0, 1])
        flow.start()
        net.run(4.0)
        # TCP over a clean 11 Mb/s one-hop link should exceed 3 Mb/s goodput.
        assert flow.throughput_bps(1.0, 4.0) > 3e6

    def test_cwnd_grows_from_slow_start(self):
        net = _chain()
        flow = net.add_tcp_flow([0, 1])
        source = flow.flow.source
        assert source.cwnd == pytest.approx(1.0)
        flow.start()
        net.run(1.0)
        assert source.cwnd > 4.0

    def test_two_hop_tcp_works(self):
        net = _chain(3)
        flow = net.add_tcp_flow([0, 1, 2])
        flow.start()
        net.run(4.0)
        assert flow.throughput_bps(1.0, 4.0) > 1e6

    def test_stop_halts_sender(self):
        net = _chain()
        flow = net.add_tcp_flow([0, 1])
        flow.start()
        net.run(1.0)
        flow.stop()
        sent_before = flow.flow.source.stats.segments_sent
        net.run(1.0)
        assert flow.flow.source.stats.segments_sent == sent_before


class TestLossRecovery:
    def test_lossy_link_triggers_recovery_but_still_delivers(self):
        net = MeshNetwork(
            chain_topology(2, spacing_m=55.0),
            seed=9,
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
            link_error_override={(0, 1): 0.6, (1, 0): 0.0},
        )
        flow = net.add_tcp_flow([0, 1])
        flow.start()
        net.run(6.0)
        source = flow.flow.source
        assert flow.flow.sink.cumulative_ack > 20
        assert source.stats.timeouts + source.stats.fast_retransmits > 0

    def test_rto_backs_off_on_dead_path(self):
        net = MeshNetwork(
            chain_topology(2, spacing_m=55.0),
            seed=9,
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
            link_error_override={(0, 1): 1.0, (1, 0): 1.0},
        )
        flow = net.add_tcp_flow([0, 1])
        flow.start()
        net.run(10.0)
        source = flow.flow.source
        assert source.stats.timeouts >= 2
        assert source.rto_s > 0.4
        assert flow.flow.sink.cumulative_ack == 0


class TestRateLimiting:
    def test_shaper_caps_tcp_goodput(self):
        net = _chain()
        flow = net.add_tcp_flow([0, 1])
        flow.flow.source.set_rate_limit(1.0e6)
        flow.start()
        net.run(4.0)
        goodput = flow.throughput_bps(1.0, 4.0)
        assert goodput < 1.2e6
        assert goodput > 0.6e6

    def test_set_rate_limit_none_removes_cap(self):
        net = _chain()
        flow = net.add_tcp_flow([0, 1])
        source = flow.flow.source
        source.set_rate_limit(1.0e6)
        assert isinstance(source.shaper, TokenBucketShaper)
        source.set_rate_limit(None)
        assert source.shaper is None

    def test_rate_limit_can_be_updated_in_place(self):
        net = _chain()
        flow = net.add_tcp_flow([0, 1])
        source = flow.flow.source
        source.set_rate_limit(1.0e6)
        first_shaper = source.shaper
        source.set_rate_limit(2.0e6)
        assert source.shaper is first_shaper
        assert source.shaper.rate_bps == pytest.approx(2.0e6)


class TestStarvation:
    def test_two_hop_flow_starves_without_rate_control(self):
        """Reproduces the classic mesh starvation of Figure 13 (TCP-noRC)."""
        net = _chain(3, rate_mbps=1, seed=3)
        two_hop = net.add_tcp_flow([0, 1, 2])
        one_hop = net.add_tcp_flow([1, 2])
        two_hop.start()
        one_hop.start()
        net.run(15.0)
        t2 = two_hop.throughput_bps(5.0, 15.0)
        t1 = one_hop.throughput_bps(5.0, 15.0)
        assert t1 > 2.0 * t2, f"expected 1-hop flow to dominate, got {t1/1e3:.0f} vs {t2/1e3:.0f} kbps"
