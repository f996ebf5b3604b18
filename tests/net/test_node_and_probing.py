"""Tests for mesh-node forwarding, the probing system and Ad Hoc Probe."""

import numpy as np
import pytest

from repro.mac.nominal import nominal_throughput_bps
from repro.net.adhoc_probe import AdHocProbe
from repro.net.packet import Packet, PacketKind
from repro.net.probing import ProbePayload
from repro.phy.radio import RATE_1MBPS, RATE_11MBPS
from repro.sim import MeshNetwork, chain_topology, no_shadowing_propagation
from repro.sim.measurement import measure_isolated


def _packet(src, dst, flow_id=0, size=1000, kind=PacketKind.UDP):
    return Packet(kind=kind, src=src, dst=dst, flow_id=flow_id, payload_bytes=size, created_at=0.0)


class TestNodeForwarding:
    def test_local_delivery_without_radio(self, chain_network):
        node = chain_network.node(0)
        delivered = []
        node.add_delivery_handler(lambda packet, prev: delivered.append(packet))
        assert node.send_packet(_packet(0, 0))
        assert len(delivered) == 1

    def test_no_route_drop(self, chain_network):
        node = chain_network.node(0)
        assert not node.send_packet(_packet(0, 2))
        assert node.stats.no_route_drops == 1

    def test_multi_hop_forwarding(self, chain_network):
        chain_network.install_path([0, 1, 2])
        delivered = []
        chain_network.node(2).add_delivery_handler(lambda p, prev: delivered.append(p))
        chain_network.node(0).send_packet(_packet(0, 2))
        chain_network.run(0.2)
        assert len(delivered) == 1
        assert delivered[0].hops == 2
        assert chain_network.node(1).stats.forwarded == 1

    def test_reverse_route_installed_for_bidirectional_paths(self, chain_network):
        chain_network.install_path([0, 1, 2], bidirectional=True)
        assert chain_network.node(2).next_hop(0) == 1
        assert chain_network.node(1).next_hop(0) == 0

    def test_frame_size_includes_headers(self, chain_network):
        node = chain_network.node(0)
        udp = _packet(0, 1, size=1000)
        tcp = _packet(0, 1, size=1000, kind=PacketKind.TCP_DATA)
        assert node.frame_size_for(udp) > 1000
        assert node.frame_size_for(tcp) > 1000

    def test_link_rate_override(self, chain_network):
        chain_network.set_link_rate((0, 1), 1)
        assert chain_network.link_rate((0, 1)).bps == pytest.approx(1e6)
        assert chain_network.link_rate((1, 2)).bps == pytest.approx(11e6)


class TestProbingSystem:
    @pytest.fixture
    def probed_network(self):
        net = MeshNetwork(
            chain_topology(3, spacing_m=60.0),
            seed=2,
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
        )
        net.enable_probing(period_s=0.2)
        net.run(20.0)
        return net

    def test_probes_are_sent_periodically(self, probed_network):
        probing = probed_network.probing
        for node in probed_network.node_ids:
            assert probing.probes_sent(node, "data") > 50
            assert probing.probes_sent(node, "ack") > 50

    def test_neighbours_receive_probes(self, probed_network):
        probing = probed_network.probing
        assert probing.loss_rate(0, 1, "data") < 0.1
        assert probing.loss_rate(1, 0, "ack") < 0.1

    def test_distant_nodes_lose_many_probes(self, probed_network):
        probing = probed_network.probing
        # Node 0 and node 2 are 120 m apart: 11 Mb/s DATA probes suffer
        # heavy channel losses, unlike the adjacent 60 m links.
        assert probing.loss_rate(0, 2, "data") > 0.15
        assert probing.loss_rate(0, 2, "data") > 5 * probing.loss_rate(0, 1, "data")

    def test_loss_series_length_matches_window(self, probed_network):
        probing = probed_network.probing
        series = probing.loss_series(0, 1, "data", last_n=40)
        assert series.size == 40
        assert set(series.tolist()) <= {0, 1}

    def test_link_loss_combines_directions(self, probed_network):
        probing = probed_network.probing
        combined = probing.link_loss_rate(0, 1)
        assert combined >= probing.loss_rate(0, 1, "data") - 1e-9

    def test_unknown_sender_has_full_loss(self, probed_network):
        probing = probed_network.probing
        assert probing.loss_rate(0, 99, "data") >= 0.0
        assert probing.loss_series(99, 0, "data").size == 0

    def test_loss_counts_equal_the_membership_oracle(self):
        """``loss_series`` is the per-seq membership list and ``loss_rate``
        is exactly its mean, for every window shape and stream kind —
        including 1 Mb/s DATA probes, tracked apart from 11 Mb/s ones."""
        net = MeshNetwork(
            chain_topology(3, spacing_m=60.0),
            seed=2,
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
        )
        net.set_link_rate((0, 1), RATE_1MBPS)
        net.enable_probing(period_s=0.2)
        net.run(20.0)
        probing = net.probing

        def oracle(sender, receiver, label, last_n):
            sent = probing._sent.get((sender, label), 0)
            log = probing._logs.get((sender, receiver, label))
            received = log.received if log is not None else set()
            start = 0 if last_n is None else max(0, sent - last_n)
            return [0 if seq in received else 1 for seq in range(start, sent)]

        streams = [
            # (sender, receiver, kind, rate, bookkeeping label)
            (0, 1, "data", None, "data@11Mbps"),
            (0, 2, "data", RATE_11MBPS, "data@11Mbps"),
            (0, 1, "data", RATE_1MBPS, "data@1Mbps"),
            (1, 0, "data", RATE_1MBPS, "data@1Mbps"),  # node 1 sends none at 1 Mb/s
            (2, 0, "ack", None, "ack"),
            (0, 99, "ack", None, "ack"),  # no log at the receiver
            (99, 0, "data", None, "data"),  # unknown sender: zero probes sent
        ]
        assert probing.probes_sent(0, "data", RATE_1MBPS) > 50
        assert probing.probes_sent(1, "data", RATE_1MBPS) == 0
        sent = probing.probes_sent(0, "data")
        for sender, receiver, kind, rate, label in streams:
            for last_n in (None, 0, 1, 40, sent, sent + 25):
                series = probing.loss_series(sender, receiver, kind, last_n, rate)
                expected = oracle(sender, receiver, label, last_n)
                assert series.dtype == np.dtype(int)
                assert series.tolist() == expected, (label, last_n)
                rate_value = probing.loss_rate(sender, receiver, kind, last_n, rate)
                if expected:
                    assert rate_value == float(series.mean()), (label, last_n)
                else:
                    assert rate_value == 1.0
        assert 0 < sum(oracle(0, 2, "data@11Mbps", None)) < sent  # a mixed series

    def test_a_sequence_number_counts_once_in_any_arrival_order(self, chain_network):
        """The log is an ordered list that appends; a probe that arrives
        late or twice (neither happens on a FIFO broadcast queue) still
        gets the set semantics the list replaced."""
        probing = chain_network.enable_probing(start=False)
        probing._sent[(0, "ack")] = 10
        for seq in (0, 1, 4, 4, 2, 7, 0, 7, 3, 9):
            probing._record(1, ProbePayload(sender=0, seq=seq, kind="ack"))
        assert probing._logs[(0, 1, "ack")].received == [0, 1, 2, 3, 4, 7, 9]
        assert probing.loss_series(0, 1, "ack").tolist() == [0, 0, 0, 0, 0, 1, 1, 0, 1, 0]
        assert probing.loss_series(0, 1, "ack", last_n=4).tolist() == [1, 0, 1, 0]
        assert probing.loss_rate(0, 1, "ack") == 3 / 10
        assert probing.loss_rate(0, 1, "ack", last_n=4) == 2 / 4
        assert probing.loss_rate(0, 1, "ack", last_n=0) == 1.0
        assert probing.loss_rate(0, 2, "ack") == 1.0  # node 2 logged nothing

    def test_loss_rates_is_loss_rate_of_every_ordered_pair(self, probed_network):
        probing = probed_network.probing
        nodes = probed_network.node_ids
        for kind in ("ack", "data"):
            for last_n in (None, 0, 40, 10_000):
                assert probing.loss_rates(kind, last_n) == {
                    (tx, rx): probing.loss_rate(tx, rx, kind, last_n)
                    for tx in nodes
                    for rx in nodes
                    if tx != rx
                }
        # A sender that never probed has no row, as its window has no probes.
        silent = MeshNetwork(
            chain_topology(2, spacing_m=60.0), seed=2, propagation=no_shadowing_propagation()
        )
        assert silent.enable_probing(start=False).loss_rates("ack", 80) == {}

    def test_stop_halts_probing(self, probed_network):
        probing = probed_network.probing
        probing.stop()
        before = probing.probes_sent(0, "data")
        probed_network.run(2.0)
        assert probing.probes_sent(0, "data") <= before + 1


class TestAdHocProbe:
    def test_estimates_near_nominal_on_clean_link(self):
        """Ad Hoc Probe tracks the nominal rate — the paper's Figure 11
        over-estimation baseline."""
        net = MeshNetwork(
            chain_topology(2, spacing_m=50.0),
            seed=5,
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
        )
        net.install_path([0, 1])
        probe = AdHocProbe(net.sim, net.node(0), net.node(1), pair_interval_s=0.1)
        probe.start(num_pairs=60)
        net.run(10.0)
        estimate = probe.capacity_estimate_bps()
        assert estimate is not None
        nominal = nominal_throughput_bps(1472, RATE_11MBPS)
        assert estimate == pytest.approx(nominal, rel=0.35)

    def test_overestimates_lossy_link_capacity(self):
        """On a lossy link the true maxUDP drops but Ad Hoc Probe barely moves."""
        lossy = MeshNetwork(
            chain_topology(2, spacing_m=50.0),
            seed=6,
            propagation=no_shadowing_propagation(),
            data_rate_mbps=11,
            link_error_override={(0, 1): 0.45, (1, 0): 0.0},
        )
        lossy.install_path([0, 1])
        flow = lossy.add_udp_flow([0, 1])
        max_udp = measure_isolated(lossy, flow, duration_s=2.0).throughput_bps
        probe = AdHocProbe(lossy.sim, lossy.node(0), lossy.node(1), pair_interval_s=0.1)
        probe.start(num_pairs=80)
        lossy.run(10.0)
        estimate = probe.capacity_estimate_bps()
        assert estimate is not None
        assert estimate > 1.3 * max_udp

    def test_requires_positive_pair_count(self, chain_network):
        probe = AdHocProbe(chain_network.sim, chain_network.node(0), chain_network.node(1))
        with pytest.raises(ValueError):
            probe.start(0)

    def test_no_samples_returns_none(self, chain_network):
        probe = AdHocProbe(chain_network.sim, chain_network.node(0), chain_network.node(1))
        assert probe.capacity_estimate_bps() is None
