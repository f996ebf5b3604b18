"""Tests for mesh-node forwarding, the probing system and Ad Hoc Probe."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.loss_estimator import stack_series
from repro.mac.nominal import nominal_throughput_bps
from repro.net.adhoc_probe import AdHocProbe
from repro.net.packet import Packet, PacketKind
from repro.net.probing import ProbePayload, ProbingSystem
from repro.phy.radio import RATE_1MBPS, RATE_11MBPS
from repro.sim.network import MeshNetwork
from repro.sim.topology import chain_topology, no_shadowing_propagation
from repro.sim.measurement import measure_isolated

from reference import paper


def _loss_rates(probing, kind, last_n):
    """``loss_table`` as ``{(sender, receiver): loss}``, NaNs left out: the
    shape of the reference's ``loss_rates``."""
    nodes = list(probing.nodes)
    rows = zip(nodes, probing.loss_table(kind, last_n).tolist())
    return {(a, b): loss for a, row in rows for b, loss in zip(nodes, row) if loss == loss}


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
        assert probing.loss_series(0, 1, "data").mean() < 0.1
        assert probing.loss_series(1, 0, "ack").mean() < 0.1

    def test_distant_nodes_lose_many_probes(self, probed_network):
        probing = probed_network.probing
        # Node 0 and node 2 are 120 m apart: 11 Mb/s DATA probes suffer
        # heavy channel losses, unlike the adjacent 60 m links.
        far, near = (probing.loss_series(0, receiver, "data").mean() for receiver in (2, 1))
        assert far > 0.15
        assert far > 5 * near

    def test_loss_series_length_matches_window(self, probed_network):
        probing = probed_network.probing
        series = probing.loss_series(0, 1, "data", last_n=40)
        assert series.size == 40
        assert set(series.tolist()) <= {0, 1}

    def test_unknown_sender_has_full_loss(self, probed_network):
        probing = probed_network.probing
        assert probing.loss_series(0, 99, "data").all()
        assert probing.loss_series(99, 0, "data").size == 0

    def test_loss_counts_equal_the_heard_set_reference(self, monkeypatch):
        """Every reception also goes into the §5.2 reference, a set of heard
        sequence numbers per stream: ``loss_series``, ``loss_matrix`` and
        ``loss_table`` read from the bitmaps equal the reference read over
        the same window, for every window shape and stream kind — including
        1 Mb/s DATA probes, tracked apart from 11 Mb/s ones."""
        lists = paper.HeardLog()
        record = ProbingSystem._record

        def recording(self, receiver_id, payload):
            label = f"{payload.kind}@{payload.rate_name}" if payload.rate_name else payload.kind
            lists.record((payload.sender, receiver_id, label), payload.seq)
            record(self, receiver_id, payload)

        monkeypatch.setattr(ProbingSystem, "_record", recording)
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
            total = probing.probes_sent(sender, kind, rate)
            for last_n in (None, 0, 1, 40, sent, sent + 25):
                start = 0 if last_n is None else max(0, total - last_n)
                key = (sender, receiver, label)
                series = probing.loss_series(sender, receiver, kind, last_n, rate)
                assert series.dtype == np.dtype(int)
                assert series.tolist() == lists.loss_series(key, start, total).tolist()
                if series.size:  # the controller's raw window loss: the row mean
                    expected = lists.loss_rate(key, start, total)
                    assert float(series.mean()) == expected, (label, last_n)
        for last_n in (None, 0, 1, 40, sent, sent + 25):
            # One stacked read: each stream's series in its leading columns.
            losses, lengths = probing.loss_matrix([stream[:4] for stream in streams], last_n)
            expected = stack_series(
                [probing.loss_series(s, r, kind, last_n, rate) for s, r, kind, rate, _ in streams]
            )
            assert (losses.dtype, lengths.dtype) == (expected[0].dtype, expected[1].dtype)
            assert np.array_equal(losses, expected[0]) and np.array_equal(lengths, expected[1])
        nodes = list(probing.nodes)
        for kind, label in (("data", "data@11Mbps"), ("ack", "ack")):
            sent_by = {node: probing.probes_sent(node, kind) for node in nodes}
            for last_n in (None, 0, 40):
                expected = paper.loss_rates(lists, nodes, label, sent_by, last_n)
                assert _loss_rates(probing, kind, last_n) == expected
        assert 0 < sum(probing.loss_series(0, 2, "data")) < sent  # a mixed series

    def test_a_sequence_number_counts_once_in_any_arrival_order(self, chain_network):
        """A probe that arrives late or twice (neither happens on a FIFO
        broadcast queue) sets the same byte of the bitmap again: the
        readers see it once, as the set of heard numbers does."""
        probing = chain_network.enable_probing(start=False)
        probing._sent[(0, "ack")] = 10
        lists = paper.HeardLog()
        for seq in (0, 1, 4, 4, 2, 7, 0, 7, 3, 9):
            probing._record(1, ProbePayload(sender=0, seq=seq, kind="ack"))
            lists.record((0, 1, "ack"), seq)
        assert lists[(0, 1, "ack")] == {0, 1, 2, 3, 4, 7, 9}
        assert probing.loss_series(0, 1, "ack").tolist() == [0, 0, 0, 0, 0, 1, 1, 0, 1, 0]
        assert probing.loss_series(0, 1, "ack", last_n=4).tolist() == [1, 0, 1, 0]
        assert list(probing.nodes) == [0, 1, 2]
        assert probing.loss_table("ack")[0, 1] == 3 / 10
        assert probing.loss_table("ack", last_n=4)[0, 1] == 2 / 4
        assert probing.loss_table("ack", last_n=0)[0, 1] == 1.0
        assert probing.loss_table("ack")[0, 2] == 1.0  # node 2 logged nothing
        for last_n in (None, 0, 3, 4, 10, 11):
            start = 0 if last_n is None else max(0, 10 - last_n)
            assert probing.loss_series(0, 1, "ack", last_n).tolist() == (
                lists.loss_series((0, 1, "ack"), start, 10).tolist()
            )
            expected = lists.loss_rate((0, 1, "ack"), start, 10)
            assert probing.loss_table("ack", last_n)[0, 1] == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 90)), max_size=120),
        st.lists(st.integers(0, 40), min_size=3, max_size=3),
        st.sampled_from([None, 0, 1, 7, 40, 80, 200]),
    )
    def test_the_bitmap_reads_as_the_list_log(self, receptions, extra_sent, last_n):
        """Late, duplicated and gapped sequence numbers, on any number of
        streams, then windows reaching past the last heard probe: the
        bitmaps read as the set of heard numbers in every reader."""
        net = MeshNetwork(
            chain_topology(3, spacing_m=60.0), seed=2, propagation=no_shadowing_propagation()
        )
        probing = net.enable_probing(start=False)
        lists = paper.HeardLog()
        for sender, seq in receptions:
            receiver = (sender + 1) % 3
            probing._record(receiver, ProbePayload(sender=sender, seq=seq, kind="ack"))
            lists.record((sender, receiver, "ack"), seq)
        for sender in range(3):
            heard = [seq for s, seq in receptions if s == sender]
            probing._sent[(sender, "ack")] = max(heard, default=-1) + 1 + extra_sent[sender]
        start_of = {}
        for sender in range(3):
            total = probing.probes_sent(sender, "ack")
            start = start_of[sender] = 0 if last_n is None else max(0, total - last_n)
            for receiver in range(3):
                key = (sender, receiver, "ack")
                assert probing.loss_series(sender, receiver, "ack", last_n).tolist() == (
                    lists.loss_series(key, start, total).tolist()
                )
        sent_by = {sender: probing.probes_sent(sender, "ack") for sender in range(3)}
        assert _loss_rates(probing, "ack", last_n) == paper.loss_rates(
            lists, list(probing.nodes), "ack", sent_by, last_n
        )
        pairs = [(sender, receiver) for sender in range(3) for receiver in range(3)]
        losses, lengths = probing.loss_matrix([(s, r, "ack", None) for s, r in pairs], last_n)
        expected = stack_series(
            [
                lists.loss_series((s, r, "ack"), start_of[s], probing.probes_sent(s, "ack"))
                for s, r in pairs
            ]
        )
        assert np.array_equal(losses, expected[0]) and np.array_equal(lengths, expected[1])
        table = probing.loss_table("ack", last_n)
        assert np.isnan(np.diag(table)).all()
        for sender in range(3):
            assert np.isnan(table[sender]).all() == (probing.probes_sent(sender, "ack") == 0)


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
