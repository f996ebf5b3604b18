"""Integration tests for the DCF MAC and the wireless medium.

These use tiny simulations (a second or less of virtual time) so the full
suite stays fast while still exercising carrier sensing, ACKs,
retransmissions, broadcast, capture and channel errors end to end.
"""

import ast
import inspect

import numpy as np
import pytest

import repro.mac.dcf
from repro.engine import Simulator, named_rng
from repro.mac.constants import DEFAULT_MAC_CONFIG
from repro.mac.dcf import DcfMac
from repro.mac.frames import BROADCAST_ADDR, Frame, FrameKind
from repro.mac.medium import WirelessMedium
from repro.mac.nominal import nominal_throughput_bps
from repro.phy.error_models import FixedPacketErrorModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RATE_11MBPS, RadioConfig
from repro.sim.network import MeshNetwork
from repro.sim.topology import carrier_sense_pair, no_shadowing_propagation
from repro.sim.measurement import measure_flows, measure_isolated


def _make_pair(error_per: float = 0.0, distance: float = 40.0, seed: int = 1):
    """Two nodes within range; returns (sim, medium, mac0, mac1, received)."""
    sim = Simulator(seed=seed)
    medium = WirelessMedium(
        sim,
        {0: (0.0, 0.0), 1: (distance, 0.0)},
        radio=RadioConfig(data_rate=RATE_11MBPS),
        propagation=LogDistancePathLoss(shadowing_sigma_db=0.0),
        error_model=FixedPacketErrorModel(per=error_per),
    )
    received = []
    mac0 = DcfMac(0, sim, medium)
    mac1 = DcfMac(
        1, sim, medium, rx_callback=lambda payload, src, frame: received.append(payload)
    )
    return sim, medium, mac0, mac1, received


def _data_frame(src: int, dst: int, payload="x", size=1500) -> Frame:
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size_bytes=size, rate=RATE_11MBPS, payload=payload)


class TestUnicastDelivery:
    def test_single_frame_delivered_and_acked(self):
        sim, medium, mac0, mac1, received = _make_pair()
        mac0.enqueue(_data_frame(0, 1, payload="hello"))
        sim.run_until(0.1)
        assert received == ["hello"]
        assert mac0.stats.successes == 1
        assert mac1.stats.acks_sent == 1

    def test_frames_delivered_in_order(self):
        sim, medium, mac0, mac1, received = _make_pair()
        for i in range(5):
            mac0.enqueue(_data_frame(0, 1, payload=i))
        sim.run_until(0.2)
        assert received == [0, 1, 2, 3, 4]

    def test_queue_limit_drops_excess(self):
        sim, medium, mac0, mac1, received = _make_pair()
        for i in range(DEFAULT_MAC_CONFIG.queue_limit + 20):
            mac0.enqueue(_data_frame(0, 1, payload=i))
        assert mac0.stats.queue_drops > 0

    def test_lossy_link_triggers_retransmissions(self):
        sim, medium, mac0, mac1, received = _make_pair(error_per=0.4, seed=3)
        for i in range(20):
            mac0.enqueue(_data_frame(0, 1, payload=i))
        sim.run_until(1.0)
        assert mac0.stats.retransmissions > 0
        assert len(received) > 0

    def test_totally_broken_link_drops_after_retry_limit(self):
        sim, medium, mac0, mac1, received = _make_pair(error_per=1.0)
        mac0.enqueue(_data_frame(0, 1))
        sim.run_until(2.0)
        assert received == []
        assert mac0.stats.retry_drops == 1
        # retry_limit + 1 attempts in total.
        assert mac0.stats.attempts == DEFAULT_MAC_CONFIG.retry_limit + 1

    def test_out_of_range_destination_never_delivers(self):
        sim, medium, mac0, mac1, received = _make_pair(distance=5000.0)
        mac0.enqueue(_data_frame(0, 1))
        sim.run_until(2.0)
        assert received == []
        assert mac0.stats.retry_drops == 1


class TestBroadcast:
    def test_broadcast_delivered_without_ack(self):
        sim, medium, mac0, mac1, received = _make_pair()
        frame = Frame(
            kind=FrameKind.BROADCAST,
            src=0,
            dst=BROADCAST_ADDR,
            size_bytes=1500,
            rate=RATE_11MBPS,
            payload="probe",
        )
        mac0.enqueue(frame)
        sim.run_until(0.1)
        assert received == ["probe"]
        assert mac1.stats.acks_sent == 0
        assert mac0.stats.broadcasts_sent == 1

    def test_broadcast_never_retransmitted(self):
        sim, medium, mac0, mac1, received = _make_pair(error_per=1.0)
        frame = Frame(
            kind=FrameKind.BROADCAST,
            src=0,
            dst=BROADCAST_ADDR,
            size_bytes=1500,
            rate=RATE_11MBPS,
            payload="probe",
        )
        mac0.enqueue(frame)
        sim.run_until(0.5)
        assert received == []
        assert mac0.stats.attempts == 1


class TestMediumBehaviour:
    def test_carrier_sense_relation(self):
        sim, medium, mac0, mac1, _ = _make_pair(distance=40.0)
        assert medium.can_sense(0, 1)
        far = WirelessMedium(
            Simulator(),
            {0: (0.0, 0.0), 1: (5000.0, 0.0)},
            propagation=LogDistancePathLoss(shadowing_sigma_db=0.0),
        )
        assert not far.can_sense(0, 1)

    def test_rx_power_symmetric_and_cached(self):
        sim, medium, mac0, mac1, _ = _make_pair()
        assert medium.rx_power_dbm(0, 1) == pytest.approx(medium.rx_power_dbm(1, 0))
        assert medium.rx_power_dbm(0, 1) is not None

    def test_cannot_transmit_twice_simultaneously(self):
        sim, medium, mac0, mac1, _ = _make_pair()
        medium.begin_transmission(0, _data_frame(0, 1))
        with pytest.raises(RuntimeError):
            medium.begin_transmission(0, _data_frame(0, 1))

    def test_loss_reasons_are_recorded(self):
        sim, medium, mac0, mac1, received = _make_pair(error_per=1.0)
        mac0.enqueue(_data_frame(0, 1))
        sim.run_until(1.0)
        assert medium.loss_counts["channel"] > 0


class TestSaturationThroughput:
    def test_isolated_link_matches_nominal(self, cs_pair_network):
        """A backlogged clean link achieves the Jun et al. nominal throughput."""
        flow = cs_pair_network.add_udp_flow([0, 1], payload_bytes=1470)
        measurement = measure_isolated(cs_pair_network, flow, duration_s=2.0)
        nominal = nominal_throughput_bps(1470, RATE_11MBPS)
        assert measurement.throughput_bps == pytest.approx(nominal, rel=0.05)

    def test_carrier_sense_pair_time_shares(self, cs_pair_network):
        """Two CS links together each get roughly half their isolated rate."""
        f1 = cs_pair_network.add_udp_flow([0, 1], payload_bytes=1470)
        f2 = cs_pair_network.add_udp_flow([2, 3], payload_bytes=1470)
        alone = measure_isolated(cs_pair_network, f1, duration_s=1.5)
        together = measure_flows(cs_pair_network, [f1, f2], duration_s=1.5)
        total_together = sum(m.throughput_bps for m in together)
        assert total_together < 1.35 * alone.throughput_bps
        # Neither link starves under mutual carrier sensing.
        assert min(m.throughput_bps for m in together) > 0.2 * alone.throughput_bps

    def test_determinism_across_identical_runs(self):
        def run_once():
            topo = carrier_sense_pair()
            net = MeshNetwork(
                topo.positions, seed=42, propagation=no_shadowing_propagation(), data_rate_mbps=11
            )
            flow = net.add_udp_flow([0, 1])
            return measure_isolated(net, flow, duration_s=1.0).throughput_bps

        assert run_once() == pytest.approx(run_once(), rel=1e-12)


class TestBackoffDraw:
    """``DcfMac._draw_backoff`` replays ``Generator.integers(0, cw + 1)``
    from buffered raw PCG64 output; every backoff of every golden rests
    on the two agreeing draw for draw."""

    #: Contention windows the MAC uses, the degenerate 0, and the edges
    #: of the 32-bit path (rejection is likeliest just above 2**31).
    WINDOWS = [0, 1, 2, 6, 31, 63, 127, 255, 511, 1023, 2**31, 2**31 + 1, 2**32 - 2]

    def test_draws_equal_numpy_integers_over_interleaved_windows(self):
        _sim, _medium, mac, _mac1, _received = _make_pair(seed=11)
        reference = named_rng(11, "mac-0")
        picks = np.random.default_rng(3).integers(0, len(self.WINDOWS), 100_000)
        mismatches = [
            (i, cw)
            for i, cw in enumerate(self.WINDOWS[k] for k in picks.tolist())
            if mac._draw_backoff(cw) != int(reference.integers(0, cw + 1))
        ]
        assert mismatches == []

    def test_the_mac_stream_is_read_only_through_the_buffered_draw(self):
        """A second reader would take words the buffer already holds (or
        skip the ones it buffered), moving every later backoff."""
        tree = ast.parse(inspect.getsource(repro.mac.dcf))
        readers = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and node.attr == "_rng"
            and isinstance(node.ctx, ast.Load)
        }
        assert readers == {"_draw_backoff"}
