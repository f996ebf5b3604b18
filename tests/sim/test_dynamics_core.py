"""Core dynamics invariants: incremental power-table rebuilds, memo
invalidation (held as delivery outcomes), sensed energy summed through
begin-time snapshots across position epochs, churn fail/revive semantics, and
trajectory/schedule determinism."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.mac.frames import BROADCAST_ADDR, Frame, FrameKind
from repro.mac.medium import WirelessMedium
from repro.phy.error_models import FixedPacketErrorModel
from repro.phy.radio import rate_from_mbps
from repro.sim.dynamics import (
    ChurnEvent,
    DynamicsDriver,
    apply_rate_adaptation,
    build_mobility,
    generate_churn_schedule,
    mobility_names,
)
from repro.sim.network import MeshNetwork
from repro.sim.topology import chain_topology, no_shadowing_propagation
from repro.sim.trace import EventTraceRecorder


def _net(num_nodes: int = 5, spacing_m: float = 80.0, seed: int = 11) -> MeshNetwork:
    return MeshNetwork(chain_topology(num_nodes, spacing_m=spacing_m), seed=seed)


class TestIncrementalRebuild:
    def test_matches_fresh_medium_bit_for_bit(self):
        """Moving nodes incrementally must equal a fresh build at the new
        positions for every pairwise power."""
        net = _net()
        moved = {1: (95.0, 33.0), 3: (212.0, -41.0)}
        net.update_positions(moved)

        positions = dict(net.positions)
        fresh = MeshNetwork(positions, seed=11)

        for a in positions:
            for b in positions:
                assert net.medium.rx_power_dbm(a, b) == fresh.medium.rx_power_dbm(a, b)
                assert net.medium.rx_power_mw(a, b) == fresh.medium.rx_power_mw(a, b)

    def test_network_positions_follow(self):
        net = _net()
        net.update_positions({0: (7.0, 9.0)})
        assert net.positions[0] == (7.0, 9.0)
        assert net.medium.positions[0] == (7.0, 9.0)

    def test_unknown_node_rejected(self):
        net = _net()
        with pytest.raises(KeyError):
            net.update_positions({99: (0.0, 0.0)})
        with pytest.raises(KeyError):
            net.medium.set_node_active(99, False)

    def test_in_flight_frame_stays_balanced_across_an_epoch(self):
        """A position epoch while a frame is on the air: the frame's
        energy leaves exactly as it arrived (every sensed power returns
        to 0.0) and the epoch instant itself flips no carrier-sense
        state."""
        sim = Simulator(seed=0)
        positions = dict(chain_topology(3, spacing_m=40.0))
        medium = WirelessMedium(sim, positions)
        flip_times: list[float] = []

        class FlipRecorder:
            def on_medium_busy(self) -> None:
                flip_times.append(sim.now)

            on_medium_idle = on_medium_busy

            def on_frame_received(self, frame: Frame, from_id: int) -> None:
                pass

            def on_transmission_end(self, frame: Frame) -> None:
                pass

        for node in positions:
            medium.register_mac(node, FlipRecorder())
        frame = Frame(
            kind=FrameKind.DATA, src=0, dst=1, size_bytes=1500, rate=rate_from_mbps(11)
        )
        airtime = medium.begin_transmission(0, frame)
        assert medium.sensed_power_mw(2) > 0.0
        # Node 2 moves *away* from the transmitter mid-frame: a finish
        # that subtracted the post-epoch power would leave a positive
        # residue at node 2.
        sim.schedule(airtime / 2.0, lambda: medium.update_positions({2: (400.0, 0.0)}))
        sim.run_until(2.0 * airtime)

        assert medium.rx_power_mw(0, 2) < medium.rx_power_mw(0, 1)
        assert [medium.sensed_power_mw(node) for node in positions] == [0.0, 0.0, 0.0]
        assert not any(medium.is_busy(node) for node in positions)
        assert flip_times and set(flip_times) <= {0.0, airtime}


def _attempts(sim: Simulator, medium: WirelessMedium) -> list[tuple[int, int, str | None]]:
    """One DATA frame on 0->1 and on 2->3, then one broadcast from 0 and
    from 2, each alone on the air: ``(src, rx, failure)`` of every
    delivery attempt they cause."""
    seen: list[tuple[int, int, str | None]] = []

    def observe(frame: Frame, rx_id: int, success: bool, failure: str | None) -> None:
        seen.append((frame.src, rx_id, failure))

    medium.add_frame_observer(observe)
    rate = rate_from_mbps(11)
    for kind, src, dst in (
        (FrameKind.DATA, 0, 1),
        (FrameKind.DATA, 2, 3),
        (FrameKind.BROADCAST, 0, BROADCAST_ADDR),
        (FrameKind.BROADCAST, 2, BROADCAST_ADDR),
    ):
        medium.begin_transmission(
            src, Frame(kind=kind, src=src, dst=dst, size_bytes=1500, rate=rate)
        )
        sim.run()
    medium.frame_observers.remove(observe)
    return seen


class TestEpochReachesTheNextDelivery:
    """The medium memoises, between position epochs, what its power
    tables imply per link.  Held as behaviour: whatever was memoised
    before an epoch, every delivery after it comes out as on a fresh
    medium built at the new positions (the from-scratch oracle of
    ``test_medium_properties.py``) — a moved link against its new power,
    an unmoved link as before."""

    # Two islands 1 km apart: {0, 1, 4} and {2, 3}.  Node 1 sits 60 m
    # (in range of node 0 at 11 Mb/s) or 200 m (out of range) away.
    NEAR, FAR = (60.0, 0.0), (200.0, 0.0)

    @staticmethod
    def _medium(node1: tuple[float, float]) -> tuple[Simulator, WirelessMedium]:
        sim = Simulator(seed=0)
        positions = {
            0: (0.0, 0.0), 1: node1, 2: (1000.0, 0.0), 3: (1060.0, 0.0), 4: (30.0, 40.0),
        }
        # A loss-free channel keeps every outcome draw-free, so a warmed
        # medium and a fresh one are comparable attempt for attempt.
        return sim, WirelessMedium(
            sim,
            positions,
            propagation=no_shadowing_propagation(),
            error_model=FixedPacketErrorModel(0.0),
        )

    @pytest.mark.parametrize("before, after", [(NEAR, FAR), (FAR, NEAR)])
    def test_deliveries_after_an_epoch_match_a_fresh_medium(self, before, after):
        sim, medium = self._medium(before)
        warm = _attempts(sim, medium)  # fills whatever the medium memoises
        medium.update_positions({1: after})
        moved = _attempts(sim, medium)

        assert moved == _attempts(*self._medium(after))
        assert warm == _attempts(*self._medium(before))
        near, far = (warm, moved) if before == self.NEAR else (moved, warm)
        # the moved link 0->1 follows its new power ...
        assert (0, 1, None) in near and (0, 1, "weak") in far
        # ... node 0's broadcast reaches node 1 only while in range ...
        assert [rx for src, rx, _ in near if src == 0] == [1, 1, 4]
        assert [rx for src, rx, _ in far if src == 0] == [1, 4]
        # ... and the unmoved island is untouched by the epoch.
        assert [a for a in warm if a[0] == 2] == [a for a in moved if a[0] == 2]
        assert [a for a in moved if a[0] == 2] == [(2, 3, None), (2, 3, None)]


class TestEpochTransparency:
    """Position epochs that move nothing must be invisible: same delivery
    trace, same RNG draws, no busy/idle flips — the strongest form of the
    snapshot-balance invariant, checked through the golden digest."""

    @staticmethod
    def _run(with_null_epochs: bool) -> str:
        net = MeshNetwork(chain_topology(3), seed=11)
        net.add_udp_flow([0, 1, 2]).start()
        net.add_udp_flow([2, 1], rate_bps=400_000.0).start()
        recorder = EventTraceRecorder(net.sim, net.medium)
        if with_null_epochs:
            def epoch() -> None:
                # recompute-in-place: same coordinates, full row rebuild,
                # memo invalidation and all
                net.update_positions({n: net.positions[n] for n in (0, 1)})
                net.sim.schedule(0.05, epoch)

            net.sim.schedule(0.05, epoch)
        net.run(1.0)
        return recorder.digest

    def test_null_move_epochs_leave_trace_identical(self):
        assert self._run(False) == self._run(True)


class TestChurn:
    def test_fail_stops_delivery_revive_restores_it(self):
        net = MeshNetwork(chain_topology(2), seed=3)
        handle = net.add_udp_flow([0, 1])
        handle.start()
        net.run(0.5)
        delivered_before = handle.sink.received_packets
        assert delivered_before > 0

        net.fail_node(1)
        net.run(0.5)
        assert handle.sink.received_packets == delivered_before
        assert net.medium.loss_counts["rx_off"] > 0

        net.revive_node(1)
        net.run(0.5)
        assert handle.sink.received_packets > delivered_before

    def test_failed_source_quiesces_and_revives(self):
        net = MeshNetwork(chain_topology(2), seed=3)
        handle = net.add_udp_flow([0, 1])
        handle.start()
        net.run(0.5)
        delivered_before = handle.sink.received_packets

        net.fail_node(0)
        assert net.nodes[0].mac.down
        assert net.nodes[0].mac.queue_length == 0
        net.run(0.5)
        assert handle.sink.received_packets == delivered_before

        # revive re-primes the backlogged source (the refresh kick)
        net.revive_node(0)
        net.run(0.5)
        assert handle.sink.received_packets > delivered_before

    def test_fail_is_idempotent(self):
        net = MeshNetwork(chain_topology(2), seed=3)
        net.fail_node(1)
        net.fail_node(1)
        net.revive_node(1)
        assert not net.medium._inactive


class TestTrajectories:
    def test_registered_models(self):
        assert "waypoint" in mobility_names()
        assert "drift" in mobility_names()

    @pytest.mark.parametrize("model,params", [
        ("waypoint", {"epoch_s": 1.0, "speed_mps": 2.0, "pause_s": 0.5}),
        ("drift", {"drift_sigma_m": 3.0}),
    ])
    def test_same_seed_same_path(self, model, params):
        positions = dict(chain_topology(4, spacing_m=70.0))
        a = build_mobility(model, positions, params, seed=9)
        b = build_mobility(model, positions, params, seed=9)
        for _ in range(5):
            assert a.step() == b.step()

    def test_different_seed_diverges(self):
        positions = dict(chain_topology(4, spacing_m=70.0))
        a = build_mobility("drift", positions, {"drift_sigma_m": 3.0}, seed=9)
        b = build_mobility("drift", positions, {"drift_sigma_m": 3.0}, seed=10)
        assert a.step() != b.step()

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            build_mobility("teleport", {0: (0.0, 0.0)}, {}, seed=0)


class TestChurnSchedule:
    def test_deterministic_and_sorted(self):
        ids = list(range(6))
        kwargs = dict(num_events=3, start_s=5.0, end_s=20.0, down_s=4.0, seed=2)
        a = generate_churn_schedule(ids, **kwargs)
        b = generate_churn_schedule(ids, **kwargs)
        assert a == b
        assert list(a) == sorted(a, key=lambda e: (e.time_s, e.node_id, e.action))

    def test_protected_nodes_never_fail(self):
        ids = list(range(6))
        schedule = generate_churn_schedule(
            ids, protected=frozenset({0, 5}), num_events=4, seed=2
        )
        assert all(event.node_id not in {0, 5} for event in schedule)

    def test_join_follows_fail_by_down_s(self):
        schedule = generate_churn_schedule(
            list(range(4)), num_events=2, start_s=1.0, end_s=9.0, down_s=3.0, seed=7
        )
        fails = {e.node_id: e.time_s for e in schedule if e.action == "fail"}
        joins = {e.node_id: e.time_s for e in schedule if e.action == "join"}
        assert set(joins) == set(fails)
        for node, t in fails.items():
            assert joins[node] == pytest.approx(t + 3.0)

    def test_permanent_failure_has_no_join(self):
        schedule = generate_churn_schedule(list(range(4)), num_events=2, down_s=0.0, seed=7)
        assert all(event.action == "fail" for event in schedule)


class TestDynamicsDriver:
    def test_counters_accumulate(self):
        net = MeshNetwork(chain_topology(3, spacing_m=70.0), seed=4)
        net.add_udp_flow([0, 1, 2]).start()
        trajectory = build_mobility(
            "drift", net.positions, {"drift_sigma_m": 2.0}, seed=4
        )
        schedule = (
            ChurnEvent(time_s=0.3, node_id=1, action="fail"),
            ChurnEvent(time_s=0.6, node_id=1, action="join"),
        )
        driver = DynamicsDriver(net, trajectory=trajectory, epoch_s=0.1, churn=schedule)
        driver.install()
        net.run(1.0)
        assert driver.meta["epochs_applied"] >= 9
        assert driver.meta["nodes_moved"] > 0
        assert driver.meta["fails_applied"] == 1
        assert driver.meta["joins_applied"] == 1

    def test_install_is_once_only(self):
        net = MeshNetwork(chain_topology(2), seed=0)
        driver = DynamicsDriver(net)
        driver.install()
        with pytest.raises(RuntimeError):
            driver.install()


class TestRateAdaptation:
    def test_threshold_assignment(self):
        # 60 m spacing: adjacent links comfortably above 24 dB SNR at
        # 0 dB shadowing; the 2-hop pair far below it.
        from repro.sim.topology import no_shadowing_propagation

        net = MeshNetwork(
            chain_topology(3, spacing_m=60.0),
            seed=0,
            propagation=no_shadowing_propagation(),
        )
        apply_rate_adaptation(net)
        assert net.link_rate((0, 1)).bps == 11e6
        assert net.link_rate((0, 2)).bps == 1e6
