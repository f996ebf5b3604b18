"""Mesh node: queueing, forwarding and local delivery.

A :class:`MeshNode` owns one :class:`repro.mac.dcf.DcfMac` and implements
the network layer on top of it: it resolves the next hop for each packet
from its routing table, encapsulates packets into MAC frames (adding MAC
+ IP + transport header overhead), forwards transit packets, and hands
each locally addressed packet to the one endpoint attached for its flow
id here, and each received broadcast frame to the prober.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.mac.constants import (
    DEFAULT_MAC_CONFIG,
    IP_HEADER_BYTES,
    MAC_OVERHEAD_BYTES,
    MacConfig,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
)
from repro.mac.dcf import DcfMac
from repro.mac.frames import BROADCAST_ADDR, Frame, FrameKind
from repro.mac.medium import WirelessMedium
from repro.phy.radio import PhyRate, RATE_1MBPS
from repro.net.packet import Packet, PacketKind
from repro.engine import Simulator

#: Module-level aliases: a global load, not an Enum class-attribute lookup.
_BROADCAST = FrameKind.BROADCAST
_DATA = FrameKind.DATA
_TCP_DATA = PacketKind.TCP_DATA
_TCP_ACK = PacketKind.TCP_ACK


@dataclass
class NodeStats:
    """Per-node network-layer counters."""

    originated: int = 0
    forwarded: int = 0
    delivered: int = 0
    no_route_drops: int = 0
    queue_drops: int = 0
    mac_drops: int = 0


class MeshNode:
    """One mesh router.

    Args:
        node_id: identifier, must match the node's entry in the medium.
        sim: discrete-event simulator.
        medium: the shared wireless medium.
        mac_config: DCF parameters.
        data_rate: modulation for unicast DATA frames originated or
            forwarded by this node (per-node, matching the testbed where
            each link runs at a fixed 1 or 11 Mb/s rate).
        ack_rate: modulation for 802.11 ACKs and broadcast control frames.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        medium: WirelessMedium,
        mac_config: MacConfig = DEFAULT_MAC_CONFIG,
        data_rate: PhyRate | None = None,
        ack_rate: PhyRate = RATE_1MBPS,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.medium = medium
        self.data_rate = data_rate or medium.radio.data_rate
        self.ack_rate = ack_rate
        self.mac = DcfMac(
            node_id,
            sim,
            medium,
            config=mac_config,
            ack_rate=ack_rate,
            rx_callback=self._on_mac_receive,
            tx_done_callback=self._on_mac_tx_done,
            dequeue_callback=self._on_mac_dequeue,
        )
        self.routing_table: dict[int, int] = {}
        #: optional per-neighbor data rate override (supports mixed
        #: 1 / 11 Mb/s links within one node, as in the paper's testbed).
        self.link_rates: dict[int, PhyRate] = {}
        self.stats = NodeStats()
        self._owners: dict[int, Callable[[Packet], None]] = {}
        #: ``prober(receiver, payload)`` takes every broadcast frame heard here.
        self.prober: Callable[[int, object], None] | None = None
        self._dequeue_listeners: list[Callable[[], None]] = []

    # ------------------------------------------------------------ endpoints
    def attach(self, flow_id: int, owner: Callable[[Packet], None]) -> None:
        """Make ``owner(packet)`` the one receiver of the packets of flow
        ``flow_id`` addressed to this node."""
        if flow_id in self._owners:
            raise ValueError(f"flow {flow_id} already has an endpoint at node {self.node_id}")
        self._owners[flow_id] = owner

    def add_dequeue_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever the MAC dequeues a frame.

        Backlogged sources use this to keep the interface queue topped up.
        """
        self._dequeue_listeners.append(listener)

    def close(self) -> None:
        """Close the MAC and drop every endpoint and listener (each one is
        bound to a source, sink or prober that holds this node)."""
        self.mac.close()
        self._owners.clear()
        self.prober = None
        self._dequeue_listeners.clear()

    # -------------------------------------------------------------- routing
    def set_route(self, destination: int, next_hop: int) -> None:
        """Install or replace the next hop toward ``destination``."""
        self.routing_table[destination] = next_hop

    def set_link_rate(self, neighbor: int, rate: PhyRate) -> None:
        """Fix the modulation used on the link toward ``neighbor``."""
        self.link_rates[neighbor] = rate

    def next_hop(self, destination: int) -> Optional[int]:
        if destination == self.node_id:
            return self.node_id
        return self.routing_table.get(destination)

    # ------------------------------------------------------------ data path
    def frame_size_for(self, packet: Packet) -> int:
        """On-air MAC frame size for a network packet: MAC + IP + transport
        (TCP for TCP segments and ACKs, UDP for the rest) + payload."""
        kind = packet.kind
        transport = TCP_HEADER_BYTES if kind is _TCP_DATA or kind is _TCP_ACK else UDP_HEADER_BYTES
        return MAC_OVERHEAD_BYTES + IP_HEADER_BYTES + transport + packet.payload_bytes

    def send_packet(self, packet: Packet) -> bool:
        """Originate or forward ``packet`` toward its destination.

        Returns ``True`` if the packet was accepted by the MAC queue.
        """
        if packet.dst == self.node_id:
            self._deliver_local(packet)
            return True
        nhop = self.next_hop(packet.dst)
        if nhop is None:
            self.stats.no_route_drops += 1
            return False
        rate = self.link_rates.get(nhop, self.data_rate)
        frame = Frame(
            kind=_DATA,
            src=self.node_id,
            dst=nhop,
            size_bytes=self.frame_size_for(packet),
            rate=rate,
            payload=packet,
        )
        if packet.src == self.node_id and packet.hops == 0:
            self.stats.originated += 1
        accepted = self.mac.enqueue(frame)
        if not accepted:
            self.stats.queue_drops += 1
        return accepted

    def broadcast(self, payload: object, size_bytes: int, rate: PhyRate | None = None) -> bool:
        """Send a link-layer broadcast frame (used by probing and routing)."""
        frame = Frame(
            kind=_BROADCAST,
            src=self.node_id,
            dst=BROADCAST_ADDR,
            size_bytes=size_bytes,
            rate=rate or self.ack_rate,
            payload=payload,
        )
        return self.mac.enqueue(frame)

    # ------------------------------------------------------------ callbacks
    def _on_mac_receive(self, payload: object, from_id: int, frame: Frame) -> None:
        if frame.is_broadcast:
            if self.prober is not None:
                self.prober(self.node_id, payload)
            return
        packet = payload
        if not isinstance(packet, Packet):  # pragma: no cover - defensive
            return
        packet.hops += 1
        if packet.dst == self.node_id:
            self._deliver_local(packet)
        else:
            self.stats.forwarded += 1
            self.send_packet(packet)

    def _deliver_local(self, packet: Packet) -> None:
        self.stats.delivered += 1
        owner = self._owners.get(packet.flow_id)
        if owner is not None:
            owner(packet)

    def _on_mac_tx_done(self, frame: Frame, success: bool) -> None:
        if not success:
            self.stats.mac_drops += 1

    def _on_mac_dequeue(self) -> None:
        for listener in self._dequeue_listeners:
            listener()
