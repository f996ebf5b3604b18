"""Network-layer packet representation.

A :class:`Packet` is what flows and probes hand to a mesh node for
delivery; nodes wrap packets into MAC frames hop by hop.  Packets keep
their end-to-end addressing (network source/destination), the flow id
that names their one receiving endpoint at the destination, and a
sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PacketKind(Enum):
    """Traffic classes carried over the mesh."""

    UDP = "udp"
    TCP_DATA = "tcp_data"
    TCP_ACK = "tcp_ack"


@dataclass(slots=True)
class Packet:
    """An end-to-end network-layer packet.

    Attributes:
        kind: traffic class.
        src: originating node id.
        dst: final destination node id.
        flow_id: identifier of the flow the packet belongs to.
        payload_bytes: transport payload size; headers are added per hop
            by the node when building MAC frames.
        created_at: virtual time at which the packet entered the network.
        seq: per-flow sequence number (a TCP ACK carries its cumulative
            acknowledgment number here).
        hops: number of MAC hops traversed so far.
    """

    kind: PacketKind
    src: int
    dst: int
    flow_id: int
    payload_bytes: int
    created_at: float
    seq: int = 0
    hops: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
