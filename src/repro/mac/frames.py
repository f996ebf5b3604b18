"""MAC frame representation.

Frames are what travels over the simulated medium.  They carry an opaque
``payload`` (a network-layer :class:`repro.net.packet.Packet` or probe
object) plus the addressing and sizing information the MAC and PHY need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.phy.radio import PhyRate

#: Link-layer broadcast address.
BROADCAST_ADDR = -1

_frame_ids = itertools.count()


class FrameKind(Enum):
    """The three kinds of frames the DCF simulator exchanges."""

    DATA = "data"
    ACK = "ack"
    BROADCAST = "broadcast"

    # Identity hash instead of Enum's name-based Python-level __hash__:
    # members are singletons, so this is equivalent for dict keys (and
    # dict iteration order stays insertion-ordered regardless of hash),
    # but it keeps the per-delivery counter lookups out of Python code.
    __hash__ = object.__hash__


#: Module-level aliases: a global load, not an Enum class-attribute lookup.
_ACK = FrameKind.ACK
_BROADCAST = FrameKind.BROADCAST


@dataclass(slots=True)
class Frame:
    """A MAC frame in flight.

    Attributes:
        kind: DATA (unicast, acknowledged, retransmitted), ACK, or
            BROADCAST (single attempt, no acknowledgment).
        src: transmitting node id.
        dst: receiving node id, or :data:`BROADCAST_ADDR`.
        size_bytes: full frame size on the air (MAC header + payload + FCS).
        rate: modulation used for the frame body.
        payload: opaque upper-layer object delivered to the receiver.
        retries: number of retransmissions already performed.
        is_broadcast: whether ``kind`` is BROADCAST, set once at
            construction; a frame whose ``dst`` disagrees is refused.
    """

    kind: FrameKind
    src: int
    dst: int
    size_bytes: int
    rate: PhyRate
    payload: Any = None
    retries: int = 0
    frame_id: int = field(default_factory=_frame_ids.__next__)
    is_broadcast: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("frame size must be positive")
        self.is_broadcast = self.kind is _BROADCAST
        if self.is_broadcast != (self.dst == BROADCAST_ADDR):
            raise ValueError(
                f"frame kind {self.kind.name} disagrees with dst={self.dst}: BROADCAST "
                f"frames, and only they, go to BROADCAST_ADDR ({BROADCAST_ADDR})"
            )


def make_ack(data_frame: Frame, ack_bytes: int, rate: PhyRate) -> Frame:
    """Build the 802.11 ACK frame acknowledging ``data_frame``."""
    return Frame(
        kind=_ACK,
        src=data_frame.dst,
        dst=data_frame.src,
        size_bytes=ack_bytes,
        rate=rate,
        payload=data_frame.frame_id,
    )
