"""Ad Hoc Probe baseline (Chen et al., WICON 2005).

Ad Hoc Probe estimates path capacity by sending back-to-back packet
pairs and taking the *minimum* observed dispersion (inter-arrival gap)
between the two packets of a pair; capacity is the packet size divided by
that minimum dispersion.

The paper uses it as the baseline for Figure 11 and shows that it
consistently over-estimates the max UDP throughput of a link: the minimum
dispersion reflects the nominal per-packet service time of the MAC and
filters out both congestion *and* the link's inherent channel losses, so
lossy links look far better than they are.  We reproduce the tool so the
benchmark can regenerate that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.node import MeshNode
from repro.net.packet import Packet, PacketKind
from repro.engine import Simulator


@dataclass
class PacketPairSample:
    """Arrival record of one packet pair at the receiver."""

    pair_id: int
    first_arrival: float | None = None
    second_arrival: float | None = None

    @property
    def dispersion(self) -> float | None:
        if self.first_arrival is None or self.second_arrival is None:
            return None
        gap = self.second_arrival - self.first_arrival
        return gap if gap > 0 else None


class AdHocProbe:
    """Packet-pair capacity estimator between two mesh nodes.

    Args:
        sim: simulator.
        source: probing node.
        destination: measured node (must be reachable via routing).
        packet_bytes: UDP payload of each probe packet.
        pair_interval_s: spacing between successive packet pairs.
        flow_id: flow identifier used for the probe packets; each probe
            into one destination node needs its own.
    """

    def __init__(
        self,
        sim: Simulator,
        source: MeshNode,
        destination: MeshNode,
        packet_bytes: int = 1472,
        pair_interval_s: float = 0.5,
        flow_id: int = -2,
    ) -> None:
        self.sim = sim
        self.source = source
        self.destination = destination
        self.packet_bytes = packet_bytes
        self.pair_interval_s = pair_interval_s
        self.flow_id = flow_id
        self.pairs_sent = 0
        self.samples: dict[int, PacketPairSample] = {}
        self._remaining = 0
        destination.attach(flow_id, self._on_delivery)

    # ----------------------------------------------------------------- probing
    def start(self, num_pairs: int) -> None:
        """Send ``num_pairs`` packet pairs, one every ``pair_interval_s``."""
        if num_pairs <= 0:
            raise ValueError("num_pairs must be positive")
        self._remaining = num_pairs
        self.sim.schedule(0.0, self._send_pair)

    def _send_pair(self) -> None:
        if self._remaining <= 0:
            return
        self._remaining -= 1
        pair_id = self.pairs_sent
        self.pairs_sent += 1
        for index in (0, 1):
            packet = Packet(
                kind=PacketKind.UDP,
                src=self.source.node_id,
                dst=self.destination.node_id,
                flow_id=self.flow_id,
                payload_bytes=self.packet_bytes,
                created_at=self.sim.now,
                seq=2 * pair_id + index,
            )
            self.source.send_packet(packet)
        if self._remaining > 0:
            self.sim.schedule(self.pair_interval_s, self._send_pair)

    # ---------------------------------------------------------------- receiving
    def _on_delivery(self, packet: Packet) -> None:
        pair_id, index = divmod(packet.seq, 2)
        sample = self.samples.setdefault(pair_id, PacketPairSample(pair_id=pair_id))
        if index == 0:
            sample.first_arrival = self.sim.now
        else:
            sample.second_arrival = self.sim.now

    # ----------------------------------------------------------------- results
    def dispersions(self) -> list[float]:
        """All valid pair dispersions observed so far."""
        return [s.dispersion for s in self.samples.values() if s.dispersion is not None]

    def capacity_estimate_bps(self) -> float | None:
        """Ad Hoc Probe's capacity estimate: packet size over min dispersion.

        Returns ``None`` when no complete pair has been received.
        """
        gaps = self.dispersions()
        if not gaps:
            return None
        return self.packet_bytes * 8 / min(gaps)
