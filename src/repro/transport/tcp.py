"""Simplified TCP Reno over the mesh.

The TCP dynamics the paper relies on are reproduced faithfully enough to
exercise its rate-control framework:

* slow start and congestion avoidance (AIMD on a segment-based cwnd),
* fast retransmit on three duplicate ACKs,
* retransmission timeouts with exponential backoff,
* per-segment cumulative ACKs travelling the reverse path as real
  packets, so ACKs contend with DATA frames for the channel.

That last point is what produces the classic mesh starvation of Figure 13
(Shi et al.): the 2-hop flow's ACKs collide with the 1-hop flow's data at
the gateway, forcing the 2-hop sender into repeated timeouts.  The
rate-control module tames this by capping each flow's input rate and
leaving airtime for ACKs.

Sources may be rate-limited with a token-bucket shaper, which is how the
paper's Click implementation enforces the optimized rates on TCP traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rate_control import tcp_ack_airtime_factor
from repro.net.node import MeshNode
from repro.net.packet import Packet, PacketKind
from repro.net.shaper import TokenBucketShaper
from repro.engine import Event, Simulator
from repro.transport.udp import UdpSink

#: Module-level aliases: a global load, not an Enum class-attribute lookup.
_TCP_DATA = PacketKind.TCP_DATA
_TCP_ACK = PacketKind.TCP_ACK


#: Default TCP maximum segment size (payload bytes).
DEFAULT_MSS_BYTES = 1460


@dataclass
class TcpStats:
    """Sender-side TCP counters."""

    timeouts: int = 0
    fast_retransmits: int = 0


class TcpSink(UdpSink):
    """TCP receiver: logs each data segment once (so its goodput counts
    unique segments) and acknowledges every segment cumulatively."""

    def __init__(self, node: MeshNode, flow_id: int, source: int) -> None:
        super().__init__(node, flow_id)
        self.source = source
        self.received_seqs: set[int] = set()
        self.cumulative_ack = 0

    def _on_delivery(self, packet: Packet) -> None:
        seq = packet.seq
        now = self.node.sim.now
        if seq not in self.received_seqs:
            self.received_seqs.add(seq)
            self.arrivals.append((now, packet.payload_bytes))
            while self.cumulative_ack in self.received_seqs:
                self.cumulative_ack += 1
        ack = Packet(
            kind=_TCP_ACK,
            src=self.node.node_id,
            dst=self.source,
            flow_id=self.flow_id,
            payload_bytes=0,
            created_at=now,
            seq=self.cumulative_ack,
        )
        self.node.send_packet(ack)


class TcpSource:
    """TCP Reno sender with an infinite backlog (FTP-like application).

    Args:
        sim: simulator.
        node: source node.
        destination: destination node id.
        flow_id: flow identifier shared with the sink.
        mss_bytes: segment payload size.
        initial_rto_s: initial retransmission timeout.
        min_rto_s: lower bound on the RTO.
        max_cwnd_segments: upper bound on the congestion window (receiver
            window surrogate).
    """

    def __init__(
        self,
        sim: Simulator,
        node: MeshNode,
        destination: int,
        flow_id: int,
        mss_bytes: int = DEFAULT_MSS_BYTES,
        initial_rto_s: float = 1.0,
        min_rto_s: float = 0.2,
        max_rto_s: float = 20.0,
        max_cwnd_segments: float = 64.0,
    ) -> None:
        self.sim = sim
        self.node = node
        self.destination = destination
        self.flow_id = flow_id
        self.mss_bytes = mss_bytes
        self.min_rto_s = min_rto_s
        self.max_rto_s = max_rto_s
        self.max_cwnd_segments = max_cwnd_segments
        self.stats = TcpStats()
        #: Segments handed to the node, retransmissions included.
        self.sent = 0
        self.shaper: TokenBucketShaper | None = None

        self.cwnd = 1.0
        self.ssthresh = 32.0
        self.send_base = 0
        self.next_seq = 0
        self.dup_acks = 0
        self.rto_s = initial_rto_s
        self._srtt: float | None = None
        self._rttvar = 0.0
        self._timer: Event | None = None
        self._send_pending: Event | None = None
        self._send_times: dict[int, float] = {}
        self._retransmitted: set[int] = set()
        self._active = False
        # Approximate on-air segment size, used for shaping decisions.
        self._wire_bytes = mss_bytes + 40
        node.attach(flow_id, self._on_delivery)

    # ------------------------------------------------------------------ control
    def set_rate(self, rate_bps: float | None) -> None:
        """Cap the sender's token bucket at a decided input rate, scaled
        down to leave the reverse ACKs airtime (§6.2); ``None`` removes
        the cap.  The bucket is created once and re-rated in place after."""
        if rate_bps is None:
            self.shaper = None
            return
        rate_bps *= tcp_ack_airtime_factor()
        if self.shaper is None:
            self.shaper = TokenBucketShaper(rate_bps=rate_bps)
        else:
            self.shaper.set_rate(rate_bps)

    def start(self) -> None:
        """Open the connection and start pushing data."""
        if self._active:
            return
        self._active = True
        self._try_send()

    def stop(self) -> None:
        """Stop the sender (outstanding segments are abandoned)."""
        self._active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._send_pending is not None:
            self._send_pending.cancel()
            self._send_pending = None

    # ----------------------------------------------------------------- sending
    @property
    def window_segments(self) -> int:
        return int(min(self.cwnd, self.max_cwnd_segments))

    def _try_send(self) -> None:
        if not self._active:
            return
        while self.next_seq < self.send_base + self.window_segments:
            if self.shaper is not None:
                wait = self.shaper.time_until_available(self.sim.now, self._wire_bytes)
                if wait > 0:
                    # Clamp to a minimum pacing quantum so the event loop
                    # always advances virtual time between retries.
                    self._schedule_send_retry(max(wait, 1e-4))
                    return
                self.shaper.try_consume(self.sim.now, self._wire_bytes)
            self._transmit_segment(self.next_seq)
            self.next_seq += 1

    def _schedule_send_retry(self, delay: float) -> None:
        if self._send_pending is not None:
            self._send_pending.cancel()
        self._send_pending = self.sim.schedule(delay, self._on_send_retry)

    def _on_send_retry(self) -> None:
        self._send_pending = None
        self._try_send()

    def _transmit_segment(self, seq: int, is_retransmission: bool = False) -> None:
        packet = Packet(
            kind=_TCP_DATA,
            src=self.node.node_id,
            dst=self.destination,
            flow_id=self.flow_id,
            payload_bytes=self.mss_bytes,
            created_at=self.sim.now,
            seq=seq,
        )
        self.node.send_packet(packet)
        self.sent += 1
        if is_retransmission:
            self._retransmitted.add(seq)
        else:
            self._send_times[seq] = self.sim.now
        if self._timer is None:
            self._arm_timer()

    # ------------------------------------------------------------------- timer
    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.sim.schedule(self.rto_s, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if not self._active or self.send_base >= self.next_seq:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.rto_s = min(self.rto_s * 2.0, self.max_rto_s)
        self._transmit_segment(self.send_base, is_retransmission=True)
        self._arm_timer()

    # --------------------------------------------------------------------- ACKs
    def _update_rtt(self, seq: int) -> None:
        # Karn's algorithm: ignore RTT samples of retransmitted segments.
        sent_at = self._send_times.get(seq)
        if sent_at is None or seq in self._retransmitted:
            return
        sample = self.sim.now - sent_at
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self.rto_s = min(
            self.max_rto_s, max(self.min_rto_s, self._srtt + 4.0 * self._rttvar)
        )

    def _on_delivery(self, packet: Packet) -> None:
        if not self._active:
            return
        ackno = packet.seq
        if ackno > self.send_base:
            self._update_rtt(ackno - 1)
            for seq in range(self.send_base, ackno):
                self._send_times.pop(seq, None)
                self._retransmitted.discard(seq)
            self.send_base = ackno
            self.dup_acks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / max(self.cwnd, 1.0)
            self.cwnd = min(self.cwnd, self.max_cwnd_segments)
            if self.send_base < self.next_seq:
                self._arm_timer()
            else:
                self._cancel_timer()
            self._try_send()
        else:
            self.dup_acks += 1
            if self.dup_acks == 3:
                self.stats.fast_retransmits += 1
                self.ssthresh = max(self.cwnd / 2.0, 2.0)
                self.cwnd = self.ssthresh
                self._transmit_segment(self.send_base, is_retransmission=True)
                self._arm_timer()

