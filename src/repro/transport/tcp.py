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

from repro.net.node import MeshNode
from repro.net.packet import Packet, PacketKind
from repro.net.shaper import TokenBucketShaper
from repro.engine import Event, Simulator


#: Default TCP maximum segment size (payload bytes).
DEFAULT_MSS_BYTES = 1460


@dataclass
class TcpStats:
    """Sender-side TCP counters."""

    segments_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    acks_received: int = 0
    duplicate_acks: int = 0


class TcpSink:
    """TCP receiver: acknowledges every data segment cumulatively."""

    def __init__(self, sim: Simulator, node: MeshNode, flow_id: int, source: int) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.source = source
        self.received_seqs: set[int] = set()
        self.cumulative_ack = 0
        self.arrivals: list[tuple[float, int]] = []
        self.acks_sent = 0
        node.add_delivery_handler(self._on_delivery)

    def _on_delivery(self, packet: Packet, from_id: int) -> None:
        if packet.kind is not PacketKind.TCP_DATA or packet.flow_id != self.flow_id:
            return
        seq = packet.meta["tcp_seq"]
        if seq not in self.received_seqs:
            self.received_seqs.add(seq)
            self.arrivals.append((self.sim.now, packet.payload_bytes))
            while self.cumulative_ack in self.received_seqs:
                self.cumulative_ack += 1
        self._send_ack()

    def _send_ack(self) -> None:
        ack = Packet(
            kind=PacketKind.TCP_ACK,
            src=self.node.node_id,
            dst=self.source,
            flow_id=self.flow_id,
            payload_bytes=0,
            created_at=self.sim.now,
            meta={"tcp_ack": self.cumulative_ack},
        )
        self.acks_sent += 1
        self.node.send_packet(ack)

    def goodput_bps(self, start: float, end: float) -> float:
        """Unique payload bits per second delivered in [start, end)."""
        if end <= start:
            raise ValueError("window end must exceed start")
        total = sum(b for t, b in self.arrivals if start <= t < end)
        return total * 8 / (end - start)


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
        node.add_delivery_handler(self._on_delivery)

    # ------------------------------------------------------------------ control
    def set_shaper(self, shaper: TokenBucketShaper | None) -> None:
        """Attach (or remove) a rate-limiting token bucket."""
        self.shaper = shaper

    def set_rate_limit(self, rate_bps: float | None) -> None:
        """Convenience: install a shaper at ``rate_bps`` (None removes it)."""
        if rate_bps is None:
            self.shaper = None
        elif self.shaper is None:
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
            kind=PacketKind.TCP_DATA,
            src=self.node.node_id,
            dst=self.destination,
            flow_id=self.flow_id,
            payload_bytes=self.mss_bytes,
            created_at=self.sim.now,
            seq=seq,
            meta={"tcp_seq": seq},
        )
        self.node.send_packet(packet)
        self.stats.segments_sent += 1
        if is_retransmission:
            self.stats.retransmissions += 1
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

    def _on_delivery(self, packet: Packet, from_id: int) -> None:
        if packet.kind is not PacketKind.TCP_ACK or packet.flow_id != self.flow_id:
            return
        if not self._active:
            return
        ackno = packet.meta["tcp_ack"]
        self.stats.acks_received += 1
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
            self.stats.duplicate_acks += 1
            self.dup_acks += 1
            if self.dup_acks == 3:
                self.stats.fast_retransmits += 1
                self.ssthresh = max(self.cwnd / 2.0, 2.0)
                self.cwnd = self.ssthresh
                self._transmit_segment(self.send_base, is_retransmission=True)
                self._arm_timer()


@dataclass
class TcpFlow:
    """A routed TCP connection: source, sink and bookkeeping."""

    flow_id: int
    source: TcpSource
    sink: TcpSink

    def start(self) -> None:
        self.source.start()

    def stop(self) -> None:
        self.source.stop()

    def goodput_bps(self, start: float, end: float) -> float:
        return self.sink.goodput_bps(start, end)


def make_tcp_flow(
    sim: Simulator,
    source_node: MeshNode,
    destination_node: MeshNode,
    flow_id: int,
    mss_bytes: int = DEFAULT_MSS_BYTES,
) -> TcpFlow:
    """Wire up a :class:`TcpSource`/:class:`TcpSink` pair."""
    source = TcpSource(sim, source_node, destination_node.node_id, flow_id, mss_bytes=mss_bytes)
    sink = TcpSink(sim, destination_node, flow_id, source_node.node_id)
    return TcpFlow(flow_id=flow_id, source=source, sink=sink)
