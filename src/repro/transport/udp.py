"""UDP traffic sources and sinks (iperf-like).

Two source modes cover everything the paper's experiments need:

* *backlogged* — the source keeps the MAC interface queue topped up, so
  the link transmits at its maximum UDP throughput.  This is how the
  primary extreme points (max UDP throughput of an isolated link) and the
  LIR numerator/denominator are measured.
* *constant bit rate* — the source injects packets at a configured input
  rate.  This is how input-rate vectors are applied when sampling the
  feasibility region and how the rate-control module enforces optimized
  rates.

The sink logs each arrival, so per-flow goodput can be summed over any
time window and deliveries counted for loss accounting.
"""

from __future__ import annotations

from repro.net.node import MeshNode
from repro.net.packet import Packet, PacketKind
from repro.engine import Event, Simulator

#: Module-level aliases: a global load, not an Enum class-attribute lookup.
_UDP = PacketKind.UDP


#: Default UDP payload used throughout the experiments (bytes).
DEFAULT_UDP_PAYLOAD_BYTES = 1470


class UdpSink:
    """The endpoint of one flow at its destination node.

    Logs the arrival time and payload size of every packet it receives,
    so goodput can be measured over arbitrary time windows.
    """

    def __init__(self, node: MeshNode, flow_id: int) -> None:
        self.node = node
        self.flow_id = flow_id
        self.arrivals: list[tuple[float, int]] = []
        node.attach(flow_id, self._on_delivery)

    @property
    def delivered(self) -> int:
        """Packets logged so far."""
        return len(self.arrivals)

    def _on_delivery(self, packet: Packet) -> None:
        self.arrivals.append((self.node.sim.now, packet.payload_bytes))

    def throughput_bps(self, start: float, end: float) -> float:
        """Goodput (payload bits/s) logged in the window [start, end)."""
        if end <= start:
            raise ValueError("window end must exceed start")
        total_bytes = sum(b for t, b in self.arrivals if start <= t < end)
        return total_bytes * 8 / (end - start)


class UdpSource:
    """UDP traffic generator attached to a source node.

    Args:
        sim: simulator.
        node: source node.
        destination: destination node id.
        flow_id: flow identifier (shared with the sink).
        payload_bytes: UDP payload per packet.
        rate_bps: input rate in payload bits per second; ``None`` selects
            backlogged mode.
        target_queue_depth: in backlogged mode, how many frames to keep in
            the MAC queue.
    """

    def __init__(
        self,
        sim: Simulator,
        node: MeshNode,
        destination: int,
        flow_id: int,
        payload_bytes: int = DEFAULT_UDP_PAYLOAD_BYTES,
        rate_bps: float | None = None,
        target_queue_depth: int = 5,
    ) -> None:
        self.sim = sim
        self.node = node
        self.destination = destination
        self.flow_id = flow_id
        self.payload_bytes = payload_bytes
        self.rate_bps = rate_bps
        self.target_queue_depth = target_queue_depth
        #: Packets the MAC queue accepted.
        self.sent = 0
        self._active = False
        self._seq = 0
        self._next_send_event: Event | None = None
        node.add_dequeue_listener(self._on_dequeue)

    # ------------------------------------------------------------------ control
    @property
    def backlogged(self) -> bool:
        return self.rate_bps is None

    def set_rate(self, rate_bps: float | None) -> None:
        """Drive the source as CBR at ``rate_bps`` (a decided input rate,
        §6.2); ``None`` switches to backlogged mode."""
        self.rate_bps = rate_bps
        if self._active and not self.backlogged:
            self._schedule_next_cbr(immediate=True)
        elif self._active and self.backlogged:
            self._fill_queue()

    def start(self) -> None:
        """Begin generating traffic."""
        if self._active:
            return
        self._active = True
        if self.backlogged:
            self._fill_queue()
        else:
            self._schedule_next_cbr(immediate=True)

    def stop(self) -> None:
        """Stop generating traffic (queued packets still drain)."""
        self._active = False
        if self._next_send_event is not None:
            self._next_send_event.cancel()
            self._next_send_event = None

    # ---------------------------------------------------------------- sending
    def _make_packet(self) -> Packet:
        packet = Packet(
            kind=_UDP,
            src=self.node.node_id,
            dst=self.destination,
            flow_id=self.flow_id,
            payload_bytes=self.payload_bytes,
            created_at=self.sim.now,
            seq=self._seq,
        )
        self._seq += 1
        return packet

    def _send_one(self) -> bool:
        packet = self._make_packet()
        accepted = self.node.send_packet(packet)
        if accepted:
            self.sent += 1
        return accepted

    def refresh(self) -> None:
        """Re-prime a stalled source after its node's MAC comes back up.

        A backlogged source stops offering frames the moment an enqueue
        is refused (there is no dequeue callback from a cleared queue to
        wake it), so a churn rejoin must kick it explicitly; CBR sources
        re-offer on their own self-rescheduling tick, where this is a
        harmless no-op.
        """
        if not self._active:
            return
        if self.backlogged:
            self._fill_queue()

    # --------------------------------------------------------------- backlogged
    def _fill_queue(self) -> None:
        if not self._active or not self.backlogged:
            return
        while self.node.mac.queue_length < self.target_queue_depth:
            if not self._send_one():
                break

    def _on_dequeue(self) -> None:
        if self._active and self.backlogged:
            self._fill_queue()

    # ---------------------------------------------------------------------- CBR
    def _packet_interval(self) -> float:
        assert self.rate_bps is not None
        if self.rate_bps <= 0:
            return float("inf")
        return self.payload_bytes * 8 / self.rate_bps

    def _schedule_next_cbr(self, immediate: bool = False) -> None:
        if self._next_send_event is not None:
            self._next_send_event.cancel()
            self._next_send_event = None
        if not self._active or self.backlogged:
            return
        interval = self._packet_interval()
        if interval == float("inf"):
            return
        delay = 0.0 if immediate else interval
        self._next_send_event = self.sim.schedule(delay, self._cbr_tick)

    def _cbr_tick(self) -> None:
        self._next_send_event = None
        if not self._active or self.backlogged:
            return
        self._send_one()
        interval = self._packet_interval()
        if interval != float("inf"):
            self._next_send_event = self.sim.schedule(interval, self._cbr_tick)
