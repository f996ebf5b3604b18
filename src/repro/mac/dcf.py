"""Per-station 802.11 DCF (Distributed Coordination Function) entity.

Implements the CSMA/CA access procedure used by every node of the mesh:

* physical carrier sensing (via :class:`repro.mac.medium.WirelessMedium`
  busy/idle notifications),
* DIFS deferral followed by a uniform backoff drawn from the current
  contention window, frozen while the medium is busy,
* unicast DATA frames acknowledged after SIFS, retransmitted with binary
  exponential backoff up to a retry limit,
* broadcast frames transmitted once with the initial contention window
  and never acknowledged (this is what makes network-layer broadcast
  probes reflect the raw loss rate seen by the MAC, as exploited by the
  paper's online estimator).

The MAC owns a bounded interface queue; upper layers push frames with
:meth:`DcfMac.enqueue` and get completion / drop / dequeue callbacks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.mac.constants import ACK_FRAME_BYTES, DEFAULT_MAC_CONFIG, MacConfig
from repro.mac.frames import Frame, FrameKind, make_ack
from repro.mac.medium import WirelessMedium
from repro.phy.radio import PhyRate, RATE_1MBPS, frame_airtime
from repro.engine import Event, Simulator

#: Module-level aliases: a global load, not an Enum class-attribute lookup.
_ACK = FrameKind.ACK
_DATA = FrameKind.DATA


@dataclass
class MacStats:
    """Counters exposed by each DCF entity for diagnostics and tests."""

    enqueued: int = 0
    queue_drops: int = 0
    attempts: int = 0
    successes: int = 0
    retry_drops: int = 0
    broadcasts_sent: int = 0
    acks_sent: int = 0
    data_received: int = 0
    broadcast_received: int = 0
    retransmissions: int = 0


class DcfMac:
    """One station's DCF state machine.

    Args:
        node_id: identifier of this station in the medium.
        sim: discrete-event simulator.
        medium: the shared wireless medium.
        config: MAC timing/backoff parameters.
        ack_rate: modulation used for 802.11 ACK frames (basic rate).
        rx_callback: ``f(payload, src_id, frame)`` invoked on every
            successfully received DATA or broadcast frame addressed to
            (or overheard by, for broadcast) this station.
        tx_done_callback: ``f(frame, success)`` invoked when a queued
            frame leaves the MAC, either successfully or after exhausting
            its retries.
        dequeue_callback: ``f()`` invoked whenever a frame is taken from
            the interface queue; backlogged sources use it to top the
            queue back up.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        medium: WirelessMedium,
        config: MacConfig = DEFAULT_MAC_CONFIG,
        ack_rate: PhyRate = RATE_1MBPS,
        rx_callback: Optional[Callable[[object, int, Frame], None]] = None,
        tx_done_callback: Optional[Callable[[Frame, bool], None]] = None,
        dequeue_callback: Optional[Callable[[], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.medium = medium
        self.config = config
        self.ack_rate = ack_rate
        self.rx_callback = rx_callback
        self.tx_done_callback = tx_done_callback
        self.dequeue_callback = dequeue_callback
        self._rng = sim.rng_stream(f"mac-{node_id}")
        # 32-bit words of ``_rng`` not yet used by ``_draw_backoff``.
        self._words: list[int] = []
        self._word_pos = 0
        self.queue: deque[Frame] = deque()
        self.current: Frame | None = None
        self.stats = MacStats()
        self._cw = config.cw_min
        self._backoff_slots = 0
        self._access_event: Event | None = None
        self._access_idle_start = 0.0
        self._waiting_ack = False
        self._ack_timeout_event: Event | None = None
        self._transmitting = False
        self._down = False
        self._pending_control: deque[Frame] = deque()
        # ``config`` and ``ack_rate`` are fixed for the MAC's lifetime,
        # so the ACK timeout, which costs an airtime computation, is
        # derived once.
        self._ack_timeout_s = (
            config.sifs_s
            + frame_airtime(ACK_FRAME_BYTES, ack_rate)
            + config.ack_timeout_slack_s
        )
        self._medium_is_busy = medium.is_busy
        # DATA receptions enqueue the ACK here and schedule
        # ``_send_next_control_frame`` SIFS later.  The outbox is FIFO
        # and SIFS is a constant, so scheduling order equals send order.
        self._ack_outbox: deque[Frame] = deque()
        medium.register_mac(node_id, self)

    # ------------------------------------------------------------- queueing
    @property
    def queue_length(self) -> int:
        """Frames waiting in the interface queue (excludes the one in service)."""
        return len(self.queue)

    @property
    def busy(self) -> bool:
        """Whether the MAC currently has a frame in service."""
        return self.current is not None

    @property
    def down(self) -> bool:
        """Whether the station is quiesced by a churn failure."""
        return self._down

    def quiesce(self) -> None:
        """Deterministically shut the station down (churn failure).

        Cancels the pending access and ACK-timeout events, drops every
        queued/in-service frame and pending control frame, and resets
        the contention window — the state a power-cycled interface comes
        back with.  No RNG is drawn and no event is scheduled, so a
        quiesce perturbs nothing beyond the frames it discards.  A
        transmission already on the air runs to its scheduled end
        (:meth:`on_transmission_end` is a guarded no-op while down).
        """
        self._down = True
        if self._access_event is not None:
            self._access_event.cancel()
            self._access_event = None
        if self._ack_timeout_event is not None:
            self._ack_timeout_event.cancel()
            self._ack_timeout_event = None
        self._waiting_ack = False
        self.queue.clear()
        self.current = None
        self._pending_control.clear()
        self._ack_outbox.clear()
        self._cw = self.config.cw_min
        self._backoff_slots = 0

    def revive(self) -> None:
        """Bring a quiesced station back up (churn rejoin).

        State was already reset by :meth:`quiesce`; traffic resumes when
        an upper layer next enqueues (CBR ticks and TCP retransmit
        timers re-offer on their own; backlogged UDP sources need a
        :meth:`repro.transport.udp.UdpSource.refresh` kick, which
        :meth:`repro.sim.network.MeshNetwork.revive_node` performs).
        """
        self._down = False

    def close(self) -> None:
        """Quiesce for good, and drop the callbacks into the node that
        owns the station."""
        self.quiesce()
        self.rx_callback = self.tx_done_callback = self.dequeue_callback = None

    def enqueue(self, frame: Frame) -> bool:
        """Push a frame into the interface queue.

        Returns ``False`` (and counts a queue drop) when the queue is
        full; the frame is discarded in that case, mirroring a drop-tail
        interface queue.  A station that is down (churn failure) refuses
        every frame without counting it.
        """
        if self._down:
            return False
        self.stats.enqueued += 1
        if len(self.queue) >= self.config.queue_limit:
            self.stats.queue_drops += 1
            return False
        self.queue.append(frame)
        if self.current is None:
            self._next_frame()
        return True

    def _next_frame(self) -> None:
        if self.current is not None or not self.queue:
            return
        self.current = self.queue.popleft()
        if self.dequeue_callback is not None:
            self.dequeue_callback()
        self._cw = self.config.cw_min
        self._backoff_slots = self._draw_backoff(self._cw)
        self._try_access()

    def _draw_backoff(self, cw: int) -> int:
        """A uniform backoff in ``[0, cw]``, the value
        ``int(self._rng.integers(0, cw + 1))`` would return (``cw < 2**32``).

        That numpy call applies Lemire's multiply-and-reject
        (``buffered_bounded_lemire_uint32``) to 32-bit words, which
        PCG64 serves as the low then the high half of each 64-bit
        output.  Replaying both over buffered ``random_raw`` blocks
        yields the same draws without a numpy call per backoff, and
        depends only on PCG64's raw stream, which numpy keeps stable,
        not on how ``Generator.integers`` samples.  The stream is read
        nowhere else, so no draw is skipped or reordered.
        """
        if not cw:
            return 0
        bound = cw + 1
        while True:
            pos = self._word_pos
            words = self._words
            if pos == len(words):
                raw = self._rng.bit_generator.random_raw(128)
                words = self._words = raw.astype("<u8", copy=False).view("<u4").tolist()
                pos = 0
            self._word_pos = pos + 1
            product = words[pos] * bound
            low = product & 0xFFFFFFFF
            # numpy tests ``low < bound`` before it computes the
            # rejection threshold, which is always below ``bound``.
            if low >= bound or low >= (0xFFFFFFFF - cw) % bound:
                return product >> 32

    # ------------------------------------------------------------ DCF access
    def _try_access(self) -> None:
        if (
            self.current is None
            or self._access_event is not None
            or self._transmitting
            or self._waiting_ack
        ):
            return
        if self._medium_is_busy(self.node_id):
            return
        self._access_idle_start = self.sim.now
        delay = self.config.difs_s + self._backoff_slots * self.config.slot_s
        self._access_event = self.sim.schedule(delay, self._transmit_current)

    def on_medium_busy(self) -> None:
        """Carrier sense went busy: freeze the backoff countdown."""
        event = self._access_event
        if event is None:
            return
        elapsed = self.sim.now - self._access_idle_start - self.config.difs_s
        if elapsed > 0:
            consumed = int(elapsed / self.config.slot_s)
            self._backoff_slots = max(0, self._backoff_slots - consumed)
        event.cancel()
        self._access_event = None

    #: Carrier sense went idle: resume (or start) channel access.
    on_medium_idle = _try_access

    def _transmit_current(self) -> None:
        self._access_event = None
        frame = self.current
        if frame is None:  # pragma: no cover - defensive
            return
        self._backoff_slots = 0
        self._transmitting = True
        self.stats.attempts += 1
        if frame.retries > 0:
            self.stats.retransmissions += 1
        self.medium.begin_transmission(self.node_id, frame)

    # -------------------------------------------------------- medium callbacks
    def on_transmission_end(self, frame: Frame) -> None:
        """Our own frame just left the air."""
        self._transmitting = False
        if self._down:
            # The station was quiesced while this frame was on the air:
            # its completion is moot and must not restart channel access.
            return
        if frame.kind is _ACK:
            self._flush_control()
            self._try_access()
            return
        if frame.is_broadcast:
            self.stats.broadcasts_sent += 1
            self._complete_current(success=True)
            return
        # Unicast DATA: wait for the ACK.
        self._waiting_ack = True
        self._ack_timeout_event = self.sim.schedule(self._ack_timeout_s, self._on_ack_timeout)

    def on_frame_received(self, frame: Frame, from_id: int) -> None:
        """The medium successfully delivered a frame to this station."""
        if frame.kind is _ACK:
            if (
                self._waiting_ack
                and self.current is not None
                and frame.dst == self.node_id
                and frame.payload == self.current.frame_id
            ):
                if self._ack_timeout_event is not None:
                    self._ack_timeout_event.cancel()
                    self._ack_timeout_event = None
                self._waiting_ack = False
                self._complete_current(success=True)
            return
        if frame.kind is _DATA and frame.dst == self.node_id:
            self.stats.data_received += 1
            self._ack_outbox.append(make_ack(frame, ACK_FRAME_BYTES, self.ack_rate))
            self.sim.schedule(self.config.sifs_s, self._send_next_control_frame)
            if self.rx_callback is not None:
                self.rx_callback(frame.payload, from_id, frame)
            return
        if frame.is_broadcast:
            self.stats.broadcast_received += 1
            if self.rx_callback is not None:
                self.rx_callback(frame.payload, from_id, frame)

    # ------------------------------------------------------------- ACK logic
    def _send_next_control_frame(self) -> None:
        if self._down or not self._ack_outbox:
            # A SIFS-scheduled send can outlive a quiesce (the event has
            # no handle to cancel); the cleared outbox makes it a no-op.
            return
        self._send_control(self._ack_outbox.popleft())

    def _send_control(self, ack: Frame) -> None:
        if self._transmitting:
            # Half duplex: we are mid-transmission; queue the ACK and send
            # it as soon as our own frame ends.  (Rare, but dropping it
            # silently would inflate retransmissions artificially.)
            self._pending_control.append(ack)
            return
        # Sending a control frame interrupts our own backoff countdown.
        self.on_medium_busy()
        self._transmitting = True
        self.stats.acks_sent += 1
        self.medium.begin_transmission(self.node_id, ack)

    def _flush_control(self) -> None:
        if self._pending_control and not self._transmitting:
            ack = self._pending_control.popleft()
            self._transmitting = True
            self.stats.acks_sent += 1
            self.medium.begin_transmission(self.node_id, ack)

    def _on_ack_timeout(self) -> None:
        self._ack_timeout_event = None
        self._waiting_ack = False
        frame = self.current
        if frame is None:  # pragma: no cover - defensive
            return
        frame.retries += 1
        if frame.retries > self.config.retry_limit:
            self.stats.retry_drops += 1
            self._complete_current(success=False)
            return
        self._cw = min(2 * (self._cw + 1) - 1, self.config.cw_max)
        self._backoff_slots = self._draw_backoff(self._cw)
        self._try_access()

    def _complete_current(self, success: bool) -> None:
        frame = self.current
        self.current = None
        self._cw = self.config.cw_min
        if success:
            self.stats.successes += 1
        if frame is not None and self.tx_done_callback is not None:
            self.tx_done_callback(frame, success)
        self._flush_control()
        self._next_frame()
