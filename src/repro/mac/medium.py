"""The shared wireless medium.

The medium glues the PHY to the per-node MACs: it tracks every ongoing
transmission, computes the power each node receives from each
transmitter, notifies MACs of local carrier-sense busy/idle transitions,
and decides whether each frame is successfully decoded at its intended
receiver(s) when the transmission ends.

Loss causes are recorded per frame and aggregated, because the paper's
online estimator hinges on separating *collision* losses from *channel*
losses:

``half_duplex``  the receiver was transmitting during the frame,
``rx_locked``    the receiver was already locked onto another frame,
``rx_off``       the receiver's radio was down (churn failure),
``weak``         received power below the modulation's sensitivity,
``collision``    SINR below the capture threshold (overlap loss),
``channel``      independent channel error (the residual loss process).

Each fact has one home.  Every pairwise received power lives in one
table per unit (``dBm[tx][rx]`` and ``mW[tx][rx]``, plain floats keyed
by node id), filled by :meth:`WirelessMedium._link_power`, one call
per unordered pair for both directions — at construction for every
pair, at a position epoch (:meth:`WirelessMedium.update_positions`)
for the pairs that moved.
Carrier sense and reception interference are functions of the on-air
set: each sums the begin-time ``mW`` rows of the other transmitters on
the air, in start order.  A node is busy while it transmits or while
that sum at it reaches the CS threshold; a reception's peak
interference is the largest such sum at its receiver over the on-air
sets seen during the frame, so only a begin can raise it.  A begin or
end moves the busy set with one memo lookup.  The from-scratch
definitions are the oracle in ``tests/sim/test_medium_properties.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Protocol

from repro.phy.error_models import BerPacketErrorModel, ErrorModel
from repro.phy.propagation import LogDistancePathLoss, PropagationModel, dbm_to_mw
from repro.phy.radio import RadioConfig, frame_airtime
from repro.phy.sinr import CaptureModel
from repro.mac.frames import Frame
from repro.engine import Simulator

#: A carrier-sense edge: the next busy set and the flips to call.
_Edge = tuple[int, tuple[Callable[[], None], ...]]
#: Carrier-sense memo bound: a 100-node grid finds new on-air states without end.
SENSE_MEMO_ENTRIES = 4096


class MacListener(Protocol):
    """What the medium expects from a registered MAC entity."""

    def on_medium_busy(self) -> None: ...

    def on_medium_idle(self) -> None: ...

    def on_frame_received(self, frame: Frame, from_id: int) -> None: ...

    def on_transmission_end(self, frame: Frame) -> None: ...


class _SilentListener:
    """The listener of a node whose MAC has not registered: hears nothing."""

    def on_medium_busy(self) -> None:
        pass

    def on_medium_idle(self) -> None:
        pass

    def on_frame_received(self, frame: Frame, from_id: int) -> None:
        pass

    def on_transmission_end(self, frame: Frame) -> None:
        pass


@dataclass(slots=True)
class _NodeState:
    """A node's listener and its count of failure-free receptions in
    flight (``rx_live``, so the rx-locked check is O(1))."""

    listener: MacListener = field(default_factory=_SilentListener)
    rx_live: int = 0


@dataclass(slots=True)
class _Transmission:
    """An ongoing transmission and the state of its intended receivers.

    ``mw_row`` is the ``mW[tx]`` row at begin time.  Carrier sense and
    reception interference sum these snapshots, so a frame in flight
    across a position epoch (which replaces rows, never mutates them)
    counts with the row it began with.  ``failures`` holds every
    intended receiver, ``None`` while its reception is live; ``peaks``
    holds a receiver's peak interference (mW) once a sum exceeded zero,
    so ``peaks.get(rx, 0.0)`` reads it.
    """

    tx_id: int
    frame: Frame
    mw_row: dict[int, float]
    failures: dict[int, str | None] = field(default_factory=dict)
    peaks: dict[int, float] = field(default_factory=dict)


class WirelessMedium:
    """Shared-channel model with carrier sensing, capture and channel errors.

    Args:
        sim: the discrete-event simulator driving virtual time.
        positions: node id -> (x, y) coordinates in metres.  The
            pairwise power tables are built once from them; mobility
            moves nodes through :meth:`update_positions`, which rebuilds
            only the affected rows/columns.
        radio: common radio configuration (tx power, CS threshold, gains).
        propagation: path-loss model.
        error_model: residual channel error model applied to frames that
            survive interference.
        capture: SINR capture model.
        link_error_override: optional map ``(tx, rx) -> packet error
            probability for a 1500-byte frame``; when present it replaces
            the SNR-derived error probability on that link, which lets
            experiments prescribe exact channel loss rates.
    """

    def __init__(
        self,
        sim: Simulator,
        positions: dict[int, tuple[float, float]],
        radio: RadioConfig | None = None,
        propagation: PropagationModel | None = None,
        error_model: ErrorModel | None = None,
        capture: CaptureModel | None = None,
        link_error_override: dict[tuple[int, int], float] | None = None,
    ) -> None:
        self.sim = sim
        self.positions = dict(positions)
        self.radio = radio or RadioConfig()
        self.propagation = propagation or LogDistancePathLoss()
        self.error_model = error_model or BerPacketErrorModel()
        self.capture = capture or CaptureModel()
        self.link_error_override = dict(link_error_override or {})
        # Per-node state in position order, which is the order busy/idle
        # notifications go out in.  A node is silent until its MAC
        # registers.
        self._nodes: dict[int, _NodeState] = {node: _NodeState() for node in self.positions}
        self._ongoing: dict[int, _Transmission] = {}  # in start order
        # The busy set (bit i: the i-th node in position order) and its
        # memo, (busy set, on-air tuple) -> edge: nearly every edge hits.
        self._bit = {node: 1 << i for i, node in enumerate(self.positions)}
        self._busy = 0
        self._sense_memo: dict[tuple[int, tuple[int, ...]], _Edge] = {}
        self.loss_counts: Counter[str] = Counter()
        self.frame_observers: list[Callable[[Frame, int, bool, str | None], None]] = []
        self._rng = sim.rng_stream("medium")
        # Buffered uniform draws: ``Generator.random(n)`` produces the
        # exact same stream as n scalar ``random()`` calls, so refilling
        # in blocks keeps the draw sequence bit-identical while paying
        # the numpy call overhead once per block.
        self._rand_buf: list[float] = []
        self._rand_pos = 0
        # Interference-signature memo: link powers are frozen between
        # position epochs, so the whole deterministic part of reception
        # resolution (weak / capture verdict, residual PER,
        # partial-capture PER) is a pure function of ``(tx, rx, rate,
        # length, peak interference)``.  Saturated cells repeat the same
        # few overlap patterns for the whole run, so after warm-up nearly
        # every delivery is a single dict hit that skips the
        # SINR/error-model math entirely.  It is the only memo of the
        # error model: what it misses is computed, not looked up again
        # one level down.  The random draws stay *outside* the memo —
        # the draw sequence is identical to the uncached path.
        self._resolve_cache: dict[
            tuple[int, int, float, int, float], tuple[str | None, float, float]
        ] = {}
        # Nodes whose radio is off (churn failures).  Receptions at an
        # inactive node fail with "rx_off"; the empty-set falsy check
        # keeps the static hot path to one local load and a bool test.
        self._inactive: set[int] = set()
        # The power tables, ``dBm[tx][rx]`` and ``mW[tx][rx]``, rows in
        # position order.  The diagonal holds the zero-distance value of
        # the same formula; no loop reads it (a node never senses or
        # interferes with itself).  The link budget is reciprocal, so one
        # call fills both entries of a pair.
        nodes = list(self.positions)
        self._dbm: dict[int, dict[int, float]] = {a: dict.fromkeys(nodes, 0.0) for a in nodes}
        self._mw: dict[int, dict[int, float]] = {a: dict.fromkeys(nodes, 0.0) for a in nodes}
        dbm, mw = self._dbm, self._mw
        for i, a in enumerate(nodes):
            for b in nodes[i:]:
                dbm[a][b], mw[a][b] = dbm[b][a], mw[b][a] = self._link_power(a, b)
        self._cs_threshold_mw = dbm_to_mw(self.radio.cs_threshold_dbm)

    def _link_power(self, tx: int, rx: int) -> tuple[float, float]:
        """Received power at ``rx`` from ``tx`` as ``(dBm, mW)``.

        The only place the link budget is written.  Shadowing offsets are
        keyed per pair (not by draw order), so a recomputed entry equals
        what a fresh medium at the same positions would compute, bit for
        bit; and it is reciprocal, ``_link_power(a, b) ==
        _link_power(b, a)`` bit for bit: one radio, ``|a - b| == |b -
        a|`` exactly, and a path loss that is symmetric in its link key
        (:meth:`PropagationModel.path_loss_db`).
        """
        radio = self.radio
        dbm = (
            radio.tx_power_dbm
            + 2.0 * radio.antenna_gain_dbi
            - self.propagation.path_loss_db(self.distance(tx, rx), (tx, rx))
        )
        return dbm, dbm_to_mw(dbm)

    # --------------------------------------------------------------- dynamics
    def update_positions(self, moved: dict[int, tuple[float, float]]) -> None:
        """Move nodes and recompute only the affected table entries.

        For each moved node the full row *and* column of both tables are
        recomputed by :meth:`_link_power`, one call per pair.  For
        in-flight transmissions:

        * ``mW`` rows are *replaced*, never mutated: carrier sense and
          reception interference sum the begin-time snapshots on
          :class:`_Transmission`, so no busy/idle flip fires at the
          epoch instant and a frame in flight interferes through the
          row it began with;
        * both memos of the tables, ``_resolve_cache`` and
          ``_sense_memo``, are cleared;
        * no RNG stream is touched and no event is scheduled, so a run
          with zero moves is event- and draw-identical to a static run.
        """
        if not moved:
            return
        for node_id in moved:
            if node_id not in self.positions:
                raise KeyError(f"node {node_id} has no position in the medium")
        for node_id, (x, y) in moved.items():
            self.positions[node_id] = (float(x), float(y))
        dbm = self._dbm
        mw = self._mw = {node: dict(row) for node, row in self._mw.items()}
        done: set[int] = set()  # moved nodes whose row and column are filled
        for a in moved:
            for b in self.positions:
                if b not in done:
                    dbm[a][b], mw[a][b] = dbm[b][a], mw[b][a] = self._link_power(a, b)
            done.add(a)
        self._resolve_cache.clear()
        self._sense_memo.clear()

    def set_node_active(self, node_id: int, active: bool) -> None:
        """Turn a node's radio on or off (churn join/fail).

        While off, every delivery attempt at the node fails with
        ``"rx_off"`` (counted in :attr:`loss_counts` and visible to
        frame observers, so probing estimators see the link die).  The
        node keeps its position and power-table rows; an in-progress
        transmission *from* the node runs to its scheduled end — the
        MAC-level quiesce is the caller's job (see
        :meth:`repro.sim.network.MeshNetwork.fail_node`).
        """
        if node_id not in self.positions:
            raise KeyError(f"node {node_id} has no position in the medium")
        if active:
            self._inactive.discard(node_id)
            return
        if node_id in self._inactive:
            return
        self._inactive.add(node_id)
        # Receptions already in flight at the dying node fail now.
        node = self._nodes[node_id]
        for transmission in self._ongoing.values():
            failures = transmission.failures
            if node_id in failures and failures[node_id] is None:
                failures[node_id] = "rx_off"
                node.rx_live -= 1

    # ------------------------------------------------------------ registration
    def register_mac(self, node_id: int, mac: MacListener) -> None:
        """Attach the MAC entity of ``node_id`` so it receives callbacks.

        Registering again replaces the listener; the node keeps its
        place in the notification order.
        """
        if node_id not in self.positions:
            raise KeyError(f"node {node_id} has no position in the medium")
        self._nodes[node_id].listener = mac
        self._sense_memo.clear()

    def add_frame_observer(
        self, observer: Callable[[Frame, int, bool, str | None], None]
    ) -> None:
        """Register ``observer(frame, rx_id, success, failure_reason)``.

        Observers see every delivery attempt at every intended receiver;
        the measurement/trace layer uses this to count losses per link.
        """
        self.frame_observers.append(observer)

    def close(self) -> None:
        """Drop every reference from the medium to its users: the MAC
        listeners and the frame observers."""
        self._nodes.clear()
        self._sense_memo.clear()
        self.frame_observers.clear()

    # ------------------------------------------------------------------ power
    def distance(self, a: int, b: int) -> float:
        xa, ya = self.positions[a]
        xb, yb = self.positions[b]
        return ((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5

    def rx_power_dbm(self, tx: int, rx: int) -> float:
        """Received power at ``rx`` of a transmission from ``tx``."""
        return self._dbm[tx][rx]

    def rx_power_mw(self, tx: int, rx: int) -> float:
        return self._mw[tx][rx]

    def sensed_power_mw(self, node_id: int) -> float:
        """Carrier-sensed foreign energy at ``node_id`` (mW): the sum, in
        start order, of the begin-time ``mW`` row of every other
        transmitter on the air."""
        sensed = 0.0
        for transmission in self._ongoing.values():
            if transmission.tx_id != node_id:
                sensed += transmission.mw_row[node_id]
        return sensed

    def can_sense(self, a: int, b: int) -> bool:
        """Whether node ``a`` senses the channel busy while ``b`` transmits."""
        return self._dbm[b][a] >= self.radio.cs_threshold_dbm

    # ----------------------------------------------------------- carrier sense
    def is_busy(self, node_id: int) -> bool:
        """Local carrier-sense state of ``node_id``."""
        return bool(self._busy & self._bit[node_id])

    def _sense_edge(self, key: tuple[int, tuple[int, ...]]) -> _Edge:
        """Memo miss: the busy set the on-air set defines, and the flips
        from ``key``'s busy set in position order.  Not stored while a
        frame from before a position epoch (an old row) is on the air."""
        busy = key[0]  # key[1] is the order of ``ongoing``
        ongoing, threshold, bits = self._ongoing, self._cs_threshold_mw, self._bit
        after, flips = 0, []
        for node_id, node in self._nodes.items():
            sensed = 0.0  # read only when the node is not on the air
            for transmission in ongoing.values():
                sensed += transmission.mw_row[node_id]
            bit = bits[node_id]
            if node_id in ongoing or sensed >= threshold:
                after |= bit
                if not busy & bit:
                    flips.append(node.listener.on_medium_busy)
            elif busy & bit:
                flips.append(node.listener.on_medium_idle)
        edge = (after, tuple(flips))
        for transmission in ongoing.values():
            if transmission.mw_row is not self._mw[transmission.tx_id]:
                break
        else:
            if len(self._sense_memo) >= SENSE_MEMO_ENTRIES:
                self._sense_memo.clear()
            self._sense_memo[key] = edge
        return edge

    # ------------------------------------------------------------ transmission
    def _intended_receivers(self, tx_id: int, frame: Frame) -> list[int]:
        if not frame.is_broadcast:
            return [frame.dst] if frame.dst in self.positions else []
        # A broadcast is heard wherever the link clears the rate's
        # sensitivity.
        sensitivity = frame.rate.rx_sensitivity_dbm
        row_dbm = self._dbm[tx_id]
        return [
            node for node in self.positions if node != tx_id and row_dbm[node] >= sensitivity
        ]

    def begin_transmission(self, tx_id: int, frame: Frame) -> float:
        """Start putting ``frame`` on the air from ``tx_id``.

        Returns the frame airtime; the medium schedules its own end-of-
        transmission processing and will call ``on_transmission_end`` on
        the transmitter's MAC when the frame leaves the air.
        """
        ongoing = self._ongoing
        if tx_id in ongoing:
            raise RuntimeError(f"node {tx_id} is already transmitting")
        duration = frame_airtime(frame.size_bytes, frame.rate)
        transmission = _Transmission(tx_id, frame, self._mw[tx_id])
        nodes = self._nodes

        # Half duplex: a transmitting node stops receiving.
        for other in ongoing.values():
            failures = other.failures
            if tx_id in failures and failures[tx_id] is None:
                failures[tx_id] = "half_duplex"
                nodes[tx_id].rx_live -= 1

        # Reception state for the new frame's intended receivers.
        inactive = self._inactive
        failures = transmission.failures
        for rx_id in self._intended_receivers(tx_id, frame):
            rx = nodes[rx_id]
            if inactive and rx_id in inactive:
                failures[rx_id] = "rx_off"
            elif rx_id in ongoing:
                failures[rx_id] = "half_duplex"
            elif rx.rx_live > 0:
                failures[rx_id] = "rx_locked"
            else:
                failures[rx_id] = None
                rx.rx_live += 1

        ongoing[tx_id] = transmission
        # Every live reception hears the other frames on the air, summed in
        # start order through their begin-time rows; its peak keeps the
        # largest sum.  A frame alone on the air hears nothing.
        if len(ongoing) > 1:
            for other in ongoing.values():
                peaks = other.peaks
                for rx_id, failure in other.failures.items():
                    if failure is None:
                        interference = 0.0
                        for on_air in ongoing.values():
                            if on_air is not other:
                                interference += on_air.mw_row[rx_id]
                        if interference > peaks.get(rx_id, 0.0):
                            peaks[rx_id] = interference
        # Carrier sense follows the on-air set; a flip sees the new set.
        key = (self._busy, tuple(ongoing))
        self._busy, flips = self._sense_memo.get(key) or self._sense_edge(key)
        for flip in flips:
            flip()
        self.sim.schedule(duration, partial(self._finish_transmission, tx_id))
        return duration

    def _finish_transmission(self, tx_id: int) -> None:
        ongoing = self._ongoing
        transmission = ongoing.pop(tx_id)
        nodes = self._nodes
        # The frame's still-live receptions leave the air with it: they
        # no longer lock their receivers.
        for rx_id, failure in transmission.failures.items():
            if failure is None:
                nodes[rx_id].rx_live -= 1
        key = (self._busy, tuple(ongoing))
        self._busy, flips = self._sense_memo.get(key) or self._sense_edge(key)
        for flip in flips:
            flip()
        self._deliver(transmission)
        nodes[tx_id].listener.on_transmission_end(transmission.frame)

    # -------------------------------------------------------------- reception
    def _draw_uniform(self) -> float:
        """Next value of the medium's uniform RNG stream (buffered)."""
        pos = self._rand_pos
        buf = self._rand_buf
        if pos >= len(buf):
            buf = self._rand_buf = self._rng.random(256).tolist()
            pos = 0
        self._rand_pos = pos + 1
        return buf[pos]

    def _channel_error_probability(self, tx_id: int, rx_id: int, frame: Frame) -> float:
        override = self.link_error_override.get((tx_id, rx_id))
        if override is not None:
            # The override is specified for a nominal 1500-byte frame;
            # rescale to the actual frame length assuming independent
            # bit errors so short probes lose less often than long DATA.
            reference_bits = 1500 * 8
            if override >= 1.0:
                return 1.0
            ber = 1.0 - (1.0 - override) ** (1.0 / reference_bits)
            return 1.0 - (1.0 - ber) ** (frame.size_bytes * 8)
        snr = self._dbm[tx_id][rx_id] - self.capture.noise_floor_dbm
        return self.error_model.packet_error_probability(snr, frame.rate, frame.size_bytes)

    def _resolve_reception(
        self, tx_id: int, rx_id: int, frame: Frame, peak_mw: float
    ) -> tuple[str | None, float, float]:
        """Deterministic part of reception resolution, memo-miss path.

        Returns ``(pre_failure, per, p_int)``: the draw-free verdict
        (``"weak"``/``"collision"``/None), the residual channel error
        probability, and the partial-capture error probability (0.0 when
        there was no overlap).  Everything here is a pure function of
        the key ``(tx, rx, rate, length, peak interference)`` because
        link powers only change at position epochs, which clear the
        memo.
        """
        rate = frame.rate
        signal_dbm = self._dbm[tx_id][rx_id]
        if signal_dbm < rate.rx_sensitivity_dbm:
            return ("weak", 0.0, 0.0)
        if not self.capture.decodable(signal_dbm, peak_mw, rate):
            return ("collision", 0.0, 0.0)
        per = self._channel_error_probability(tx_id, rx_id, frame)
        if peak_mw > 0.0:
            # Partial capture: the frame clears the SINR threshold but
            # overlapping interference still degrades the effective
            # SINR, producing extra bit errors.  This is what makes
            # real-world LIR values non-binary (Section 4.2 of the
            # paper).
            effective_sinr = self.capture.sinr(signal_dbm, peak_mw)
            p_int = self.error_model.packet_error_probability(
                effective_sinr, rate, frame.size_bytes
            )
        else:
            p_int = 0.0
        return (None, per, p_int)

    def _deliver(self, transmission: _Transmission) -> None:
        frame = transmission.frame
        rate_bps = frame.rate.bps
        size_bytes = frame.size_bytes
        observers = self.frame_observers
        nodes = self._nodes
        tx_id = transmission.tx_id
        cache = self._resolve_cache
        peaks = transmission.peaks
        for rx_id, failure in transmission.failures.items():
            if failure is None:
                # The deterministic verdict and both error probabilities
                # come from the interference-signature memo; only the
                # uniform draws (in the exact order and under the exact
                # conditions of the unmemoised path) happen per frame.
                peak_mw = peaks.get(rx_id, 0.0)
                key = (tx_id, rx_id, rate_bps, size_bytes, peak_mw)
                resolved = cache.get(key)
                if resolved is None:
                    resolved = cache[key] = self._resolve_reception(
                        tx_id, rx_id, frame, peak_mw
                    )
                failure, per, p_int = resolved
                if failure is None:
                    # Residual channel errors (independent of
                    # interference), then partial-capture losses.
                    if per > 0.0 and self._draw_uniform() < per:
                        failure = "channel"
                    elif p_int > 0.0 and self._draw_uniform() < p_int:
                        failure = "collision"
            success = failure is None
            for observer in observers:
                observer(frame, rx_id, success, failure)
            if success:
                nodes[rx_id].listener.on_frame_received(frame, tx_id)
            else:
                self.loss_counts[failure] += 1
