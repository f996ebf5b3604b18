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
by node id), filled by :meth:`WirelessMedium._link_power` — at
construction for every pair, at a position epoch
(:meth:`WirelessMedium.update_positions`) for the pairs that moved.
Every node has one :class:`_NodeState` (listener, sensed energy, busy
flag, live-reception count) from construction, so a transmission's
begin and end each run one loop over the nodes that updates sensed
energy and notifies carrier-sense flips together.  The from-scratch
definitions of all of it are the oracle in
``tests/sim/test_medium_properties.py``.
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
    """Everything the medium tracks per node.

    ``busy`` is the carrier-sense state last reported to ``listener``;
    ``rx_live`` counts the failure-free receptions in flight at the node,
    so the rx-locked check is O(1).
    """

    listener: MacListener = field(default_factory=_SilentListener)
    sensed_mw: float = 0.0
    busy: bool = False
    rx_live: int = 0


@dataclass(slots=True)
class _Reception:
    """Tracks one intended receiver of an ongoing transmission."""

    cur_interference_mw: float = 0.0
    peak_interference_mw: float = 0.0
    failure: str | None = None


@dataclass(slots=True)
class _Transmission:
    """An ongoing transmission and the state of its intended receivers.

    ``mw_row`` is the ``mW[tx]`` row this transmission's energy was
    *added* with at begin time.  Finish subtracts through this snapshot
    rather than re-fetching the live table, so when a position epoch
    rebuilds the table mid-flight (:meth:`WirelessMedium.update_positions`
    replaces rows, never mutates them) every in-flight add/remove pair
    stays exactly balanced: sensed energy returns to precisely what the
    epoch left, with no spurious busy/idle flips.
    """

    tx_id: int
    frame: Frame
    mw_row: dict[int, float]
    receptions: dict[int, _Reception] = field(default_factory=dict)


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
        self._ongoing: dict[int, _Transmission] = {}
        self._transmitting: set[int] = set()
        self.loss_counts: Counter[str] = Counter()
        self.delivered_frames = 0
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
        # The power tables, ``dBm[tx][rx]`` and ``mW[tx][rx]``.  The
        # diagonal holds the zero-distance value of the same formula; no
        # loop reads it (a node never senses or interferes with itself).
        self._dbm: dict[int, dict[int, float]] = {a: {} for a in self.positions}
        self._mw: dict[int, dict[int, float]] = {a: {} for a in self.positions}
        for a in self.positions:
            for b in self.positions:
                self._dbm[a][b], self._mw[a][b] = self._link_power(a, b)
        self._cs_threshold_mw = dbm_to_mw(self.radio.cs_threshold_dbm)

    def _link_power(self, tx: int, rx: int) -> tuple[float, float]:
        """Received power at ``rx`` from ``tx`` as ``(dBm, mW)``.

        The only place the link budget is written.  Shadowing offsets are
        keyed per pair (not by draw order), so a recomputed entry equals
        what a fresh medium at the same positions would compute, bit for
        bit.
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
        recomputed by :meth:`_link_power`; unmoved-pair entries are
        untouched.

        Invariants this method maintains for in-flight transmissions:

        * ``mW`` rows are *replaced* with fresh objects, never mutated —
          finish subtracts through the begin-time snapshot on
          :class:`_Transmission`, so every add/remove pair stays exactly
          balanced across the epoch and no busy/idle notification fires
          at the epoch instant.
        * the one memo of the power tables, ``_resolve_cache``, is
          cleared, so the next delivery on any link resolves against
          the table as it now stands.
        * no RNG stream is touched and no event is scheduled, so a run
          with zero moves is event- and draw-identical to a static run.

        A reception that *begins* after the epoch while an old
        transmission still interferes sees the new table for the add
        and the old snapshot for the remove; the residual is clamped at
        zero and bounded by one frame airtime — deterministic, and far
        below the position-epoch timescale.
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
        for a in moved:
            for b in self.positions:
                dbm[a][b], mw[a][b] = self._link_power(a, b)
                if b not in moved:  # else (b, a) is covered by b's own row
                    dbm[b][a], mw[b][a] = self._link_power(b, a)
        self._resolve_cache.clear()

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
            reception = transmission.receptions.get(node_id)
            if reception is not None and reception.failure is None:
                reception.failure = "rx_off"
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
        """Current carrier-sensed foreign energy at ``node_id`` (mW)."""
        return self._nodes[node_id].sensed_mw

    def in_range(self, tx: int, rx: int, sensitivity_dbm: float) -> bool:
        """Whether ``rx`` can decode frames from ``tx`` absent interference."""
        return self._dbm[tx][rx] >= sensitivity_dbm

    def can_sense(self, a: int, b: int) -> bool:
        """Whether node ``a`` senses the channel busy while ``b`` transmits."""
        return self._dbm[b][a] >= self.radio.cs_threshold_dbm

    # ----------------------------------------------------------- carrier sense
    def is_busy(self, node_id: int) -> bool:
        """Local carrier-sense state of ``node_id``."""
        if node_id in self._transmitting:
            return True
        return self._nodes[node_id].sensed_mw >= self._cs_threshold_mw

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
        transmitting = self._transmitting
        if tx_id in transmitting:
            raise RuntimeError(f"node {tx_id} is already transmitting")
        duration = frame_airtime(frame.size_bytes, frame.rate)
        mw = self._mw
        row_mw = mw[tx_id]
        transmission = _Transmission(tx_id, frame, row_mw)
        ongoing = self._ongoing
        nodes = self._nodes

        # The new transmission interferes with, and may destroy, receptions
        # already in progress.
        for other in ongoing.values():
            for rx_id, reception in other.receptions.items():
                if rx_id == tx_id:
                    # Half duplex: a node cannot keep receiving once it starts
                    # transmitting.
                    if reception.failure is None:
                        reception.failure = "half_duplex"
                        nodes[rx_id].rx_live -= 1
                    continue
                cur = reception.cur_interference_mw + row_mw[rx_id]
                reception.cur_interference_mw = cur
                if cur > reception.peak_interference_mw:
                    reception.peak_interference_mw = cur

        # Build reception state for the new frame's intended receivers.
        inactive = self._inactive
        receptions = transmission.receptions
        for rx_id in self._intended_receivers(tx_id, frame):
            reception = receptions[rx_id] = _Reception()
            rx = nodes[rx_id]
            if inactive and rx_id in inactive:
                reception.failure = "rx_off"
            elif rx_id in transmitting:
                reception.failure = "half_duplex"
            elif rx.rx_live > 0:
                reception.failure = "rx_locked"
            else:
                rx.rx_live += 1
            interference = 0.0
            for other in ongoing.values():
                interference += mw[other.tx_id][rx_id]
            reception.cur_interference_mw = interference
            reception.peak_interference_mw = interference

        ongoing[tx_id] = transmission
        transmitting.add(tx_id)
        # Add this transmitter's row into every other node's sensed
        # energy and notify the nodes that flip to busy (the transmitter
        # itself included).  Starting a transmission only *raises* sensed
        # energy and only *adds* to the transmitting set, so busy can
        # only flip False -> True here.  Each node's flip depends only on
        # its own entry and listeners never read another node's
        # carrier-sense state, so updating and notifying in one pass is
        # sound.
        threshold = self._cs_threshold_mw
        for node_id, node in nodes.items():
            if node_id != tx_id:
                node.sensed_mw += row_mw[node_id]
            if not node.busy and (node_id == tx_id or node.sensed_mw >= threshold):
                node.busy = True
                node.listener.on_medium_busy()
        self.sim.schedule(duration, partial(self._finish_transmission, tx_id))
        return duration

    def _finish_transmission(self, tx_id: int) -> None:
        transmission = self._ongoing.pop(tx_id)
        transmitting = self._transmitting
        transmitting.discard(tx_id)
        nodes = self._nodes
        # The frame's still-live receptions leave the air with it: they
        # no longer lock their receivers.
        for rx_id, reception in transmission.receptions.items():
            if reception.failure is None:
                nodes[rx_id].rx_live -= 1
        # Remove this transmitter's row from every other node's sensed
        # energy (clamped at zero against float residue) and notify the
        # nodes that flip to idle.  Ending a transmission only *lowers*
        # sensed energy and only *removes* from the transmitting set, so
        # busy can only flip True -> False here.  The subtraction goes
        # through the begin-time row snapshot, so a position epoch
        # between begin and finish cannot unbalance the sensed energy.
        row_mw = transmission.mw_row
        threshold = self._cs_threshold_mw
        for node_id, node in nodes.items():
            if node_id != tx_id:
                v = node.sensed_mw - row_mw[node_id]
                node.sensed_mw = v if v > 0.0 else 0.0
            if node.busy and node.sensed_mw < threshold and node_id not in transmitting:
                node.busy = False
                node.listener.on_medium_idle()
        # Ongoing receptions no longer suffer this transmitter's
        # interference; as above, the begin-time snapshot removes exactly
        # what was added.
        for other in self._ongoing.values():
            for rx_id, reception in other.receptions.items():
                if rx_id != tx_id:
                    v = reception.cur_interference_mw - row_mw[rx_id]
                    reception.cur_interference_mw = v if v > 0.0 else 0.0

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
        for rx_id, reception in transmission.receptions.items():
            failure = reception.failure
            if failure is None:
                # The deterministic verdict and both error probabilities
                # come from the interference-signature memo; only the
                # uniform draws (in the exact order and under the exact
                # conditions of the unmemoised path) happen per frame.
                peak_mw = reception.peak_interference_mw
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
                self.delivered_frames += 1
                nodes[rx_id].listener.on_frame_received(frame, tx_id)
            else:
                self.loss_counts[failure] += 1
