"""Network-layer broadcast probing.

This is the measurement substrate of the paper's online capacity
estimation (Section 5.2): every node periodically broadcasts

* a DATA-emulating probe — same size and modulation as a DATA frame, and
* an ACK-emulating probe — ACK-sized, sent at the 1 Mb/s basic rate,

and every neighbour records which sequence numbers it received.  Because
broadcast frames are never retransmitted by the MAC, the resulting loss
pattern reflects the raw loss process the MAC experiences, including both
channel errors and collisions; the channel-loss estimator of Section 5.3
then separates the two.

The probing system exposes per-directed-link loss *series* (ordered 0/1
loss indicators) and loss *rates*, and combines the DATA loss of the
forward direction with the ACK loss of the reverse direction into the
link loss rate ``p_l = 1 - (1 - p_DATA)(1 - p_ACK)`` used by Eq. (6).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

import numpy as np

from repro.mac.constants import ACK_FRAME_BYTES
from repro.net.node import MeshNode
from repro.phy.radio import PhyRate, RATE_1MBPS
from repro.engine import Simulator


#: Default probing period (seconds); the paper uses 0.5 s.
DEFAULT_PROBE_PERIOD_S = 0.5
#: Default DATA probe size on the air (matches a 1500-byte UDP datagram).
DEFAULT_DATA_PROBE_BYTES = 1500


@dataclass(frozen=True)
class ProbePayload:
    """Payload carried by a broadcast probe frame."""

    sender: int
    seq: int
    kind: str  # "data" or "ack"
    rate_name: str = ""


@dataclass
class _ProbeLog:
    """Sequence numbers of one sender/kind heard at one receiver, ascending."""

    received: list[int] = field(default_factory=list)


class ProbingSystem:
    """Coordinates per-node probers and collects reception records.

    Args:
        sim: discrete-event simulator.
        nodes: the mesh nodes participating in probing.
        period_s: probing period (one DATA probe and one ACK probe per
            period per node).
        data_probe_bytes: on-air size of the DATA-emulating probe.
        jitter_fraction: uniform jitter applied to each probe interval to
            avoid phase-locking all probers (real systems desynchronise
            naturally).
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Iterable[MeshNode],
        period_s: float = DEFAULT_PROBE_PERIOD_S,
        data_probe_bytes: int = DEFAULT_DATA_PROBE_BYTES,
        ack_probe_bytes: int = ACK_FRAME_BYTES,
        ack_rate: PhyRate = RATE_1MBPS,
        jitter_fraction: float = 0.1,
    ) -> None:
        if period_s <= 0:
            raise ValueError("probing period must be positive")
        self.sim = sim
        self.nodes = {node.node_id: node for node in nodes}
        self.period_s = period_s
        self.data_probe_bytes = data_probe_bytes
        self.ack_probe_bytes = ack_probe_bytes
        self.ack_rate = ack_rate
        self.jitter_fraction = jitter_fraction
        self._rng = sim.rng_stream("probing")
        self._sent: dict[tuple[int, str], int] = {}
        self._logs: dict[tuple[int, int, str], _ProbeLog] = {}
        self._running = False
        for node in self.nodes.values():
            node.add_broadcast_handler(self._make_handler(node.node_id))

    # ---------------------------------------------------------------- wiring
    def _make_handler(self, receiver_id: int):
        def handler(payload: object, sender: int) -> None:
            if isinstance(payload, ProbePayload):
                self._record(receiver_id, payload)

        return handler

    def _label(self, sender: int, kind: str, rate: PhyRate | None) -> str:
        """Internal bookkeeping label: ACK probes share one stream, DATA
        probes are tracked per modulation (mixed 1 / 11 Mb/s meshes need
        per-rate loss estimates, since a frame that survives at 1 Mb/s may
        be undecodable at 11 Mb/s) — ``rate``, or the sender's default."""
        if kind != "data":
            return kind
        if rate is None and sender in self.nodes:
            rate = self.nodes[sender].data_rate
        return kind if rate is None else f"{kind}@{rate.name}"

    def _record(self, receiver_id: int, payload: ProbePayload) -> None:
        # One call per probe reception; the log is only allocated on
        # first sight of a (sender, receiver, label) stream.
        rate_name = payload.rate_name
        label = f"{payload.kind}@{rate_name}" if rate_name else payload.kind
        key = (payload.sender, receiver_id, label)
        log = self._logs.get(key)
        if log is None:
            log = self._logs[key] = _ProbeLog()
        # Probes leave a FIFO MAC queue and are never retransmitted, so
        # they arrive in order; a late or repeated one still counts once.
        received, seq = log.received, payload.seq
        if not received or seq > received[-1]:
            received.append(seq)
        elif seq not in received:
            insort(received, seq)

    # --------------------------------------------------------------- probing
    def start(self) -> None:
        """Begin periodic probing at every node."""
        if self._running:
            return
        self._running = True
        for node_id in self.nodes:
            offset = float(self._rng.uniform(0.0, self.period_s))
            self.sim.schedule(offset, partial(self._probe_once, node_id))

    def stop(self) -> None:
        """Stop scheduling new probes (in-flight probes still complete)."""
        self._running = False

    def _data_rates_of(self, node: MeshNode) -> list[PhyRate]:
        """Distinct modulations this node's DATA frames may use."""
        rates = {node.data_rate.name: node.data_rate}
        for rate in node.link_rates.values():
            rates[rate.name] = rate
        return list(rates.values())

    def _probe_once(self, node_id: int) -> None:
        if not self._running:
            return
        node = self.nodes[node_id]
        probes: list[tuple[str, int, PhyRate]] = [
            ("data", self.data_probe_bytes, rate) for rate in self._data_rates_of(node)
        ]
        probes.append(("ack", self.ack_probe_bytes, self.ack_rate))
        for kind, size, rate in probes:
            label = self._label(node_id, kind, rate)
            seq = self._sent.get((node_id, label), 0)
            self._sent[(node_id, label)] = seq + 1
            payload = ProbePayload(
                sender=node_id,
                seq=seq,
                kind=kind,
                rate_name=rate.name if kind == "data" else "",
            )
            node.broadcast(payload, size, rate)
        jitter = float(self._rng.uniform(-1.0, 1.0)) * self.jitter_fraction * self.period_s
        self.sim.schedule(
            max(1e-6, self.period_s + jitter), partial(self._probe_once, node_id)
        )

    # ------------------------------------------------------------- reporting
    def probes_sent(self, sender: int, kind: str = "data", rate: PhyRate | None = None) -> int:
        """Number of probes of ``kind`` (at ``rate``, for DATA) sent so far."""
        return self._sent.get((sender, self._label(sender, kind, rate)), 0)

    def _window(
        self, sender: int, kind: str, last_n: int | None, rate: PhyRate | None
    ) -> tuple[str, int, int]:
        """The probing window of one stream, ``(label, start, sent)``: the
        numbers ``[start, sent)`` of the ``last_n`` most recent probes of
        ``kind`` from ``sender`` (all when ``last_n`` is None).  A probe is
        numbered when sent, so no logged number reaches ``sent``."""
        label = self._label(sender, kind, rate)
        sent = self._sent.get((sender, label), 0)
        return label, (0 if last_n is None else max(0, sent - last_n)), sent

    def loss_series(
        self,
        sender: int,
        receiver: int,
        kind: str = "data",
        last_n: int | None = None,
        rate: PhyRate | None = None,
    ) -> np.ndarray:
        """Ordered 0/1 loss indicators (1 = lost) for probes of ``kind``.

        For DATA probes, ``rate`` selects which modulation's probe stream
        to read (defaulting to the sender's default data rate).  The
        series covers the ``last_n`` most recent probes sent by
        ``sender`` (all of them when ``last_n`` is None) — the "probing
        window" consumed by the channel-loss estimator.
        """
        label, start, sent = self._window(sender, kind, last_n, rate)
        series = np.ones(sent - start, dtype=int)
        log = self._logs.get((sender, receiver, label))
        if log is not None:
            heard = log.received[bisect_left(log.received, start) :]
            series[np.array(heard, dtype=int) - start] = 0
        return series

    def _loss_rate(self, sender: int, receiver: int, label: str, start: int, sent: int) -> float:
        """Counted, not averaged: ``lost / n`` of two integers is the
        float64 that ``loss_series(...).mean()`` rounds to."""
        if sent == start:
            return 1.0
        log = self._logs.get((sender, receiver, label))
        heard = 0 if log is None else len(log.received) - bisect_left(log.received, start)
        return (sent - start - heard) / (sent - start)

    def loss_rate(
        self,
        sender: int,
        receiver: int,
        kind: str = "data",
        last_n: int | None = None,
        rate: PhyRate | None = None,
    ) -> float:
        """Fraction of probes of ``kind`` from ``sender`` lost at
        ``receiver`` (``1.0`` when the window holds no probe at all)."""
        return self._loss_rate(sender, receiver, *self._window(sender, kind, last_n, rate))

    def loss_rates(
        self, kind: str = "data", last_n: int | None = None
    ) -> dict[tuple[int, int], float]:
        """:meth:`loss_rate` of every ordered node pair whose sender has
        sent probes of ``kind`` (DATA: at the sender's default rate)."""
        table: dict[tuple[int, int], float] = {}
        for sender in self.nodes:
            label, start, sent = self._window(sender, kind, last_n, None)
            for receiver in self.nodes if sent else ():
                if receiver != sender:
                    table[sender, receiver] = self._loss_rate(sender, receiver, label, start, sent)
        return table

    def link_loss_rate(
        self, tx: int, rx: int, last_n: int | None = None, rate: PhyRate | None = None
    ) -> float:
        """Combined DATA/ACK loss rate of the directed link ``tx -> rx``.

        DATA probes travel in the forward direction (tx to rx) at the
        link's modulation and ACK probes in the reverse direction (rx to
        tx), mirroring where real DATA and ACK frames would be lost.
        """
        p_data = self.loss_rate(tx, rx, "data", last_n, rate)
        p_ack = self.loss_rate(rx, tx, "ack", last_n)
        return 1.0 - (1.0 - p_data) * (1.0 - p_ack)
