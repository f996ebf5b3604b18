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
loss indicators) and the table of window loss *rates* of every ordered
pair; the controller combines the DATA loss of the forward direction with
the ACK loss of the reverse direction into the link loss rate ``p_l = 1 -
(1 - p_DATA)(1 - p_ACK)`` used by Eq. (6).  Each stream is a byte bitmap indexed by sequence number; a window is a
slice of it, and the controller's window reads every stream it needs
into one stacked loss matrix in a single pass (:meth:`ProbingSystem.loss_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from repro.core.loss_estimator import stack_loss_rows
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


#: Byte map turning a reception bitmap (1 = heard) into loss indicators.
_LOST = bytes.maketrans(b"\0\1", b"\1\0")


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
        #: ``(sender, receiver, label) -> bitmap`` (byte ``seq`` is 1 once heard),
        #: and the same bitmaps by ``(sender, label)``, receivers alongside.
        self._logs: dict[tuple[int, int, str], bytearray] = {}
        self._heard_by: dict[tuple[int, str], list[tuple[int, bytearray]]] = {}
        self._running = False
        for node in self.nodes.values():
            node.prober = self.receive

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

    def receive(self, receiver_id: int, payload: ProbePayload) -> None:
        """Log one probe reception at ``receiver_id``; a late or repeated
        probe sets its byte again."""
        rate_name = payload.rate_name
        label = f"{payload.kind}@{rate_name}" if rate_name else payload.kind
        key = (payload.sender, receiver_id, label)
        log = self._logs.get(key)
        if log is None:
            log = self._logs[key] = bytearray()
            self._heard_by.setdefault((payload.sender, label), []).append((receiver_id, log))
        seq = payload.seq
        if seq >= len(log):
            log.extend(bytes(max(seq + 1, 2 * len(log)) - len(log)))
        log[seq] = 1

    # --------------------------------------------------------------- probing
    def start(self) -> None:
        """Begin periodic probing at every node."""
        if self._running:
            return
        self._running = True
        for node_id in self.nodes:
            offset = float(self._rng.uniform(0.0, self.period_s))
            self.sim.schedule(offset, partial(self._probe_once, node_id))

    def _data_rates_of(self, node: MeshNode) -> list[PhyRate]:
        """Distinct modulations this node's DATA frames may use."""
        rates = {node.data_rate.name: node.data_rate}
        for rate in node.link_rates.values():
            rates[rate.name] = rate
        return list(rates.values())

    def _probe_once(self, node_id: int) -> None:
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
        losses, _ = self.loss_matrix([(sender, receiver, kind, rate)], last_n)
        return losses[0].astype(int)

    def loss_matrix(
        self, streams: list[tuple[int, int, str, PhyRate | None]], last_n: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(losses, lengths)``: the :meth:`loss_series` of each ``(sender,
        receiver, kind, rate)`` in ``streams`` as the rows of one loss matrix
        (:func:`repro.core.loss_estimator.stack_loss_rows`), read from the
        bitmaps: each stream's window slice, unheard to its length, mapped
        to loss indicators."""
        logs = self._logs
        rows = []
        for sender, receiver, kind, rate in streams:
            label, start, sent = self._window(sender, kind, last_n, rate)
            log = logs.get((sender, receiver, label), b"")
            rows.append(log[start:sent].ljust(sent - start, b"\0").translate(_LOST))
        return stack_loss_rows(rows)

    def loss_table(self, kind: str = "data", last_n: int | None = None) -> np.ndarray:
        """The §5.2 window loss of every ordered pair of ``nodes`` (``[i,
        j]``: the fraction of the ``last_n`` most recent probes of ``kind``
        from sender ``i`` that receiver ``j`` did not hear; DATA at the
        sender's default rate), counted, not averaged: ``lost / n`` of two
        integers is the float64 that the :meth:`loss_series` mean rounds
        to.  ``1.0`` for an empty window, NaN on the diagonal and in the
        row of a sender that sent none."""
        nodes = list(self.nodes)
        index = {node: i for i, node in enumerate(nodes)}
        lost, sizes = [], []
        for sender in nodes:
            label, start, sent = self._window(sender, kind, last_n, None)
            lost.append([sent - start] * len(nodes))
            for receiver, log in self._heard_by.get((sender, label), ()):
                lost[-1][index[receiver]] -= log.count(1, start, sent)
            sizes.append([sent - start if sent else np.nan])
        table = np.ones((len(nodes), len(nodes)))
        np.divide(lost, sizes, out=table, where=np.array(sizes) != 0)
        np.fill_diagonal(table, np.nan)
        return table
