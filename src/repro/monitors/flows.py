"""The built-in per-flow monitors: PDR, throughput, end-to-end latency.

Each monitor samples every configured flow once per window and appends
to a per-flow series, regardless of transport: UDP flows are observed
through :class:`~repro.transport.udp.UdpSource`/``UdpSink`` counters,
TCP flows through :class:`~repro.transport.tcp.TcpStats` and the sink's
unique-segment arrival log (so TCP "delivery" means goodput-counted
segments, with retransmissions counted on the send side — the same
convention the end-of-run ``goodput_bps`` uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.packet import Packet, PacketKind
from repro.monitors.base import FlowSeries, register_monitor

__all__ = ["E2ELatencyMonitor", "PDRMonitor", "ThroughputMonitor"]


@dataclass
class _FlowView:
    """Transport-agnostic read access to one flow's counters."""

    handle: Any
    sent: Callable[[], int]
    delivered: Callable[[], int]

    @property
    def flow_id(self) -> int:
        return self.handle.flow_id


def _flow_views(flows: list[Any]) -> list[_FlowView]:
    """Wrap UDP and TCP flow handles behind one counter interface."""
    views: list[_FlowView] = []
    for handle in flows:
        if hasattr(handle, "source"):  # UdpFlowHandle
            views.append(
                _FlowView(
                    handle=handle,
                    sent=lambda h=handle: h.source.stats.packets_sent,
                    delivered=lambda h=handle: h.sink.received_packets,
                )
            )
        else:  # TcpFlowHandle
            views.append(
                _FlowView(
                    handle=handle,
                    sent=lambda h=handle: h.flow.source.stats.segments_sent,
                    delivered=lambda h=handle: len(h.flow.sink.arrivals),
                )
            )
    views.sort(key=lambda view: view.flow_id)
    return views


@dataclass
class _SeriesBuilder:
    """Mutable accumulator for one flow's (time, value) samples."""

    flow_id: int
    metric: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time_s: float, value: float) -> None:
        self.times.append(float(time_s))
        self.values.append(float(value))

    def build(self) -> FlowSeries:
        return FlowSeries(
            flow_id=self.flow_id,
            metric=self.metric,
            times=tuple(self.times),
            values=tuple(self.values),
        )


@register_monitor("pdr")
class PDRMonitor:
    """Packet delivery ratio per window: delivered delta / sent delta.

    A window in which the source offered nothing reports 1.0 (vacuous
    delivery — nothing was lost), which keeps the series well-defined
    across idle windows instead of injecting NaNs into payloads.  A
    window's ratio can exceed 1.0 when a prior window's queue backlog
    drains into it (e.g. the first window after a churn rejoin); the
    series is deliberately left un-clamped so those catch-up bursts stay
    visible.
    """

    name = "pdr"
    metric = "pdr"

    def attach(self, network: Any, flows: list[Any]) -> None:
        self._views = _flow_views(flows)
        self._last: dict[int, tuple[int, int]] = {
            view.flow_id: (view.sent(), view.delivered()) for view in self._views
        }
        self._builders = [
            _SeriesBuilder(view.flow_id, self.metric) for view in self._views
        ]

    def sample(self, window_start: float, window_end: float) -> None:
        for view, builder in zip(self._views, self._builders):
            sent, delivered = view.sent(), view.delivered()
            last_sent, last_delivered = self._last[view.flow_id]
            self._last[view.flow_id] = (sent, delivered)
            sent_delta = sent - last_sent
            delivered_delta = delivered - last_delivered
            value = delivered_delta / sent_delta if sent_delta > 0 else 1.0
            builder.append(window_end, value)

    def series(self) -> list[FlowSeries]:
        return [builder.build() for builder in self._builders]


@register_monitor("throughput")
class ThroughputMonitor:
    """Per-window goodput through each flow handle's ``throughput_bps``
    (UDP payload goodput; TCP unique-segment goodput)."""

    name = "throughput"
    metric = "throughput_bps"

    def attach(self, network: Any, flows: list[Any]) -> None:
        self._views = _flow_views(flows)
        self._builders = [
            _SeriesBuilder(view.flow_id, self.metric) for view in self._views
        ]

    def sample(self, window_start: float, window_end: float) -> None:
        for view, builder in zip(self._views, self._builders):
            builder.append(
                window_end, view.handle.throughput_bps(window_start, window_end)
            )

    def series(self) -> list[FlowSeries]:
        return [builder.build() for builder in self._builders]


@register_monitor("e2e_latency")
class E2ELatencyMonitor:
    """Mean end-to-end delay (``now - packet.created_at``) of the data
    packets delivered to each flow's destination during the window.

    Observes deliveries directly via the destination node's delivery
    handlers (the same hook the transport sinks use), so retransmitted
    TCP segments that arrive as duplicates are included — this is a MAC
    and queueing delay measure, not a goodput one.  A window with no
    deliveries reports 0.0.
    """

    name = "e2e_latency"
    metric = "e2e_latency_s"

    _DATA_KINDS = (PacketKind.UDP, PacketKind.TCP_DATA)

    def attach(self, network: Any, flows: list[Any]) -> None:
        views = _flow_views(flows)
        self._builders = [_SeriesBuilder(view.flow_id, self.metric) for view in views]
        # sum of delays and delivery count accumulated in the open window
        self._accum: dict[int, tuple[float, int]] = {
            view.flow_id: (0.0, 0) for view in views
        }
        self._order = [view.flow_id for view in views]
        for view in views:
            destination = network.nodes[view.handle.path[-1]]
            destination.add_delivery_handler(
                self._make_handler(view.flow_id, destination)
            )

    def _make_handler(self, flow_id: int, node: Any) -> Callable[[Packet, int], None]:
        def on_delivery(packet: Packet, from_id: int) -> None:
            if packet.kind not in self._DATA_KINDS or packet.flow_id != flow_id:
                return
            total, count = self._accum[flow_id]
            self._accum[flow_id] = (
                total + (node.sim.now - packet.created_at),
                count + 1,
            )

        return on_delivery

    def sample(self, window_start: float, window_end: float) -> None:
        for flow_id, builder in zip(self._order, self._builders):
            total, count = self._accum[flow_id]
            self._accum[flow_id] = (0.0, 0)
            builder.append(window_end, total / count if count else 0.0)

    def series(self) -> list[FlowSeries]:
        return [builder.build() for builder in self._builders]
