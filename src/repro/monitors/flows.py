"""The per-flow series and the monitors that sample them: PDR and throughput.

Each monitor samples every configured flow once per window and appends
to a per-flow series, through the one flow handle every transport has:
the source's ``sent`` counter and the sink's arrival log (``delivered``
and ``throughput_bps``).  A TCP flow's "delivery" is a goodput-counted
unique segment, its ``sent`` counts retransmissions — the same
convention the end-of-run throughput uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["FlowSeries", "MONITORS", "PDRMonitor", "ThroughputMonitor"]


@dataclass(frozen=True)
class FlowSeries:
    """One flow's sampled metric: parallel time/value tuples.

    ``times`` are virtual-time window *ends*; ``values[i]`` covers the
    window ``(times[i-1], times[i]]`` (the first window starts when the
    monitors did).  Round-trips through ``to_dict``/``from_dict``, which
    is how series travel inside ``ExperimentResult`` payloads.
    """

    flow_id: int
    metric: str
    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")

    def to_dict(self) -> dict[str, Any]:
        return {
            "flow_id": self.flow_id,
            "metric": self.metric,
            "times": list(self.times),
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSeries":
        return cls(
            flow_id=int(data["flow_id"]),
            metric=str(data["metric"]),
            times=tuple(float(t) for t in data["times"]),
            values=tuple(float(v) for v in data["values"]),
        )


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
        self._flows = sorted(flows, key=lambda f: f.flow_id)
        self._last: dict[int, tuple[int, int]] = {
            f.flow_id: (f.source.sent, f.sink.delivered) for f in self._flows
        }
        self._builders = [_SeriesBuilder(f.flow_id, self.metric) for f in self._flows]

    def sample(self, window_start: float, window_end: float) -> None:
        for flow, builder in zip(self._flows, self._builders):
            sent, delivered = flow.source.sent, flow.sink.delivered
            last_sent, last_delivered = self._last[flow.flow_id]
            self._last[flow.flow_id] = (sent, delivered)
            sent_delta = sent - last_sent
            delivered_delta = delivered - last_delivered
            value = delivered_delta / sent_delta if sent_delta > 0 else 1.0
            builder.append(window_end, value)

    def series(self) -> list[FlowSeries]:
        return [builder.build() for builder in self._builders]


class ThroughputMonitor:
    """Per-window goodput through each flow handle's ``throughput_bps``
    (UDP payload goodput; TCP unique-segment goodput)."""

    name = "throughput"
    metric = "throughput_bps"

    def attach(self, network: Any, flows: list[Any]) -> None:
        self._flows = sorted(flows, key=lambda f: f.flow_id)
        self._builders = [_SeriesBuilder(f.flow_id, self.metric) for f in self._flows]

    def sample(self, window_start: float, window_end: float) -> None:
        for flow, builder in zip(self._flows, self._builders):
            builder.append(window_end, flow.throughput_bps(window_start, window_end))

    def series(self) -> list[FlowSeries]:
        return [builder.build() for builder in self._builders]


#: Every ``ExperimentSpec.monitors`` name, with the class the host makes.
MONITORS = {"pdr": PDRMonitor, "throughput": ThroughputMonitor}
