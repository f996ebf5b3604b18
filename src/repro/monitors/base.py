"""Monitor protocol, registry and the sampling host.

A *monitor* turns a dynamic run into typed per-flow time series instead
of a single end-of-run aggregate — the trajectory view the paper's
online optimizer is judged on.  The design piggybacks the profiler-hook
pattern of :mod:`repro.engine`: a :class:`MonitorHost` registers itself
on ``Simulator.monitors`` and drives sampling through ordinary
self-rechaining events, so the simulator's dispatch loop never tests for
monitors and an experiment that configures none pays nothing.

Monitor selection is part of :class:`repro.experiment.specs.ExperimentSpec`
(``monitors`` / ``monitor_interval_s``), *not* an environment knob: the
emitted series are serialized into the content-addressed
``ExperimentResult`` payload, so anything influencing them must be under
the spec digest for the cache and broker paths to stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol

from repro.registry import Registry

__all__ = [
    "FlowSeries",
    "Monitor",
    "MonitorHost",
    "create_monitor",
    "monitor_names",
    "register_monitor",
]


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


class Monitor(Protocol):
    """What the host expects from a registered monitor.

    ``attach`` binds the monitor to a built network and its flow
    handles before traffic starts; ``sample`` closes one observation
    window ``[window_start, window_end)`` of virtual time; ``series``
    returns the accumulated per-flow time series (one
    :class:`FlowSeries` per flow, in flow-id order).
    """

    name: str

    def attach(self, network: Any, flows: list[Any]) -> None: ...

    def sample(self, window_start: float, window_end: float) -> None: ...

    def series(self) -> list[FlowSeries]: ...


MONITORS: Registry[Callable[[], Monitor]] = Registry("monitor")

#: ``@register_monitor(name)`` registers a zero-argument
#: monitor factory (usually a class).
register_monitor = MONITORS.register
monitor_names = MONITORS.names


def create_monitor(name: str) -> Monitor:
    """Instantiate the registered monitor ``name``."""
    return MONITORS.lookup(name)()


class MonitorHost:
    """Attaches monitors to a run and drives their sampling windows.

    The host samples every ``interval_s`` seconds of virtual time via a
    self-rechaining event (started at flow start, spanning cycle
    boundaries), then :meth:`collect` closes the final partial window —
    deterministically, since both the event times and the run end are
    pure virtual-time quantities.  It registers itself on
    ``Simulator.monitors`` as the discoverable attachment point; the run
    loop itself never reads that attribute.
    """

    def __init__(
        self,
        network: Any,
        flows: list[Any],
        names: tuple[str, ...] | list[str],
        interval_s: float = 1.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.network = network
        self.interval_s = float(interval_s)
        self.monitors: list[Monitor] = [create_monitor(name) for name in names]
        for monitor in self.monitors:
            monitor.attach(network, flows)
        self._window_start = 0.0
        self._started = False
        self._finished = False

    def start(self) -> None:
        """Open the first window and begin the sampling chain."""
        if self._started:
            raise RuntimeError("MonitorHost is already started")
        self._started = True
        sim = self.network.sim
        sim.monitors = self
        self._window_start = sim.now
        sim.schedule(self.interval_s, self._on_window)

    def _on_window(self) -> None:
        if self._finished:
            return
        now = self.network.sim.now
        for monitor in self.monitors:
            monitor.sample(self._window_start, now)
        self._window_start = now
        self.network.sim.schedule(self.interval_s, self._on_window)

    def finish(self) -> None:
        """Close the final (possibly partial) window.  Idempotent."""
        if self._finished:
            return
        self._finished = True
        now = self.network.sim.now
        if now - self._window_start > 1e-12:
            for monitor in self.monitors:
                monitor.sample(self._window_start, now)

    def collect(self) -> dict[str, list[FlowSeries]]:
        """Finish sampling and return every monitor's series by name."""
        self.finish()
        return {monitor.name: monitor.series() for monitor in self.monitors}
