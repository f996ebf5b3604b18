"""Monitor protocol and the sampling host.

A *monitor* turns a dynamic run into typed per-flow time series instead
of a single end-of-run aggregate — the trajectory view the paper's
online optimizer is judged on.  The design piggybacks the profiler-hook
pattern of :mod:`repro.engine`: a :class:`MonitorHost` drives sampling
through ordinary self-rechaining events, so the simulator's dispatch
loop never tests for monitors and an experiment that configures none
pays nothing.

Monitor selection is part of :class:`repro.experiment.specs.ExperimentSpec`
(``monitors`` / ``monitor_interval_s``), *not* an environment knob: the
emitted series are serialized into the content-addressed
``ExperimentResult`` payload, so anything influencing them must be under
the spec digest for the cache and broker paths to stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.monitors.flows import MONITORS, FlowSeries

__all__ = [
    "Monitor",
    "MonitorHost",
]


class Monitor(Protocol):
    """What the host expects from a monitor of :data:`MONITORS`.

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


class MonitorHost:
    """Attaches monitors to a run and drives their sampling windows.

    The host samples every ``interval_s`` seconds of virtual time via a
    self-rechaining event (started at flow start, spanning cycle
    boundaries), then :meth:`collect` closes the final partial window —
    deterministically, since both the event times and the run end are
    pure virtual-time quantities.
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
        self.monitors: list[Monitor] = [MONITORS[name]() for name in names]
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
