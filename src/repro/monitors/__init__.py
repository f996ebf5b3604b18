"""Typed run-time monitors: per-flow time series for dynamic scenarios.

Importing this package registers the built-in monitors (``pdr``,
``throughput``, ``e2e_latency``) — :mod:`repro.experiment.specs`
validates ``ExperimentSpec.monitors`` against :func:`monitor_names`, so
registration must be an import side effect of the package itself.
"""

from repro.monitors.base import (
    FlowSeries,
    Monitor,
    MonitorHost,
    create_monitor,
    monitor_names,
    register_monitor,
)
from repro.monitors.flows import E2ELatencyMonitor, PDRMonitor, ThroughputMonitor

__all__ = [
    "E2ELatencyMonitor",
    "FlowSeries",
    "Monitor",
    "MonitorHost",
    "PDRMonitor",
    "ThroughputMonitor",
    "create_monitor",
    "monitor_names",
    "register_monitor",
]
