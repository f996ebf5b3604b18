"""Typed run-time monitors: per-flow time series for dynamic scenarios.

Importing this package registers the built-in monitors (``pdr``,
``throughput``, ``e2e_latency``) — :mod:`repro.experiment.specs`
validates ``ExperimentSpec.monitors`` against :func:`monitor_names`, so
registration must be an import side effect of the package itself.
"""

from repro.monitors.base import FlowSeries, MonitorHost, register_monitor

# Registers the built-in monitors.
from repro.monitors import flows

__all__ = [
    "FlowSeries",
    "MonitorHost",
    "register_monitor",
]
