"""Typed run-time monitors: per-flow time series for dynamic scenarios.

:mod:`repro.monitors.flows` holds the series and the built-in monitors
(``MONITORS``: ``pdr`` and ``throughput``), :mod:`repro.monitors.base`
the host that samples them during a run.
"""

from repro.monitors.base import MonitorHost

__all__ = ["MonitorHost"]
