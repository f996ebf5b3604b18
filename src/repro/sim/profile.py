"""Callback-site profiling for the simulation core.

The event loop in :mod:`repro.engine` dispatches every piece of
simulated work through ``Event.callback``.  :class:`SimProfiler` hooks
that dispatch (see ``Simulator.profiler`` /
:func:`repro.engine.set_default_profiler`) and attributes wall clock and
event counts to each *callback site* — the function or bound method the
event invokes, e.g. ``repro.mac.medium.WirelessMedium._finish_transmission``.
Timings are inclusive: a callback's bucket includes everything it calls
synchronously (MAC notifications, deliveries, transport reactions), which
is exactly the per-subsystem attribution needed to decide where the hot
loop's time goes.

This module is the *only* simulation-layer module allowed to read a wall
clock: the invariant tests scope rule RPL104 over the sim layers and
exempt exactly this file (``tests/invariants``), so the
engine itself stays wall-clock free and a profiler can never leak
non-determinism into experiment payloads.

Usage::

    from repro.sim.profile import SimProfiler

    with SimProfiler() as prof:
        run_experiment(spec, cache=False)
    print(prof.render())

The context manager installs the profiler process-wide for its scope, so
simulators constructed *inside* the block (as ``run_experiment`` does)
are profiled too.

The performance ledger's traced run is the command-line front end:
``python3 benchmarks/ledger/run.py --workload cell_static --trace``
runs the Figure 14 cell under this profiler and records the site table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable

from repro.engine import set_default_profiler


def callback_site(callback: Callable[[], None]) -> str:
    """Stable name of the function behind an event callback.

    Unwraps ``functools.partial`` layers and bound methods so equivalent
    callbacks (e.g. every per-node ``_finish_transmission`` partial)
    aggregate into one site.
    """
    while isinstance(callback, partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None) or "<unknown>"
    qualname = getattr(func, "__qualname__", None) or repr(func)
    return f"{module}.{qualname}"


@dataclass
class SiteStats:
    """Accumulated cost of one callback site."""

    events: int = 0
    wall_s: float = 0.0


class SimProfiler:
    """Attributes event-loop wall clock and event counts per callback site.

    Duck-typed against the engine's hook: the run loop calls
    ``self.clock()`` around each callback and reports the pair via
    ``self.record(callback, elapsed_s)``.
    """

    #: The clock the engine's profiled loop uses.  Kept as a class
    #: attribute so the engine never imports ``time`` itself.
    clock = staticmethod(perf_counter)

    def __init__(self) -> None:
        self.sites: dict[str, SiteStats] = {}
        self._previous: object | None = None

    # ------------------------------------------------------------ engine hook
    def record(self, callback: Callable[[], None], elapsed_s: float) -> None:
        """Accumulate one dispatched event (called by the engine)."""
        site = callback_site(callback)
        stats = self.sites.get(site)
        if stats is None:
            stats = self.sites[site] = SiteStats()
        stats.events += 1
        stats.wall_s += elapsed_s

    # -------------------------------------------------------- context manager
    def __enter__(self) -> "SimProfiler":
        self._previous = set_default_profiler(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        set_default_profiler(self._previous)
        self._previous = None
        return False

    # --------------------------------------------------------------- queries
    @property
    def total_events(self) -> int:
        return sum(stats.events for stats in self.sites.values())

    @property
    def total_wall_s(self) -> float:
        return sum(stats.wall_s for stats in self.sites.values())

    def table(self) -> list[tuple[str, int, float]]:
        """``(site, events, wall_s)`` rows, most expensive first."""
        rows = [
            (site, stats.events, stats.wall_s) for site, stats in self.sites.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows

    def render(self, top: int | None = None) -> str:
        """Markdown table of the profile (``top`` rows, all when None)."""
        rows = self.table()
        if top is not None:
            rows = rows[:top]
        total_wall = self.total_wall_s or 1.0
        lines = [
            "| callback site | events | wall clock (s) | share |",
            "|---|---:|---:|---:|",
        ]
        for site, events, wall_s in rows:
            lines.append(
                f"| `{site}` | {events} | {wall_s:.3f} | {100.0 * wall_s / total_wall:.1f}% |"
            )
        lines.append(
            f"| **total** | {self.total_events} | {self.total_wall_s:.3f} | 100% |"
        )
        return "\n".join(lines)
