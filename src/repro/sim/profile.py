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
clock: the determinism linter scopes rule RPL104 over the sim layers and
carves out exactly this file (see ``repro/lint/config.py``), so the
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

Command line: ``python -m repro.sim.profile <scenario>`` runs one cold
cell of a named scenario under the profiler and prints the top-N
inclusive-time table — this is how the profile published in
``docs/architecture.md`` is regenerated::

    python -m repro.sim.profile fig14-cell --top 15
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


# --------------------------------------------------------------------- CLI
def _profile_specs():
    """Named single-cell experiment specs the CLI can profile.

    Built lazily so importing this module never pulls in the experiment
    stack (the engine hook must stay import-light).
    """
    from repro.experiment import (
        ChurnSpec,
        ControllerSpec,
        ExperimentSpec,
        MobilitySpec,
        ProbingSpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    return {
        # One Figure 14 grid cell (random_multiflow / tcp / Prop
        # variant) — the repeated unit whose cost dominates the figure
        # sweeps; the ledger's ``cell_static`` workload times it.
        "fig14-cell": ExperimentSpec(
            scenario=ScenarioSpec(
                scenario="random_multiflow",
                transport="tcp",
                run_seed=1000,
                seed=7,
                num_flows=3,
                rate_mode="11",
            ),
            probing=ProbingSpec(warmup_s=45.0),
            controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
            cycles=1,
            cycle_measure_s=12.0,
            settle_s=2.0,
            label="profile-fig14-cell",
        ),
        # A dynamic variant of the Figure 14 cell: a connected 3x3 grid
        # under waypoint mobility with one mid-run churn cycle, so the
        # position-epoch rebuild and memo-invalidation paths show up in
        # the site table next to the static MAC/PHY costs.
        "fig14-cell-mobile": ExperimentSpec(
            scenario=ScenarioSpec(
                scenario="generated",
                seed=7,
                run_seed=1000,
                rate_mode="11",
                topology=TopologySpec(kind="grid", rows=3, cols=3, spacing_m=60.0),
                workload=WorkloadSpec(
                    generator="saturated_udp", num_flows=3, max_hops=3
                ),
                mobility=MobilitySpec(
                    model="waypoint", epoch_s=1.0, speed_mps=2.0
                ),
                churn=ChurnSpec(
                    num_events=1, start_s=50.0, end_s=55.0, down_s=5.0
                ),
            ),
            probing=ProbingSpec(warmup_s=45.0),
            controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
            cycles=1,
            cycle_measure_s=12.0,
            settle_s=2.0,
            label="profile-fig14-cell-mobile",
        ),
        # One Figure 13 starvation cell (TCP-Prop variant).
        "fig13-cell": ExperimentSpec(
            scenario=ScenarioSpec(scenario="starvation", seed=0, data_rate_mbps=1),
            probing=ProbingSpec(warmup_s=50.0),
            controller=ControllerSpec(alpha=1.0, probing_window=90),
            cycles=1,
            cycle_measure_s=20.0,
            settle_s=5.0,
            label="profile-fig13-cell",
        ),
    }


def main(argv: list[str] | None = None) -> int:
    """Run one cold cell under the profiler and print the site table."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.profile",
        description="Profile one cold simulation cell per callback site.",
    )
    parser.add_argument(
        "scenario",
        choices=sorted(_profile_specs()),
        help="which single-cell scenario to run",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="rows to print (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    from repro.experiment import run_experiment

    spec = _profile_specs()[args.scenario]
    start = perf_counter()
    with SimProfiler() as prof:
        # cache=False keeps the run cold: the point is the wall clock.
        run_experiment(spec, cache=False)
    wall_s = perf_counter() - start
    print(f"# {args.scenario}: cold wall {wall_s:.3f} s, {prof.total_events} events")
    print(prof.render(top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI test
    raise SystemExit(main())
