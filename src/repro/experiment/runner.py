"""The Experiment runner: spec in, typed results out.

:class:`Experiment` materializes an :class:`ExperimentSpec` through
:func:`repro.experiment.registry.build_scenario` and drives the
canonical choreography every example and benchmark used to hand-roll:

1. enable broadcast probing and warm it up (skipped for noRC baselines —
   those measure raw 802.11 with no probe traffic on the air);
2. run one controller cycle (estimate capacities, optimize, program the
   shapers) and start the flows;
3. measure achieved throughput over a settle-trimmed window;
4. repeat optimize+measure for the remaining cycles.

The scenario itself is the fully declarative ``"generated"``
composition of a topology generator, a workload generator and a radio
profile (see :mod:`repro.sim.generators`) or one of its three presets;
the runner is agnostic, it drives whatever ``build_scenario`` hands
back.

The outcome is an :class:`ExperimentResult`: one :class:`CycleResult`
per cycle (keeping the full :class:`ControlDecision` when requested),
per-flow achieved throughput, realized utility, and runtime statistics.
Results serialize with ``to_dict``/``from_dict`` (decisions excluded),
which the parallel batch runner uses to return bit-identical payloads
from worker processes — and which the content-addressed
:class:`repro.experiment.cache.ResultCache` stores on disk so repeated
specs skip the simulation entirely (``Experiment(spec).run(cache=...)``).
"""

from __future__ import annotations

import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from repro.experiment.cache import ResultCache

from repro.analysis.metrics import jain_fairness_index
from repro.core.controller import ControlDecision, OnlineOptimizer
from repro.experiment.registry import BuiltScenario, build_scenario
from repro.experiment.specs import ExperimentSpec
from repro.monitors.base import MonitorHost
from repro.monitors.flows import FlowSeries


@dataclass
class CycleResult:
    """One optimization + measurement round."""

    index: int
    sim_start: float
    sim_end: float
    target_bps: dict[int, float]
    achieved_bps: dict[int, float]
    utility: float
    decision: ControlDecision | None = None

    @property
    def aggregate_bps(self) -> float:
        return float(sum(self.achieved_bps.values()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "target_bps": {str(k): v for k, v in self.target_bps.items()},
            "achieved_bps": {str(k): v for k, v in self.achieved_bps.items()},
            "utility": self.utility,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CycleResult":
        return cls(
            index=int(data["index"]),
            sim_start=float(data["sim_start"]),
            sim_end=float(data["sim_end"]),
            target_bps={int(k): float(v) for k, v in data["target_bps"].items()},
            achieved_bps={int(k): float(v) for k, v in data["achieved_bps"].items()},
            utility=float(data["utility"]),
        )


@dataclass
class ExperimentResult:
    """Everything an experiment produced.

    ``wall_time_s`` and ``events_processed`` are runtime diagnostics:
    they vary across hosts and are excluded from
    ``to_dict(include_runtime=False)``, the payload batch-determinism
    checks compare.
    """

    spec: ExperimentSpec
    flow_ids: list[int]
    flow_paths: dict[int, tuple[int, ...]]
    cycles: list[CycleResult]
    sim_time_s: float
    wall_time_s: float = 0.0
    events_processed: int = 0
    meta: dict[str, Any] = field(default_factory=dict)
    #: Per-flow time series by monitor name (``spec.monitors``); empty
    #: when the spec configured none.  Serialized in every payload, so
    #: monitor output rides the cache and broker paths byte-identically.
    monitors: dict[str, list[FlowSeries]] = field(default_factory=dict)

    # ------------------------------------------------------------- accessors
    @property
    def final_cycle(self) -> CycleResult:
        return self.cycles[-1]

    @property
    def flow_throughputs_bps(self) -> dict[int, float]:
        """Per-flow achieved throughput of the last measurement window."""
        return dict(self.final_cycle.achieved_bps)

    @property
    def aggregate_bps(self) -> float:
        return self.final_cycle.aggregate_bps

    @property
    def jain_index(self) -> float:
        return float(jain_fairness_index(list(self.flow_throughputs_bps.values())))

    @property
    def utility(self) -> float:
        """Realized utility of the last cycle's achieved rates."""
        return self.final_cycle.utility

    def feasibility_ratios(self) -> dict[int, float]:
        """Achieved over optimized rate per flow (last cycle, RC runs only)."""
        final = self.final_cycle
        return {
            flow_id: final.achieved_bps[flow_id] / max(final.target_bps.get(flow_id, 0.0), 1.0)
            for flow_id in self.flow_ids
            if flow_id in final.target_bps
        }

    # ---------------------------------------------------------- serialization
    def to_dict(self, include_runtime: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "flow_ids": list(self.flow_ids),
            "flow_paths": {str(k): list(v) for k, v in self.flow_paths.items()},
            "cycles": [cycle.to_dict() for cycle in self.cycles],
            "sim_time_s": self.sim_time_s,
            "meta": dict(self.meta),
            "monitors": {
                name: [series.to_dict() for series in series_list]
                for name, series_list in self.monitors.items()
            },
        }
        if include_runtime:
            data["runtime"] = {
                "wall_time_s": self.wall_time_s,
                "events_processed": self.events_processed,
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        runtime = data.get("runtime", {})
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            flow_ids=[int(f) for f in data["flow_ids"]],
            flow_paths={
                int(k): tuple(int(n) for n in v) for k, v in data["flow_paths"].items()
            },
            cycles=[CycleResult.from_dict(c) for c in data["cycles"]],
            sim_time_s=float(data["sim_time_s"]),
            wall_time_s=float(runtime.get("wall_time_s", 0.0)),
            events_processed=int(runtime.get("events_processed", 0)),
            meta=dict(data.get("meta", {})),
            monitors={
                str(name): [FlowSeries.from_dict(entry) for entry in series_list]
                for name, series_list in data.get("monitors", {}).items()
            },
        )


class Experiment:
    """Run one :class:`ExperimentSpec` end to end.

    Args:
        spec: the declarative experiment description.
        keep_decisions: keep the full :class:`ControlDecision` of every
            cycle on the result (set False when results must cross
            process boundaries cheaply, as the batch runner does).
    """

    def __init__(self, spec: ExperimentSpec, keep_decisions: bool = True) -> None:
        self.spec = spec
        self.keep_decisions = keep_decisions

    def build(self) -> BuiltScenario:
        """Materialize the scenario without running anything."""
        return build_scenario(self.spec.scenario)

    def run(
        self,
        scenario: BuiltScenario | None = None,
        cache: "ResultCache | None | bool" = None,
    ) -> ExperimentResult:
        """Run the experiment, optionally on a scenario built beforehand
        with :meth:`build` (e.g. to inspect routes before running).

        A scenario built here is closed here, on every way out; one the
        caller passed in stays live and is the caller's to ``close()``.

        ``cache`` is a :class:`ResultCache`, or ``None`` / ``False`` for
        none (see :func:`repro.experiment.cache.result_cache`).  The
        cache only participates when no pre-built ``scenario`` was
        handed in — a caller-provided scenario may diverge from the
        spec, which would poison a content-addressed store — and lookups
        additionally require ``keep_decisions=False``, since cached
        payloads cannot carry :class:`ControlDecision` objects.
        Completed spec-built runs are written back regardless of
        ``keep_decisions`` — but only if the digest is still absent, so
        an existing entry keeps the exact payload (runtime block
        included) its original run serialized.
        """
        from repro.experiment.cache import result_cache

        spec = self.spec
        store = result_cache(cache)
        if scenario is not None:
            store = None
        if store is not None and not self.keep_decisions:
            cached = store.get(spec)
            if cached is not None:
                return cached
        wall_start = time.perf_counter()
        # A network that ran is cyclic (see ``MeshNetwork.close``): a run
        # closes the scenario it built, or each finished run of a batch
        # would sit beside the next until the collector happened by.
        with (
            closing(self.build()) if scenario is None else nullcontext(scenario)
        ) as scenario:
            network = scenario.network
            flows = scenario.flows

            controller: OnlineOptimizer | None = None
            if spec.controller.enabled:
                network.enable_probing(
                    period_s=spec.probing.period_s,
                    data_probe_bytes=spec.probing.data_probe_bytes,
                )
                network.run(spec.probing.warmup_s)
                controller = OnlineOptimizer(
                    network,
                    flows,
                    utility=spec.controller.utility,
                    probing_window=spec.controller.probing_window,
                    interference_mode=spec.controller.interference,
                    payload_bytes=spec.controller.payload_bytes,
                    connectivity_threshold=spec.controller.connectivity_threshold,
                    min_probes_for_estimator=spec.controller.min_probes_for_estimator,
                )

            cycles: list[CycleResult] = []
            monitor_host: MonitorHost | None = None
            utility = spec.controller.utility
            for index in range(spec.cycles):
                decision = controller.run_cycle() if controller is not None else None
                if index == 0:
                    for flow in flows:
                        flow.start()
                    if spec.monitors:
                        monitor_host = MonitorHost(
                            network,
                            flows,
                            spec.monitors,
                            interval_s=spec.monitor_interval_s,
                        )
                        monitor_host.start()
                cycle_start = network.now
                network.run(spec.cycle_measure_s)
                start, end = cycle_start + spec.settle_s, network.now
                achieved = {
                    f.flow_id: float(f.throughput_bps(start, end)) for f in flows
                }
                targets = (
                    {fid: float(v) for fid, v in decision.target_outputs_bps.items()}
                    if decision is not None
                    else {}
                )
                cycles.append(
                    CycleResult(
                        index=index,
                        sim_start=start,
                        sim_end=end,
                        target_bps=targets,
                        achieved_bps=achieved,
                        utility=utility.value(list(achieved.values())),
                        decision=decision if self.keep_decisions else None,
                    )
                )

            result = ExperimentResult(
                spec=spec,
                flow_ids=[f.flow_id for f in flows],
                flow_paths={f.flow_id: tuple(f.path) for f in flows},
                cycles=cycles,
                sim_time_s=float(network.now),
                wall_time_s=time.perf_counter() - wall_start,
                events_processed=network.sim.processed_events,
                meta=dict(scenario.meta),
                monitors=monitor_host.collect() if monitor_host is not None else {},
            )
            if store is not None and spec not in store:
                store.put(result)
        return result


def run_experiment(
    spec: ExperimentSpec,
    keep_decisions: bool = True,
    cache: "ResultCache | None | bool" = None,
) -> ExperimentResult:
    """Convenience wrapper: ``Experiment(spec).run(cache=cache)``."""
    return Experiment(spec, keep_decisions=keep_decisions).run(cache=cache)
