"""Traced replays of the program's choreography, from public calls only.

``Experiment.run`` and ``BatchRunner.run`` are single calls from outside,
so a span *inside* them needs either an edit to the program (a later
change) or a replay.  These functions replay the two choreographies step
by step with the same public functions, recording a span around each
layer boundary.  A replay is only evidence if it is the same program:
every caller compares the replay's payload digest with the real call's
and fails the run when they differ.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.core.controller import ControlDecision, OnlineOptimizer
from repro.core.extreme_points import FeasibilityRegion
from repro.core.optimizer import RateOptimizer
from repro.experiment import (
    ExecutionBackend,
    ExperimentResult,
    ExperimentSpec,
    ResultCache,
    SweepPlanner,
    build_scenario,
)
from repro.experiment.runner import CycleResult
from repro.monitors import MonitorHost
from repro.net.routing import FlowRoute, build_routing_matrix

from ledger_tracing import mean_ms, median, sites_by_layer


def run_sim(network: Any, duration_s: float, tracer: Any, tid: str) -> None:
    with tracer.span("engine.run", tid):
        network.run(duration_s)


def make_controller(network: Any, flows: list, spec: ExperimentSpec) -> OnlineOptimizer:
    """The controller ``Experiment.run`` builds for ``spec``."""
    c = spec.controller
    return OnlineOptimizer(
        network,
        flows,
        utility=c.utility,
        probing_window=c.probing_window,
        interference_mode=c.interference,
        payload_bytes=c.payload_bytes,
        connectivity_threshold=c.connectivity_threshold,
        min_probes_for_estimator=c.min_probes_for_estimator,
    )


def probing_warmup(network: Any, spec: ExperimentSpec, tracer: Any, tid: str) -> None:
    with tracer.span("net.probing_warmup", tid):
        network.enable_probing(
            period_s=spec.probing.period_s,
            data_probe_bytes=spec.probing.data_probe_bytes,
        )
        run_sim(network, spec.probing.warmup_s, tracer, tid)


def traced_cycle(controller: OnlineOptimizer, tracer: Any, tid: str) -> ControlDecision:
    """``OnlineOptimizer.run_cycle`` with a span per stage.

    ``optimize()`` computes the estimates and the conflict graph itself
    when they are not passed in; passing them is the documented
    equivalent and yields the same decision.
    """
    with tracer.span("core.estimate_links", tid):
        estimates = controller.estimate_links()
    with tracer.span("core.conflict_graph", tid):
        graph = controller.build_conflict_graph()
    with tracer.span("core.optimize", tid):
        decision = controller.optimize(estimates, graph)
    with tracer.span("core.apply", tid):
        controller.apply(decision)
    return decision


def split_optimize(controller: OnlineOptimizer, decision: ControlDecision) -> dict[str, float]:
    """Time the two public halves of ``optimize()`` on a decision's own
    inputs, and count what they produced."""
    capacities = {link: est.capacity_bps for link, est in decision.link_estimates.items()}
    start = perf_counter()
    region = FeasibilityRegion.from_capacities_and_conflicts(
        capacities, decision.conflict_graph
    )
    region_s = perf_counter() - start
    routes = [
        FlowRoute(flow_id=f.flow_id, source=f.path[0], destination=f.path[-1], path=list(f.path))
        for f in controller.flows
    ]
    routing = build_routing_matrix(routes, links=region.links)
    start = perf_counter()
    result = RateOptimizer(region, routing, controller.utility).solve()
    solve_s = perf_counter() - start
    return {
        "core.region_ms": 1e3 * region_s,
        "core.solve_ms": 1e3 * solve_s,
        "core.links": float(len(controller.links)),
        "core.independent_sets": float(len(decision.conflict_graph.independent_sets())),
        "core.extreme_points": float(region.num_extreme_points),
        "core.solver_failures": 0.0 if result.success else 1.0,
    }


def replay_cell(spec: ExperimentSpec, tracer: Any, tid: str) -> tuple[ExperimentResult, Any]:
    """``Experiment(spec, keep_decisions=False).run(cache=False)``, traced.

    Returns the result and the live controller (``None`` when the spec
    has none) so callers can probe the final cycle's inputs.
    """
    wall_start = perf_counter()
    with tracer.span("cell", tid):
        # The runner pauses the cyclic GC for the simulation and sweeps
        # once on exit; the replay does exactly the same.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            with tracer.span("sim.build_scenario", tid):
                scenario = build_scenario(spec.scenario)
            network, flows = scenario.network, scenario.flows
            controller = None
            if spec.controller.enabled:
                probing_warmup(network, spec, tracer, tid)
                controller = make_controller(network, flows, spec)
            cycles: list[CycleResult] = []
            host: MonitorHost | None = None
            utility = spec.controller.utility
            for index in range(spec.cycles):
                decision = (
                    traced_cycle(controller, tracer, tid) if controller is not None else None
                )
                if index == 0:
                    for flow in flows:
                        flow.start()
                    if spec.monitors:
                        host = MonitorHost(
                            network, flows, spec.monitors, interval_s=spec.monitor_interval_s
                        )
                        host.start()
                cycle_start = network.now
                with tracer.span("sim.measure", tid):
                    run_sim(network, spec.cycle_measure_s, tracer, tid)
                start, end = cycle_start + spec.settle_s, network.now
                achieved = {f.flow_id: float(f.throughput_bps(start, end)) for f in flows}
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
                    )
                )
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()
        wall_s = perf_counter() - wall_start
        monitors = {}
        if host is not None:
            with tracer.span("monitors.collect", tid):
                monitors = host.collect()
        result = ExperimentResult(
            spec=spec,
            flow_ids=[f.flow_id for f in flows],
            flow_paths={f.flow_id: tuple(f.path) for f in flows},
            cycles=cycles,
            sim_time_s=float(network.now),
            wall_time_s=wall_s,
            events_processed=network.sim.processed_events,
            meta=dict(scenario.meta),
            monitors=monitors,
        )
    return result, controller


# --------------------------------------------------------------- the sweep
class ReplayBackend(ExecutionBackend):
    """``SerialBackend`` whose cells are traced replays."""

    name = "replay"

    def __init__(self, tracer: Any, tid: str) -> None:
        self.tracer = tracer
        self.tid = tid

    def run(self, payloads: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        results = []
        for index, payload in enumerate(payloads):
            spec = ExperimentSpec.from_dict(payload)
            result, _ = replay_cell(spec, self.tracer, f"{self.tid}/{index}")
            with self.tracer.span("experiment.serialize", self.tid):
                results.append(result.to_dict())
        return results


class TracedCache(ResultCache):
    """A ``ResultCache`` that records a span per public get/put."""

    def __init__(self, cache_dir: Any, tracer: Any, tid: str) -> None:
        super().__init__(cache_dir)
        self._tracer = tracer
        self._tid = tid

    def get_payload(self, spec, digest=None):
        with self._tracer.span("experiment.cache_get", self._tid):
            return super().get_payload(spec, digest=digest)

    def put_payload(self, spec, payload, label="", flush=True, digest=None):
        with self._tracer.span("experiment.cache_put", self._tid):
            return super().put_payload(spec, payload, label=label, flush=flush, digest=digest)


def replay_batch(
    specs: Sequence[ExperimentSpec],
    backend: ExecutionBackend,
    cache: ResultCache | None,
    tracer: Any,
    tid: str,
) -> list[ExperimentResult]:
    """``BatchRunner(specs, backend=backend, cache=cache).run().results``, traced."""
    with tracer.span("batch", tid):
        payloads = [spec.to_dict() for spec in specs]
        with tracer.span("experiment.plan", tid):
            plan = SweepPlanner(cache).plan(payloads, labels=[spec.label for spec in specs])
        if plan.jobs:
            with tracer.span("experiment.backend_run", tid):
                fresh = backend.run([job.payload for job in plan.jobs])
            for job, data in zip(plan.jobs, fresh):
                plan.scatter(job, data)
            if cache is not None:
                # Self time of this span is the one index flush per sweep.
                with tracer.span("experiment.cache_put_batch", tid):
                    cache.put_payloads(
                        ((job.payload, data, job.label) for job, data in zip(plan.jobs, fresh)),
                        digests=(job.digest for job in plan.jobs),
                    )
        with tracer.span("experiment.from_dict", tid):
            return [ExperimentResult.from_dict(data) for data in plan.results]


# ------------------------------------------------------- trace -> metrics
def trace_metrics(
    tracer: Any, profiler: Any, core: Sequence[dict[str, float]] = ()
) -> dict[str, float]:
    """The per-layer metrics that come from spans and profiler sites,
    plus the median of the ``split_optimize`` probes in ``core``.

    ``*_s`` values are totals over the traced section (they partition
    ``trace.wall_s``); ``*_ms`` values are means per span.  A layer with
    no span or site in this trace reads 0: it did no work here.
    """
    layers = sites_by_layer(profiler)
    probes = {}
    for key in core[0] if core else ():
        values = [row[key] for row in core]
        probes[key] = sum(values) if key == "core.solver_failures" else median(values)

    def site_s(layer: str) -> float:
        return layers.get(layer, (0.0, 0))[0]

    roots = [end - start for _, _, parent, start, end in tracer.spans if parent is None]
    return {
        **probes,
        "trace.wall_s": sum(roots),
        "engine.loop_self_s": max(tracer.total("engine.run") - profiler.total_wall_s, 0.0),
        "sim.events": float(profiler.total_events),
        "mac.site_s": site_s("mac"),
        "mac.site_events": float(layers.get("mac", (0.0, 0))[1]),
        "net.probing_warmup_s": tracer.total("net.probing_warmup"),
        "net.site_s": site_s("net"),
        "transport.site_s": site_s("transport"),
        "sim.build_scenario_ms": mean_ms(tracer.durations("sim.build_scenario")),
        "sim.measure_s": tracer.total("sim.measure"),
        "sim.dynamics_site_s": site_s("sim.dynamics"),
        "monitors.site_s": site_s("monitors"),
        "monitors.collect_ms": mean_ms(tracer.durations("monitors.collect")),
        "core.estimate_links_ms": mean_ms(tracer.durations("core.estimate_links")),
        "core.conflict_graph_ms": mean_ms(tracer.durations("core.conflict_graph")),
        "core.apply_ms": mean_ms(tracer.durations("core.apply")),
    }
