"""``controller_dense``: the measure -> model -> optimize cycle, alone.

Set-up builds the 18-node testbed with 12 ETT-routed UDP flows (16
links, ~35 extreme points), warms broadcast probing up for 45 simulated
seconds and freezes: nothing is simulated afterwards, so every timed
``OnlineOptimizer.optimize()`` reads the same probe state and does
identical work (no ``apply``).  ``--seed`` re-seeds the probe traffic
(``run_seed``), not the topology: the conflict graph — and with it the
cycle's cost — stays the one the sizes were chosen for.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.core.controller import ControlDecision, OnlineOptimizer
from repro.experiment import (
    ControllerSpec,
    ExperimentSpec,
    ProbingSpec,
    ScenarioSpec,
    build_scenario,
)
from repro.sim.profile import SimProfiler

from ledger_replay import (
    make_controller,
    probing_warmup,
    split_optimize,
    trace_metrics,
    traced_cycle,
)
from ledger_spec import Sizes
from ledger_tracing import Budget, NullTracer, Outcome, Tracer, median, percentile

TOPOLOGY_SEED = 7
FIRST_RUN_SEED = 1000


def dense_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="random_multiflow",
            transport="udp",
            seed=TOPOLOGY_SEED,
            run_seed=FIRST_RUN_SEED + seed,
            num_flows=12,
            rate_mode="11",
        ),
        probing=ProbingSpec(warmup_s=45.0),
        controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
        label="ledger-controller-dense",
    )


@dataclass
class DenseState:
    controller: OnlineOptimizer
    #: Cycle 0: every later cycle must decide exactly this.
    reference: ControlDecision


def setup(
    workload: str, seed: int, sizes: Sizes, work_dir: Any = None, tracer: Any = None
) -> DenseState:
    tracer = tracer if tracer is not None else NullTracer()
    spec = dense_spec(seed)
    tid = "controller_dense/setup"
    with tracer.span("setup", tid):
        with tracer.span("sim.build_scenario", tid):
            scenario = build_scenario(spec.scenario)
        probing_warmup(scenario.network, spec, tracer, tid)
        controller = make_controller(scenario.network, scenario.flows, spec)
        return DenseState(controller, controller.optimize())


def check_cycle(state: DenseState, decision: ControlDecision, out: Outcome) -> None:
    out.attempted += 1
    if not decision.optimization.success:
        out.fail(1, f"solver did not converge: {decision.optimization.message}")
    elif decision.target_outputs_bps != state.reference.target_outputs_bps:
        out.fail(1, "cycle decided different target_outputs_bps than cycle 0")


def measure(state: DenseState, seconds: float, sizes: Sizes) -> Outcome:
    out = Outcome()
    optimize = state.controller.optimize
    blocks: list[list[float]] = []
    budget = Budget(seconds)
    while not blocks or budget.fits(sum(blocks[-1])):
        block: list[float] = []
        for _ in range(sizes.cycles_per_block):
            start = perf_counter()
            try:
                decision = optimize()
            except Exception as exc:
                out.attempted += 1
                out.fail(1, f"optimize() raised {type(exc).__name__}: {exc}")
                continue
            block.append(perf_counter() - start)
            check_cycle(state, decision, out)
        blocks.append(block)
    samples = [s for block in blocks for s in block]
    out.end_to_end = {"op_ms_best": 1e3 * min(samples, default=0.0)}
    out.headline = {
        "cycle_ms_p50": 1e3 * median(samples),
        "cycle_ms_p95": 1e3 * median([percentile(block, 0.95) for block in blocks]),
    }
    out.info = {"blocks": len(blocks), "cycles": len(samples)}
    return out


def trace(
    state: DenseState, seed: int, sizes: Sizes
) -> tuple[dict[str, float], Outcome, Tracer, Any]:
    """A traced set-up of its own (the only simulation this workload
    does), then alternating untraced and span-per-stage cycles on the
    frozen state."""
    out = Outcome()
    tracer = Tracer()
    profiler = SimProfiler()
    with profiler:
        state = setup("controller_dense", seed, sizes, tracer=tracer)
    controller = state.controller
    untraced: list[float] = []
    traced: list[float] = []
    core: list[dict[str, float]] = []
    for index in range(sizes.traced_cycles):
        start = perf_counter()
        decision = controller.optimize()
        untraced.append(perf_counter() - start)
        check_cycle(state, decision, out)
        tid = f"controller_dense/{index}"
        start = perf_counter()
        with tracer.span("cycle", tid):
            decision = traced_cycle(controller, tracer, tid)
        traced.append(perf_counter() - start)
        check_cycle(state, decision, out)
        if index % 10 == 0:
            core.append(split_optimize(controller, decision))
    metrics = trace_metrics(tracer, profiler, core)
    metrics["trace_overhead_pct"] = 100.0 * (sum(traced) / sum(untraced) - 1.0)
    metrics["cycle_ms_p50"] = 1e3 * median(untraced)
    metrics["cycle_ms_p95"] = 1e3 * percentile(untraced, 0.95)
    return metrics, out, tracer, profiler
