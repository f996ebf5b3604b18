"""The two cell workloads: cold ``run_experiment`` cells, static and dynamic.

A run visits a small fixed *pool* of cells — the same scenario under
``pool`` consecutive run seeds — in whole passes, in an order shuffled by
``--seed``.  The pool is fixed because a cell's cost depends on its run
seed by far more than any bound (the dynamic cell's event count moves
+-10% between run seeds), so runs with different ``--seed`` must do the
same work to be comparable; the seed decides the order, and which cell
warms up.  Every pass repeats every spec, so every repeat is checked
against the first visit's payload digest and event count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.experiment import (
    ChurnSpec,
    ControllerSpec,
    ExperimentResult,
    ExperimentSpec,
    MobilitySpec,
    ProbingSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_experiment,
)
from repro.sim.profile import SimProfiler

from ledger_replay import replay_cell, split_optimize, trace_metrics
from ledger_spec import Sizes
from ledger_tracing import Budget, Outcome, Tracer, canonical_bytes, median, payload_digest

TOPOLOGY_SEED = 7
FIRST_RUN_SEED = 1000


def static_spec(run_seed: int, scale: float = 1.0) -> ExperimentSpec:
    """One Figure 14 grid cell (``BENCH_sim``'s ``FIG14_CELL``)."""
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="random_multiflow",
            transport="tcp",
            run_seed=run_seed,
            seed=TOPOLOGY_SEED,
            num_flows=3,
            rate_mode="11",
        ),
        probing=ProbingSpec(warmup_s=45.0 * scale),
        controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
        cycles=1,
        cycle_measure_s=12.0 * scale,
        settle_s=2.0 * scale,
        label="ledger-cell-static",
    )


def dynamic_spec(run_seed: int, scale: float = 1.0) -> ExperimentSpec:
    """A 4x4 grid under drift mobility, churn and run-time monitors."""
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="generated",
            seed=TOPOLOGY_SEED,
            run_seed=run_seed,
            rate_mode="11",
            topology=TopologySpec(kind="grid", rows=4, cols=4, spacing_m=60.0),
            workload=WorkloadSpec(generator="mixed_tcp_udp", num_flows=5),
            mobility=MobilitySpec(model="drift", epoch_s=0.5),
            churn=ChurnSpec(num_events=3, end_s=60.0 * scale, down_s=10.0 * scale),
        ),
        probing=ProbingSpec(warmup_s=45.0 * scale),
        controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
        monitors=("pdr", "throughput"),
        cycles=2,
        cycle_measure_s=10.0 * scale,
        settle_s=2.0 * scale,
        label="ledger-cell-dynamic",
    )


SPEC_BUILDERS: dict[str, Callable[[int, float], ExperimentSpec]] = {
    "cell_static": static_spec,
    "cell_dynamic": dynamic_spec,
}


def fingerprint(result: ExperimentResult) -> tuple[str, int]:
    return payload_digest(result.to_dict(include_runtime=False)), result.events_processed


@dataclass
class CellState:
    workload: str
    pool: list[ExperimentSpec]
    #: pool index -> (digest, events) of the first visit.
    first: dict[int, tuple[str, int]] = field(default_factory=dict)


def setup(workload: str, seed: int, sizes: Sizes, work_dir: Any = None) -> CellState:
    """Build the pool in seeded order and run one warm-up cell (the last
    of the order), which also imports everything a cell imports lazily."""
    run_seeds = [FIRST_RUN_SEED + i for i in range(sizes.pool)]
    random.Random(seed).shuffle(run_seeds)
    build = SPEC_BUILDERS[workload]
    state = CellState(workload, [build(rs, sizes.sim_scale) for rs in run_seeds])
    last = len(state.pool) - 1
    state.first[last] = fingerprint(
        run_experiment(state.pool[last], keep_decisions=False, cache=False)
    )
    return state


def check_repeat(state: CellState, index: int, result: ExperimentResult, out: Outcome) -> None:
    """One op: a repeat must reproduce its spec's first visit exactly."""
    out.attempted += 1
    seen = fingerprint(result)
    first = state.first.setdefault(index, seen)
    if seen != first:
        out.fail(1, f"cell {index}: digest/events {seen} differ from first visit {first}")


def measure(
    state: CellState,
    seconds: float,
    sizes: Sizes,
    run_cell: Callable[..., ExperimentResult] = run_experiment,
) -> Outcome:
    """Whole passes over the pool until ``seconds`` are spent.

    ``run_cell`` is ``run_experiment``; the smoke test substitutes a
    corrupting wrapper to prove the repeat check is live.
    """
    out = Outcome()
    pass_walls: list[float] = []
    s_per_event: list[float] = []
    events = 0
    budget = Budget(seconds)
    # At least two passes, so that every spec has a repeat to be checked.
    while len(pass_walls) < 2 or budget.fits(pass_walls[-1]):
        pass_wall = 0.0
        for index, spec in enumerate(state.pool):
            start = perf_counter()
            try:
                result = run_cell(spec, keep_decisions=False, cache=False)
            except Exception as exc:  # an op that raises is a failed op
                out.attempted += 1
                out.fail(1, f"cell {index}: {type(exc).__name__}: {exc}")
                continue
            wall = perf_counter() - start
            pass_wall += wall
            events += result.events_processed
            s_per_event.append(wall / result.events_processed)
            check_repeat(state, index, result, out)
        pass_walls.append(pass_wall)
    # The cleanest cell of the run, at the pool's mean size: the pool's
    # cells differ in event count, so cells compare per simulated event.
    events_per_cell = events / len(s_per_event) if s_per_event else 0.0
    out.end_to_end = {"op_ms_best": 1e3 * min(s_per_event, default=0.0) * events_per_cell}
    out.headline = {
        "cell_wall_s": median(pass_walls) / len(state.pool),
        "sim_events_per_s": events / sum(pass_walls) if events else 0.0,
    }
    out.info = {"passes": len(pass_walls), "events": events}
    return out


def trace(
    state: CellState, seed: int, sizes: Sizes
) -> tuple[dict[str, float], Outcome, Tracer, Any]:
    """One pass over the pool, each cell run untraced and then replayed
    under spans and the profiler; the replay must equal the real call."""
    out = Outcome()
    tracer = Tracer()
    profiler = SimProfiler()
    untraced_s = traced_s = 0.0
    events = 0
    core: list[dict[str, float]] = []
    for index, spec in enumerate(state.pool):
        start = perf_counter()
        result = run_experiment(spec, keep_decisions=False, cache=False)
        untraced_s += perf_counter() - start
        events += result.events_processed
        check_repeat(state, index, result, out)
        tid = f"{state.workload}/{index}"
        start = perf_counter()
        with profiler:
            replayed, controller = replay_cell(spec, tracer, tid)
        traced_s += perf_counter() - start
        out.attempted += 1
        if fingerprint(replayed) != fingerprint(result):
            out.fail(1, f"cell {index}: traced replay is not the program run_experiment ran")
        with tracer.span("experiment.serialize", tid):
            canonical_bytes(replayed.to_dict())
        if controller is not None:
            core.append(split_optimize(controller, controller.optimize()))
    metrics = trace_metrics(tracer, profiler, core)
    metrics["trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    metrics["cell_wall_s"] = untraced_s / len(state.pool)
    metrics["sim_events_per_s"] = events / untraced_s
    return metrics, out, tracer, profiler
