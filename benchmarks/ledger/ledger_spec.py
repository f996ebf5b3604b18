"""What the ledger measures: workloads, metrics, bounds, and what moves what.

This module is data.  ``BENCHMARK.json`` at the repository root is the
machine contract (its schema allows exactly ``name``/``why`` per workload
and ``name``/``unit``/``better``[/``bound``] per metric); everything the
schema has no slot for — sizes, sample counts, which end-to-end metric a
layer metric should move and on which workload — lives here and in
``README.md``.  ``benchmark_json()`` rebuilds the contract from these
tables; the smoke test holds the committed file to it.

Every run emits *every* end-to-end metric (untraced) or *every*
per-layer metric (traced), whatever the workload: that is the driver's
contract.  So the end-to-end metrics are defined per *op* — one cold
cell, one controller cycle, one sweep task — and a per-layer metric
whose layer is not on a workload's path reads 0 there ("no work done"),
which is exactly the bypass prediction.

The bounded time metric is a best-of, not a median, and its bound is
wide: this class of box shares its cores, interference arrives in bursts
that slow a third of all one-second ops and in regimes that last many
minutes, and on one commit the median cell wall of a 24 s run spread
(interquartile range over median, ten runs) by 5% in a calm regime and
17% in a noisy one, the cleanest repeat of the same work by 1-6% and
4-16% (``accepted_run.json``).  The medians and tails users quote stay,
as the headline views.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Whole seconds one run measures; also ``run.py``'s ``--seconds`` default.
RUN_SECONDS = 24

#: Default ``--seed``.
DEFAULT_SEED = 7

#: Worker processes of every distributed backend (the 2-core sizing).
WORKERS = 2

WORKLOADS: dict[str, str] = {
    "cell_static": (
        "cold Figure 14 cells (random_multiflow, TCP, 3 flows): the unit every figure "
        "grid is made of; engine+scheduler+mac+transport+net dominate, core <2%"
    ),
    "cell_dynamic": (
        "cold cells of a 4x4 grid under drift mobility, churn and monitors: every epoch "
        "rebuilds power tables and drops memos, so a trick that wins on cell_static can cost here"
    ),
    "controller_dense": (
        "OnlineOptimizer.optimize() on frozen probe state of 12 UDP flows (16 links): "
        "core-dominated, the sim only sets up; bypass workload for sim changes"
    ),
    "sweep_tiny": (
        "48 tiny cells through every execution backend plus cold and warm cache sweeps: "
        "experiment-dominated (spawn, import, envelopes, polls); bypass for sim and core"
    ),
}

BACKENDS = ("serial", "process", "work_queue", "broker", "broker_durable")


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does.

    Timed loops run until ``--seconds`` is spent but never fewer than the
    minimum counts here; the traced sections are fixed-size so that
    their event counts repeat exactly.  ``FULL`` is the benchmark;
    ``SMOKE`` is the smallest run that still emits every metric.
    """

    #: Distinct cell specs (run seeds) a pass visits, in seed-shuffled order.
    pool: int = 4
    #: Scales the simulated durations of the two cell specs.
    sim_scale: float = 1.0
    #: ``optimize()`` calls per block (p95 is taken per block).
    cycles_per_block: int = 300
    #: Traced/untraced cycle pairs in the controller's traced section.
    traced_cycles: int = 60
    #: Sweep size, and the second point of the two-point overhead fit.
    sweep_tasks: int = 48
    fit_tasks: int = 12
    backends: tuple[str, ...] = BACKENDS
    min_rounds: int = 2
    warm_sweeps: int = 30
    setup_repeats: int = 4
    #: Scales repetition counts of the micro-benchmarks.
    micro_scale: float = 1.0


FULL = Sizes()
SMOKE = Sizes(
    pool=1,
    sim_scale=0.1,
    cycles_per_block=20,
    traced_cycles=3,
    sweep_tasks=6,
    fit_tasks=3,
    backends=("serial", "broker"),
    min_rounds=1,
    warm_sweeps=2,
    setup_repeats=1,
    micro_scale=0.02,
)

#: What one op is on each workload (``attempted``/``failed`` count these).
OPS: dict[str, str] = {
    "cell_static": "one cold run_experiment() cell",
    "cell_dynamic": "one cold run_experiment() cell",
    "controller_dense": "one OnlineOptimizer.optimize() cycle",
    "sweep_tiny": "one sweep task, dispatched through a backend or served from the cache",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "op_ms_best", "ms", "lower", 0.25,
        "host ms per op, best of the run's repeats: cells, the fastest visit of each pool "
        "spec, averaged over the pool; controller, the fastest optimize() cycle; sweep, each "
        "backend's fastest batch, summed over the backends, per task",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss, the larger of this process and its waited-for children",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "fastest of 4 set-ups: fresh-interpreter import of repro.experiment.worker plus "
        "building the workload's inputs (specs, warm-up cell, frozen probe state, payloads)",
    ),
)

# Shorthands for the interaction table.
_CELLS = ("cell_static", "cell_dynamic")
_STATIC = ("cell_static",)
_DYNAMIC = ("cell_dynamic",)
_DENSE = ("controller_dense",)
_SWEEP = ("sweep_tiny",)
_ALL = tuple(WORKLOADS)


def _moves(metrics: tuple[str, ...], workloads: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return tuple((metric, workload) for metric in metrics for workload in workloads)


_OP = ("op_ms_best",)


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric.

    ``source`` says where the number comes from: ``micro`` (a
    workload-independent timing of a public function, identical work on
    every traced run), ``trace`` (spans and profiler sites of the
    workload's traced section; 0 where the layer is not on the path),
    ``headline`` (the issue's named end-to-end views, from the untraced
    half of the traced run; 0 off their workload).  ``moves`` lists the
    (end-to-end metric, workload) pairs the number should move;
    everywhere else the prediction is no move.
    """

    name: str
    unit: str
    better: str
    layer: str
    source: str
    moves: tuple[tuple[str, str], ...]
    what: str = ""


def _p(name, unit, better, layer, source, moves, what=""):
    return PerLayer(name, unit, better, layer, source, moves, what)


PER_LAYER: tuple[PerLayer, ...] = (
    # ---- headline: the named views users quote ---------------------------
    _p("cell_wall_s", "s", "lower", "end_to_end", "headline", _moves(_OP, _CELLS),
       "host s per cold cell: median over pool passes of pass wall / cells"),
    _p("sim_events_per_s", "1/s", "higher", "end_to_end", "headline", _moves(_OP, _CELLS),
       "simulated events per host s, sum(events_processed) / sum(wall)"),
    _p("cycle_ms_p50", "ms", "lower", "end_to_end", "headline", _moves(_OP, _DENSE),
       "median ms per optimize() over all timed cycles"),
    _p("cycle_ms_p95", "ms", "lower", "end_to_end", "headline", _moves(_OP, _DENSE),
       "p95 of each cycle block, median over blocks (15 samples beyond it per 300)"),
    _p("serial_tasks_per_s", "1/s", "higher", "end_to_end", "headline", _moves(_OP, _SWEEP),
       "sweep tasks over that backend's median batch wall; likewise the four below"),
    _p("process_tasks_per_s", "1/s", "higher", "end_to_end", "headline", _moves(_OP, _SWEEP)),
    _p("work_queue_tasks_per_s", "1/s", "higher", "end_to_end", "headline", _moves(_OP, _SWEEP)),
    _p("broker_tasks_per_s", "1/s", "higher", "end_to_end", "headline", _moves(_OP, _SWEEP)),
    _p("broker_durable_tasks_per_s", "1/s", "higher", "end_to_end", "headline",
       _moves(_OP, _SWEEP)),
    _p("warm_sweep_ms", "ms", "lower", "end_to_end", "headline", (),
       "one fully cached BatchRunner.run() of the sweep; cache reads beside cache writes"),
    _p("cold_cache_sweep_s", "s", "lower", "end_to_end", "headline", (),
       "the serial sweep with a fresh ResultCache attached (simulate + write back)"),
    _p("trace_overhead_pct", "%", "lower", "end_to_end", "trace", (),
       "traced wall over untraced wall of the same ops, minus one"),
    _p("trace.wall_s", "s", "lower", "end_to_end", "trace", (),
       "wall of the traced section; the *_s totals below partition it"),
    # ---- engine ------------------------------------------------------------
    _p("engine.dispatch_events_per_s", "1/s", "higher", "engine", "micro", _moves(_OP, _CELLS),
       "200k self-rescheduling no-op callbacks, best of 5 (the ceiling)"),
    _p("engine.loop_self_s", "s", "lower", "engine", "trace", _moves(_OP, _CELLS),
       "traced network.run spans minus the profiler sites inside them"),
    _p("sim.events", "count", "lower", "engine", "trace", _moves(_OP, _CELLS),
       "events dispatched in the traced section (repeats exactly)"),
    # ---- scheduler ---------------------------------------------------------
    _p("scheduler.calendar_events_per_s", "1/s", "higher", "scheduler", "micro",
       _moves(_OP, _STATIC)),
    _p("scheduler.heap_events_per_s", "1/s", "higher", "scheduler", "micro",
       _moves(_OP, _STATIC)),
    _p("scheduler.mixed_horizon_events_per_s", "1/s", "higher", "scheduler", "micro",
       _moves(_OP, _STATIC),
       "calendar queue; 70% delays 10us-1ms, 25% at 0.5 s, 5% beyond 1 s, 20% cancelled"),
    _p("scheduler.heap_mixed_horizon_events_per_s", "1/s", "higher", "scheduler", "micro",
       _moves(_OP, _STATIC), "the same mix on the binary heap"),
    # ---- mac ---------------------------------------------------------------
    _p("mac.medium_build_ms", "ms", "lower", "mac", "micro", _moves(_OP, _SWEEP),
       "18-node MeshNetwork construction; a large share of a 25 ms cell"),
    _p("mac.update_positions_ms", "ms", "lower", "mac", "micro", _moves(_OP, _DYNAMIC),
       "p50 of 200 MeshNetwork.update_positions moving all 16 nodes"),
    _p("mac.tx_unicast_us", "us", "lower", "mac", "micro", _moves(_OP, _CELLS),
       "begin_transmission -> finish on an idle 18-node medium, stub listeners"),
    _p("mac.tx_broadcast_us", "us", "lower", "mac", "micro", _moves(_OP, _CELLS)),
    _p("mac.saturated_events_per_s", "1/s", "higher", "mac", "micro", _moves(_OP, _CELLS),
       "5-node chain, two backlogged UDP flows (the old mesh_events_per_s)"),
    _p("mac.site_s", "s", "lower", "mac", "trace", _moves(_OP, _CELLS),
       "profiler sites under repro.mac."),
    _p("mac.site_events", "count", "lower", "mac", "trace", _moves(_OP, _CELLS)),
    # ---- phy ---------------------------------------------------------------
    _p("phy.error_model_us", "us", "lower", "phy", "micro", _moves(_OP, _DYNAMIC),
       "public PER call with uncached arguments (memos drop every epoch)"),
    # ---- net ---------------------------------------------------------------
    _p("net.probing_warmup_s", "s", "lower", "net", "trace",
       _moves(_OP, _STATIC) + (("setup_s", "controller_dense"),),
       "span: enable_probing + run(warmup_s)"),
    _p("net.site_s", "s", "lower", "net", "trace", _moves(_OP, _STATIC)),
    # ---- transport ---------------------------------------------------------
    _p("transport.site_s", "s", "lower", "transport", "trace", _moves(_OP, _CELLS)),
    _p("transport.tcp_onehop_events_per_s", "1/s", "higher", "transport", "micro",
       _moves(_OP, _CELLS), "2-node link, one TCP flow, 5 sim-s"),
    _p("transport.udp_onehop_events_per_s", "1/s", "higher", "transport", "micro",
       _moves(_OP, _DYNAMIC), "2-node link, one backlogged UDP flow, 5 sim-s"),
    # ---- sim ---------------------------------------------------------------
    _p("sim.build_scenario_ms", "ms", "lower", "sim", "trace", _moves(_OP, _SWEEP),
       "mean build_scenario span"),
    _p("sim.measure_s", "s", "lower", "sim", "trace", _moves(_OP, _CELLS),
       "spans: network.run(cycle_measure_s)"),
    _p("sim.dynamics_site_s", "s", "lower", "sim", "trace", _moves(_OP, _DYNAMIC),
       "profiler sites under repro.sim.dynamics"),
    # ---- monitors ----------------------------------------------------------
    _p("monitors.site_s", "s", "lower", "monitors", "trace", _moves(_OP, _DYNAMIC)),
    _p("monitors.collect_ms", "ms", "lower", "monitors", "trace", _moves(_OP, _DYNAMIC),
       "mean MonitorHost.collect span"),
    # ---- core --------------------------------------------------------------
    _p("core.estimate_links_ms", "ms", "lower", "core", "trace", _moves(_OP, _DENSE)),
    _p("core.conflict_graph_ms", "ms", "lower", "core", "trace", _moves(_OP, _DENSE)),
    _p("core.region_ms", "ms", "lower", "core", "trace", _moves(_OP, _DENSE),
       "FeasibilityRegion.from_capacities_and_conflicts on the cycle's own inputs"),
    _p("core.solve_ms", "ms", "lower", "core", "trace", _moves(_OP, _DENSE),
       "RateOptimizer.solve on the cycle's own region"),
    _p("core.apply_ms", "ms", "lower", "core", "trace", ()),
    _p("core.links", "count", "lower", "core", "trace", _moves(_OP, _DENSE)),
    _p("core.independent_sets", "count", "lower", "core", "trace", _moves(_OP, _DENSE)),
    _p("core.extreme_points", "count", "lower", "core", "trace", _moves(_OP, _DENSE)),
    _p("core.solver_failures", "count", "lower", "core", "trace", ()),
    _p("core.synthetic200_region_ms", "ms", "lower", "core", "micro", (),
       "24-link ~200-extreme-point graph, the paper's stated worst case"),
    _p("core.synthetic200_solve_ms", "ms", "lower", "core", "micro", ()),
    # ---- experiment --------------------------------------------------------
    _p("experiment.import_s", "s", "lower", "experiment", "micro",
       _moves(("setup_s",), _ALL) + _moves(_OP, _SWEEP),
       "fresh python -c 'import repro.experiment.worker', median"),
    _p("experiment.run_fixed_ms", "ms", "lower", "experiment", "micro", _moves(_OP, _SWEEP),
       "run_experiment on a near-zero-length, controller-off cell"),
    _p("experiment.spec_digest_us", "us", "lower", "experiment", "micro", ()),
    _p("experiment.spec_roundtrip_us", "us", "lower", "experiment", "micro", ()),
    _p("experiment.result_serialize_us", "us", "lower", "experiment", "micro", ()),
    _p("experiment.plan_cold_ms", "ms", "lower", "experiment", "micro", (),
       "SweepPlanner.plan, 96 cells, no cache"),
    _p("experiment.plan_warm_ms", "ms", "lower", "experiment", "micro", (),
       "SweepPlanner.plan, 96 cells, every cell cached (moves warm_sweep_ms)"),
    _p("experiment.cache_put_ms", "ms", "lower", "experiment", "micro", ()),
    _p("experiment.cache_get_ms", "ms", "lower", "experiment", "micro", ()),
    _p("experiment.cache_flush_ms", "ms", "lower", "experiment", "micro", ()),
    _p("experiment.broker_rtt_ms", "ms", "lower", "experiment", "micro", _moves(_OP, _SWEEP),
       "p50 of 300 BrokerClient.stats() against an in-process start_broker()"),
    _p("experiment.broker_queue_us_per_task", "us", "lower", "experiment", "micro",
       _moves(_OP, _SWEEP), "BrokerQueue submit->claim->result->collect, no store"),
    _p("experiment.journal_us_per_task", "us", "lower", "experiment", "micro",
       _moves(_OP, _SWEEP), "the same with a BrokerStore journal"),
    _p("experiment.file_queue_us_per_task", "us", "lower", "experiment", "micro",
       _moves(_OP, _SWEEP), "FileQueueClient claim->complete on a temp dir"),
    *(
        _p(f"experiment.{backend}.{field}", unit, "lower", "experiment", "trace",
           _moves(_OP, _SWEEP), what)
        for backend in BACKENDS
        for field, unit, what in (
            ("fixed_s", "s", "two-point fit of wall at N=12 and N=48: intercept"),
            ("per_task_ms", "ms", "two-point fit: slope"),
        )
    ),
    _p("experiment.spawned", "count", "lower", "experiment", "trace", _moves(_OP, _SWEEP)),
    _p("experiment.requeued", "count", "lower", "experiment", "trace", ()),
    _p("experiment.exhausted", "count", "lower", "experiment", "trace", ()),
    _p("experiment.cache_hits", "count", "higher", "experiment", "trace", ()),
    _p("experiment.stderr_tracebacks", "count", "lower", "experiment", "trace", (),
       "tracebacks captured from drainers, pool workers and broker threads"),
)

#: The issue's end-to-end names and the bound each carries in ``compare.py``
#: (these are per-layer rows for the driver, which bounds only ``END_TO_END``).
HEADLINE_BOUNDS: dict[str, float] = {
    "cell_wall_s": 0.05,
    "sim_events_per_s": 0.05,
    "cycle_ms_p50": 0.05,
    "cycle_ms_p95": 0.10,
    "serial_tasks_per_s": 0.10,
    "process_tasks_per_s": 0.10,
    "work_queue_tasks_per_s": 0.10,
    "broker_tasks_per_s": 0.10,
    "broker_durable_tasks_per_s": 0.10,
    "warm_sweep_ms": 0.10,
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` these tables imply."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
