"""``sweep_tiny``: a sweep of 25 ms cells through every execution backend.

The cell (``BENCH_queue``'s ``TINY_SPEC``: a 3-node chain, controller
off, 0.3 simulated seconds) is deliberately too cheap to matter, so what
is measured is the experiment layer: worker spawn, interpreter and numpy
import, envelopes, claims and leases, poll ticks, HTTP round trips, the
journal, and cache reads and writes.  Backends are resolved by their
registered names; a name that stops resolving fails all of its tasks, so
a refactor of the execution layer cannot silently drop a row.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from repro.experiment import (
    BatchResult,
    BatchRunner,
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    ResultCache,
    ScenarioSpec,
    backend_names,
    resolve_backend,
    seed_sweep,
)
from repro.sim.profile import SimProfiler

from ledger_replay import ReplayBackend, TracedCache, replay_batch, trace_metrics
from ledger_spec import WORKERS, Sizes
from ledger_tracing import (
    Budget,
    Outcome,
    Tracer,
    canonical_bytes,
    captured_fds,
    count_tracebacks,
    median,
)

TINY_SPEC = ExperimentSpec(
    scenario=ScenarioSpec(scenario="chain", seed=1, flows=(FlowSpec("udp", (0, 1, 2)),)),
    controller=ControllerSpec(enabled=False),
    cycles=1,
    cycle_measure_s=0.3,
    settle_s=0.1,
    label="ledger-sweep-tiny",
)


@dataclass
class SweepState:
    specs: list[ExperimentSpec]
    work_dir: Path
    #: sweep size -> the serial batch's payloads, which every other
    #: backend's batch of that size must reproduce byte for byte.
    reference: dict[int, list[bytes]] = field(default_factory=dict)

    @property
    def capture_path(self) -> str:
        return str(self.work_dir / "captured-output.log")


def setup(workload: str, seed: int, sizes: Sizes, work_dir: Path) -> SweepState:
    """The sweep's specs, plus a two-cell serial sweep that imports what
    a batch imports lazily."""
    first = 1000 * seed
    specs = seed_sweep(TINY_SPEC, range(first, first + sizes.sweep_tasks))
    BatchRunner(specs[:2], backend="serial", cache=False).run()
    return SweepState(specs, work_dir)


@contextmanager
def backend_for(name: str, work_dir: Path) -> Iterator[Any]:
    """The backend registered as ``name`` (``LookupError`` when none is).

    ``broker_durable`` is the registered ``broker`` backend pointed at an
    in-process broker journaling to a fresh store directory.
    """
    registered = "broker" if name == "broker_durable" else name
    if registered not in backend_names():
        raise LookupError(f"backend {name!r} no longer resolves; registered: {backend_names()}")
    if name != "broker_durable":
        yield resolve_backend(name, max_workers=WORKERS)
        return
    try:
        from repro.experiment import BrokerBackend
        from repro.experiment.broker import start_broker
    except ImportError as exc:
        raise LookupError(f"backend {name!r} no longer resolves: {exc}") from exc
    server = start_broker(store_dir=str(work_dir / f"broker-store-{uuid.uuid4().hex[:8]}"))
    try:
        yield BrokerBackend(server.url, workers=WORKERS)
    finally:
        server.shutdown()
        server.server_close()


def payload_bytes(batch: BatchResult, include_runtime: bool = False) -> list[bytes]:
    return [canonical_bytes(d) for d in batch.to_dicts(include_runtime=include_runtime)]


def check_against(expected: list[bytes], got: list[bytes], what: str, out: Outcome) -> None:
    wrong = sum(a != b for a, b in zip(expected, got)) + abs(len(expected) - len(got))
    if wrong:
        out.fail(wrong, f"{what}: {wrong} task payload(s) differ")


def run_batch(
    name: str, specs: list[ExperimentSpec], state: SweepState, out: Outcome
) -> tuple[float, BatchResult] | None:
    """One sweep through one backend; every task is an op."""
    out.attempted += len(specs)
    try:
        with backend_for(name, state.work_dir) as backend, captured_fds(state.capture_path):
            start = perf_counter()
            batch = BatchRunner(specs, backend=backend, cache=False).run()
            wall = perf_counter() - start
    except Exception as exc:  # unresolvable, crashed or timed-out backend
        out.fail(len(specs), f"{name} x{len(specs)}: {type(exc).__name__}: {exc}")
        return None
    got = payload_bytes(batch)
    check_against(state.reference.setdefault(len(specs), got), got, f"{name} vs serial", out)
    return wall, batch


def cache_sweeps(
    state: SweepState, warm: int, out: Outcome
) -> tuple[float, list[float]]:
    """One cold serial sweep into a fresh cache (writes), then ``warm``
    fully cached sweeps, each through a fresh ``ResultCache`` on the same
    directory as a re-run script would (reads)."""
    specs = state.specs
    cache_dir = state.work_dir / f"cache-{uuid.uuid4().hex[:8]}"
    out.attempted += len(specs)
    start = perf_counter()
    cold = BatchRunner(specs, backend="serial", cache=ResultCache(cache_dir)).run()
    cold_s = perf_counter() - start
    got = payload_bytes(cold)
    check_against(
        state.reference.setdefault(len(specs), got), got, "cold cached sweep vs serial", out
    )
    stored = payload_bytes(cold, include_runtime=True)
    warm_s: list[float] = []
    for _ in range(warm):
        out.attempted += len(specs)
        start = perf_counter()
        batch = BatchRunner(specs, backend="serial", cache=ResultCache(cache_dir)).run()
        warm_s.append(perf_counter() - start)
        if batch.cache_hits != len(specs):
            out.fail(len(specs) - batch.cache_hits, "warm sweep simulated cells")
        check_against(stored, payload_bytes(batch, include_runtime=True), "warm vs cold", out)
    return cold_s, warm_s


def measure(state: SweepState, seconds: float, sizes: Sizes) -> Outcome:
    """Rounds of one batch per backend (the order rotates, so no backend
    always runs first or always follows the same neighbour), then the
    cache sweeps."""
    out = Outcome()
    specs = state.specs
    walls: dict[str, list[float]] = {name: [] for name in sizes.backends}
    round_walls: list[float] = []
    budget = Budget(seconds)
    # Serial opens round one: it is the reference, and its wall sizes the
    # time to keep back for the cache sweeps.
    while len(round_walls) < sizes.min_rounds or budget.fits(
        round_walls[-1], reserve=1.5 * sum(walls["serial"][:1])
    ):
        shift = len(round_walls) % len(sizes.backends)
        round_start = perf_counter()
        for name in sizes.backends[shift:] + sizes.backends[:shift]:
            done = run_batch(name, specs, state, out)
            if done is not None:
                walls[name].append(done[0])
        round_walls.append(perf_counter() - round_start)
    cold_s, warm_s = cache_sweeps(state, sizes.warm_sweeps, out)
    best = [min(ws) for ws in walls.values() if ws]
    out.end_to_end = {
        "op_ms_best": 1e3 * sum(best) / (len(best) * len(specs)) if best else 0.0
    }
    out.headline = {
        f"{name}_tasks_per_s": len(specs) / median(ws) for name, ws in walls.items() if ws
    }
    out.headline["warm_sweep_ms"] = 1e3 * median(warm_s)
    out.headline["cold_cache_sweep_s"] = cold_s
    out.info = {
        "rounds": len(round_walls),
        "tasks": len(specs),
        "stderr_tracebacks": count_tracebacks(state.capture_path),
    }
    return out


def trace(
    state: SweepState, seed: int, sizes: Sizes
) -> tuple[dict[str, float], Outcome, Tracer, Any]:
    """Two sweep sizes through every backend (a two-point fit splits each
    backend's wall into a fixed part and a per-task part), then the
    cached sweep replayed under spans and the profiler."""
    out = Outcome()
    metrics: dict[str, float] = {}
    specs = state.specs
    small = specs[: sizes.fit_tasks]
    queue_counts = {"spawned": 0, "requeued": 0, "exhausted": 0}
    for name in sizes.backends:
        done = [run_batch(name, subset, state, out) for subset in (small, specs)]
        if None in done:
            continue
        (wall_small, _), (wall_full, _) = done
        per_task_s = (wall_full - wall_small) / (len(specs) - len(small))
        metrics[f"experiment.{name}.per_task_ms"] = 1e3 * per_task_s
        metrics[f"experiment.{name}.fixed_s"] = wall_small - len(small) * per_task_s
        metrics[f"{name}_tasks_per_s"] = len(specs) / wall_full
        for _, batch in done:
            for key in queue_counts:
                queue_counts[key] += getattr(batch.queue, key, 0)
    for key, value in queue_counts.items():
        metrics[f"experiment.{key}"] = float(value)

    cold_s, warm_s = cache_sweeps(state, 1, out)
    metrics["cold_cache_sweep_s"] = cold_s
    metrics["warm_sweep_ms"] = 1e3 * warm_s[0]

    tracer = Tracer()
    profiler = SimProfiler()
    cache_dir = state.work_dir / f"traced-cache-{uuid.uuid4().hex[:8]}"
    reference = state.reference[len(specs)]
    traced_s = 0.0
    for tid in ("sweep_tiny/cold", "sweep_tiny/warm"):
        cache = TracedCache(cache_dir, tracer, tid)
        out.attempted += len(specs)
        start = perf_counter()
        with profiler:
            results = replay_batch(specs, ReplayBackend(tracer, tid), cache, tracer, tid)
        traced_s += perf_counter() - start
        got = [canonical_bytes(r.to_dict(include_runtime=False)) for r in results]
        check_against(reference, got, f"traced replay ({tid}) vs BatchRunner", out)
    metrics["experiment.cache_hits"] = float(cache.stats.hits)  # the warm replay's
    metrics.update(trace_metrics(tracer, profiler))
    metrics["trace_overhead_pct"] = 100.0 * (traced_s / (cold_s + warm_s[0]) - 1.0)
    metrics["experiment.stderr_tracebacks"] = float(count_tracebacks(state.capture_path))
    return metrics, out, tracer, profiler
