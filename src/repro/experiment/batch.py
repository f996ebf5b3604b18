"""Multi-seed / multi-scenario batch execution.

:class:`BatchRunner` sweeps a list of :class:`ExperimentSpec`s — most
commonly one base spec across seeds via :func:`seed_sweep` — in three
stages:

1. the :class:`repro.experiment.planner.SweepPlanner` deduplicates
   identical specs and resolves :class:`ResultCache` hits up front; the
   remaining unique cells keep submission order;
2. a pluggable :class:`repro.experiment.ExecutionBackend`
   executes those cells — inline (:class:`SerialBackend`), across local
   processes (:class:`ProcessPoolBackend`), through a shared directory
   any worker host can drain (:class:`WorkQueueBackend`), or through an
   HTTP broker so submitter and workers need only a URL in common
   (:class:`BrokerBackend`).  The queue-shaped backends are
   self-healing: claims are heartbeat leases with a per-task retry
   budget, so a worker killed mid-task costs one lease interval, not
   the sweep;
3. results are scattered back to submission order and written back to
   the cache (once per unique spec).

Every backend speaks the same dict-in/dict-out protocol
(:func:`repro.experiment.backends.base.run_spec_payload`): only plain dicts
cross an execution boundary, and the simulator's RNG streams are derived
from the spec seeds with stable CRC32 spawn keys (see
:func:`repro.engine.rng_spawn_key`) — which is why serial, process-pool
and work-queue sweeps of the same specs return byte-equal payloads, as
the cross-backend determinism suite asserts.

With a :class:`repro.experiment.cache.ResultCache` attached (or
``REPRO_CACHE_DIR`` exported), a fully warm sweep dispatches zero cells;
misses are simulated by the backend and written back on completion — so
a repeated sweep is bit-identical to the cold run while costing only
JSON reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.analysis.reporting import ExperimentReport, batch_summary_table
from repro.experiment.backends.base import BackendError
from repro.experiment.planner import PlannerStats
from repro.experiment.runner import ExperimentResult
from repro.experiment.specs import ExperimentSpec

if TYPE_CHECKING:
    from repro.experiment.backends.base import ExecutionBackend
    from repro.experiment.backends.queue_common import QueueStats
    from repro.experiment.cache import ResultCache


def seed_sweep(
    base: ExperimentSpec,
    seeds: Iterable[int],
    vary_topology: bool = True,
) -> list[ExperimentSpec]:
    """The same experiment across seeds.

    With ``vary_topology`` each seed re-draws topology and traffic (a new
    configuration per seed); without it the topology seed is kept and
    only the traffic ``run_seed`` varies — the repeated-run stability
    setup of Figure 14(d).
    """
    if vary_topology:
        return [base.with_seed(int(seed)) for seed in seeds]
    return [
        base.with_seed(base.scenario.seed, run_seed=int(seed)) for seed in seeds
    ]


@dataclass
class BatchResult:
    """Results of a batch sweep, in submission order.

    ``cache_hits`` / ``cache_misses`` count how many cells were served
    from the attached :class:`ResultCache` versus simulated or shared
    with a duplicate cell (both stay 0 when no cache was in play).
    ``backend`` names the execution backend that ran the misses, and
    ``planner`` carries the full :class:`PlannerStats` of the submission
    (dedup and cache resolution).  ``queue`` carries the
    :class:`~repro.experiment.backends.queue_common.QueueStats` of queue-shaped
    backends — drainers spawned, leases requeued after worker deaths,
    retry budgets exhausted — and stays ``None`` for in-process ones.
    """

    results: list[ExperimentResult]
    wall_time_s: float = 0.0
    parallel: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    backend: str = "serial"
    planner: PlannerStats = field(default_factory=PlannerStats)
    queue: "QueueStats | None" = None

    @property
    def cache_hit_rate(self) -> float:
        """Hits over sweep size, 0.0 for uncached or empty sweeps."""
        return self.cache_hits / len(self.results) if self.results else 0.0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def to_dicts(self, include_runtime: bool = True) -> list[dict[str, Any]]:
        return [r.to_dict(include_runtime=include_runtime) for r in self.results]

    # ------------------------------------------------------------ aggregation
    def aggregate_throughputs_bps(self) -> list[float]:
        return [r.aggregate_bps for r in self.results]

    def jain_indices(self) -> list[float]:
        return [r.jain_index for r in self.results]

    def report(self, title: str = "batch sweep") -> ExperimentReport:
        """Aggregate the sweep into a :class:`repro.analysis` report."""
        # Always name the backend: an external-drain work queue reports
        # parallel=False (the submitter spawned no workers itself) but is
        # anything but sequential, and provenance belongs in the record.
        mode = "sequential" if self.backend == "serial" else f"{self.backend} backend"
        if self.parallel:
            mode += " (parallel)"
        if self.cache_hits:
            mode += f", {self.cache_hits}/{len(self.results)} from cache"
        if self.planner.duplicates:
            mode += f", {self.planner.duplicates} deduplicated"
        if self.queue is not None and self.queue.requeued:
            # Worker deaths the lease machinery survived belong in the
            # record: the results are byte-identical either way, but the
            # wall clock is not.
            mode += f", {self.queue.requeued} requeued after worker loss"
        report = ExperimentReport(
            title, f"{len(self.results)} experiment(s), {mode}"
        )
        report.add(batch_summary_table(self.results))
        return report


@dataclass
class BatchRunner:
    """Run many experiments through a planned, pluggable backend.

    Args:
        experiments: the specs to run (build with :func:`seed_sweep` for
            the common multi-seed case).
        max_workers: worker count for backends that fan out (defaults to
            the CPU count, capped at the number of cells to execute).
        cache: result cache, resolved by
            :func:`repro.experiment.cache.resolve_cache` — pass a
            :class:`ResultCache`, ``True`` for the default cache,
            ``False`` to force caching off; the default ``None`` uses
            the default cache iff ``REPRO_CACHE_DIR`` is set.
        backend: an :class:`ExecutionBackend` instance, a backend name
            (``"serial"``, ``"process"``, ``"work_queue"``,
            ``"broker"``), or ``None`` to resolve from
            ``REPRO_BATCH_BACKEND``, defaulting to the process pool (see
            :func:`repro.experiment.resolve_backend`).
    """

    experiments: Sequence[ExperimentSpec]
    max_workers: int | None = None
    cache: "ResultCache | None | bool" = None
    backend: "ExecutionBackend | str | None" = None
    _payloads: list[dict[str, Any]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.experiments:
            raise ValueError("at least one experiment is required")
        self._payloads = [spec.to_dict() for spec in self.experiments]

    def run(self) -> BatchResult:
        import time

        from repro.experiment.backends.base import resolve_backend
        from repro.experiment.cache import resolve_cache
        from repro.experiment.planner import SweepPlanner

        wall_start = time.perf_counter()
        cache = resolve_cache(self.cache)
        backend = resolve_backend(self.backend, max_workers=self.max_workers)

        # Plan in the submitting process, before any fan-out: duplicates
        # collapse to one job each and cache hits never reach the backend
        # (a fully warm sweep dispatches nothing).
        plan = SweepPlanner(cache).plan(
            self._payloads, labels=[spec.label for spec in self.experiments]
        )
        if plan.jobs:
            fresh = backend.run([job.payload for job in plan.jobs])
            if len(fresh) != len(plan.jobs):
                # Guard the public ExecutionBackend contract here, where
                # the misbehaving backend can still be named — a silent
                # zip truncation would crash far from the cause.
                raise BackendError(
                    f"backend {backend.name!r} returned {len(fresh)} result(s) "
                    f"for {len(plan.jobs)} dispatched job(s)"
                )
            for job, data in zip(plan.jobs, fresh):
                plan.scatter(job, data)
            if cache is not None:
                # One writeback per unique executed spec; the planner's
                # digests are reused so nothing is hashed twice.
                cache.put_payloads(
                    (
                        (job.payload, data, job.label)
                        for job, data in zip(plan.jobs, fresh)
                    ),
                    digests=(job.digest for job in plan.jobs),
                )

        results = [ExperimentResult.from_dict(data) for data in plan.results]
        cached = cache is not None
        return BatchResult(
            results=results,
            wall_time_s=time.perf_counter() - wall_start,
            parallel=backend.workers_for(len(plan.jobs)) > 1,
            cache_hits=plan.stats.cache_hits if cached else 0,
            cache_misses=plan.stats.cache_misses if cached else 0,
            backend=backend.name,
            planner=plan.stats,
            # Only when this run actually dispatched: a fully-cached
            # sweep never calls backend.run(), and a reused backend
            # instance would otherwise leak the *previous* run's stats.
            queue=getattr(backend, "last_run_stats", None) if plan.jobs else None,
        )
