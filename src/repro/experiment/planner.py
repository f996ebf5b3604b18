"""Cache-aware sweep planning.

Before a batch sweep fans out to an execution backend, the
:class:`SweepPlanner` turns the raw list of spec payloads into an
execution plan:

1. **Deduplicate** — cells with the same content address
   (:func:`repro.experiment.specs.spec_digest`) are one job; a sweep
   that names the same spec five times simulates it once and scatters
   the payload to all five submission slots.
2. **Resolve the cache** — each *unique* spec is looked up in the
   :class:`repro.experiment.cache.ResultCache` exactly once; hits fill
   their submission slots up front and never reach the backend.
3. **Order by cost, measured where known** — the remaining jobs are
   sorted most expensive first, so the slowest cells start as soon as
   workers are available and the sweep's wall clock approaches
   ``max(cell) + spillover`` instead of being hostage to a long cell
   scheduled last (classic LPT scheduling).  A job whose digest appears
   in the cache's measured-cost ledger
   (:meth:`repro.experiment.cache.ResultCache.measured_cost_s` — costs
   survive payload eviction) is ordered by its *actual* recorded wall
   clock; the rest fall back to the static :func:`estimate_cost_s`
   heuristic, rescaled onto the measured jobs' wall-clock scale when
   any exist (median measured/estimate ratio), so the two cost sources
   induce one coherent order.

Planning is pure bookkeeping: results are scattered back to submission
order afterwards, so the plan can never change *what* a sweep returns —
only how little work and wall clock it takes to return it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.experiment.specs import SpecError, TopologySpec, spec_digest

if TYPE_CHECKING:
    from repro.experiment.cache import ResultCache

__all__ = [
    "PlannedJob",
    "PlannerStats",
    "SweepPlan",
    "SweepPlanner",
    "estimate_cost_s",
]

#: Node-count guesses per scenario for builders that fix their own
#: topology (the registry's built-ins); unknown scenarios fall back to
#: the testbed size — overestimating keeps big unknown cells early.
_SCENARIO_NODE_COUNTS = {
    "chain": 3,  # the builder's default chain length
    "testbed": 18,
    "random_multiflow": 18,
    "starvation": 3,
}
_DEFAULT_NODE_COUNT = 18


def _node_count(scenario: Mapping[str, Any]) -> int:
    """Best-effort node count of a scenario payload (cost heuristic only).

    A topology payload is sized by its own generator's registration,
    through :class:`TopologySpec` (which supplies the defaults of the
    fields the payload omits).  Deliberately lenient: a payload the spec
    layer rejects — a kind registered in the workers but not in this
    process, say — costs as testbed-sized instead of failing the plan.
    """
    topology = scenario.get("topology")
    if isinstance(topology, Mapping):
        try:
            return TopologySpec.from_dict(topology).node_count()
        except SpecError:
            return _DEFAULT_NODE_COUNT
    return _SCENARIO_NODE_COUNTS.get(
        str(scenario.get("scenario", "")), _DEFAULT_NODE_COUNT
    )


def _flow_count(scenario: Mapping[str, Any]) -> int:
    """Best-effort flow count of a scenario payload (cost heuristic only)."""
    flows = scenario.get("flows")
    if isinstance(flows, Sequence) and len(flows) > 0:
        return len(flows)
    workload = scenario.get("workload")
    if isinstance(workload, Mapping):
        return int(workload.get("num_flows", 4))
    if str(scenario.get("scenario", "")) == "random_multiflow":
        return int(scenario.get("num_flows", 4))
    if str(scenario.get("scenario", "")) == "starvation":
        return 2
    return 1


def _dynamics_factor(scenario: Mapping[str, Any], horizon_s: float) -> float:
    """Cost multiplier for a scenario payload's dynamics axes.

    Position epochs each rebuild the moved rows of the power tables and
    re-fill the cleared reception memo, so cost grows with the
    epoch *count* over the run horizon; churn events are rarer but each
    one quiesces and revives a node.  Static payloads (no ``mobility``,
    no ``churn`` key) return exactly 1.0, leaving historical orderings
    untouched.
    """
    factor = 1.0
    mobility = scenario.get("mobility")
    if isinstance(mobility, Mapping):
        epoch_s = float(mobility.get("epoch_s", 1.0))
        if epoch_s > 0:
            factor += 0.005 * (horizon_s / epoch_s)
    churn = scenario.get("churn")
    if isinstance(churn, Mapping):
        events = float(churn.get("num_events", 1))
        if float(churn.get("down_s", 10.0)) > 0:
            events *= 2  # every failure gets a matching rejoin event
        factor += 0.05 * events
    return factor


def estimate_cost_s(payload: Mapping[str, Any]) -> float:
    """Estimated relative cost of simulating one spec payload.

    Simulated seconds dominate a cell's wall clock: probe warmup (paid
    only when the controller is enabled, mirroring the runner's
    schedule) plus ``cycles x cycle_measure_s``, scaled by the node
    count (more nodes, more events per simulated second), softly by
    the flow count (each flow keeps its own packet stream on the air),
    and by the dynamics factor (position epochs and churn events add
    table-rebuild work on top of the traffic).  The absolute value is
    meaningless; only the ordering it induces matters, and ties fall
    back to submission order so plans stay deterministic.  When a
    measured wall clock exists for the digest, the
    :class:`SweepPlanner` prefers it over this heuristic.
    """
    scenario = payload.get("scenario", {})
    controller = payload.get("controller", {})
    probing = payload.get("probing", {})
    warmup_s = (
        float(probing.get("warmup_s", 0.0))
        if controller.get("enabled", True)
        else 0.0
    )
    measure_s = float(payload.get("cycles", 1)) * float(
        payload.get("cycle_measure_s", 0.0)
    )
    load_factor = 1.0 + 0.25 * max(_flow_count(scenario) - 1, 0)
    dynamics = _dynamics_factor(scenario, warmup_s + measure_s)
    return (warmup_s + measure_s) * max(_node_count(scenario), 1) * load_factor * dynamics


@dataclass(frozen=True)
class PlannedJob:
    """One unique spec the backend must actually execute.

    ``est_cost_s`` is always the static heuristic; ``cost_s`` is what the
    plan actually orders by — the ledger's measured wall clock when the
    cache has one for this digest (``measured=True``), otherwise the
    heuristic rescaled onto the measured jobs' wall-clock scale.
    """

    payload: dict[str, Any]
    indices: tuple[int, ...]  # submission slots this job's result fills
    digest: str
    est_cost_s: float
    label: str = ""
    cost_s: float = 0.0
    measured: bool = False


@dataclass
class PlannerStats:
    """What planning saved: dedup, cache resolution, and ordering.

    All rates are safe on empty sweeps (0.0, never a ZeroDivisionError).
    """

    total: int = 0
    unique: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_used: bool = False
    est_cost_s: float = 0.0
    #: Jobs ordered by a measured wall clock from the cache's cost
    #: ledger rather than the static heuristic.
    measured_jobs: int = 0
    #: Sum of those jobs' *measured* seconds — with ``measured_jobs``,
    #: the honest part of a sweep's predicted wall clock (queue-overhead
    #: benchmarks record both next to their task-rate numbers).
    measured_cost_s: float = 0.0

    @property
    def duplicates(self) -> int:
        """Submission slots resolved by sharing another slot's result."""
        return self.total - self.unique

    @property
    def cache_misses(self) -> int:
        """Slots a cache was consulted for and could not serve — 0 for a
        planned-without-cache sweep, matching ``BatchResult.cache_misses``
        (an uncached sweep *has* no misses, it just wasn't cached)."""
        return self.total - self.cache_hits if self.cache_used else 0

    @property
    def cache_hit_rate(self) -> float:
        """Cache-served slots over all slots; 0.0 for an empty sweep."""
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def dedup_rate(self) -> float:
        """Duplicate slots over all slots; 0.0 for an empty sweep."""
        return self.duplicates / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "total": self.total,
            "unique": self.unique,
            "duplicates": self.duplicates,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "dedup_rate": self.dedup_rate,
            "est_cost_s": self.est_cost_s,
            "measured_jobs": self.measured_jobs,
            "measured_cost_s": self.measured_cost_s,
        }


@dataclass
class SweepPlan:
    """The executable form of one submission.

    ``results`` is pre-filled (in submission order) with every payload
    the cache resolved; ``jobs`` are the remaining unique cells, most
    expensive first.  After the backend ran the jobs, scatter each
    result to ``job.indices`` and the sweep is complete.
    """

    jobs: list[PlannedJob]
    results: list[dict[str, Any] | None]
    stats: PlannerStats = field(default_factory=PlannerStats)

    def scatter(self, job: PlannedJob, payload: dict[str, Any]) -> None:
        """Fill every submission slot ``job`` stands for with ``payload``."""
        for index in job.indices:
            self.results[index] = payload


@dataclass
class SweepPlanner:
    """Plans submissions for the batch runner (see the module docstring).

    Args:
        cache: resolve unique cells against this
            :class:`ResultCache` before execution; ``None`` plans a
            cold sweep (dedup and ordering still apply).
    """

    cache: "ResultCache | None" = None

    def plan(
        self,
        payloads: Sequence[Mapping[str, Any]],
        labels: Sequence[str] | None = None,
    ) -> SweepPlan:
        order: list[str] = []
        payload_of: dict[str, dict[str, Any]] = {}
        label_of: dict[str, str] = {}
        indices: dict[str, list[int]] = {}
        for index, payload in enumerate(payloads):
            digest = (
                self.cache.key(payload)
                if self.cache is not None
                else spec_digest(payload)
            )
            if digest not in indices:
                order.append(digest)
                payload_of[digest] = dict(payload)
                label_of[digest] = labels[index] if labels else ""
                indices[digest] = []
            indices[digest].append(index)

        results: list[dict[str, Any] | None] = [None] * len(payloads)
        stats = PlannerStats(
            total=len(payloads),
            unique=len(order),
            cache_used=self.cache is not None,
        )
        misses: list[tuple[str, float, float | None]] = []
        for digest in order:
            payload = payload_of[digest]
            cached = (
                self.cache.get_payload(payload, digest=digest)
                if self.cache is not None
                else None
            )
            if cached is not None:
                for index in indices[digest]:
                    results[index] = cached
                stats.cache_hits += len(indices[digest])
                continue
            measured = (
                self.cache.measured_cost_s(digest)
                if self.cache is not None
                else None
            )
            misses.append((digest, estimate_cost_s(payload), measured))

        # Learned cost model: jobs the store has run before (ledger costs
        # outlive payload eviction) order by their actual wall clock;
        # never-seen jobs keep the static heuristic, rescaled onto the
        # measured wall-clock scale by the median measured/estimate ratio
        # so mixed plans compare like with like.
        ratios = sorted(
            measured / est for _, est, measured in misses
            if measured is not None and est > 0.0
        )
        scale = ratios[len(ratios) // 2] if ratios else 1.0
        jobs = [
            PlannedJob(
                payload=payload_of[digest],
                indices=tuple(indices[digest]),
                digest=digest,
                est_cost_s=est,
                label=label_of[digest],
                cost_s=measured if measured is not None else est * scale,
                measured=measured is not None,
            )
            for digest, est, measured in misses
        ]
        # Longest-processing-time-first: slowest cells start first.  The
        # (-cost, first-index) key keeps equal-cost jobs in submission
        # order, so plans — and therefore backend dispatch — stay
        # deterministic.
        jobs.sort(key=lambda job: (-job.cost_s, job.indices[0]))
        stats.executed = len(jobs)
        stats.est_cost_s = sum(job.est_cost_s for job in jobs)
        stats.measured_jobs = sum(1 for job in jobs if job.measured)
        stats.measured_cost_s = sum(job.cost_s for job in jobs if job.measured)
        return SweepPlan(jobs=jobs, results=results, stats=stats)
