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

The remaining jobs keep submission order (by first slot): the plan
carries no cost model.

Planning is pure bookkeeping: results are scattered back to submission
order afterwards, so the plan can never change *what* a sweep returns —
only how little work it takes to return it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.experiment.specs import spec_digest

if TYPE_CHECKING:
    from repro.experiment.cache import ResultCache

__all__ = [
    "PlannedJob",
    "PlannerStats",
    "SweepPlan",
    "SweepPlanner",
]


@dataclass(frozen=True)
class PlannedJob:
    """One unique spec the backend must actually execute."""

    payload: dict[str, Any]
    indices: tuple[int, ...]  # submission slots this job's result fills
    digest: str
    label: str = ""


@dataclass
class PlannerStats:
    """What planning saved: dedup and cache resolution.

    All rates are safe on empty sweeps (0.0, never a ZeroDivisionError).
    """

    total: int = 0
    unique: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_used: bool = False

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


@dataclass
class SweepPlan:
    """The executable form of one submission.

    ``results`` is pre-filled (in submission order) with every payload
    the cache resolved; ``jobs`` are the remaining unique cells, in
    submission order.  After the backend ran the jobs, scatter each
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
            cold sweep (dedup still applies).
    """

    cache: "ResultCache | None" = None

    def plan(
        self,
        payloads: Sequence[Mapping[str, Any]],
        labels: Sequence[str] | None = None,
    ) -> SweepPlan:
        key = self.cache.key if self.cache is not None else spec_digest
        first: dict[str, int] = {}
        indices: dict[str, list[int]] = {}
        for index, payload in enumerate(payloads):
            digest = key(payload)
            first.setdefault(digest, index)
            indices.setdefault(digest, []).append(index)

        results: list[dict[str, Any] | None] = [None] * len(payloads)
        stats = PlannerStats(
            total=len(payloads), unique=len(first), cache_used=self.cache is not None
        )
        jobs: list[PlannedJob] = []
        for digest, index in first.items():
            cached = (
                self.cache.get_payload(payloads[index], digest=digest)
                if self.cache is not None
                else None
            )
            if cached is not None:
                for slot in indices[digest]:
                    results[slot] = cached
                stats.cache_hits += len(indices[digest])
                continue
            jobs.append(
                PlannedJob(
                    payload=dict(payloads[index]),
                    indices=tuple(indices[digest]),
                    digest=digest,
                    label=labels[index] if labels else "",
                )
            )
        stats.executed = len(jobs)
        return SweepPlan(jobs=jobs, results=results, stats=stats)
