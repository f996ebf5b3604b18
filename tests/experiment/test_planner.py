"""SweepPlanner: dedup, cache resolution, submission order, empty-sweep stats."""

from __future__ import annotations

import repro.experiment
from repro.experiment.batch import BatchResult, seed_sweep
from repro.experiment.cache import ResultCache
from repro.experiment.planner import PlannerStats, SweepPlanner
from repro.experiment.specs import ControllerSpec, ExperimentSpec, FlowSpec, ScenarioSpec


def _spec(seed: int = 0, **kwargs) -> ExperimentSpec:
    kwargs.setdefault("cycles", 1)
    kwargs.setdefault("cycle_measure_s", 1.0)
    kwargs.setdefault("settle_s", 0.2)
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="chain", seed=seed, flows=(FlowSpec("udp", (0, 1, 2)),)
        ),
        controller=ControllerSpec(enabled=False),
        **kwargs,
    )


class TestDedup:
    def test_identical_specs_collapse_to_one_job(self):
        payloads = [_spec(0).to_dict(), _spec(1).to_dict(), _spec(0).to_dict()]
        plan = SweepPlanner().plan(payloads)
        assert plan.stats.total == 3
        assert plan.stats.unique == 2 and plan.stats.duplicates == 1
        assert plan.stats.executed == 2
        by_first_index = sorted(job.indices[0] for job in plan.jobs)
        assert by_first_index == [0, 1]
        duplicate_job = next(job for job in plan.jobs if len(job.indices) == 2)
        assert duplicate_job.indices == (0, 2)

    def test_scatter_fills_every_duplicate_slot(self):
        payloads = [_spec(0).to_dict()] * 3
        plan = SweepPlanner().plan(payloads)
        assert len(plan.jobs) == 1
        plan.scatter(plan.jobs[0], {"answer": 42})
        assert plan.results == [{"answer": 42}] * 3

    def test_distinct_specs_stay_distinct(self):
        payloads = [s.to_dict() for s in seed_sweep(_spec(), range(4))]
        plan = SweepPlanner().plan(payloads)
        assert plan.stats.unique == 4 and plan.stats.duplicates == 0

    def test_uncached_plan_reports_no_cache_misses(self):
        """No cache consulted means no misses — matching BatchResult's
        convention, not `total` phantom misses."""
        stats = SweepPlanner().plan([_spec(0).to_dict()] * 3).stats
        assert not stats.cache_used
        assert stats.cache_hits == 0 and stats.cache_misses == 0


class TestCacheResolution:
    def test_hits_resolve_up_front_and_count_per_slot(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit = _spec(0).to_dict()
        miss = _spec(1).to_dict()
        stored = {"spec": hit, "cached": True}
        cache.put_payload(hit, stored)
        plan = SweepPlanner(cache).plan([hit, miss, hit])
        assert plan.stats.cache_hits == 2  # both duplicate slots
        assert plan.stats.cache_misses == 1
        assert [job.payload for job in plan.jobs] == [miss]
        assert plan.results[0] == stored == plan.results[2]
        assert plan.results[1] is None

    def test_unique_spec_looked_up_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit = _spec(0).to_dict()
        cache.put_payload(hit, {"spec": hit, "cached": True})
        cache.stats.hits = cache.stats.misses = 0
        SweepPlanner(cache).plan([hit] * 5)
        assert cache.stats.lookups == 1


class TestSubmissionOrder:
    """Misses run in submission order (by first slot): the plan holds no
    cost model, so a long cell submitted last is dispatched last."""

    def test_misses_keep_submission_order_whatever_they_cost(self):
        short = _spec(0).to_dict()
        long = _spec(1, cycles=3, cycle_measure_s=5.0).to_dict()
        plan = SweepPlanner().plan([short, long])
        assert [job.indices[0] for job in plan.jobs] == [0, 1]
        plan = SweepPlanner().plan([long, short])
        assert [job.payload for job in plan.jobs] == [long, short]

    def test_equal_cells_keep_submission_order(self):
        payloads = [s.to_dict() for s in seed_sweep(_spec(), range(3))]
        plan = SweepPlanner().plan(payloads)
        assert [job.indices[0] for job in plan.jobs] == [0, 1, 2]
        assert [job.label for job in plan.jobs] == ["", "", ""]  # no labels given

    def test_a_duplicate_is_dispatched_at_its_first_slot(self):
        a, b, c = (_spec(seed).to_dict() for seed in range(3))
        plan = SweepPlanner().plan([a, b, a, c, b], labels=["a", "b", "a2", "c", "b2"])
        assert [job.indices for job in plan.jobs] == [(0, 2), (1, 4), (3,)]
        assert [job.label for job in plan.jobs] == ["a", "b", "c"]

    def test_hits_leave_the_misses_in_submission_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_spec(seed) for seed in range(4)]
        for spec in specs[1::2]:
            cache.put_payload(spec, {"spec": spec.to_dict(), "cached": True})
        plan = SweepPlanner(cache).plan([spec.to_dict() for spec in reversed(specs)])
        assert [job.indices[0] for job in plan.jobs] == [1, 3]
        assert [job.digest for job in plan.jobs] == [
            cache.key(specs[2]), cache.key(specs[0])
        ]

    def test_the_cost_model_is_gone_from_the_api(self):
        assert not hasattr(repro.experiment, "estimate_cost_s")


class TestEmptySweeps:
    """Satellite: no division-by-zero anywhere on empty input."""

    def test_empty_plan(self):
        plan = SweepPlanner().plan([])
        assert plan.jobs == [] and plan.results == []
        assert plan.stats.total == 0
        assert plan.stats.cache_hit_rate == 0.0
        assert plan.stats.dedup_rate == 0.0

    def test_empty_planner_stats(self):
        stats = PlannerStats()
        assert stats.cache_hit_rate == 0.0
        assert stats.dedup_rate == 0.0

    def test_empty_batch_result_hit_rate(self):
        assert BatchResult(results=[]).cache_hit_rate == 0.0
