"""BatchRunner: seed sweeps, parallel/sequential equivalence, reports."""

from __future__ import annotations

import pytest

from repro.experiment.batch import BatchRunner, seed_sweep
from repro.experiment.specs import (
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    ProbingSpec,
    ScenarioSpec,
)

BASE_SPEC = ExperimentSpec(
    scenario=ScenarioSpec(
        scenario="chain",
        seed=1,
        flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
    ),
    probing=ProbingSpec(warmup_s=10.0),
    controller=ControllerSpec(alpha=1.0, probing_window=40),
    cycles=1,
    cycle_measure_s=4.0,
    settle_s=1.0,
    label="batch-smoke",
)


class TestSeedSweep:
    def test_sweep_re_seeds_each_spec(self):
        sweep = seed_sweep(BASE_SPEC, [3, 5, 8])
        assert [s.scenario.seed for s in sweep] == [3, 5, 8]
        assert all(s.scenario.run_seed is None for s in sweep)

    def test_stability_sweep_varies_only_run_seed(self):
        sweep = seed_sweep(BASE_SPEC, [100, 101], vary_topology=False)
        assert [s.scenario.seed for s in sweep] == [1, 1]
        assert [s.scenario.run_seed for s in sweep] == [100, 101]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner([])


class TestExecution:
    @pytest.fixture(scope="class")
    def sweep(self):
        return seed_sweep(BASE_SPEC, range(4))

    @pytest.fixture(scope="class")
    def sequential(self, sweep):
        return BatchRunner(sweep, backend="serial").run()

    def test_results_in_submission_order(self, sweep, sequential):
        assert [r.spec.scenario.seed for r in sequential] == [0, 1, 2, 3]
        assert len(sequential) == len(sweep)
        assert sequential.backend == "serial" and not sequential.parallel

    def test_parallel_matches_sequential_bit_for_bit(self, sweep, sequential):
        parallel = BatchRunner(sweep, backend="process", max_workers=2).run()
        assert parallel.parallel  # the pool genuinely engaged
        assert parallel.backend == "process"
        assert parallel.to_dicts(include_runtime=False) == sequential.to_dicts(
            include_runtime=False
        )

    def test_planner_stats_attached(self, sequential):
        stats = sequential.planner
        assert stats.total == stats.unique == stats.executed == 4
        assert stats.duplicates == 0 and stats.cache_hit_rate == 0.0

    def test_aggregations(self, sequential):
        aggregates = sequential.aggregate_throughputs_bps()
        assert len(aggregates) == 4 and all(a > 0 for a in aggregates)
        assert all(0.0 < j <= 1.0 for j in sequential.jain_indices())

    def test_report_renders_one_row_per_run(self, sequential):
        rendered = sequential.report("sweep").render()
        assert "aggregate kb/s" in rendered
        assert rendered.count("batch-smoke") == 4
