"""Dynamic scenarios through the experiment stack: spec round-trips and
digests, end-to-end mobility+churn runs, monitor series
riding the cache and batch-backend payload paths byte-identically, and
the planner's dynamics-aware cost ordering."""

from __future__ import annotations

import json
from contextlib import closing

import pytest

import repro.engine
from repro.experiment.batch import BatchRunner, backend_names
from repro.experiment.cache import ResultCache
from repro.experiment.registry import build_scenario
from repro.experiment.runner import ExperimentResult, run_experiment
from repro.experiment.specs import (
    ChurnSpec,
    ControllerSpec,
    ExperimentSpec,
    MobilitySpec,
    ProbingSpec,
    SPEC_SCHEMA_VERSION,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    spec_digest,
)


def _dynamic_spec(seed: int = 3, monitors: tuple[str, ...] = ()) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="generated",
            seed=seed,
            # Six nodes: two flows leave at least two relays to churn.
            topology=TopologySpec(kind="grid", rows=2, cols=3, spacing_m=60.0),
            workload=WorkloadSpec(
                generator="mixed_tcp_udp", num_flows=2, max_hops=2, tcp_fraction=0.0
            ),
            rate_mode="11",
            mobility=MobilitySpec(model="drift", epoch_s=0.5, drift_sigma_m=4.0),
            churn=ChurnSpec(num_events=1, start_s=0.5, end_s=1.5, down_s=0.5),
        ),
        controller=ControllerSpec(enabled=False),
        probing=ProbingSpec(warmup_s=1.0),
        cycles=1,
        cycle_measure_s=2.0,
        settle_s=0.2,
        monitors=monitors,
        monitor_interval_s=0.5,
        label="dynamics-smoke",
    )


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestSpecLayer:
    def test_schema_version_is_8(self):
        assert SPEC_SCHEMA_VERSION == 8

    def test_mobility_round_trip(self):
        spec = MobilitySpec(model="drift", epoch_s=0.25, drift_sigma_m=4.0)
        assert MobilitySpec.from_dict(spec.to_dict()) == spec
        assert "model" not in spec.params()
        assert spec.params()["drift_sigma_m"] == 4.0

    def test_churn_round_trip(self):
        spec = ChurnSpec(num_events=2, start_s=1.0, end_s=9.0, down_s=0.0)
        assert ChurnSpec.from_dict(spec.to_dict()) == spec

    def test_experiment_spec_round_trip(self):
        spec = _dynamic_spec(monitors=("pdr", "throughput"))
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert spec_digest(rebuilt) == spec_digest(spec)

    def test_dynamics_axes_change_the_digest(self):
        base = _dynamic_spec()
        static = ExperimentSpec.from_dict(
            {**base.to_dict(), "scenario": {**base.scenario.to_dict(), "mobility": None, "churn": None}}
        )
        no_churn = ExperimentSpec.from_dict(
            {**base.to_dict(), "scenario": {**base.scenario.to_dict(), "churn": None}}
        )
        digests = {spec_digest(base), spec_digest(static), spec_digest(no_churn)}
        assert len(digests) == 3

    def test_monitors_change_the_digest(self):
        assert spec_digest(_dynamic_spec(monitors=("pdr",))) != spec_digest(_dynamic_spec())

    def test_mobility_requires_generated_scenario(self):
        with pytest.raises(SpecError):
            ScenarioSpec(scenario="chain", mobility=MobilitySpec())
        with pytest.raises(SpecError):
            ScenarioSpec(scenario="starvation", churn=ChurnSpec())

    def test_unknown_mobility_model_rejected(self):
        with pytest.raises(SpecError):
            MobilitySpec(model="teleport")

    def test_monitor_validation(self):
        with pytest.raises(SpecError):
            ExperimentSpec(scenario=ScenarioSpec(), monitors=("nonsense",))
        with pytest.raises(SpecError):
            ExperimentSpec(scenario=ScenarioSpec(), monitors=("pdr", "pdr"))
        with pytest.raises(SpecError):
            ExperimentSpec(
                scenario=ScenarioSpec(), monitors=("pdr",), monitor_interval_s=0.0
            )

    def test_describe_names_the_dynamics(self):
        described = _dynamic_spec().scenario.describe()
        assert "drift mobility" in described
        assert "churn" in described


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return run_experiment(
            _dynamic_spec(monitors=("pdr", "throughput")),
            keep_decisions=False,
            cache=False,
        )

    def test_dynamics_counters_land_in_meta(self, result):
        dynamics = result.meta["dynamics"]
        assert dynamics["mobility_model"] == "drift"
        assert dynamics["epochs_applied"] > 0
        assert dynamics["fails_applied"] == 1
        assert dynamics["joins_applied"] == 1
        assert dynamics["churn_schedule"]

    def test_monitor_series_are_emitted(self, result):
        assert set(result.monitors) == {"pdr", "throughput"}
        for series_list in result.monitors.values():
            assert [s.flow_id for s in series_list] == sorted(result.flow_ids)
            for series in series_list:
                assert len(series.times) == len(series.values) > 0
                assert series.times == tuple(sorted(series.times))

    def test_pdr_values_are_finite_and_non_negative(self, result):
        # A window's ratio can exceed 1.0 when a prior window's queue
        # backlog drains into it; it must never go negative or blow up.
        for series in result.monitors["pdr"]:
            assert all(v >= 0.0 for v in series.values)
            assert all(v < 100.0 for v in series.values)

    def test_payload_round_trip_is_exact(self, result):
        payload = result.to_dict(include_runtime=False)
        rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(payload)))
        assert _canonical(rebuilt.to_dict(include_runtime=False)) == _canonical(payload)

    def test_cache_round_trip_is_byte_identical(self, result, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(result)
        cached = cache.get(result.spec)
        assert cached is not None
        assert _canonical(cached.to_dict(include_runtime=False)) == _canonical(
            result.to_dict(include_runtime=False)
        )

    def test_rerun_is_deterministic(self, result):
        again = run_experiment(
            _dynamic_spec(monitors=("pdr", "throughput")),
            keep_decisions=False,
            cache=False,
        )
        assert _canonical(again.to_dict(include_runtime=False)) == _canonical(
            result.to_dict(include_runtime=False)
        )


class TestSchedulerIdentity:
    def test_both_schedulers_agree_on_dynamic_payloads(self, monkeypatch):
        payloads = {}
        for kind in ("calendar", "heap"):
            monkeypatch.setattr(repro.engine, "DEFAULT_SCHEDULER", kind)
            result = run_experiment(
                _dynamic_spec(monitors=("pdr", "throughput")),
                keep_decisions=False,
                cache=False,
            )
            payloads[kind] = _canonical(result.to_dict(include_runtime=False))
        assert payloads["calendar"] == payloads["heap"]


class TestCrossBackendByteIdentityDynamics:
    @pytest.fixture(scope="class")
    def sweep_and_reference(self):
        sweep = [_dynamic_spec(seed, monitors=("pdr", "throughput")) for seed in (3, 4)]
        reference = BatchRunner(sweep, backend="serial").run()
        return sweep, _canonical(reference.to_dicts(include_runtime=False))

    @pytest.mark.parametrize("backend", backend_names())
    def test_dynamic_sweep_matches_serial_reference(self, backend, sweep_and_reference):
        sweep, reference = sweep_and_reference
        batch = BatchRunner(sweep, backend=backend, max_workers=2).run()
        assert batch.backend == backend
        assert _canonical(batch.to_dicts(include_runtime=False)) == reference


class TestMobileFigure14Cell:
    def test_the_mobile_cell_builds_with_both_dynamics(self):
        """The dynamic variant of the Figure 14 cell (a 3x3 grid under
        drift mobility, one churn cycle inside the measured window of
        a 45 s warm-up + 12 s cycle): a valid spec whose scenario carries
        a trajectory and a fail/rejoin pair."""
        spec = ExperimentSpec(
            scenario=ScenarioSpec(
                scenario="generated",
                seed=7,
                run_seed=1000,
                rate_mode="11",
                topology=TopologySpec(kind="grid", rows=3, cols=3, spacing_m=60.0),
                workload=WorkloadSpec(generator="mixed_tcp_udp", num_flows=3, max_hops=3),
                mobility=MobilitySpec(model="drift", epoch_s=1.0),
                churn=ChurnSpec(num_events=1, start_s=50.0, end_s=55.0, down_s=5.0),
            ),
            probing=ProbingSpec(warmup_s=45.0),
            controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
            cycles=1,
            cycle_measure_s=12.0,
            settle_s=2.0,
        )
        assert spec.scenario.mobility is not None
        assert spec.scenario.churn is not None
        with closing(build_scenario(spec.scenario)) as scenario:
            dynamics = scenario.meta["dynamics"]
        assert dynamics["mobility_model"] == "drift"
        (fail_s, node, _), (join_s, rejoined, _) = dynamics["churn_schedule"]
        assert 50.0 <= fail_s <= 55.0 and join_s == fail_s + 5.0 and rejoined == node
