"""Content-addressed result cache: keys, storage, eviction, wiring."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiment import (
    SPEC_SCHEMA_VERSION,
    BatchRunner,
    ControllerSpec,
    CycleResult,
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    FlowSpec,
    ProbingSpec,
    ResultCache,
    ScenarioSpec,
    default_cache,
    resolve_cache,
    seed_sweep,
    spec_digest,
)

SPEC = ExperimentSpec(
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
    label="cache-smoke",
)


def synthetic_result(spec: ExperimentSpec = SPEC) -> ExperimentResult:
    """A hand-built result, so storage tests need no simulation."""
    return ExperimentResult(
        spec=spec,
        flow_ids=[0, 1],
        flow_paths={0: (0, 1, 2), 1: (1, 2)},
        cycles=[
            CycleResult(
                index=0,
                sim_start=12.0,
                sim_end=14.0,
                target_bps={0: 250_000.0, 1: 500_000.0},
                achieved_bps={0: 240_000.0, 1: 480_000.0},
                utility=25.5,
            )
        ],
        sim_time_s=14.0,
        wall_time_s=0.25,
        events_processed=1234,
        meta={"note": "synthetic"},
    )


class TestSpecDigest:
    def test_digest_is_stable_hex(self):
        digest = spec_digest(SPEC)
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert spec_digest(SPEC) == digest

    def test_dict_and_spec_agree(self):
        assert spec_digest(SPEC.to_dict()) == spec_digest(SPEC)

    def test_key_order_irrelevant(self):
        payload = SPEC.to_dict()
        reordered = json.loads(json.dumps(payload, sort_keys=True))
        shuffled = dict(reversed(list(reordered.items())))
        assert spec_digest(shuffled) == spec_digest(payload)

    def test_distinct_specs_distinct_digests(self):
        assert spec_digest(SPEC) != spec_digest(SPEC.with_seed(2))

    def test_schema_version_changes_key(self):
        assert spec_digest(SPEC) != spec_digest(
            SPEC, schema_version=SPEC_SCHEMA_VERSION + 1
        )

    def test_digest_stable_across_processes(self):
        """The cache key must not depend on per-process hash randomization."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import json\n"
            "from repro.experiment import ExperimentSpec, spec_digest\n"
            "spec = ExperimentSpec.from_dict(json.loads(sys.argv[2]))\n"
            "print(spec_digest(spec))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = {
            subprocess.run(
                [sys.executable, "-c", script, src, json.dumps(SPEC.to_dict())],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert digests == {spec_digest(SPEC)}


class TestResultRoundTrip:
    def test_round_trip_is_lossless(self):
        result = synthetic_result()
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.spec == result.spec
        assert clone.flow_paths == result.flow_paths
        assert clone.cycles[0].achieved_bps == result.cycles[0].achieved_bps
        assert clone.meta == result.meta

    def test_round_trip_survives_json(self):
        result = synthetic_result()
        over_the_wire = json.loads(json.dumps(result.to_dict()))
        assert ExperimentResult.from_dict(over_the_wire).to_dict() == result.to_dict()

    def test_runtime_block_optional(self):
        data = synthetic_result().to_dict(include_runtime=False)
        assert "runtime" not in data
        clone = ExperimentResult.from_dict(data)
        assert clone.wall_time_s == 0.0 and clone.events_processed == 0


class TestResultCacheStorage:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(SPEC) is None
        cache.put(synthetic_result())
        fetched = cache.get(SPEC)
        assert fetched is not None
        assert fetched.to_dict() == synthetic_result().to_dict()
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.puts == 1 and cache.stats.hit_rate == 0.5

    def test_contains_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert SPEC not in cache and len(cache) == 0
        cache.put(synthetic_result())
        assert SPEC in cache and SPEC.to_dict() in cache and len(cache) == 1
        assert SPEC.with_seed(9) not in cache

    def test_payloads_survive_a_new_handle(self, tmp_path):
        ResultCache(tmp_path).put(synthetic_result())
        reopened = ResultCache(tmp_path)
        assert reopened.get(SPEC).to_dict() == synthetic_result().to_dict()

    @pytest.mark.parametrize(
        "garbage",
        [
            "{not json",
            "[]",
            '"a string"',
            '{"entries": [1, 2]}',
            '{"entries": {"ab12": 5}}',
            '{"entries": {"ab12": {"seq": "x"}}}',
        ],
        ids=[
            "invalid-json",
            "json-list",
            "json-string",
            "non-dict-entries",
            "non-dict-entry-value",
            "non-numeric-seq",
        ],
    )
    def test_index_rebuilds_after_corruption(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        cache.put(synthetic_result())
        (tmp_path / "index.json").write_text(garbage, encoding="utf-8")
        reopened = ResultCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(SPEC) is not None

    def test_warm_lookups_do_not_rewrite_the_index(self, tmp_path):
        """A warm sweep must cost JSON reads only: LRU touches are kept
        in memory and persisted with the next put/eviction."""
        cache = ResultCache(tmp_path)
        cache.put(synthetic_result())
        index_file = tmp_path / "index.json"
        before = index_file.stat().st_mtime_ns
        for _ in range(3):
            assert cache.get(SPEC) is not None
        assert index_file.stat().st_mtime_ns == before

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = cache.put(synthetic_result())
        payload_file = tmp_path / digest[:2] / f"{digest}.json"
        payload_file.write_text("garbage", encoding="utf-8")
        assert cache.get(SPEC) is None
        assert SPEC not in cache  # stale entry dropped

    def test_eviction_by_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        specs = [SPEC.with_seed(seed) for seed in (1, 2, 3)]
        for spec in specs:
            cache.put(synthetic_result(spec))
        assert len(cache) == 2 and cache.stats.evictions == 1
        assert specs[0] not in cache  # oldest entry went first
        assert specs[1] in cache and specs[2] in cache

    def test_eviction_is_lru_not_fifo(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        old, young = SPEC.with_seed(1), SPEC.with_seed(2)
        cache.put(synthetic_result(old))
        cache.put(synthetic_result(young))
        assert cache.get(old) is not None  # refresh the older entry
        cache.put(synthetic_result(SPEC.with_seed(3)))
        assert old in cache and young not in cache

    def test_eviction_by_size(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        cache.put(synthetic_result(SPEC.with_seed(1)))
        cache.put(synthetic_result(SPEC.with_seed(2)))
        # Every put overflows a 1-byte cache: only the newest entry stays.
        assert len(cache) == 1 and cache.stats.evictions >= 1

    def test_stale_handle_write_preserves_other_writers_entries(self, tmp_path):
        """An index write from a handle with an old snapshot must re-adopt
        entries another handle added meanwhile, not orphan their payloads."""
        stale = ResultCache(tmp_path)
        assert len(stale) == 0  # pin the stale snapshot
        other = ResultCache(tmp_path)
        other.put(synthetic_result(SPEC.with_seed(1)))
        stale.put(synthetic_result(SPEC.with_seed(2)))
        fresh = ResultCache(tmp_path)
        assert SPEC.with_seed(1) in fresh and SPEC.with_seed(2) in fresh
        assert fresh.get(SPEC.with_seed(1)) is not None

    def test_index_merge_respects_bounds(self, tmp_path):
        """Entries adopted from another writer during the index merge
        count against this handle's bounds — the directory must not
        exceed max_entries just because two handles wrote concurrently."""
        stale = ResultCache(tmp_path, max_entries=2)
        assert len(stale) == 0  # pin the stale snapshot
        other = ResultCache(tmp_path, max_entries=2)
        for seed in (1, 2):
            other.put(synthetic_result(SPEC.with_seed(seed)))
        for seed in (3, 4):
            stale.put(synthetic_result(SPEC.with_seed(seed)))
        assert len(ResultCache(tmp_path, max_entries=2)) <= 2

    def test_deferred_puts_flush_once(self, tmp_path):
        """Bulk writers (the batch runner's cold-sweep writeback) defer
        the index write per put and persist it with one flush."""
        cache = ResultCache(tmp_path)
        for seed in (1, 2, 3):
            cache.put_payload(
                SPEC.with_seed(seed),
                synthetic_result(SPEC.with_seed(seed)).to_dict(),
                flush=False,
            )
        assert not (tmp_path / "index.json").exists()  # nothing flushed yet
        # Unflushed puts are still visible through this handle...
        assert SPEC.with_seed(1) in cache
        cache.flush()
        # ...and through a fresh handle once flushed.
        reopened = ResultCache(tmp_path)
        assert all(SPEC.with_seed(s) in reopened for s in (1, 2, 3))

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(synthetic_result())
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.get(SPEC) is None

    def test_bad_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)


class TestDefaultCacheResolution:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache().cache_dir == tmp_path / "env-cache"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache().cache_dir == tmp_path / "repro-mesh"

    def test_resolve_none_without_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None

    def test_resolve_none_with_env_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = resolve_cache(None)
        assert isinstance(cache, ResultCache) and cache.cache_dir == tmp_path

    def test_env_handle_is_shared_per_process(self, tmp_path, monkeypatch):
        """Looping run_experiment under REPRO_CACHE_DIR must reuse one
        handle (one index parse), not rebuild a cache per call."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        first = resolve_cache(None)
        assert resolve_cache(None) is first
        assert resolve_cache(True) is first  # cache=True shares the handle
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        switched = resolve_cache(None)
        assert switched is not first and switched.cache_dir == tmp_path / "b"

    def test_size_accounting_is_bytes_not_characters(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = synthetic_result()
        result.meta["author"] = "Guérin — CoNEXT"  # multi-byte UTF-8
        digest = cache.put(result)
        on_disk = (tmp_path / digest[:2] / f"{digest}.json").stat().st_size
        assert cache.size_bytes == on_disk

    def test_resolve_false_always_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache(False) is None

    def test_resolve_passthrough(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache


class TestExperimentIntegration:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("exp-cache"))
        result = Experiment(SPEC, keep_decisions=False).run(cache=cache)
        return cache, result

    def test_cold_run_writes_back(self, cold):
        cache, _ = cold
        assert SPEC in cache and cache.stats.puts == 1

    def test_warm_run_is_bit_identical(self, cold):
        cache, result = cold
        warm = Experiment(SPEC, keep_decisions=False).run(cache=cache)
        assert cache.stats.hits >= 1
        assert warm.to_dict() == result.to_dict()

    def test_prebuilt_scenario_bypasses_cache_entirely(self, tmp_path):
        """A caller-built scenario may diverge from the spec, so neither
        lookups nor writebacks may touch the content-addressed store."""
        cache = ResultCache(tmp_path)
        experiment = Experiment(SPEC, keep_decisions=False)
        experiment.run(experiment.build(), cache=cache)
        assert len(cache) == 0
        assert cache.stats.lookups == 0 and cache.stats.puts == 0

    def test_keep_decisions_skips_lookup_and_preserves_entry(self, cold):
        cache, result = cold
        hits_before, puts_before = cache.stats.hits, cache.stats.puts
        stored_before = cache.get_payload(SPEC)
        kept = Experiment(SPEC, keep_decisions=True).run(cache=cache)
        assert cache.stats.hits == hits_before + 1  # our own get_payload above
        assert cache.stats.puts == puts_before  # digest present: no overwrite
        assert kept.final_cycle.decision is not None
        assert kept.to_dict(include_runtime=False) == result.to_dict(
            include_runtime=False
        )
        # The original payload — runtime block included — survives re-runs.
        assert cache.get_payload(SPEC) == stored_before

    def test_keep_decisions_run_seeds_an_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        kept = Experiment(SPEC, keep_decisions=True).run(cache=cache)
        assert cache.stats.puts == 1 and SPEC in cache
        warm = Experiment(SPEC, keep_decisions=False).run(cache=cache)
        assert warm.to_dict() == kept.to_dict()


class TestBatchIntegration:
    @pytest.fixture(scope="class")
    def sweep(self):
        return seed_sweep(SPEC, range(3))

    @pytest.fixture(scope="class")
    def cache_and_cold(self, tmp_path_factory, sweep):
        cache = ResultCache(tmp_path_factory.mktemp("batch-cache"))
        cold = BatchRunner(sweep, backend="serial", cache=cache).run()
        return cache, cold

    def test_cold_sweep_counts_misses(self, cache_and_cold, sweep):
        cache, cold = cache_and_cold
        assert cold.cache_hits == 0 and cold.cache_misses == len(sweep)
        assert cold.cache_hit_rate == 0.0
        assert len(cache) == len(sweep)

    def test_warm_sweep_bit_identical_and_poolless(self, cache_and_cold, sweep):
        cache, cold = cache_and_cold
        warm = BatchRunner(sweep, max_workers=2, cache=cache).run()
        assert warm.cache_hits == len(sweep) and warm.cache_misses == 0
        assert warm.cache_hit_rate == 1.0
        assert not warm.parallel  # zero workers spawned on a fully warm sweep
        assert warm.to_dicts(include_runtime=True) == cold.to_dicts(
            include_runtime=True
        )

    def test_partially_warm_sweep_runs_only_misses(self, cache_and_cold, sweep):
        cache, cold = cache_and_cold
        extended = sweep + seed_sweep(SPEC, [7])
        mixed = BatchRunner(extended, backend="serial", cache=cache).run()
        assert mixed.cache_hits == len(sweep) and mixed.cache_misses == 1
        assert mixed.to_dicts(include_runtime=True)[: len(sweep)] == cold.to_dicts(
            include_runtime=True
        )

    def test_report_mentions_cache_hits(self, cache_and_cold, sweep):
        cache, _ = cache_and_cold
        warm = BatchRunner(sweep, backend="serial", cache=cache).run()
        assert "from cache" in warm.report("warm").render()

    def test_uncached_sweep_reports_zero(self, sweep):
        result = BatchRunner(sweep[:1], backend="serial", cache=False).run()
        assert result.cache_hits == 0 and result.cache_misses == 0
        assert "from cache" not in result.report().render()


class TestMeasuredCostLedger:
    """Per-digest wall clocks recorded on writeback (the planner's
    learned cost model) — they must outlive the payloads themselves."""

    def _payload(self, wall_s: float) -> dict:
        return {"cycles": [], "runtime": {"wall_time_s": wall_s}}

    def test_put_records_the_payloads_wall_clock(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = {"label": "cost-probe"}
        assert cache.measured_cost_s(spec) is None
        cache.put_payload(spec, self._payload(2.5))
        assert cache.measured_cost_s(spec) == 2.5
        assert cache.measured_cost_s(cache.key(spec)) == 2.5  # digest form

    def test_cost_survives_eviction_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        first, second = {"label": "a"}, {"label": "b"}
        cache.put_payload(first, self._payload(1.5))
        cache.put_payload(second, self._payload(2.5))  # evicts `first`
        assert cache.get_payload(first) is None  # payload gone...
        assert cache.measured_cost_s(first) == 1.5  # ...cost remembered
        cache.clear()
        assert cache.measured_cost_s(second) == 2.5

    def test_cost_persists_to_a_fresh_handle(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = {"label": "persisted"}
        cache.put_payload(spec, self._payload(3.25))
        assert ResultCache(tmp_path).measured_cost_s(spec) == 3.25

    def test_runtime_free_payloads_record_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = {"label": "no-runtime"}
        cache.put_payload(spec, {"cycles": []})
        assert cache.measured_cost_s(spec) is None
        assert cache.cost_ledger_size == 0

    def test_malformed_ledger_is_dropped_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = {"label": "x"}
        cache.put_payload(spec, self._payload(1.0))
        index_file = tmp_path / "index.json"
        data = json.loads(index_file.read_text(encoding="utf-8"))
        data["costs"] = {"deadbeef": "not-a-number", "cafe": -3, "feed": 2.0}
        index_file.write_text(json.dumps(data), encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.measured_cost_s("feed") == 2.0
        assert fresh.measured_cost_s("deadbeef") is None
        assert fresh.measured_cost_s("cafe") is None

    def test_concurrent_writers_merge_their_ledgers(self, tmp_path):
        stale = ResultCache(tmp_path)
        stale.put_payload({"label": "mine"}, self._payload(1.0))
        other = ResultCache(tmp_path)
        other.put_payload({"label": "theirs"}, self._payload(2.0))
        # The stale handle flushes last; the other writer's cost must
        # survive the read-merge-write.
        stale.put_payload({"label": "mine-2"}, self._payload(3.0))
        fresh = ResultCache(tmp_path)
        assert fresh.measured_cost_s({"label": "theirs"}) == 2.0
        assert fresh.measured_cost_s({"label": "mine"}) == 1.0

    def test_non_finite_costs_are_rejected(self, tmp_path):
        """json round-trips bare Infinity; one inf cost would blow up
        the planner's calibration ratio, so the ledger must drop it."""
        cache = ResultCache(tmp_path)
        cache.put_payload({"label": "inf"}, self._payload(float("inf")))
        assert cache.measured_cost_s({"label": "inf"}) is None
        cache.put_payload({"label": "ok"}, self._payload(1.0))
        index_file = tmp_path / "index.json"
        text = index_file.read_text(encoding="utf-8")
        data = json.loads(text)
        data["costs"]["deadbeef"] = float("inf")  # json dumps as Infinity
        index_file.write_text(json.dumps(data), encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.measured_cost_s("deadbeef") is None
        assert fresh.measured_cost_s({"label": "ok"}) == 1.0
