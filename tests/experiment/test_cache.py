"""Content-addressed result cache: keys, storage, wiring."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiment.batch import BatchRunner, seed_sweep
from repro.experiment.cache import ResultCache, default_cache, resolve_cache
from repro.experiment.runner import CycleResult, Experiment, ExperimentResult
from repro.experiment.specs import (
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    ProbingSpec,
    SPEC_SCHEMA_VERSION,
    ScenarioSpec,
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
            "from repro.experiment.specs import ExperimentSpec, spec_digest\n"
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
        assert SPEC.with_seed(9) not in cache and 5 not in cache

    def test_payloads_survive_a_new_handle(self, tmp_path):
        ResultCache(tmp_path).put(synthetic_result())
        reopened = ResultCache(tmp_path)
        assert reopened.get(SPEC).to_dict() == synthetic_result().to_dict()

    def test_lookups_write_nothing(self, tmp_path):
        """A warm sweep costs file reads only: hits and misses leave the
        directory exactly as they found it."""
        cache = ResultCache(tmp_path)
        cache.put(synthetic_result())

        def snapshot():
            return sorted(
                (path.relative_to(tmp_path).as_posix(), path.stat().st_mtime_ns)
                for path in tmp_path.rglob("*")
            )

        before = snapshot()
        for _ in range(3):
            assert cache.get(SPEC) is not None
            assert cache.get(SPEC.with_seed(9)) is None
        assert snapshot() == before

    @pytest.mark.parametrize(
        "stored",
        ["garbage", "[]", '"a string"', '{"cycles": []}', '{"spec": 5}'],
        ids=["invalid-json", "json-list", "json-string", "no-spec", "non-dict-spec"],
    )
    def test_corrupt_payload_is_a_miss(self, tmp_path, stored):
        cache = ResultCache(tmp_path)
        digest = cache.put(synthetic_result())
        payload_file = tmp_path / digest[:2] / f"{digest}.json"
        payload_file.write_text(stored, encoding="utf-8")
        assert cache.get(SPEC) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert SPEC not in cache and len(cache) == 0  # the file was unlinked

    def test_a_payload_stored_under_another_specs_name_is_not_served(self, tmp_path):
        """The file name is a claim the payload's own ``spec`` must back:
        a seed-1 result put under the seed-2 key is never served for
        seed 2, and the misfiled copy is unlinked."""
        seed1, seed2 = SPEC.with_seed(1), SPEC.with_seed(2)
        cache = ResultCache(tmp_path)
        cache.put_payload(seed2, synthetic_result(seed1).to_dict())
        assert cache.get(seed2) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert seed2 not in cache and len(cache) == 0

    def test_stale_handle_write_preserves_other_writers_entries(self, tmp_path):
        """A write from a handle opened earlier must not hide entries
        another handle added meanwhile."""
        stale = ResultCache(tmp_path)
        assert len(stale) == 0  # pin the stale snapshot
        other = ResultCache(tmp_path)
        other.put(synthetic_result(SPEC.with_seed(1)))
        stale.put(synthetic_result(SPEC.with_seed(2)))
        fresh = ResultCache(tmp_path)
        assert SPEC.with_seed(1) in fresh and SPEC.with_seed(2) in fresh
        assert fresh.get(SPEC.with_seed(1)) is not None

    def test_a_handle_sees_what_another_handle_put_after_it_was_opened(self, tmp_path):
        early = ResultCache(tmp_path)
        assert SPEC not in early and early.get(SPEC) is None  # used before the put
        ResultCache(tmp_path).put(synthetic_result())
        assert SPEC in early
        assert early.get(SPEC).to_dict() == synthetic_result().to_dict()

    def test_an_unflushed_put_is_a_hit_for_a_fresh_handle(self, tmp_path):
        """The ``--cache-dir`` worker path: one put flushed, the next not
        (and never flushed) — a fresh handle serves both."""
        writer = ResultCache(tmp_path)
        first, second = SPEC.with_seed(1), SPEC.with_seed(2)
        writer.put_payload(first, synthetic_result(first).to_dict())
        writer.put_payload(second, synthetic_result(second).to_dict(), flush=False)
        fresh = ResultCache(tmp_path)
        assert second in fresh
        assert fresh.get(second).to_dict() == synthetic_result(second).to_dict()
        assert fresh.get(first) is not None and fresh.stats.hits == 2

    @pytest.mark.parametrize(
        "index",
        [
            None,  # as the parent wrote it: the third put still unflushed
            "{not json",
            '{"entries": {"ab12": {"seq": "x"}}}',
        ],
        ids=["as-written", "invalid-json", "malformed-entry"],
    )
    def test_a_store_in_the_parent_layout_serves_every_entry(self, tmp_path, index):
        """Stores written before the index was dropped hold the same
        payload files plus an ``index.json``; whatever that file says,
        every payload is served and the file itself is not an entry."""
        specs = [SPEC.with_seed(seed) for seed in (1, 2, 3)]
        digests = [spec_digest(spec) for spec in specs]
        for spec, digest in zip(specs, digests):
            (tmp_path / digest[:2]).mkdir(exist_ok=True)
            (tmp_path / digest[:2] / f"{digest}.json").write_text(
                json.dumps(synthetic_result(spec).to_dict(), sort_keys=True),
                encoding="utf-8",
            )
        if index is None:
            index = json.dumps(
                {
                    "schema": SPEC_SCHEMA_VERSION,
                    "entries": {
                        digest: {"size": 1, "label": "", "seq": seq}
                        for seq, digest in enumerate(digests[:2], 1)
                    },
                    "costs": {digests[0]: 0.25},
                },
                indent=0,
            )
        (tmp_path / "index.json").write_text(index, encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert len(cache) == 3
        for spec in specs:
            assert spec in cache
            assert cache.get(spec).to_dict() == synthetic_result(spec).to_dict()
        assert cache.stats.hits == 3 and cache.clear() == 3

    @pytest.mark.parametrize("precomputed", [False, True], ids=["keyed-here", "digests-given"])
    def test_put_payloads_stores_each_under_its_digest(self, tmp_path, precomputed):
        specs = [SPEC.with_seed(seed) for seed in (1, 2, 3)]
        cache = ResultCache(tmp_path)
        items = [(spec.to_dict(), synthetic_result(spec).to_dict(), "") for spec in specs]
        digests = [cache.key(spec) for spec in specs]
        stored = cache.put_payloads(items, digests=iter(digests) if precomputed else None)
        assert stored == digests and cache.stats.puts == 3
        fresh = ResultCache(tmp_path)
        assert [fresh.get(spec).to_dict() for spec in specs] == [
            synthetic_result(spec).to_dict() for spec in specs
        ]

    def test_an_interrupted_write_is_not_an_entry(self, tmp_path):
        """A writer killed mid-write leaves only its unique temp file,
        which is neither counted nor served."""
        cache = ResultCache(tmp_path)
        digest = cache.key(SPEC)
        (tmp_path / digest[:2]).mkdir()
        (tmp_path / digest[:2] / f"{digest}.json.k3x9.tmp").write_text(
            json.dumps(synthetic_result().to_dict())[:40], encoding="utf-8"
        )
        assert len(cache) == 0 and SPEC not in cache and cache.get(SPEC) is None
        cache.put(synthetic_result())
        assert len(cache) == 1 and cache.get(SPEC) is not None

    def test_a_missing_directory_is_an_empty_store(self, tmp_path):
        cache = ResultCache(tmp_path / "not-yet")
        assert len(cache) == 0 and SPEC not in cache
        assert cache.get(SPEC) is None and cache.clear() == 0
        cache.flush()
        assert not (tmp_path / "not-yet").exists()  # only a put creates it

    def test_a_schema_version_is_its_own_namespace(self, tmp_path):
        mine = ResultCache(tmp_path, schema_version=SPEC_SCHEMA_VERSION + 100)
        mine.put(synthetic_result())
        assert mine.get(SPEC) is not None
        library = ResultCache(tmp_path)
        assert SPEC not in library and library.get(SPEC) is None
        assert len(library) == 1  # a miss under another key unlinks nothing

    def test_processes_writing_one_store_concurrently(self, tmp_path):
        """Two processes put overlapping digests into one directory at
        once: every entry is served whole and no temp file is left."""
        script = (
            "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from test_cache import SPEC, synthetic_result\n"
            "from repro.experiment.cache import ResultCache\n"
            "cache = ResultCache(sys.argv[3])\n"
            "for seed in range(int(sys.argv[4]), int(sys.argv[4]) + 30):\n"
            "    for _ in range(3):\n"
            "        cache.put(synthetic_result(SPEC.with_seed(seed)))\n"
        )
        here = Path(__file__).resolve()
        src, tests = str(here.parents[2] / "src"), str(here.parent)
        writers = [
            subprocess.Popen([sys.executable, "-c", script, src, tests, str(tmp_path), first])
            for first in ("0", "15")
        ]
        assert [writer.wait(timeout=120) for writer in writers] == [0, 0]
        cache = ResultCache(tmp_path)
        assert len(cache) == 45
        for seed in range(45):
            spec = SPEC.with_seed(seed)
            assert cache.get(spec).to_dict() == synthetic_result(spec).to_dict()
        assert not list(tmp_path.glob("??/*.tmp"))

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(synthetic_result())
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.get(SPEC) is None


class TestDefaultCacheResolution:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache().cache_dir == tmp_path / "env-cache"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache().cache_dir == tmp_path / "repro-mesh"

    def test_home_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache().cache_dir == tmp_path / ".cache" / "repro-mesh"

    def test_resolve_none_without_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None

    def test_resolve_none_with_env_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = resolve_cache(None)
        assert isinstance(cache, ResultCache) and cache.cache_dir == tmp_path

    def test_resolve_true_uses_the_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "forced"))
        assert resolve_cache(True).cache_dir == tmp_path / "forced"

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

    def test_a_misfiled_entry_is_rerun_and_replaced(self, tmp_path):
        cache = ResultCache(tmp_path)
        other = SPEC.with_seed(2)
        cache.put_payload(SPEC, synthetic_result(other).to_dict())
        result = Experiment(SPEC, keep_decisions=False).run(cache=cache)
        assert result.spec == SPEC and cache.stats.misses == 1
        assert cache.get(SPEC).to_dict() == result.to_dict()


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

    def test_a_misfiled_payload_is_simulated_not_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed1, seed2 = SPEC.with_seed(1), SPEC.with_seed(2)
        cache.put_payload(seed2, synthetic_result(seed1).to_dict())
        batch = BatchRunner([seed2], backend="serial", cache=cache).run()
        assert batch.cache_hits == 0 and batch.cache_misses == 1
        assert batch.results[0].spec == seed2
        assert cache.get_payload(seed2)["spec"] == seed2.to_dict()  # rewritten

    def test_report_mentions_cache_hits(self, cache_and_cold, sweep):
        cache, _ = cache_and_cold
        warm = BatchRunner(sweep, backend="serial", cache=cache).run()
        assert "from cache" in warm.report("warm").render()

    def test_uncached_sweep_reports_zero(self, sweep):
        result = BatchRunner(sweep[:1], backend="serial", cache=False).run()
        assert result.cache_hits == 0 and result.cache_misses == 0
        assert "from cache" not in result.report().render()
