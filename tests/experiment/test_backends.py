"""Execution backends: resolution, the work-queue protocol, and the
cross-backend determinism guarantee the ROADMAP's distributed ambitions
rest on — serial, process-pool and work-queue sweeps of the same specs
must return byte-equal payloads, cold and cache-warm.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Mapping, Sequence

import pytest

from repro.experiment.backends.base import (
    BACKEND_ENV_VAR,
    BackendError,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_names,
    resolve_backend,
    run_spec_payload,
)
from repro.experiment.backends.broker_client import BrokerBackend, BrokerClient
from repro.experiment.backends.work_queue import (
    TASKS_DIR,
    WorkQueueBackend,
    claim_next_task,
    ensure_queue_dirs,
)
from repro.experiment.batch import BatchRunner, seed_sweep
from repro.experiment.cache import ResultCache
from repro.experiment.backends.queue_common import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    DrainerPool,
    LEASE_ENV_VAR,
    MAX_ATTEMPTS_ENV_VAR,
    lease_policy,
    lease_verdict,
    task_envelope,
)
from repro.experiment.broker import start_broker
from repro.experiment.worker import FileQueueClient, drain

from _helpers import FAST_SPEC, canonical, strip_runtime as _strip_runtime


class RecordingBackend(SerialBackend):
    """Serial backend that records every payload it was asked to run."""

    def __init__(self) -> None:
        self.executed: list[dict[str, Any]] = []

    def run(self, payloads: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        self.executed.extend(dict(p) for p in payloads)
        return super().run(payloads)


class TestResolution:
    def test_names(self):
        assert backend_names() == ["broker", "process", "serial", "work_queue"]

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_by_name(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        process = resolve_backend("process", max_workers=3)
        assert isinstance(process, ProcessPoolBackend)
        assert process.max_workers == 3
        queue = resolve_backend("work_queue", max_workers=2)
        assert isinstance(queue, WorkQueueBackend)
        assert queue.workers == 2
        broker = resolve_backend("broker", max_workers=2)
        assert isinstance(broker, BrokerBackend)
        assert broker.workers == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("quantum")

    def test_default_is_process_pool(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), ProcessPoolBackend)

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_workers_for(self, tmp_path):
        assert SerialBackend().workers_for(8) == 1
        assert ProcessPoolBackend(max_workers=4).workers_for(8) == 4
        assert ProcessPoolBackend(max_workers=4).workers_for(1) == 1
        assert WorkQueueBackend(workers=2).workers_for(8) == 2
        # External drain: parallelism is the remote fleet's, unknown here.
        assert WorkQueueBackend(tmp_path, workers=0).workers_for(8) == 1

    def test_external_drain_requires_a_visible_queue(self, monkeypatch):
        with pytest.raises(ValueError, match="external drain"):
            WorkQueueBackend(workers=0)
        monkeypatch.delenv("REPRO_BROKER_URL", raising=False)
        with pytest.raises(ValueError, match="external drain"):
            BrokerBackend(workers=0)
        # With a discoverable broker URL, external drain is legitimate.
        monkeypatch.setenv("REPRO_BROKER_URL", "http://example:8123")
        assert BrokerBackend(workers=0).workers_for(8) == 1

    def test_empty_submission_is_a_noop(self):
        assert SerialBackend().run([]) == []
        assert ProcessPoolBackend().run([]) == []
        assert WorkQueueBackend(workers=1).run([]) == []


class TestWorkQueueProtocol:
    """The file protocol itself, drained in-process (no subprocesses)."""

    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        root = ensure_queue_dirs(tmp_path)
        for task_id in ("b-00001", "a-00000"):
            (root / TASKS_DIR / f"{task_id}.json").write_text(
                json.dumps({"id": task_id, "spec": {}}), encoding="utf-8"
            )
        first = claim_next_task(root)
        assert first is not None and first.stem == "a-00000"  # oldest name first
        assert not (root / TASKS_DIR / "a-00000.json").exists()
        second = claim_next_task(root)
        assert second is not None and second.stem == "b-00001"
        assert claim_next_task(root) is None

    def test_claim_respects_match_prefix(self, tmp_path):
        """A submitter's own drainers must leave other submissions'
        tasks alone, or terminating them could kill foreign work."""
        root = ensure_queue_dirs(tmp_path)
        for task_id in ("mine-00000", "theirs-00000"):
            (root / TASKS_DIR / f"{task_id}.json").write_text(
                json.dumps({"id": task_id, "spec": {}}), encoding="utf-8"
            )
        claimed = claim_next_task(root, match="mine-")
        assert claimed is not None and claimed.stem == "mine-00000"
        assert claim_next_task(root, match="mine-") is None
        assert (root / TASKS_DIR / "theirs-00000.json").exists()

    def test_drain_executes_and_writes_result(self, tmp_path):
        root = ensure_queue_dirs(tmp_path)
        payload = FAST_SPEC.to_dict()
        (root / TASKS_DIR / "t-00000.json").write_text(
            json.dumps({"id": "t-00000", "spec": payload}), encoding="utf-8"
        )
        assert drain(FileQueueClient(root), exit_when_empty=True) == 1
        envelope = json.loads(
            (root / "results" / "t-00000.json").read_text(encoding="utf-8")
        )
        assert envelope["id"] == "t-00000"
        expected = run_spec_payload(payload)
        assert (
            canonical([_strip_runtime(envelope["result"])])
            == canonical([_strip_runtime(expected)])
        )

    def test_drain_reports_bad_spec_as_error_envelope(self, tmp_path):
        root = ensure_queue_dirs(tmp_path)
        (root / TASKS_DIR / "t-00000.json").write_text(
            json.dumps({"id": "t-00000", "spec": {"not": "a spec"}}),
            encoding="utf-8",
        )
        assert drain(FileQueueClient(root), exit_when_empty=True) == 1
        envelope = json.loads(
            (root / "results" / "t-00000.json").read_text(encoding="utf-8")
        )
        assert "SpecError" in envelope["error"]

    def test_drain_reports_an_unparsable_lease_as_error_envelope(self, tmp_path):
        """A hand-written task file never met submit's validation; the
        worker that claims it reports the field, it does not die of it."""
        root = ensure_queue_dirs(tmp_path)
        (root / TASKS_DIR / "t-00000.json").write_text(
            json.dumps({"id": "t-00000", "spec": {}, "lease_s": "soon"}),
            encoding="utf-8",
        )
        assert drain(FileQueueClient(root), exit_when_empty=True) == 1
        envelope = json.loads(
            (root / "results" / "t-00000.json").read_text(encoding="utf-8")
        )
        assert "t-00000" in envelope["error"] and "lease_s" in envelope["error"]

    def test_a_task_id_that_is_not_a_plain_file_name_never_leaves_the_queue(self, tmp_path):
        """Submit and cancel refuse ``../`` ids; a hand-dropped task naming one is given
        up unrun, as an error outcome under its file's own name."""
        root = ensure_queue_dirs(tmp_path / "a" / "queue")
        client = FileQueueClient(root)
        for hostile in ("../../escaped", "a/b", ".hidden", ""):
            with pytest.raises(ValueError, match="'id'"):
                client.submit([{"id": hostile, "spec": {}}])
            with pytest.raises(ValueError, match="'id'"):
                client.cancel([hostile])
        (root / TASKS_DIR / "t-00000.json").write_text(json.dumps({"id": "../x", "spec": {}}))
        assert drain(client, exit_when_empty=True) == 0
        outcome = json.loads((root / "results" / "t-00000.json").read_text(encoding="utf-8"))
        assert outcome["id"] == "t-00000" and "'../x'" in outcome["error"]
        assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json")] == [
            "a/queue/results/t-00000.json"]

    def test_drain_writes_back_to_shared_cache(self, tmp_path):
        root = ensure_queue_dirs(tmp_path / "queue")
        cache = ResultCache(tmp_path / "store")
        payload = FAST_SPEC.to_dict()
        (root / TASKS_DIR / "t-00000.json").write_text(
            json.dumps({"id": "t-00000", "spec": payload}), encoding="utf-8"
        )
        assert drain(FileQueueClient(root), exit_when_empty=True, cache=cache) == 1
        shared = ResultCache(tmp_path / "store")  # a different handle
        assert shared.get_payload(payload) is not None

    def test_a_failing_shared_store_does_not_lose_the_result(self, tmp_path, capsys):
        """The writeback is best-effort: a store that cannot be written
        (here its directory is a file) costs a warning, not the result."""
        root = ensure_queue_dirs(tmp_path / "queue")
        (tmp_path / "store").write_text("not a directory", encoding="utf-8")
        payload = FAST_SPEC.to_dict()
        (root / TASKS_DIR / "t-00000.json").write_text(
            json.dumps({"id": "t-00000", "spec": payload}), encoding="utf-8"
        )
        cache = ResultCache(tmp_path / "store")
        assert drain(FileQueueClient(root), exit_when_empty=True, cache=cache) == 1
        outcome = json.loads((root / "results" / "t-00000.json").read_text(encoding="utf-8"))
        assert _strip_runtime(outcome["result"]) == _strip_runtime(run_spec_payload(payload))
        assert "shared-cache writeback failed for t-00000" in capsys.readouterr().out

    def test_stale_orphan_results_are_reaped(self, tmp_path):
        """Results abandoned by a timed-out submission are collected by
        the next submission sharing the directory."""
        root = ensure_queue_dirs(tmp_path / "queue")
        orphan = root / "results" / "dead-00000.json"
        fresh = root / "results" / "live-00000.json"
        for path in (orphan, fresh):
            path.write_text("{}", encoding="utf-8")
        ancient = time.time() - 30 * 24 * 3600  # far past the week horizon
        os.utime(orphan, (ancient, ancient))
        backend = WorkQueueBackend(tmp_path / "queue", workers=1, timeout_s=60.0)
        backend.run([FAST_SPEC.to_dict()])
        # Reaped past the fixed one-week horizon (ORPHAN_HORIZON_S —
        # deliberately independent of timeout_s, see _reap_stale_files).
        assert not orphan.exists()
        assert fresh.exists()  # could belong to a live submission: kept
        fresh.unlink()

    def test_backend_surfaces_worker_failure(self, tmp_path):
        backend = WorkQueueBackend(tmp_path / "queue", workers=1, timeout_s=60.0)
        with pytest.raises(BackendError, match="SpecError"):
            backend.run([{"cycles": -1}, FAST_SPEC.to_dict()])
        # The failed submission withdrew its leftovers: a shared queue's
        # external workers must not burn compute on an abandoned sweep.
        assert not any((tmp_path / "queue" / TASKS_DIR).iterdir())
        assert not any((tmp_path / "queue" / "results").iterdir())


class TestTransportContract:
    """What ``QueueBackend``'s one loop stands on: the three submitter
    verbs answer alike on both transports.  Each case gets one client
    for the submitter and one for a worker on the same queue."""

    @pytest.fixture(params=["file", "broker"])
    def clients(self, request, tmp_path):
        if request.param == "file":
            yield FileQueueClient(tmp_path), FileQueueClient(tmp_path, match="job-")
            return
        server = start_broker()
        try:
            submitter = BrokerClient(server.url)
            worker = BrokerClient(server.url, match="job-")
            yield submitter, worker
            submitter.close()
            worker.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_a_heartbeat_keeps_a_claim_past_its_lease(self, clients):
        """A worker whose task outlives its lease heartbeats the claim: the
        collect sweep leaves a beaten claim alone, though its lease has run
        out since the claim, and a beat on a claim gone from under the
        worker is no error."""
        submitter, worker = clients
        submitter.submit([task_envelope("job-00000", {"cell": 0}, lease_s=1.0)])
        _, token = worker.claim()
        time.sleep(0.7)
        worker.heartbeat(token)
        time.sleep(0.7)
        assert submitter.collect(match="job-") == {"results": [], "pending": 0, "claimed": 1}
        worker.complete(token, {"id": "job-00000", "result": {"cell": 0}, "attempts": 0})
        submitter.collect(match="job-")
        worker.heartbeat(token)

    def test_submit_collect_ack_cancel_and_exhaustion(self, clients):
        submitter, worker = clients
        ids = [f"job-{index:05d}" for index in range(3)]
        tasks = [
            task_envelope(task_id, {"cell": task_id}, lease_s=0.05, max_attempts=1)
            for task_id in ids
        ]
        assert submitter.submit(tasks) == 3
        assert submitter.collect(match="job-") == {
            "results": [],
            "pending": 3,
            "claimed": 0,
        }
        envelope, token = worker.claim()
        assert envelope["id"] == "job-00000"
        response = submitter.collect(match="job-")
        assert (response["pending"], response["claimed"]) == (2, 1)

        worker.complete(token, {"id": "job-00000", "result": {"ok": 1}, "attempts": 0})
        first = submitter.collect(match="job-")
        assert [env["id"] for env in first["results"]] == ["job-00000"]
        assert first["results"][0]["result"] == {"ok": 1}
        assert (first["pending"], first["claimed"]) == (2, 0)
        # Handed over again until acked (the response may have been lost)...
        assert submitter.collect(match="job-")["results"] == first["results"]
        # ...and gone after the ack.
        assert submitter.collect(match="job-", ack=["job-00000"])["results"] == []
        assert submitter.collect(match="job-")["results"] == []

        # A claim whose lease runs out with its budget spent (max_attempts=1)
        # comes back as an error envelope naming the task.
        envelope, _ = worker.claim()
        assert envelope["id"] == "job-00001"
        time.sleep(0.2)
        [lost] = submitter.collect(match="job-")["results"]
        assert lost["id"] == "job-00001"
        assert "job-00001" in lost["error"] and "max_attempts=1" in lost["error"]
        assert lost["attempts"] == 1

        # cancel withdraws the rest: one task still pending, one result unacked.
        assert submitter.cancel(ids) == 1
        assert submitter.collect(match="job-") == {
            "results": [],
            "pending": 0,
            "claimed": 0,
        }
        assert worker.claim() is None


    @pytest.mark.parametrize(
        "bad, names",
        [
            ({"spec": {}}, "'id'"),
            ({"id": 7, "spec": {}}, "'id'"),
            ({"id": "../job-00001", "spec": {}}, "'id'"),
            ("job-00001", "envelope"),
            ({"id": "job-00001"}, "job-00001.*spec"),
            ({"id": "job-00001", "spec": []}, "job-00001.*spec"),
            ({"id": "job-00001", "spec": {}, "lease_s": "soon"}, "job-00001.*lease_s"),
            ({"id": "job-00001", "spec": {}, "lease_s": 0}, "lease_s"),
            ({"id": "job-00001", "spec": {}, "lease_s": float("inf")}, "lease_s"),
            ({"id": "job-00001", "spec": {}, "max_attempts": 0}, "max_attempts"),
            ({"id": "job-00001", "spec": {}, "max_attempts": 2.5}, "max_attempts"),
            ({"id": "job-00001", "spec": {}, "attempts": -1}, "attempts"),
        ],
    )
    def test_a_batch_with_one_malformed_envelope_is_refused_whole(
        self, clients, bad, names
    ):
        """Both transports refuse the same envelopes, naming the task and
        the field, and store nothing of the batch — ``ValueError`` in
        process, 400 over HTTP (which the client raises as refused)."""
        submitter, worker = clients
        good = task_envelope("job-00000", {"cell": 0})
        with pytest.raises((ValueError, ConnectionError), match=names):
            submitter.submit([good, bad])
        assert submitter.collect(match="job-") == {
            "results": [],
            "pending": 0,
            "claimed": 0,
        }
        assert worker.claim() is None

    @pytest.mark.parametrize(
        "bad, names",
        [
            ({"result": {"ok": 1}}, "'id'"),
            ({"id": 7, "result": {"ok": 1}}, "'id'"),
            ({"id": "../x", "result": {}, "attempts": 0}, "'id'.*'../x'"),
            ({"id": "job-00000"}, "job-00000.*'result'.*'error'"),
            ({"id": "job-00000", "result": {"ok": 1}, "error": "boom"}, "job-00000.*one of"),
            ({"id": "job-00000", "result": [1]}, "job-00000.*object"),
            ({"id": "job-00000", "result": None}, "job-00000.*object"),
            ({"id": "job-00000", "error": {"no": "string"}}, "job-00000.*string"),
            ({"id": "job-00000", "result": {"ok": 1}, "attempts": -1}, "job-00000.*attempts"),
            ({"id": "job-00000", "result": {"ok": 1}, "attempts": "2"}, "job-00000.*attempts"),
        ],
    )
    def test_a_malformed_outcome_is_refused_where_it_enters(self, clients, bad, names):
        """A hostile or buggy worker's report fails in that worker —
        ``ValueError`` in process, 400 over HTTP — and stores nothing: the
        claim stays live and the submitter never meets the outcome."""
        submitter, worker = clients
        submitter.submit([task_envelope("job-00000", {"cell": 0})])
        _, token = worker.claim()
        with pytest.raises((ValueError, ConnectionError), match=names):
            worker.complete(token, bad)
        assert submitter.collect(match="job-") == {
            "results": [],
            "pending": 0,
            "claimed": 1,
        }
        worker.complete(token, {"id": "job-00000", "error": "boom", "attempts": 0})
        [outcome] = submitter.collect(match="job-")["results"]
        assert outcome["error"] == "boom"

    def test_a_result_file_nobody_validated_fails_the_submission_naming_it(self, tmp_path):
        """Whoever can write the shared directory can write a result: the
        collect loop reads it as a refused outcome, not as a ``KeyError``."""
        client = FileQueueClient(tmp_path)
        forged = {"id": "job-00000", "attempts": 0}
        (tmp_path / "results" / "job-00000.json").write_text(json.dumps(forged))
        backend = WorkQueueBackend(tmp_path, workers=0, timeout_s=30.0)
        pool = DrainerPool(command=[], log_dir=tmp_path, cap=0, env={})
        with pytest.raises(BackendError, match="malformed outcome.*job-00000.*'result'"):
            backend._collect(client, ["job-00000"], pool, "job-", str(tmp_path))

    def test_drainers_that_keep_exiting_fail_the_sweep_with_their_own_log(self, tmp_path):
        """A broken environment - here drainer arguments the worker refuses
        - is not a worker death a lease would heal: after a few spawns
        without progress the submitter gives up, showing the failing
        drainer's own log instead of waiting out its timeout."""
        client = FileQueueClient(tmp_path / "queue")
        client.submit([task_envelope("job-00000", {"cell": 0})])
        backend = WorkQueueBackend(tmp_path / "queue", workers=1, timeout_s=60.0)
        pool = DrainerPool(command=["--no-such-option"], log_dir=tmp_path, cap=1, env={})
        try:
            with pytest.raises(BackendError) as excinfo:
                backend._collect(client, ["job-00000"], pool, "job-", str(tmp_path))
        finally:
            pool.terminate()
        message = str(excinfo.value)
        assert "keep exiting without progress" in message
        assert "[drainer exit status 2, log worker-" in message and "--no-such-option" in message


class TestLeasePolicyTravelsInTheEnvelope:
    @pytest.mark.parametrize(
        "lease_s, max_attempts, expected",
        [
            ("2.5", "5", (2.5, 5)),
            ("", "", (DEFAULT_LEASE_S, DEFAULT_MAX_ATTEMPTS)),
            ("soon", "many", (DEFAULT_LEASE_S, DEFAULT_MAX_ATTEMPTS)),
            ("0", "0", (DEFAULT_LEASE_S, DEFAULT_MAX_ATTEMPTS)),
            ("inf", "2.5", (DEFAULT_LEASE_S, DEFAULT_MAX_ATTEMPTS)),
        ],
    )
    def test_the_environment_is_read_where_a_submission_is_born(
        self, monkeypatch, lease_s, max_attempts, expected
    ):
        monkeypatch.setenv(LEASE_ENV_VAR, lease_s)
        monkeypatch.setenv(MAX_ATTEMPTS_ENV_VAR, max_attempts)
        envelope = task_envelope("job-00000", {})
        assert (envelope["lease_s"], envelope["max_attempts"]) == expected
        backend = WorkQueueBackend(workers=1)
        assert (backend.lease_s, backend.max_attempts) == expected

    def test_and_by_nothing_downstream_of_an_envelope(self, monkeypatch):
        """A reader on another host, with another environment, enforces
        what the envelope says; a field it lacks is the module default."""
        monkeypatch.setenv(LEASE_ENV_VAR, "0.01")
        monkeypatch.setenv(MAX_ATTEMPTS_ENV_VAR, "1")
        assert lease_policy({"id": "job-00000"}) == (
            DEFAULT_LEASE_S,
            DEFAULT_MAX_ATTEMPTS,
            0,
        )
        verdict, after = lease_verdict({"id": "job-00000", "max_attempts": 2})
        assert (verdict, after["attempts"]) == ("requeue", 1)


class TestCrossBackendDeterminism:
    """The acceptance bar: identical payloads from every backend,
    cold and cache-warm, with duplicated specs simulated exactly once."""

    @pytest.fixture(scope="class")
    def sweep(self):
        # Three unique cells plus a duplicate of the first.
        sweep = seed_sweep(FAST_SPEC, range(3))
        return sweep + [FAST_SPEC.with_seed(0)]

    @pytest.fixture(scope="class")
    def reference(self, sweep):
        return BatchRunner(sweep, backend=SerialBackend(), cache=False).run()

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "backend_name", ["serial", "process", "work_queue", "broker"]
    )
    def test_cold_and_warm_runs_are_byte_equal(
        self, backend_name, sweep, reference, tmp_path
    ):
        def make_backend():
            if backend_name == "process":
                return ProcessPoolBackend(max_workers=2)
            if backend_name == "work_queue":
                return WorkQueueBackend(tmp_path / "queue", workers=2)
            if backend_name == "broker":
                return BrokerBackend(workers=2)
            return SerialBackend()

        cache = ResultCache(tmp_path / "cache")
        cold = BatchRunner(sweep, backend=make_backend(), cache=cache).run()
        warm = BatchRunner(sweep, backend=make_backend(), cache=cache).run()

        expected = canonical(reference.to_dicts(include_runtime=False))
        assert canonical(cold.to_dicts(include_runtime=False)) == expected
        assert canonical(warm.to_dicts(include_runtime=False)) == expected
        # Warm runs replay the exact cold payloads, runtime block included.
        assert canonical(warm.to_dicts()) == canonical(cold.to_dicts())
        assert cold.backend == backend_name == warm.backend
        assert (cold.cache_hits, cold.cache_misses) == (0, len(sweep))
        assert (warm.cache_hits, warm.cache_misses) == (len(sweep), 0)
        # Dedup: 4 submitted cells, 3 unique — one simulation per unique
        # spec (cold), zero dispatches at all when warm.
        assert cold.planner.executed == 3 and cold.planner.duplicates == 1
        assert warm.planner.executed == 0
        assert cache.stats.puts == 3

    def test_duplicated_specs_never_reach_the_backend_twice(self, sweep):
        recorder = RecordingBackend()
        result = BatchRunner(sweep, backend=recorder, cache=False).run()
        assert len(result) == len(sweep) == 4
        assert len(recorder.executed) == 3
        digests = {json.dumps(p, sort_keys=True) for p in recorder.executed}
        assert len(digests) == 3
        # The duplicate slots received equal results all the same.
        dicts = result.to_dicts(include_runtime=False)
        assert dicts[0] == dicts[3]

    def test_backend_results_scatter_in_submission_order(self, sweep):
        result = BatchRunner(sweep, backend=SerialBackend(), cache=False).run()
        assert [r.spec.scenario.seed for r in result] == [0, 1, 2, 0]


class TestSharedStoreWriteback:
    """``cache_dir=`` hands every local drainer ``--cache-dir``: the
    drainers, not the submitter, fill the shared store, and any handle on
    it - one opened before the sweep included - serves what they wrote."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return seed_sweep(FAST_SPEC, range(4))

    @pytest.fixture(scope="class")
    def reference(self, sweep):
        return BatchRunner(sweep, backend=SerialBackend(), cache=False).run()

    @pytest.mark.parametrize("backend_name", ["work_queue", "broker"])
    def test_drainers_fill_the_shared_store(self, backend_name, sweep, reference, tmp_path):
        store = tmp_path / "store"
        early = ResultCache(store)
        assert not any(spec in early for spec in sweep)  # in use before the sweep
        backend = (
            WorkQueueBackend(tmp_path / "queue", workers=2, cache_dir=store)
            if backend_name == "work_queue"
            else BrokerBackend(workers=2, cache_dir=store)
        )
        # cache=False: the submitter writes nothing back, so every entry
        # in the store is a drainer's.
        batch = BatchRunner(sweep, backend=backend, cache=False).run()
        assert batch.backend == backend_name
        received = batch.to_dicts()
        expected = reference.to_dicts(include_runtime=False)
        fresh = ResultCache(store)
        for handle in (early, fresh):
            stored = [handle.get_payload(spec) for spec in sweep]
            assert None not in stored
            assert canonical(stored) == canonical(received)
            assert canonical([_strip_runtime(p) for p in stored]) == canonical(expected)
            assert handle.stats.hits == len(sweep)
        assert len(fresh) == len(sweep)


class TestBatchRunnerIntegration:
    def test_custom_backend_instance(self):
        recorder = RecordingBackend()
        batch = BatchRunner([FAST_SPEC], backend=recorder, cache=False).run()
        assert batch.backend == "serial" and not batch.parallel
        assert len(recorder.executed) == 1

    def test_env_var_drives_default_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        batch = BatchRunner([FAST_SPEC], cache=False).run()
        assert batch.backend == "serial"

    def test_cold_sweep_through_the_ambient_default_backend(self):
        """Deliberately does NOT pin a backend or touch the environment:
        under the CI backend matrix (REPRO_BATCH_BACKEND exported) this
        cold sweep genuinely dispatches jobs through each backend and
        must still match the serial reference bit for bit."""
        sweep = seed_sweep(FAST_SPEC, range(2))
        ambient = BatchRunner(sweep, cache=False).run()
        reference = BatchRunner(sweep, backend="serial", cache=False).run()
        expected = os.environ.get(BACKEND_ENV_VAR) or "process"
        assert ambient.backend == expected
        assert ambient.planner.executed == 2
        assert canonical(ambient.to_dicts(include_runtime=False)) == canonical(
            reference.to_dicts(include_runtime=False)
        )

    def test_short_returning_backend_is_named_in_the_error(self):
        class Truncating(SerialBackend):
            def run(self, payloads):
                return super().run(payloads)[:-1]

        with pytest.raises(BackendError, match="'serial' returned 1"):
            BatchRunner(
                seed_sweep(FAST_SPEC, range(2)), backend=Truncating(), cache=False
            ).run()

    def test_isinstance_of_abc(self):
        for name in backend_names():
            assert isinstance(resolve_backend(name), ExecutionBackend)
        assert not isinstance(object(), ExecutionBackend)

    def test_worker_subprocess_env_and_cli(self, tmp_path):
        """End-to-end: the backend's drainers are forks of a real `python -m
        repro.experiment.worker --serve-forks` subprocess, which must import
        repro from this checkout."""
        backend = WorkQueueBackend(tmp_path / "queue", workers=1)
        payload = FAST_SPEC.to_dict()
        results = backend.run([payload])
        assert _strip_runtime(results[0]) == _strip_runtime(run_spec_payload(payload))
        # The queue directory is left reusable: no stale tasks or results.
        assert not any((tmp_path / "queue" / TASKS_DIR).iterdir())
        assert not any((tmp_path / "queue" / "results").iterdir())
        assert os.path.isdir(tmp_path / "queue" / "claimed")
