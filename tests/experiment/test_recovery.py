"""Worker death must not lose the sweep.

The regression this package exists to prevent: a drainer SIGKILL'd
mid-task used to leave its claim in ``claimed/`` forever — the
submitter's progress clock expired and ``BackendError`` threw away every
already-completed cell.  With lease-based claims the same kill costs
about one lease interval: the expired claim is requeued with its
``attempts`` bumped, the auto-scaler replaces the dead drainer, and the
sweep completes byte-identical to ``SerialBackend`` — on the
shared-directory queue and on the HTTP broker alike.

The kills are real ``SIGKILL``s of real worker subprocesses, triggered
by the chaos hooks documented in :mod:`repro.experiment.worker`:
``REPRO_WORKER_KILL_FILE`` (exactly one death — the flag file is
consumed atomically by its victim) and ``REPRO_WORKER_KILL_MATCH``
(every claimant of a matching task dies, which is how a task that can
*never* finish exercises the retry budget's give-up path).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import pytest

from repro.experiment import (
    BackendError,
    BatchRunner,
    BrokerBackend,
    BrokerClient,
    SerialBackend,
    WorkQueueBackend,
    seed_sweep,
)
from repro.experiment.backends import CLAIMED_DIR, ensure_queue_dirs, task_envelope
from repro.experiment.backends.queue_common import worker_subprocess_env
from repro.experiment.backends.work_queue import (
    RESULTS_DIR,
    TASKS_DIR,
    _atomic_write_json,
    requeue_expired_claims,
)
from repro.experiment.worker import drain

from _helpers import FAST_SPEC, canonical_batch, strip_runtime
from _helpers import canonical as canonical_payloads
from _helpers import canonical_batch as canonical

# What this module opens, it closes: a socket or file left for a
# finalizer fails the test that leaked it (see test_broker.py).
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]

#: Short enough that a recovery test finishes in seconds, long enough
#: that a live worker's quarter-lease heartbeats never miss it.
TEST_LEASE_S = 1.0


def make_backend(name: str, tmp_path, **kwargs):
    if name == "work_queue":
        return WorkQueueBackend(tmp_path / "queue", **kwargs)
    return BrokerBackend(**kwargs)


@pytest.fixture(scope="module")
def sweep():
    return seed_sweep(FAST_SPEC, range(3))


@pytest.fixture(scope="module")
def reference(sweep):
    return BatchRunner(sweep, backend=SerialBackend(), cache=False).run()


class TestSigkilledWorkerRecovery:
    """The headline fix, end to end with real subprocess kills."""

    @pytest.mark.slow
    @pytest.mark.parametrize("backend_name", ["work_queue", "broker"])
    def test_sweep_survives_a_sigkilled_drainer_byte_identically(
        self, backend_name, sweep, reference, tmp_path, monkeypatch
    ):
        flag = tmp_path / "kill-one-worker"
        flag.touch()
        monkeypatch.setenv("REPRO_WORKER_KILL_FILE", str(flag))
        backend = make_backend(
            backend_name,
            tmp_path,
            workers=2,
            lease_s=TEST_LEASE_S,
            timeout_s=120.0,
        )
        start = time.monotonic()
        batch = BatchRunner(sweep, backend=backend, cache=False).run()
        wall_s = time.monotonic() - start

        # A worker really died (the flag was consumed by its victim)...
        assert not flag.exists()
        # ...and the sweep still matches the serial reference bit for bit.
        assert canonical(batch) == canonical(reference)
        stats = backend.last_run_stats
        assert stats is not None
        assert stats.requeued >= 1  # the death was healed, not avoided
        # Whether a replacement drainer was spawned or a surviving one
        # requeued and absorbed the task itself is a race — both are
        # correct recoveries — but at least the two initial drainers ran.
        assert stats.spawned >= 2
        assert batch.queue is stats  # surfaced on the result
        # Recovery costs about one lease interval, not the stall timeout.
        # Generous bound: the 3-cell sweep itself takes a few seconds —
        # what matters is that the 120 s timeout was never the mechanism.
        assert wall_s < 60.0

    @pytest.mark.slow
    @pytest.mark.parametrize("backend_name", ["work_queue", "broker"])
    def test_retry_budget_exhaustion_names_the_task_not_a_timeout(
        self, backend_name, sweep, tmp_path, monkeypatch
    ):
        """A task whose every claimant dies gives up after max_attempts
        with an error naming the task id and attempt count — never the
        blanket 'timed out' that used to discard finished cells."""
        monkeypatch.setenv("REPRO_WORKER_KILL_MATCH", "-00000")
        backend = make_backend(
            backend_name,
            tmp_path,
            workers=2,
            lease_s=TEST_LEASE_S,
            max_attempts=2,
            timeout_s=120.0,
        )
        with pytest.raises(BackendError) as excinfo:
            BatchRunner(sweep, backend=backend, cache=False).run()
        message = str(excinfo.value)
        assert "-00000" in message  # the culprit task is named
        assert "2 time(s)" in message and "max_attempts=2" in message
        assert "timed out" not in message
        # Counted from the give-up envelope, whoever's sweep wrote it.
        assert backend.last_run_stats.exhausted == 1


def _start_broker_proc(store_dir, port: int):
    """A real broker subprocess; returns ``(proc, url)`` once listening
    (leases are the submitted envelopes' own: the broker has none)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiment.broker",
            "--port",
            str(port),
            "--store-dir",
            str(store_dir),
            "--snapshot-every",
            "4",  # small: the kill window straddles snapshot rotations
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=worker_subprocess_env(),
    )
    line = proc.stdout.readline()  # "repro broker listening on <url> ..."
    assert "listening on" in line, f"broker failed to start: {line!r}"
    url = line.split("listening on", 1)[1].strip().split()[0]
    return proc, url


def _kill(proc) -> None:
    """SIGKILL, reap, and close our end of the broker's stdout pipe."""
    proc.kill()
    proc.wait(timeout=10.0)
    proc.stdout.close()


class TestBrokerRestartDurability:
    """The tentpole: a SIGKILL'd *broker* must not lose the sweep.

    Worker death was already survivable (lease requeues, above); before
    the store, broker death silently dropped every in-flight submission.
    These kills are real SIGKILLs of real broker subprocesses, restarted
    on the same ``--store-dir``."""

    @pytest.mark.slow
    def test_sigkilled_broker_restart_loses_no_task_and_no_result(
        self, sweep, reference, tmp_path
    ):
        """Protocol-level: submit, finish one task, SIGKILL the broker,
        restart on the same store — the finished result and both
        unfinished tasks are all still there, and the completed sweep is
        byte-identical to SerialBackend."""
        store = tmp_path / "broker-store"
        task_ids = [f"job-{index:05d}" for index in range(len(sweep))]
        proc, url = _start_broker_proc(store, port=0)
        try:
            with BrokerClient(url) as client:
                client.submit(
                    [
                        task_envelope(task_id, spec.to_dict(), lease_s=30.0)
                        for task_id, spec in zip(task_ids, sweep)
                    ]
                )
                # One cell finishes before the crash...
                with BrokerClient(url, match="job-") as worker:
                    assert drain(worker, max_tasks=1) == 1
                assert client.stats()["results"] == 1
        finally:
            _kill(proc)  # ...and the broker dies mid-sweep, no goodbye
        port = int(url.rsplit(":", 1)[1])
        proc, restarted_url = _start_broker_proc(store, port=port)
        try:
            assert restarted_url == url  # same address: clients reconnect
            with BrokerClient(url) as client:
                stats = client.stats()
                # Zero loss: the finished payload and both remaining tasks.
                assert stats["results"] == 1
                assert stats["pending"] + stats["claimed"] == len(sweep) - 1
                # The sweep completes against the revived broker...
                with BrokerClient(url, match="job-") as worker:
                    drain(worker, exit_when_empty=True)
                response = client.collect(match="job-")
            by_id = {env["id"]: env for env in response["results"]}
            assert sorted(by_id) == task_ids
            assert all(env.get("error") is None for env in by_id.values())
            # ...byte-identical to the serial reference.
            payloads = [strip_runtime(by_id[tid]["result"]) for tid in task_ids]
            assert canonical_payloads(payloads) == canonical_batch(reference)
        finally:
            _kill(proc)

    @pytest.mark.slow
    def test_sweep_rides_out_a_broker_restart_end_to_end(
        self, sweep, reference, tmp_path
    ):
        """Full stack: BatchRunner + BrokerBackend + real drainers, with
        the broker SIGKILL'd and restarted mid-sweep by a chaos thread.
        The submitter's outage handling and the workers' result-POST
        retries must carry the run across the gap."""
        store = tmp_path / "broker-store"
        proc, url = _start_broker_proc(store, port=0)
        port = int(url.rsplit(":", 1)[1])
        restarted: dict = {}

        def chaos() -> None:
            with BrokerClient(url, timeout_s=2.0) as watcher:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    try:
                        stats = watcher.stats()
                    except ConnectionError:
                        time.sleep(0.1)
                        continue
                    if stats["claimed"] >= 1 or stats["results"] >= 1:
                        break  # the sweep is genuinely mid-flight
                    time.sleep(0.02)
            _kill(proc)
            time.sleep(0.5)  # a visible outage, well under timeout_s
            restarted["proc"], restarted["url"] = _start_broker_proc(
                store, port=port
            )

        killer = threading.Thread(target=chaos, daemon=True)
        killer.start()
        backend = BrokerBackend(
            url, workers=2, lease_s=TEST_LEASE_S, timeout_s=120.0
        )
        try:
            batch = BatchRunner(sweep, backend=backend, cache=False).run()
        finally:
            killer.join(timeout=90.0)
            if "proc" in restarted:
                _kill(restarted["proc"])
        assert restarted.get("url") == url  # the restart really happened
        assert canonical(batch) == canonical(reference)


class TestFileQueueLeaseUnits:
    """requeue_expired_claims against hand-built queue state."""

    def put_claim(self, root, task_id, lease_s=0.2, max_attempts=3, attempts=0):
        envelope = task_envelope(task_id, {"cell": task_id}, lease_s, max_attempts)
        envelope["attempts"] = attempts
        _atomic_write_json(root / CLAIMED_DIR / f"{task_id}.json", envelope)

    def test_fresh_claim_is_left_alone(self, tmp_path):
        root = ensure_queue_dirs(tmp_path)
        self.put_claim(root, "j-00000", lease_s=60.0)
        assert requeue_expired_claims(root) == (0, 0)
        assert (root / CLAIMED_DIR / "j-00000.json").exists()

    def test_expired_claim_requeues_with_attempts_bumped(self, tmp_path):
        root = ensure_queue_dirs(tmp_path)
        self.put_claim(root, "j-00000", lease_s=0.05)
        time.sleep(0.1)
        assert requeue_expired_claims(root) == (1, 0)
        assert not (root / CLAIMED_DIR / "j-00000.json").exists()
        requeued = json.loads(
            (root / TASKS_DIR / "j-00000.json").read_text(encoding="utf-8")
        )
        assert requeued["attempts"] == 1
        assert requeued["spec"] == {"cell": "j-00000"}

    def test_exhausted_claim_becomes_an_error_envelope(self, tmp_path):
        root = ensure_queue_dirs(tmp_path)
        self.put_claim(root, "j-00000", lease_s=0.05, max_attempts=2, attempts=1)
        time.sleep(0.1)
        assert requeue_expired_claims(root) == (0, 1)
        envelope = json.loads(
            (root / RESULTS_DIR / "j-00000.json").read_text(encoding="utf-8")
        )
        assert "j-00000" in envelope["error"]
        assert "2 time(s)" in envelope["error"]
        assert envelope["attempts"] == 2
        assert not (root / TASKS_DIR / "j-00000.json").exists()

    def test_unparsable_policy_is_given_up_naming_the_field(self, tmp_path):
        """No lease can be read off such an envelope, so its claim is
        expired by definition and the task is not retried: the sweep
        writes the error envelope instead of raising out of collect."""
        root = ensure_queue_dirs(tmp_path)
        _atomic_write_json(
            root / CLAIMED_DIR / "j-00000.json",
            {"id": "j-00000", "spec": {}, "max_attempts": "many"},
        )
        assert requeue_expired_claims(root) == (0, 1)
        envelope = json.loads(
            (root / RESULTS_DIR / "j-00000.json").read_text(encoding="utf-8")
        )
        assert "j-00000" in envelope["error"] and "max_attempts" in envelope["error"]
        assert not (root / CLAIMED_DIR / "j-00000.json").exists()

    def test_match_scopes_the_sweep(self, tmp_path):
        root = ensure_queue_dirs(tmp_path)
        self.put_claim(root, "mine-00000", lease_s=0.05)
        self.put_claim(root, "theirs-00000", lease_s=0.05)
        time.sleep(0.1)
        assert requeue_expired_claims(root, match="mine-") == (1, 0)
        # The foreign claim is untouched: its own submitter (or an
        # unscoped fleet worker) owns its recovery.
        assert (root / CLAIMED_DIR / "theirs-00000.json").exists()

    def test_stale_claimed_leftovers_are_reaped_with_results(self, tmp_path):
        """Pre-lease leftovers: claims abandoned by long-dead submissions
        are collected on the same paranoid week horizon as orphan
        results (FileQueueClient._reap_stale_files)."""
        import os

        backend = WorkQueueBackend(tmp_path / "queue", workers=1, timeout_s=60.0)
        root = ensure_queue_dirs(tmp_path / "queue")
        orphan_claim = root / CLAIMED_DIR / "dead-00000.json"
        fresh_claim = root / CLAIMED_DIR / "live-00000.json"
        for path in (orphan_claim, fresh_claim):
            path.write_text("{}", encoding="utf-8")
        ancient = time.time() - 30 * 24 * 3600
        os.utime(orphan_claim, (ancient, ancient))
        backend.run([FAST_SPEC.to_dict()])
        assert not orphan_claim.exists()
        assert fresh_claim.exists()  # could be someone's live lease: kept
