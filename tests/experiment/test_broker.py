"""The HTTP broker: lease/retry protocol units (injected clock, no
sleeping), the HTTP transport round trip, and the BrokerBackend's
end-to-end integration with BatchRunner.

The chaos half of the story — a worker SIGKILL'd mid-task recovering
via lease expiry — lives in ``test_recovery.py``; this module pins the
protocol the recovery rests on.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.experiment import (
    BackendError,
    BatchRunner,
    BrokerBackend,
    BrokerClient,
    SerialBackend,
    broker,
)
from repro.experiment.backends import (
    BROKER_TOKEN_ENV_VAR,
    BrokerAuthError,
    BrokerUnavailable,
    task_envelope,
)
from repro.experiment.backends.queue_common import ORPHAN_HORIZON_S
from repro.experiment.broker import (
    MAX_BODY_BYTES,
    BrokerQueue,
    bucket_key,
    start_broker,
)
from repro.experiment.worker import _Heartbeat, drain

from _helpers import FAST_SPEC

# Every socket a client opens is closed by its owner, not by the
# collector: an unclosed one fails the test that leaked it.  (A warning
# raised in a finalizer reaches pytest as an unraisable exception, which
# it reports as a warning of its own — hence the second filter.)
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def envelopes(*ids: str, lease_s: float = 5.0, max_attempts: int = 3) -> list:
    return [
        task_envelope(task_id, {"cell": task_id}, lease_s=lease_s,
                      max_attempts=max_attempts)
        for task_id in ids
    ]


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def queue(clock: FakeClock) -> BrokerQueue:
    return BrokerQueue(time_fn=clock)


class TestBrokerQueueProtocol:
    """The in-memory state machine, clock injected — no real time."""

    def test_claim_is_exclusive_and_ordered(self, queue):
        queue.submit(envelopes("j-00001", "j-00000"))
        first = queue.claim()
        assert first is not None and first["id"] == "j-00000"  # id order
        second = queue.claim()
        assert second is not None and second["id"] == "j-00001"
        assert queue.claim() is None  # both leased: nothing to hand out

    def test_claim_respects_match_prefix(self, queue):
        queue.submit(envelopes("mine-00000", "theirs-00000"))
        claimed = queue.claim(match="mine-")
        assert claimed is not None and claimed["id"] == "mine-00000"
        assert queue.claim(match="mine-") is None
        # The foreign task is still claimable by its own drainers.
        other = queue.claim(match="theirs-")
        assert other is not None and other["id"] == "theirs-00000"

    def test_result_pickup_annotates_and_survives_rereads(self, queue):
        queue.submit(envelopes("j-00000"))
        queue.claim()
        assert queue.result({"id": "j-00000", "result": {"ok": 1}})
        response = queue.collect(match="j-")
        [envelope] = response["results"]
        assert envelope["result"] == {"ok": 1}
        assert envelope["attempts"] == 0  # annotated by the broker
        # Collection is non-destructive: a submitter whose HTTP response
        # was lost can simply ask again.  The final cancel purges.
        assert queue.collect(match="j-")["results"] == [envelope]
        queue.cancel(["j-00000"])
        assert queue.collect(match="j-")["results"] == []
        assert queue.stats()["results"] == 0

    def test_lease_expiry_requeues_with_attempts_bumped(self, queue, clock):
        queue.submit(envelopes("j-00000", lease_s=5.0))
        assert queue.claim() is not None
        clock.now += 4.0
        assert queue.claim() is None  # lease still live: not claimable
        clock.now += 2.0  # past the 5 s lease
        reclaimed = queue.claim()
        assert reclaimed is not None and reclaimed["attempts"] == 1
        assert queue.stats()["claimed"] == 1

    def test_heartbeat_extends_the_lease(self, queue, clock):
        queue.submit(envelopes("j-00000", lease_s=5.0))
        queue.claim()
        for _ in range(4):  # 16 s of heartbeats against a 5 s lease
            clock.now += 4.0
            assert queue.heartbeat("j-00000")
        assert queue.claim() is None  # never expired
        assert not queue.heartbeat("j-99999")  # unknown claim

    def test_retry_budget_exhaustion_synthesizes_error(self, queue, clock):
        queue.submit(envelopes("j-00000", lease_s=5.0, max_attempts=2))
        for _ in range(2):
            assert queue.claim() is not None
            clock.now += 6.0
        # Second expiry burned the budget: no more claims, an error
        # envelope naming the task and the attempt count instead.
        assert queue.claim() is None
        [envelope] = queue.collect(match="j-")["results"]
        assert envelope["error"] is not None
        assert "j-00000" in envelope["error"]
        assert "2 time(s)" in envelope["error"]
        assert envelope["attempts"] == 2

    def test_late_result_from_expired_worker_completes_the_task(
        self, queue, clock
    ):
        """A slow-but-alive worker whose lease expired still finishes the
        task: determinism makes its result byte-identical to whatever a
        re-claimant would produce, so the broker takes it."""
        queue.submit(envelopes("j-00000", lease_s=5.0))
        queue.claim()
        clock.now += 6.0  # expired: task requeued on next sweep
        assert queue.result({"id": "j-00000", "result": {"ok": 1}})
        assert queue.claim() is None  # requeued copy was cancelled
        assert queue.collect(match="j-")["results"][0]["result"] == {"ok": 1}

    def test_cancel_withdraws_a_submission(self, queue):
        queue.submit(envelopes("j-00000", "j-00001"))
        queue.claim()
        assert queue.cancel(["j-00000", "j-00001"]) == 2
        assert queue.claim() is None
        # Outcomes for cancelled (now unknown) ids are refused, so dead
        # submissions cannot accumulate results forever.
        assert not queue.result({"id": "j-00000", "result": {}})

    def test_collect_reports_backlog_counts(self, queue):
        queue.submit(envelopes("j-00000", "j-00001", "j-00002"))
        queue.claim()
        response = queue.collect(match="j-")
        assert response == {"results": [], "pending": 2, "claimed": 1}

    def test_prefix_collect_is_ack_based(self, queue):
        """The submitter's real protocol: address the submission by id
        prefix, re-receive anything not yet acked (a lost response costs
        nothing), and have acked results dropped broker-side."""
        queue.submit(envelopes("job-00000", "job-00001", "other-00000"))
        queue.claim(match="job-")
        queue.result({"id": "job-00000", "result": {"ok": 1}})
        first = queue.collect(match="job-")
        assert [env["id"] for env in first["results"]] == ["job-00000"]
        assert first["pending"] == 1  # job-00001; other- is not counted
        # Unacked: the same result is re-sent (the response may have
        # been lost on the wire)...
        assert queue.collect(match="job-")["results"] == first["results"]
        # ...until the next request acks it, which drops it for good.
        assert queue.collect(match="job-", ack=["job-00000"])["results"] == []
        assert queue.stats()["results"] == 0

    def test_abandoned_submission_is_garbage_collected(self, queue, clock):
        """A submitter killed before its cancel leaves tasks and results
        behind; once nothing has touched them for the orphan horizon
        they are dropped — a long-lived shared broker must not grow
        forever, and workers must stop being handed a dead submission's
        tasks."""
        queue.submit(envelopes("dead-00000", "dead-00001"))
        queue.claim()
        assert queue.result({"id": "dead-00000", "result": {"ok": 1}})
        clock.now += ORPHAN_HORIZON_S + 1.0  # nobody collects, beats, or claims
        stats = queue.stats()
        assert stats["pending"] == stats["claimed"] == stats["results"] == 0
        assert queue.claim() is None
        # A *live* submission is refreshed by its submitter's polling
        # and never comes close to the horizon.
        queue.submit(envelopes("live-00000"))
        for _ in range(3):
            clock.now += 0.6 * ORPHAN_HORIZON_S
            queue.collect(match="live-")  # each poll tick touches it
        assert queue.stats()["pending"] == 1


class TestPollBackoff:
    """Idle-poll throttling: a shared broker must not be hammered at a
    flat 20 Hz by tenants with nothing to do."""

    def test_grace_then_exponential_growth_to_the_cap(self):
        from repro.experiment.backends import PollBackoff

        backoff = PollBackoff(0.05, 2.0, grace=2)
        delays = [backoff.next_delay() for _ in range(12)]
        # Jitter is a uniform factor in [0.5, 1.0]: bounds, not exact values.
        for delay in delays[:2]:  # grace window: flat base rate
            assert 0.025 <= delay <= 0.05
        assert delays[4] > delays[2]  # then growth...
        for delay in delays[-3:]:  # ...saturating at the cap
            assert 1.0 <= delay <= 2.0

    def test_progress_resets_to_the_base(self):
        from repro.experiment.backends import PollBackoff

        backoff = PollBackoff(0.05, 2.0, grace=0)
        for _ in range(10):
            backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() <= 0.05

    def test_cap_never_exceeded_even_with_a_tiny_base(self):
        from repro.experiment.backends import PollBackoff

        backoff = PollBackoff(0.001, 0.5, grace=0)
        assert all(backoff.next_delay() <= 0.5 for _ in range(64))


class TestSubmissionBuckets:
    """Per-submission-prefix bucketing: the multi-tenant scaling fix."""

    def test_bucket_key_is_the_id_up_to_the_final_dash(self):
        assert bucket_key("job-00042") == "job-"
        assert bucket_key("a1b2-c3d4-00000") == "a1b2-c3d4-"
        assert bucket_key("nodash") == "nodash"

    def test_stats_counts_buckets(self, queue):
        queue.submit(envelopes("alpha-00000", "alpha-00001", "beta-00000"))
        assert queue.stats()["buckets"] == 2
        assert not queue.stats()["durable"]

    def test_tenants_are_isolated_end_to_end(self, queue):
        """Two interleaved submissions: claims, results and collects
        scoped by prefix never observe each other."""
        queue.submit(envelopes("alpha-00000", "beta-00000", "alpha-00001"))
        assert queue.claim(match="beta-")["id"] == "beta-00000"
        queue.result({"id": "beta-00000", "result": {"ok": "b"}})
        alpha = queue.collect(match="alpha-")
        assert alpha == {"results": [], "pending": 2, "claimed": 0}
        beta = queue.collect(match="beta-")
        assert [e["id"] for e in beta["results"]] == ["beta-00000"]
        assert beta["pending"] == 0 and beta["claimed"] == 0

    def test_cancel_of_one_tenant_leaves_the_other_whole(self, queue):
        queue.submit(envelopes("alpha-00000", "beta-00000"))
        assert queue.cancel(["alpha-00000"]) == 1
        assert queue.stats()["buckets"] == 1  # emptied bucket dropped
        assert queue.claim(match="beta-")["id"] == "beta-00000"

    def test_coarse_match_spans_buckets(self, queue):
        """A prefix shorter than a full submission key still reaches
        every bucket it addresses — claim order stays global id order."""
        queue.submit(envelopes("run1-00000", "run2-00000"))
        assert queue.claim(match="run")["id"] == "run1-00000"
        assert queue.claim(match="run")["id"] == "run2-00000"
        response = queue.collect(match="run")
        assert response["claimed"] == 2


class TestBrokerAuth:
    """The shared-secret header: what lets a broker bind beyond localhost."""

    @pytest.fixture
    def server(self, monkeypatch):
        monkeypatch.delenv(BROKER_TOKEN_ENV_VAR, raising=False)
        server = start_broker(token="s3cret")
        yield server
        server.shutdown()
        server.server_close()

    def test_missing_token_is_refused_with_401(self, server):
        client = BrokerClient(server.url)  # env is clean: no token sent
        with pytest.raises(BrokerAuthError, match="refused"):
            client.stats()
        # The refusal dropped the socket: nothing for anyone to close.
        assert getattr(client._local, "connection", None) is None

    def test_wrong_token_is_refused_with_401(self, server):
        client = BrokerClient(server.url, token="wr0ng")
        with pytest.raises(BrokerAuthError, match="refused"):
            client.submit(envelopes("a-00000"))

    def test_token_is_checked_before_the_body_is_read(self, server):
        """A client without the token that declares the largest body the
        broker takes and sends none is refused at once: the broker never
        waits on the body, and hangs up since it was left unread."""
        peer = socket.create_connection(server.server_address[:2], timeout=5.0)
        try:
            peer.sendall(
                b"POST /submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % MAX_BODY_BYTES
            )
            reply = b""
            while chunk := peer.recv(4096):  # until the broker closes
                reply += chunk
        finally:
            peer.close()
        assert reply.startswith(b"HTTP/1.1 401")
        with BrokerClient(server.url, token="s3cret") as client:
            assert client.stats()["pending"] == 0  # still serving

    def test_matching_token_round_trips(self, server):
        with BrokerClient(server.url, token="s3cret", match="a-") as client:
            assert client.submit(envelopes("a-00000")) == 1
            first = client._connection()
            task, claim = client.claim()
            assert task["id"] == "a-00000"
            client.complete(claim, {"id": "a-00000", "result": {"ok": 1}})
            assert client.collect(match="a-")["results"][0]["result"] == {"ok": 1}
            assert client._connection() is first  # authorized keep-alive holds
        assert getattr(client._local, "connection", None) is None

    def test_token_defaults_from_the_environment(self, server, monkeypatch):
        """Export REPRO_BROKER_TOKEN and every client — submitter,
        worker, spawned drainer — is armed without code changes."""
        monkeypatch.setenv(BROKER_TOKEN_ENV_VAR, "s3cret")
        with BrokerClient(server.url) as client:
            assert client.stats()["pending"] == 0

    def test_auth_error_is_not_swallowed_as_an_outage(self):
        """BrokerAuthError must not be a ConnectionError: retry loops
        treat those as transient, but a 401 never heals by waiting."""
        assert not issubclass(BrokerAuthError, ConnectionError)
        assert issubclass(BrokerAuthError, PermissionError)

    def test_unauthenticated_worker_refuses_to_run(self, server):
        with pytest.raises(BrokerAuthError):
            drain(BrokerClient(server.url), exit_when_empty=True)

    def test_unauthenticated_submitter_refuses_to_run(self, server):
        backend = BrokerBackend(server.url, workers=1, timeout_s=30.0)
        with pytest.raises(BackendError, match="token"):
            backend.run([FAST_SPEC.to_dict()])

    @pytest.mark.slow
    def test_explicit_token_reaches_the_backends_own_drainers(self, monkeypatch):
        """token= with REPRO_BROKER_TOKEN unset: the private broker
        requires it and the submitter sends it, so the spawned drainers
        must be handed it too (through their environment, never argv)."""
        monkeypatch.delenv(BROKER_TOKEN_ENV_VAR, raising=False)
        backend = BrokerBackend(token="s3cret", workers=1, timeout_s=60.0)
        [result] = backend.run([FAST_SPEC.to_dict()])
        assert result["spec"] == FAST_SPEC.to_dict()
        assert backend.last_run_stats.spawned == 1


class TestBrokerHTTP:
    """The same protocol through a real socket."""

    @pytest.fixture
    def server(self):
        server = start_broker()
        yield server
        server.shutdown()
        server.server_close()

    def test_round_trip(self, server):
        with BrokerClient(server.url, match="h-") as client:
            assert client.submit(envelopes("h-00000")) == 1
            task, claim = client.claim()
            assert task["id"] == "h-00000" == claim
            assert client._request("/heartbeat", {"id": claim})["ok"]
            client.heartbeat(claim)
            assert client._request(
                "/result", {"id": "h-00000", "result": {"ok": 1}}
            )["ok"]
            response = client.collect(match="h-")
            assert response["results"][0]["result"] == {"ok": 1}
            assert client.cancel(["h-00000"]) == 0  # nothing pending/claimed...
            stats = client.stats()
        # ...and the cancel purged the collected result from the tables.
        assert stats["pending"] == stats["claimed"] == stats["results"] == 0

    def test_unknown_endpoint_is_an_error(self, server):
        with BrokerClient(server.url) as client:
            with pytest.raises(BrokerUnavailable, match="404"):
                client._request("/quantum", {})

    def test_collect_without_a_match_is_refused_not_widened(self, server):
        """A /collect body with no string ``match`` answers 400 naming
        the field; falling back to the empty prefix would match every
        bucket and hand one submitter every tenant's results."""
        with BrokerClient(server.url, match="theirs-") as client:
            client.submit(envelopes("theirs-00000"))
            _, claim = client.claim()
            client.complete(claim, {"id": "theirs-00000", "result": {"ok": 1}})
            for body in ({"ack": []}, {"ids": ["theirs-00000"]}, {"match": None}):
                with pytest.raises(BrokerUnavailable, match="400.*'match'"):
                    client._request("/collect", body)
            assert client.stats()["results"] == 1  # untouched, unleaked

    @pytest.mark.parametrize(
        "path, body, names",
        [
            ("/submit", {"tasks": [{"spec": {}}]}, "'id'"),
            ("/submit", {"tasks": 5}, "'tasks'"),
            ("/submit", {"tasks": ["x"]}, "envelope"),
            ("/submit", {"tasks": [{"id": "../x", "spec": {}}]}, "'id'.*'../x'"),
            ("/submit", [1, 2], "JSON object"),
            ("/result", [1, 2], "JSON object"),
            ("/result", {"id": "../x", "result": {}, "attempts": 0}, "'id'.*'../x'"),
            ("/collect", {"match": "h-", "ack": 7}, "'ack'"),
            ("/cancel", {"ids": 3}, "'ids'"),
            # One bad envelope refuses the batch whole: h-00002 is well
            # formed and must not be enqueued either.  (Accepted, this
            # lease used to destroy the task at the claim that met it.)
            (
                "/submit",
                {
                    "tasks": envelopes("h-00002")
                    + [{**envelopes("h-00003")[0], "lease_s": "soon"}]
                },
                "h-00003.*lease_s",
            ),
        ],
    )
    def test_malformed_request_is_refused_whole_with_400(
        self, server, path, body, names
    ):
        with BrokerClient(server.url, match="h-") as client:
            client.submit(envelopes("h-00000", "h-00001"))
            client.claim()
            before = client.stats()
            with pytest.raises(BrokerUnavailable, match=f"400.*{names}"):
                client._request(path, body)
            assert client.stats() == before
            assert client.claim()[1] == "h-00001"  # still serving, nothing lost

    def test_oversized_body_is_refused_unread_and_the_connection_closed(
        self, server
    ):
        """A declared length above MAX_BODY_BYTES is answered 413 before
        a byte of the body is read, so the broker hangs up: the unread
        bytes would otherwise be parsed as the next request."""
        peer = socket.create_connection(server.server_address[:2], timeout=5.0)
        try:
            peer.sendall(
                b"POST /submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n{}"
                % (MAX_BODY_BYTES + 1)
            )
            reply = b""
            while chunk := peer.recv(4096):  # until the broker closes
                reply += chunk
        finally:
            peer.close()
        assert reply.startswith(b"HTTP/1.1 413")
        with BrokerClient(server.url) as client:
            assert client.stats()["pending"] == 0  # still serving

    def test_a_stalled_body_is_hung_up_on_at_the_read_deadline(self, monkeypatch, capsys):
        """A declared body never sent is hung up on, unanswered and traceback-free, at the
        deadline; keep-alive traffic is unchanged, and an idled-out one reconnects."""
        monkeypatch.setattr(broker, "READ_DEADLINE_S", 0.5)
        server = start_broker(token="s3cret")
        try:
            with BrokerClient(server.url, token="s3cret") as client:
                first = client._connection()
                assert client.submit(envelopes("h-00000")) == 1
                assert client._connection() is first
                with socket.create_connection(server.server_address[:2], timeout=5.0) as peer:
                    peer.sendall(b"POST /submit HTTP/1.1\r\nAuthorization: Bearer s3cret\r\n"
                                 b"Content-Length: 100\r\n\r\n")
                    start = time.monotonic()
                    assert peer.recv(4096) == b""  # closed, no reply
                    assert time.monotonic() - start < 0.5 + 2.0
                assert client.stats()["pending"] == 1 and client._connection() is not first
        finally:
            server.shutdown()
            server.server_close()
        assert capsys.readouterr().err == ""

    def test_requests_reuse_one_keepalive_connection(self, server):
        """The connection-churn fix: one TCP connection per thread, not
        one per request (the dominant slice of broker overhead)."""
        client = BrokerClient(server.url)
        client.stats()
        first = client._connection()
        client.stats()
        client.submit(envelopes("k-00000"))
        assert client._connection() is first
        client.close()
        assert getattr(client._local, "connection", None) is None

    def test_heartbeat_thread_closes_the_connection_it_opened(
        self, server, monkeypatch
    ):
        """Connections are per thread, so the worker's heartbeat thread —
        a new one per task — closes its own before it exits; the main
        thread's connection is not its to touch."""
        with BrokerClient(server.url, match="h-") as client:
            client.submit(envelopes("h-00000"))
            _, claim = client.claim()
            beaten = threading.Event()
            opened_by_the_thread = []
            heartbeat = client.heartbeat

            def recording(token):
                heartbeat(token)
                opened_by_the_thread.append(client._connection())
                beaten.set()

            monkeypatch.setattr(client, "heartbeat", recording)
            with _Heartbeat(client, claim, 0.01):
                assert beaten.wait(5.0), "the heartbeat thread never beat"
            assert opened_by_the_thread[0].sock is None  # closed, by its owner
            assert client._connection() is not opened_by_the_thread[0]
            assert client._connection().sock is not None

    def test_client_recovers_from_a_dropped_connection(self, server):
        """A keep-alive socket the server closed surfaces on the *next*
        request; the client retries once on a fresh connection."""
        with BrokerClient(server.url) as client:
            client.stats()
            client._connection().sock.close()  # simulate server-side idle drop
            assert client.stats()["pending"] == 0  # healed transparently

    def test_peer_reset_mid_request_leaves_no_traceback(
        self, server, capsys, monkeypatch
    ):
        """A drainer terminated mid keep-alive resets its socket under a
        half-sent request; that is not a broker fault and must not print
        one (the ledger counts stderr tracebacks)."""
        handled = threading.Event()
        handle_error = server.handle_error

        def observed(request, client_address):
            try:
                handle_error(request, client_address)
            finally:
                handled.set()

        monkeypatch.setattr(server, "handle_error", observed)
        peer = socket.create_connection(server.server_address[:2])
        peer.sendall(b'POST /claim HTTP/1.1\r\nContent-Length: 64\r\n\r\n{"match": ')
        # SO_LINGER 0: close() sends RST, as the kernel does for a killed process.
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()
        assert handled.wait(5.0), "the reset never reached handle_error"
        assert capsys.readouterr().err == ""
        client = BrokerClient(server.url)
        assert client.stats()["pending"] == 0  # still serving
        client.close()

    def test_other_handler_errors_are_still_reported(self, server, capsys):
        try:
            raise ValueError("a broker bug")
        except ValueError:
            server.handle_error(None, ("127.0.0.1", 1))
        assert "ValueError: a broker bug" in capsys.readouterr().err

    def test_unreachable_broker_raises(self):
        client = BrokerClient("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(BrokerUnavailable, match="unreachable"):
            client.stats()

    def test_worker_drains_over_http(self, server):
        """The broker-mode worker loop end to end, in this process."""
        payload = FAST_SPEC.to_dict()
        with BrokerClient(server.url) as client:
            client.submit(
                [task_envelope("h-00000", payload), task_envelope("h-00001", payload)]
            )
            with BrokerClient(server.url, match="h-") as worker:
                executed = drain(worker, exit_when_empty=True)
            assert executed == 2
            response = client.collect(match="h-")
        assert len(response["results"]) == 2
        assert all(env.get("error") is None for env in response["results"])


class TestBrokerBackendIntegration:
    @pytest.mark.slow
    def test_private_broker_sweep_matches_serial(self):
        specs = [FAST_SPEC, FAST_SPEC.with_seed(2)]
        reference = BatchRunner(specs, backend=SerialBackend(), cache=False).run()
        batch = BatchRunner(
            specs, backend=BrokerBackend(workers=2, timeout_s=120.0), cache=False
        ).run()
        assert json.dumps(batch.to_dicts(include_runtime=False)) == json.dumps(
            reference.to_dicts(include_runtime=False)
        )
        assert batch.backend == "broker"
        assert batch.queue is not None and batch.queue.spawned >= 1

    @pytest.mark.slow
    def test_external_broker_url_with_external_workers(self):
        """workers=0 against an explicit URL: the fleet is somebody
        else's — here, one drain() call standing in for a remote host."""
        import threading

        server = start_broker()
        try:
            # A "remote" worker polling the broker until the sweep's one
            # task is done (the idle timeout only bounds a failing test).
            def remote_worker():
                with BrokerClient(server.url) as client:
                    drain(
                        client, max_tasks=1, idle_timeout_s=30.0, poll_interval_s=0.05
                    )

            fleet = threading.Thread(target=remote_worker, daemon=True)
            fleet.start()
            backend = BrokerBackend(server.url, workers=0, timeout_s=60.0)
            batch = BatchRunner([FAST_SPEC], backend=backend, cache=False).run()
            reference = BatchRunner(
                [FAST_SPEC], backend=SerialBackend(), cache=False
            ).run()
            assert json.dumps(
                batch.to_dicts(include_runtime=False)
            ) == json.dumps(reference.to_dicts(include_runtime=False))
            assert backend.last_run_stats.spawned == 0  # nothing local
            fleet.join(timeout=10.0)
            assert not fleet.is_alive()  # gone, its connection closed
        finally:
            server.shutdown()
            server.server_close()

    def test_worker_failure_surfaces_with_task_id(self):
        backend = BrokerBackend(workers=1, timeout_s=60.0)
        with pytest.raises(BackendError, match="SpecError"):
            backend.run([{"cycles": -1}])
