"""HTTP task broker: ``python -m repro.experiment.broker``.

The network-transparent half of the queue layer.  The file-based
:class:`~repro.experiment.backends.work_queue.WorkQueueBackend` couples
submitter and workers through a shared filesystem; this broker speaks
the *same* task/claim/result envelope protocol over HTTP, so submitter
and workers need only a URL in common:

.. code-block:: console

    # anywhere the fleet can reach:
    $ REPRO_BROKER_TOKEN=s3cret python -m repro.experiment.broker \\
          --host 0.0.0.0 --port 8123 --store-dir /var/lib/repro-broker

    # on each worker host (same token in the environment):
    $ REPRO_BROKER_TOKEN=s3cret python -m repro.experiment.worker \\
          --broker http://broker:8123

    # on the submitting host (same token in the environment):
    >>> BatchRunner(sweep, backend=BrokerBackend("http://broker:8123",
    ...                                          workers=0)).run()

Everything is stdlib: :class:`http.server.ThreadingHTTPServer` on the
outside, :class:`BrokerQueue` on the inside.  The queue is an
**applied-record state machine**: every transition is one record
(``submit``, ``claim``, ``result``, ``ack``, ``requeue``, ``exhaust``,
``cancel``, ``gc`` — the table in ``docs/experiment-api.md``), and
:meth:`BrokerQueue._apply` is the only code that changes a bucket's
tables.  A verb validates its input whole, builds the record, appends
it to the journal and then applies it; recovery feeds the snapshot and
the journaled records to the same function, so a restarted broker is
in the state of one that never died by construction.  Claims are
leases: every request first sweeps the expired ones, and what an
expired claim becomes is
:func:`~repro.experiment.backends.queue_common.lease_verdict`'s to say,
as on the file queue.

What makes it fit for a *shared, long-lived* deployment rather than a
trusted localhost: with ``--store-dir`` the records are journaled and
snapshotted through :class:`~repro.experiment.broker_store.BrokerStore`,
so a restart — deploy, OOM, ``kill -9`` — loses no submitted task and no
finished result; with ``REPRO_BROKER_TOKEN`` set every request must
carry ``Authorization: Bearer <token>`` or is refused with 401 (the same
variable arms :class:`BrokerClient` and the worker); and task state is
bucketed per submission prefix (:func:`bucket_key`), so one tenant's
claims and collects never walk another's backlog.

The endpoints (``POST /submit``, ``/claim``, ``/heartbeat``, ``/result``,
``/collect``, ``/cancel``; ``GET /stats``), their JSON bodies, answers
and refusals are tabulated next to the records in
``docs/experiment-api.md``.  A request the queue cannot take whole — a
body that is not a JSON object, a batch with one malformed envelope, an
``ack`` or ``ids`` that is not a list of strings — is refused with 400
and changes nothing; a body above :data:`MAX_BODY_BYTES` is refused
unread with 413.  The task envelope is
:func:`repro.experiment.backends.queue_common.task_envelope`; outcome
envelopes are ``{"id", "result"}`` or ``{"id", "error"}``, with
``attempts`` annotated by the broker so submitters can account for
worker deaths they never saw.
"""

from __future__ import annotations

import argparse
import bisect
import hmac
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator, Mapping

from repro.experiment.backends.queue_common import (
    BROKER_TOKEN_ENV_VAR,
    ORPHAN_HORIZON_S,
    default_broker_token,
    lease_of,
    lease_verdict,
    validate_envelope,
    validate_outcome,
)
from repro.experiment.broker_store import DEFAULT_SNAPSHOT_EVERY, BrokerStore

__all__ = [
    "BrokerQueue",
    "BrokerServer",
    "MAX_BODY_BYTES",
    "bucket_key",
    "main",
    "start_broker",
]

#: Largest request body the broker reads.  Sized from the one big
#: request there is, a whole-sweep ``/submit``: an envelope is about
#: 1 KB of canonical spec JSON (0.8-1.2 KB for the golden specs), so
#: this admits a sweep of tens of thousands of cells in one request —
#: orders of magnitude past the paper's grids — while a declared length
#: beyond it is refused before a byte of it is buffered.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a connection may send nothing the broker is reading (request or
#: declared body) before it is closed, so a stalled body cannot hold a thread:
#: well above the client's 10 s timeout and every poll / default heartbeat gap.
#: An idled-out keep-alive costs ``BrokerClient`` its one retry on a fresh one.
READ_DEADLINE_S = 30.0


def bucket_key(task_id: str) -> str:
    """The submission bucket a task id belongs to.

    Ids are ``<submission>-<index>`` (``f"{job}-{index:05d}"`` in both
    backends), so everything up to and including the final ``-`` names
    the submission; an id with no ``-`` is its own bucket.  Submitters
    scope claims and collects by exactly this prefix, which is what
    makes a bucket the unit of O(own submission) work.
    """
    head, sep, _ = task_id.rpartition("-")
    return head + sep if sep else task_id


def _strings(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of strings")
    return value


class _Pending:
    """A bucket's pending tasks: id -> envelope, plus the ids in sorted
    order — claim order is id order, which is submission order (ids
    embed the submitter's planned index), bisected straight to a match
    prefix."""

    __slots__ = ("ids", "envelopes")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.envelopes: dict[str, dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.envelopes

    def put(self, envelope: dict[str, Any]) -> None:
        task_id = str(envelope["id"])
        if task_id not in self.envelopes:
            bisect.insort(self.ids, task_id)
        self.envelopes[task_id] = envelope

    def pop(self, task_id: str) -> dict[str, Any] | None:
        envelope = self.envelopes.pop(task_id, None)
        if envelope is not None:
            del self.ids[bisect.bisect_left(self.ids, task_id)]
        return envelope

    def under(self, prefix: str) -> Iterator[str]:
        """The pending ids that start with ``prefix``, in order."""
        index = bisect.bisect_left(self.ids, prefix)
        while index < len(self.ids) and self.ids[index].startswith(prefix):
            yield self.ids[index]
            index += 1


class _Bucket:
    """One submission's live state: pending, claimed, finished."""

    __slots__ = ("pending", "claimed", "results", "touched_at")

    def __init__(self, touched_at: float) -> None:
        self.pending = _Pending()
        #: id -> (envelope, lease deadline, worker name)
        self.claimed: dict[str, tuple[dict[str, Any], float, str]] = {}
        self.results: dict[str, dict[str, Any]] = {}
        #: Last time anyone (submitter or worker) touched this
        #: submission — the abandoned-submission GC clock.
        self.touched_at = touched_at

    def holds(self, task_id: str) -> bool:
        return (
            task_id in self.pending
            or task_id in self.claimed
            or task_id in self.results
        )

    def empty(self) -> bool:
        return not (self.pending or self.claimed or self.results)


class BrokerQueue:
    """The broker's task state, bucketed by submission; thread-safe.

    Lease policy is the envelopes' own (``lease_s``, ``max_attempts``);
    the queue has none.  Two clocks move outside the journal, because
    recovery re-anchors clocks anyway: a heartbeat extends its claim's
    deadline, a collect refreshes its buckets' idle age.

    Args:
        time_fn: monotonic clock, injectable so lease-expiry tests need
            no real sleeping.
        store: optional :class:`~repro.experiment.broker_store.BrokerStore`
            — every record is journaled through it and the persisted
            state is recovered (with lease deadlines re-anchored against
            ``time_fn``'s axis) before the queue serves its first
            request.  ``None`` keeps the queue in-memory.
    """

    def __init__(
        self,
        time_fn: Callable[[], float] = time.monotonic,
        store: BrokerStore | None = None,
    ) -> None:
        self._now = time_fn
        self._lock = threading.Lock()
        self._buckets: dict[str, _Bucket] = {}  # by bucket_key
        self._store = store
        if store is not None:
            now = self._now()
            state, records = store.recover()
            if state is not None:
                self._apply({"op": "snapshot", **state}, now)
            for record in records:
                self._apply(record, now)
            # Compact at boot: the recovered state becomes the snapshot,
            # replayed generations are retired, and a fresh journal
            # generation is opened for this process's appends.
            store.checkpoint(self._state_dict(now))

    # -------------------------------------------------------- state machine
    def _commit(self, record: Mapping[str, Any], now: float) -> None:
        """Journal one transition, then apply it (lock held)."""
        due = self._store is not None and self._store.append(record)
        self._apply(record, now)
        if due:
            self._store.checkpoint(self._state_dict(now))

    def _apply(self, record: Mapping[str, Any], now: float) -> None:
        """What each record does to the tables — live and on recovery.

        The only code that adds to or removes from a bucket.  A record
        whose subject is already gone (acked, cancelled, GC'd) is a
        no-op.  Clocks are set on the caller's axis: a replayed claim
        gets a *full fresh* lease (the journal records that a claim
        happened, not how much lease was left: a worker that died with
        the broker costs one extra lease interval, one that survived
        just keeps heartbeating), and the ``snapshot`` pseudo-record —
        ``snapshot.json``'s state, never journaled — re-anchors the
        durations it persisted.
        """
        op = record.get("op")
        if op == "snapshot":
            for key, raw in record.get("buckets", {}).items():
                bucket = self._buckets[str(key)] = _Bucket(
                    now - float(raw.get("idle_s", 0.0))
                )
                for envelope in raw.get("pending", ()):
                    bucket.pending.put(envelope)
                for envelope, remaining_s, worker in raw.get("claimed", ()):
                    deadline = now + max(float(remaining_s), 0.0)
                    claim = (envelope, deadline, str(worker))
                    bucket.claimed[str(envelope["id"])] = claim
                for outcome in raw.get("results", ()):
                    bucket.results[str(outcome["id"])] = outcome
            return
        if op == "gc":
            for key in record.get("keys", ()):
                self._buckets.pop(str(key), None)
            return
        if op == "submit":
            for envelope in record.get("tasks", ()):
                task_id = str(envelope["id"])
                key = bucket_key(task_id)
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = self._buckets[key] = _Bucket(now)
                bucket.touched_at = now
                if not bucket.holds(task_id):  # resubmission is a no-op
                    bucket.pending.put(envelope)
            return
        if op in ("ack", "cancel"):
            for task_id in map(str, record.get("ids", ())):
                key = bucket_key(task_id)
                bucket = self._buckets.get(key)
                if bucket is None:
                    continue
                handed_over = bucket.results.pop(task_id, None) is not None
                if op == "cancel":
                    bucket.pending.pop(task_id)
                    bucket.claimed.pop(task_id, None)
                elif handed_over:
                    bucket.touched_at = now
                if bucket.empty():
                    del self._buckets[key]
            return
        # The rest act on one task: named by the outcome of a result, by
        # the record itself otherwise.
        outcome = record.get("outcome", {}) if op == "result" else record
        task_id = str(outcome.get("id", ""))
        bucket = self._bucket_of(task_id)
        if bucket is None:
            return
        if op == "claim":
            envelope = bucket.pending.pop(task_id)
            if envelope is None:
                return
            worker = str(record.get("worker", ""))
            bucket.claimed[task_id] = (envelope, now + lease_of(envelope), worker)
        elif op == "result":
            if not bucket.holds(task_id):
                return
            entry = bucket.claimed.pop(task_id, None)
            envelope = entry[0] if entry else bucket.pending.pop(task_id)
            stored = dict(outcome)
            if envelope is not None:
                stored.setdefault("attempts", envelope.get("attempts", 0))
            bucket.results[task_id] = stored
        elif op in ("requeue", "exhaust"):
            # The record says the lease on ``id`` ran out; what that
            # makes of the task is lease_verdict's to say — a pure
            # function of the claimed envelope, so live and replay
            # cannot disagree (``attempts``/``budget`` are in the record
            # for whoever reads the journal).
            entry = bucket.claimed.pop(task_id, None)
            if entry is None:
                return
            verdict, after = lease_verdict(entry[0])
            if verdict == "requeue":
                bucket.pending.put(after)
            else:
                bucket.results[task_id] = after
        else:
            return  # a record from a newer broker: not ours to interpret
        bucket.touched_at = now

    def _bucket_of(self, task_id: str) -> _Bucket | None:
        return self._buckets.get(bucket_key(task_id))

    def _state_dict(self, now: float) -> dict[str, Any]:
        """Full state with every clock converted to a *duration*.

        Deadlines and touch times are instants on this process's
        monotonic axis — meaningless to the next process — so claims
        persist their remaining lease and buckets their idle age, both
        re-anchored against the new clock at load.
        """
        buckets: dict[str, Any] = {}
        for key in sorted(self._buckets):
            bucket = self._buckets[key]
            buckets[key] = {
                "pending": [bucket.pending.envelopes[t] for t in bucket.pending.ids],
                "claimed": [
                    [env, max(deadline - now, 0.0), worker]
                    for _, (env, deadline, worker) in sorted(bucket.claimed.items())
                ],
                "results": [bucket.results[t] for t in sorted(bucket.results)],
                "idle_s": max(now - bucket.touched_at, 0.0),
            }
        return {"buckets": buckets}

    def _reach(self, match: str) -> list[str]:
        """Bucket keys a ``match`` prefix can reach, in sorted order: a
        task matches iff its id starts with ``match`` and all of a
        bucket's ids start with its key, so either the key extends the
        match or the match reaches into the bucket."""
        return sorted(
            key
            for key in self._buckets
            if key.startswith(match) or match.startswith(key)
        )

    def _expire(self, now: float) -> None:
        """Settle expired claims and GC abandoned buckets (lock held)."""
        for bucket in self._buckets.values():
            expired = sorted(
                task_id
                for task_id, (_, deadline, _) in bucket.claimed.items()
                if deadline < now
            )
            for task_id in expired:
                envelope = bucket.claimed[task_id][0]
                op, after = lease_verdict(envelope)
                record = {"op": op, "id": task_id, "attempts": after["attempts"]}
                if op == "exhaust":
                    record["budget"] = envelope.get("max_attempts")
                self._commit(record, now)
        # Orphan GC: nothing refreshes a dead submitter's bucket.
        horizon = now - ORPHAN_HORIZON_S
        stale = [k for k, b in self._buckets.items() if b.touched_at < horizon]
        if stale:
            self._commit({"op": "gc", "keys": stale}, now)

    # ------------------------------------------------------------- protocol
    def submit(self, tasks: list[Mapping[str, Any]]) -> int:
        """Enqueue a batch — whole or, with one malformed envelope, not
        at all (``ValueError`` naming the task and the field)."""
        if not isinstance(tasks, list):
            raise ValueError("'tasks' must be a list of task envelopes")
        for envelope in tasks:
            validate_envelope(envelope)
        now = self._now()
        with self._lock:
            if tasks:
                self._commit({"op": "submit", "tasks": [dict(t) for t in tasks]}, now)
            return len(tasks)

    def claim(self, match: str = "", worker: str = "") -> dict[str, Any] | None:
        """Pop the first pending task matching ``match`` and lease it —
        O(own submission): only the buckets the prefix can reach are
        visited, each bisected straight to the prefix."""
        now = self._now()
        with self._lock:
            self._expire(now)
            for key in self._reach(match):
                bucket = self._buckets[key]
                task_id = next(bucket.pending.under(match), None)
                if task_id is not None:
                    self._commit({"op": "claim", "id": task_id, "worker": worker}, now)
                    return dict(bucket.claimed[task_id][0])
            return None

    def heartbeat(self, task_id: str) -> bool:
        """Extend a live claim's lease; False if the claim is gone.
        Deliberately not journaled: a fleet beats every quarter lease,
        and a deadline is nothing recovery could use."""
        now = self._now()
        with self._lock:
            self._expire(now)
            bucket = self._bucket_of(task_id)
            entry = bucket.claimed.get(task_id) if bucket is not None else None
            if bucket is None or entry is None:
                return False
            envelope, _, worker = entry
            bucket.claimed[task_id] = (envelope, now + lease_of(envelope), worker)
            bucket.touched_at = now
            return True

    def result(self, outcome: Mapping[str, Any]) -> bool:
        """Accept an outcome envelope; False if the task is unknown,
        ``ValueError`` (nothing stored) if the envelope is malformed.

        A result is accepted from a worker whose lease already expired —
        its task may have been requeued (or re-claimed by someone else),
        but by the engine's determinism a late result is byte-identical
        to the eventual one, so it completes the task immediately and
        the duplicate execution is cancelled where possible.  Outcomes
        for ids the broker has never seen (a cancelled submission) are
        refused so they cannot accumulate forever.
        """
        validate_outcome(outcome)
        now = self._now()
        with self._lock:
            task_id = outcome["id"]
            bucket = self._bucket_of(task_id)
            if bucket is None or not bucket.holds(task_id):
                return False
            self._commit({"op": "result", "outcome": dict(outcome)}, now)
            return True

    def collect(self, match: str, ack: list[str] | None = None) -> dict[str, Any]:
        """Hand over finished results, plus the live pending/claimed
        counts the submitter's auto-scaler and liveness logic need —
        one round trip per poll tick.

        The submission is addressed by its ``match`` prefix — which must
        be a string: defaulting to the empty prefix would reach every
        bucket and hand one submitter every tenant's results — so a poll
        tick costs O(newly finished) on the wire and O(own submission)
        here, never a walk of every tenant's state.

        Handover is **ack-based, never speculative**: results stay in
        the tables (and are re-sent) until a later request lists them in
        ``ack``, which the submitter only does after safely receiving
        the previous response, so a response lost on the wire loses
        nothing.  The final :meth:`cancel` purges whatever was never
        acked (and the orphan GC covers submitters that died before
        even that)."""
        if not isinstance(match, str):
            raise ValueError("collect needs a string 'match' prefix")
        ack = _strings(ack or [], "'ack'")
        now = self._now()
        with self._lock:
            self._expire(now)
            acked = []
            for task_id in ack:
                bucket = self._bucket_of(task_id)
                if bucket is not None and task_id in bucket.results:
                    acked.append(task_id)
            if acked:
                self._commit({"op": "ack", "ids": acked}, now)
            results: list[dict[str, Any]] = []
            pending = claimed = 0
            for key in self._reach(match):
                bucket = self._buckets[key]
                # The asker is a live submitter: its submission
                # stays fresh for the abandoned-submission GC.
                bucket.touched_at = now
                if key.startswith(match):
                    # Whole bucket matches: counts are O(1), results
                    # are O(finished) — the steady-state poll tick.
                    wanted = sorted(bucket.results)
                    pending += len(bucket.pending)
                    claimed += len(bucket.claimed)
                else:
                    wanted = sorted(t for t in bucket.results if t.startswith(match))
                    pending += sum(1 for _ in bucket.pending.under(match))
                    claimed += sum(1 for t in bucket.claimed if t.startswith(match))
                results.extend(dict(bucket.results[t]) for t in wanted)
            return {"results": results, "pending": pending, "claimed": claimed}

    def cancel(self, ids: list[str]) -> int:
        """Withdraw a submission: nobody is waiting for these tasks.
        Returns how many were still unfinished (pending or claimed)."""
        ids = _strings(ids, "'ids'")
        now = self._now()
        with self._lock:
            cancelled = 0
            for task_id in dict.fromkeys(ids):
                bucket = self._bucket_of(task_id)
                if bucket is not None and (
                    task_id in bucket.pending or task_id in bucket.claimed
                ):
                    cancelled += 1
            self._commit({"op": "cancel", "ids": ids}, now)
            return cancelled

    def stats(self) -> dict[str, Any]:
        now = self._now()
        with self._lock:
            self._expire(now)
            buckets = list(self._buckets.values())
            return {
                "pending": sum(len(b.pending) for b in buckets),
                "claimed": sum(len(b.claimed) for b in buckets),
                "results": sum(len(b.results) for b in buckets),
                "buckets": len(buckets),
                "durable": self._store is not None,
            }

    def close(self) -> None:
        """Close the store's journal (idempotent; in-memory: nothing)."""
        if self._store is not None:
            self._store.close()


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shim over :class:`BrokerQueue`; no state of its own.

    With a ``token`` configured (``REPRO_BROKER_TOKEN``), every request
    must carry ``Authorization: Bearer <token>`` — a constant-time
    comparison, 401 on mismatch — before its body is read.
    """

    queue: BrokerQueue  # set by BrokerServer
    token: str | None = None  # set by BrokerServer
    protocol_version = "HTTP/1.1"
    # Keep-alive + Nagle is pathological for this protocol: headers and
    # body go out as separate small segments, and Nagle holds the second
    # for the peer's delayed ACK — ~40 ms added to every round trip.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # a fleet heartbeating every lease/4 would drown stderr

    def _reply(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        if not self.token:
            return True
        supplied = self.headers.get("Authorization") or ""
        expected = f"Bearer {self.token}"
        return hmac.compare_digest(
            supplied.encode("utf-8"), expected.encode("utf-8")
        )

    def _refuse_unauthorized(self) -> None:
        self._reply(
            401,
            {
                "error": "missing or invalid broker token; send "
                f"'Authorization: Bearer <token>' (set {BROKER_TOKEN_ENV_VAR} "
                "in the client environment)"
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            self._refuse_unauthorized()
            return
        if self.path.split("?", 1)[0] == "/stats":
            self._reply(200, self.queue.stats())
        else:
            self._reply(404, {"error": f"unknown endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # Both refusals below leave the body unread, so the keep-alive
        # stream is out of step with the requests on it: answer, then
        # hang up.
        if not self._authorized():
            self.close_connection = True
            self._refuse_unauthorized()
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            limit = f"Content-Length must be 0..{MAX_BODY_BYTES} bytes"
            self._reply(413 if length > 0 else 400, {"error": limit})
            return
        try:
            raw = self.rfile.read(length) if length else b"{}"
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"bad JSON body: {exc}"})
            return
        if not isinstance(body, dict):
            self._reply(400, {"error": "the request body must be a JSON object"})
            return
        route = self.path.split("?", 1)[0]
        try:
            if route == "/submit":
                reply: Any = {"accepted": self.queue.submit(body.get("tasks", []))}
            elif route == "/claim":
                task = self.queue.claim(
                    match=str(body.get("match", "")),
                    worker=str(body.get("worker", "")),
                )
                reply = {"task": task}
            elif route == "/heartbeat":
                reply = {"ok": self.queue.heartbeat(str(body.get("id")))}
            elif route == "/result":
                reply = {"ok": self.queue.result(body)}
            elif route == "/collect":
                reply = self.queue.collect(body.get("match"), ack=body.get("ack", []))
            elif route == "/cancel":
                reply = {"cancelled": self.queue.cancel(body.get("ids", []))}
            else:
                self._reply(404, {"error": f"unknown endpoint {route!r}"})
                return
        except ValueError as exc:  # refused whole by the verb: nothing changed
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # a broken request must not kill the broker
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply(200, reply)


class BrokerServer(ThreadingHTTPServer):
    """One listening socket bound to one :class:`BrokerQueue`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        queue: BrokerQueue,
        token: str | None = None,
    ) -> None:
        bound = {"queue": queue, "token": token, "timeout": READ_DEADLINE_S}
        handler = type("BoundHandler", (_Handler,), bound)
        super().__init__(address, handler)
        self.queue = queue
        self.token = token

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A peer that went away mid-request (a drainer terminated on a keep-alive
        connection) or silent past :data:`READ_DEADLINE_S` is that peer's business,
        not a broker fault: no traceback for it.  Anything else is reported as usual."""
        if isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` now, not at its next poll: raise the flag
        :meth:`~socketserver.BaseServer.shutdown` raises (name-mangled there),
        then wake the loop's ``select`` with a connection to the listening
        socket.  The loop sees the flag before it accepts anything, so the
        connection is never served."""
        self._BaseServer__shutdown_request = True
        try:
            with socket.create_connection(self._reachable_address(), timeout=1.0):
                pass
        except OSError:  # unreachable: the poll still ends the loop
            pass
        super().shutdown()

    def server_close(self) -> None:
        """Close the listening socket and the queue's journal."""
        super().server_close()
        self.queue.close()

    def _reachable_address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return ("127.0.0.1" if host in ("0.0.0.0", "::") else host), port

    @property
    def url(self) -> str:
        host, port = self._reachable_address()
        return f"http://{host}:{port}"


def start_broker(
    host: str = "127.0.0.1",
    port: int = 0,
    token: str | None = None,
    store_dir: str | None = None,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    fsync: bool = False,
) -> BrokerServer:
    """Start a broker on a background thread; returns the live server.

    ``port=0`` picks a free port — read the result's ``.url``.  Shut it
    down with ``server.shutdown(); server.server_close()``.  ``token``
    defaults to ``REPRO_BROKER_TOKEN`` (``None`` with the variable
    unset: open broker); ``store_dir`` makes the queue durable.  This is
    what :class:`~repro.experiment.backends.broker_client.BrokerBackend`
    uses for its private per-run broker, what the CLI serves, and what
    tests use to get a real HTTP broker without a subprocess.
    """
    store = (
        BrokerStore(store_dir, snapshot_every=snapshot_every, fsync=fsync)
        if store_dir
        else None
    )
    server = BrokerServer(
        (host, port),
        BrokerQueue(store=store),
        token=token if token is not None else default_broker_token(),
    )
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-broker",
        daemon=True,
    )
    thread.start()
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiment.broker",
        description="Serve the repro task/claim/result protocol over HTTP "
        "(see repro.experiment.BrokerBackend).",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (0.0.0.0 to accept a remote fleet; set "
        f"{BROKER_TOKEN_ENV_VAR} before binding beyond a trusted network)",
    )
    parser.add_argument("--port", type=int, default=8123, help="bind port")
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="journal + snapshot directory; with it the broker is durable — "
        "a restart on the same directory recovers every pending task, live "
        "claim and uncollected result (default: in-memory only)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=DEFAULT_SNAPSHOT_EVERY,
        help="journal records between snapshot checkpoints "
        f"(default: {DEFAULT_SNAPSHOT_EVERY})",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every journal append (host-crash durability; the "
        "default flush already survives any broker process death)",
    )
    args = parser.parse_args(argv)
    server = start_broker(
        args.host,
        args.port,
        store_dir=args.store_dir,
        snapshot_every=args.snapshot_every,
        fsync=args.fsync,
    )
    durability = f"durable store {args.store_dir}" if args.store_dir else "in-memory"
    auth = "token auth on" if server.token else "unauthenticated"
    print(
        f"repro broker listening on {server.url} ({durability}, {auth})",
        flush=True,
    )
    try:
        threading.Event().wait()  # start_broker's thread serves; wait for ^C
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
