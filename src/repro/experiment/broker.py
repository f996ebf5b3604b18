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
outside, :class:`BrokerQueue` on the inside.  Claims are **leases** here
too — the broker stamps a deadline on every claim, workers extend it by
heartbeating, and every request first sweeps expired leases: an expired
claim with retry budget left goes back on the queue with its
``attempts`` bumped, one without becomes a synthesized error envelope
naming the task and attempt count.  A ``kill -9``'d worker therefore
costs one lease interval, never the sweep.

Three properties make the broker fit for a *shared, long-lived*
deployment rather than a trusted localhost:

* **Durability** (``--store-dir``): every state transition is journaled
  and periodically snapshotted through
  :class:`~repro.experiment.broker_store.BrokerStore`, so a broker
  restart — deploy, OOM, ``kill -9`` — loses no submitted task and no
  finished result.  Lease deadlines are re-anchored on recovery from
  persisted *remaining durations*: absolute ``time.monotonic()``
  deadlines die with the process, so the store never records one.
  Without a store the queue is in-memory, as before.
* **Authentication** (``REPRO_BROKER_TOKEN``): with a token configured,
  every request must carry ``Authorization: Bearer <token>`` or is
  refused with 401 — what lets the broker bind beyond localhost.  The
  same variable arms :class:`BrokerClient` and the worker, so a fleet
  is authenticated by exporting one secret everywhere.
* **Bucketing**: task state is kept per submission prefix (the id up to
  its final ``-``), so a match-scoped ``claim`` and a prefix ``collect``
  touch only their own submission's bucket — O(own submission) under
  many concurrent submitters, instead of bisecting one global id list.

JSON endpoints (bodies and responses are ``application/json``)::

    POST /submit     {"tasks": [<task envelope>, ...]}
    POST /claim      {"match": "<id prefix>", "worker": "<name>"}
                       -> {"task": <envelope> | null}
    POST /heartbeat  {"id": ...}            -> {"ok": true|false}
    POST /result     <outcome envelope>     -> {"ok": true}
    POST /collect    {"match": "<id prefix>", "ack": [...]}
                                            -> {"results": [...],
                                                "pending": n, "claimed": n}
    POST /cancel     {"ids": [...]}         -> {"cancelled": n}
    GET  /stats      -> {"pending": n, "claimed": n, "results": n, ...}

The task envelope is
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
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, Mapping

from repro.experiment.backends.queue_common import (
    BROKER_TOKEN_ENV_VAR,
    default_broker_token,
    default_lease_s,
    default_max_attempts,
    exhausted_error,
)
from repro.experiment.broker_store import DEFAULT_SNAPSHOT_EVERY, BrokerStore

__all__ = [
    "BrokerQueue",
    "BrokerServer",
    "bucket_key",
    "main",
    "start_broker",
]


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


class _Bucket:
    """One submission's live state: pending, claimed, finished."""

    __slots__ = ("order", "tasks", "claimed", "results", "touched_at")

    def __init__(self, touched_at: float) -> None:
        #: Sorted pending task ids — claim order is id order, which is
        #: submission order (ids embed the submitter's planned index).
        self.order: list[str] = []
        self.tasks: dict[str, dict[str, Any]] = {}
        #: id -> (envelope, lease deadline, worker name)
        self.claimed: dict[str, tuple[dict[str, Any], float, str]] = {}
        self.results: dict[str, dict[str, Any]] = {}
        #: Last time anyone (submitter or worker) touched this
        #: submission — the abandoned-submission GC clock.
        self.touched_at = touched_at

    def empty(self) -> bool:
        return not (self.tasks or self.claimed or self.results)


class BrokerQueue:
    """The broker's task state, bucketed by submission; thread-safe.

    Args:
        lease_s: fallback lease for task envelopes that carry none.
        max_attempts: fallback retry budget, likewise.
        ttl_s: idle time after which a submission is garbage — a
            submitter killed before its ``cancel`` leaves its submission
            behind, and without a horizon a long-lived shared broker
            would grow forever (and external workers would burn compute
            on sweeps nobody is waiting for).  Live submissions never
            come close: submitters poll every tick and workers heartbeat
            every quarter lease.  The default matches the file queue's
            deliberately paranoid one-week orphan horizon.
        time_fn: monotonic clock, injectable so lease-expiry tests need
            no real sleeping.
        store: optional :class:`~repro.experiment.broker_store.BrokerStore`
            — every state transition is journaled through it and the
            persisted state is recovered (with lease deadlines
            re-anchored against ``time_fn``'s axis) before the queue
            serves its first request.  ``None`` keeps the queue
            in-memory.
    """

    #: Default ``ttl_s`` — the file queue's ``_STALE_RESULT_S`` horizon.
    DEFAULT_TTL_S = 7 * 24 * 3600.0

    def __init__(
        self,
        lease_s: float | None = None,
        max_attempts: int | None = None,
        ttl_s: float | None = None,
        time_fn: Callable[[], float] = time.monotonic,
        store: BrokerStore | None = None,
    ) -> None:
        self._lease_s = lease_s if lease_s is not None else default_lease_s()
        self._max_attempts = (
            max_attempts if max_attempts is not None else default_max_attempts()
        )
        self._ttl_s = ttl_s if ttl_s is not None else self.DEFAULT_TTL_S
        self._now = time_fn
        self._lock = threading.Lock()
        self._buckets: dict[str, _Bucket] = {}
        self._keys: list[str] = []  # sorted bucket keys
        self._store = store
        if store is not None:
            now = self._now()
            state, records = store.recover()
            if state is not None:
                self._load_state(state, now)
            for record in records:
                self._replay(record, now)
            # Compact at boot: the recovered state becomes the snapshot,
            # replayed generations are retired, and a fresh journal
            # generation is opened for this process's appends.
            store.checkpoint(self._state_dict(now))

    # ----------------------------------------------------------- durability
    def _journal(self, record: Mapping[str, Any]) -> None:
        """Persist one applied transition (lock held, state mutated)."""
        if self._store is None:
            return
        if self._store.append(record):
            self._store.checkpoint(self._state_dict(self._now()))

    def _state_dict(self, now: float) -> dict[str, Any]:
        """Full state with every clock converted to a *duration*.

        Deadlines and touch times are instants on this process's
        monotonic axis — meaningless to the next process — so claims
        persist their remaining lease and buckets their idle age, both
        re-anchored against the new clock at load.
        """
        buckets: dict[str, Any] = {}
        for key in self._keys:
            bucket = self._buckets[key]
            buckets[key] = {
                "pending": [bucket.tasks[tid] for tid in bucket.order],
                "claimed": [
                    [env, max(deadline - now, 0.0), worker]
                    for tid, (env, deadline, worker) in sorted(
                        bucket.claimed.items()
                    )
                ],
                "results": [
                    bucket.results[tid] for tid in sorted(bucket.results)
                ],
                "idle_s": max(now - bucket.touched_at, 0.0),
            }
        return {"buckets": buckets}

    def _load_state(self, state: Mapping[str, Any], now: float) -> None:
        """Rebuild from a snapshot, re-anchoring durations at ``now``."""
        for key, raw in state.get("buckets", {}).items():
            bucket = self._bucket(str(key), now)
            bucket.touched_at = now - float(raw.get("idle_s", 0.0))
            for envelope in raw.get("pending", ()):
                task_id = str(envelope["id"])
                bucket.tasks[task_id] = dict(envelope)
                bisect.insort(bucket.order, task_id)
            for envelope, remaining_s, worker in raw.get("claimed", ()):
                bucket.claimed[str(envelope["id"])] = (
                    dict(envelope),
                    now + max(float(remaining_s), 0.0),
                    str(worker),
                )
            for outcome in raw.get("results", ()):
                bucket.results[str(outcome["id"])] = dict(outcome)

    def _replay(self, record: Mapping[str, Any], now: float) -> None:
        """Re-apply one journaled transition during recovery.

        Claims replay with a *full fresh* lease on the new clock — the
        journal records that a claim happened, not how much lease was
        left when the broker died, and granting the whole lease is the
        conservative re-anchoring: a worker that died with the broker
        costs one extra lease interval, one that survived just keeps
        heartbeating.  Replay is idempotent: a transition whose subject
        is already gone (acked, cancelled, GC'd) is a no-op.
        """
        op = record.get("op")
        if op == "submit":
            self._do_submit(record.get("tasks", ()), now)
        elif op == "claim":
            task_id = str(record.get("id", ""))
            bucket = self._buckets.get(bucket_key(task_id))
            if bucket is not None and task_id in bucket.tasks:
                envelope = bucket.tasks.pop(task_id)
                index = bisect.bisect_left(bucket.order, task_id)
                if index < len(bucket.order) and bucket.order[index] == task_id:
                    bucket.order.pop(index)
                bucket.claimed[task_id] = (
                    envelope,
                    now + self._lease_of(envelope),
                    str(record.get("worker", "")),
                )
                bucket.touched_at = now
        elif op == "result":
            self._do_result(record.get("outcome", {}), now)
        elif op == "ack":
            self._do_ack(record.get("ids", ()), now)
        elif op == "requeue":
            task_id = str(record.get("id", ""))
            bucket = self._buckets.get(bucket_key(task_id))
            if bucket is not None and task_id in bucket.claimed:
                envelope, _, _ = bucket.claimed.pop(task_id)
                envelope["attempts"] = int(record.get("attempts", 0))
                bucket.tasks[task_id] = envelope
                bisect.insort(bucket.order, task_id)
                bucket.touched_at = now
        elif op == "exhaust":
            task_id = str(record.get("id", ""))
            bucket = self._buckets.get(bucket_key(task_id))
            if bucket is not None and task_id in bucket.claimed:
                bucket.claimed.pop(task_id)
                attempts = int(record.get("attempts", 0))
                bucket.results[task_id] = {
                    "id": task_id,
                    "error": exhausted_error(
                        task_id, attempts, int(record.get("budget", attempts))
                    ),
                    "attempts": attempts,
                }
                bucket.touched_at = now
        elif op == "cancel":
            self._do_cancel(record.get("ids", ()))
        elif op == "gc":
            for key in record.get("keys", ()):
                self._drop_bucket(str(key))

    # ------------------------------------------------------------ internals
    def _lease_of(self, envelope: Mapping[str, Any]) -> float:
        return float(envelope.get("lease_s") or self._lease_s)

    def _budget_of(self, envelope: Mapping[str, Any]) -> int:
        return int(envelope.get("max_attempts") or self._max_attempts)

    def _bucket(self, key: str, now: float) -> _Bucket:
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(now)
            self._buckets[key] = bucket
            bisect.insort(self._keys, key)
        return bucket

    def _drop_bucket(self, key: str) -> None:
        if self._buckets.pop(key, None) is not None:
            index = bisect.bisect_left(self._keys, key)
            if index < len(self._keys) and self._keys[index] == key:
                self._keys.pop(index)

    def _drop_if_empty(self, key: str) -> None:
        bucket = self._buckets.get(key)
        if bucket is not None and bucket.empty():
            self._drop_bucket(key)

    def _candidates(self, match: str) -> list[str]:
        """Bucket keys a ``match`` prefix can reach, in sorted order.

        A task matches iff its id starts with ``match``; all of a
        bucket's ids start with its key, so the only reachable buckets
        are those whose key extends the match (``key.startswith``) or
        that the match reaches into (``match.startswith(key)``) — for
        the canonical "submitter polls its own prefix" case this is a
        single bucket, never the whole table.
        """
        if not match:
            return list(self._keys)
        return [
            key
            for key in self._keys
            if key.startswith(match) or match.startswith(key)
        ]

    def _matching_ids(self, ids: Iterable[str], match: str) -> list[str]:
        return sorted(tid for tid in ids if tid.startswith(match))

    def _expire(self, now: float) -> None:
        """Requeue expired claims and GC abandoned buckets (lock held)."""
        for key in list(self._keys):
            bucket = self._buckets[key]
            expired = sorted(
                task_id
                for task_id, (_, deadline, _) in bucket.claimed.items()
                if deadline < now
            )
            for task_id in expired:
                envelope, _, _ = bucket.claimed.pop(task_id)
                bucket.touched_at = now
                attempts = int(envelope.get("attempts", 0)) + 1
                envelope["attempts"] = attempts
                budget = self._budget_of(envelope)
                if attempts >= budget:
                    bucket.results[task_id] = {
                        "id": task_id,
                        "error": exhausted_error(task_id, attempts, budget),
                        "attempts": attempts,
                    }
                    self._journal(
                        {
                            "op": "exhaust",
                            "id": task_id,
                            "attempts": attempts,
                            "budget": budget,
                        }
                    )
                else:
                    bucket.tasks[task_id] = envelope
                    bisect.insort(bucket.order, task_id)
                    self._journal(
                        {"op": "requeue", "id": task_id, "attempts": attempts}
                    )
        # Abandoned-submission GC: a submitter that died without its
        # cancel stops collecting, so nothing refreshes its bucket —
        # once idle past the TTL the whole submission is garbage.
        horizon = now - self._ttl_s
        stale = [
            key for key in self._keys if self._buckets[key].touched_at < horizon
        ]
        for key in stale:
            self._drop_bucket(key)
        if stale:
            self._journal({"op": "gc", "keys": stale})

    # ------------------------------------------------------------- protocol
    def _do_submit(self, tasks: Iterable[Mapping[str, Any]], now: float) -> int:
        count = 0
        for envelope in tasks:
            count += 1
            task_id = str(envelope["id"])
            bucket = self._bucket(bucket_key(task_id), now)
            bucket.touched_at = now
            if (
                task_id in bucket.tasks
                or task_id in bucket.claimed
                or task_id in bucket.results
            ):
                continue  # resubmission of a known task is a no-op
            bucket.tasks[task_id] = dict(envelope)
            bisect.insort(bucket.order, task_id)
        return count

    def submit(self, tasks: list[Mapping[str, Any]]) -> int:
        now = self._now()
        with self._lock:
            accepted = self._do_submit(tasks, now)
            if accepted:
                self._journal(
                    {"op": "submit", "tasks": [dict(t) for t in tasks]}
                )
            return accepted

    def claim(self, match: str = "", worker: str = "") -> dict[str, Any] | None:
        """Pop the first pending task matching ``match`` and lease it.

        Bucketing makes the scan O(own submission): only the buckets the
        prefix can reach are visited, and within a bucket the sorted
        pending list is bisected straight to the prefix — a drainer
        polling for its own submission never pays for other submissions'
        backlogs.
        """
        now = self._now()
        with self._lock:
            self._expire(now)
            for key in self._candidates(match):
                bucket = self._buckets[key]
                index = bisect.bisect_left(bucket.order, match) if match else 0
                if index >= len(bucket.order):
                    continue
                task_id = bucket.order[index]
                if match and not task_id.startswith(match):
                    continue  # sorted: past the prefix range in this bucket
                bucket.order.pop(index)
                envelope = bucket.tasks.pop(task_id)
                bucket.claimed[task_id] = (
                    envelope,
                    now + self._lease_of(envelope),
                    worker,
                )
                bucket.touched_at = now
                self._journal({"op": "claim", "id": task_id, "worker": worker})
                return dict(envelope)
            return None

    def heartbeat(self, task_id: str) -> bool:
        """Extend a live claim's lease; False if the claim is gone.

        Deliberately not journaled: heartbeats only move deadlines,
        which recovery re-anchors from scratch anyway, and a fleet beats
        every quarter lease — journaling that would drown the journal in
        records that carry no recoverable information.
        """
        now = self._now()
        with self._lock:
            self._expire(now)
            bucket = self._buckets.get(bucket_key(task_id))
            entry = bucket.claimed.get(task_id) if bucket is not None else None
            if bucket is None or entry is None:
                return False
            envelope, _, worker = entry
            bucket.claimed[task_id] = (
                envelope,
                now + self._lease_of(envelope),
                worker,
            )
            bucket.touched_at = now
            return True

    def _do_result(self, outcome: Mapping[str, Any], now: float) -> bool:
        task_id = str(outcome.get("id", ""))
        bucket = self._buckets.get(bucket_key(task_id))
        if bucket is None:
            return False
        known = (
            task_id in bucket.tasks
            or task_id in bucket.claimed
            or task_id in bucket.results
        )
        if not known:
            return False
        bucket.touched_at = now
        entry = bucket.claimed.pop(task_id, None)
        pending = bucket.tasks.pop(task_id, None)
        if pending is not None:
            index = bisect.bisect_left(bucket.order, task_id)
            if index < len(bucket.order) and bucket.order[index] == task_id:
                bucket.order.pop(index)
        envelope = entry[0] if entry else pending
        stored = dict(outcome)
        if envelope is not None:
            stored.setdefault("attempts", int(envelope.get("attempts", 0)))
        bucket.results[task_id] = stored
        return True

    def result(self, outcome: Mapping[str, Any]) -> bool:
        """Accept an outcome envelope; False if the task is unknown.

        A result is accepted from a worker whose lease already expired —
        its task may have been requeued (or re-claimed by someone else),
        but by the engine's determinism a late result is byte-identical
        to the eventual one, so it completes the task immediately and
        the duplicate execution is cancelled where possible.  Outcomes
        for ids the broker has never seen (a cancelled submission) are
        refused so they cannot accumulate forever.
        """
        now = self._now()
        with self._lock:
            accepted = self._do_result(outcome, now)
            if accepted:
                self._journal({"op": "result", "outcome": dict(outcome)})
            return accepted

    def _do_ack(self, ids: Iterable[str], now: float) -> list[str]:
        dropped = []
        for task_id in ids:
            task_id = str(task_id)
            key = bucket_key(task_id)
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            if bucket.results.pop(task_id, None) is not None:
                dropped.append(task_id)
                bucket.touched_at = now
            self._drop_if_empty(key)
        return dropped

    def collect(self, match: str, ack: list[str] | None = None) -> dict[str, Any]:
        """Hand over finished results, plus the live pending/claimed
        counts the submitter's auto-scaler and liveness logic need —
        one round trip per poll tick.

        The submission is addressed by its ``match`` prefix, which keeps
        each poll tick's request O(newly finished), not O(submission
        size), and the bucket table keeps the server-side scan O(own
        submission) — a busy shared broker never walks every tenant's
        state to answer one tenant's poll.

        Handover is **ack-based, never speculative**: results stay in
        the tables (and are re-sent) until a later request lists them in
        ``ack``, which the submitter only does after safely receiving
        the previous response.  A response lost on the wire therefore
        loses nothing — the exact failure class the lease machinery
        exists to kill.  The final :meth:`cancel` purges whatever was
        never acked, so nothing accumulates past a submission's
        lifetime (and the TTL GC covers submitters that died before
        even that)."""
        now = self._now()
        with self._lock:
            self._expire(now)
            acked = self._do_ack(ack or (), now)
            if acked:
                self._journal({"op": "ack", "ids": acked})
            results: list[dict[str, Any]] = []
            pending = claimed = 0
            for key in self._candidates(match):
                bucket = self._buckets[key]
                # The asker is a live submitter: its submission
                # stays fresh for the abandoned-submission GC.
                bucket.touched_at = now
                if key.startswith(match):
                    # Whole bucket matches: counts are O(1), results
                    # are O(finished) — the steady-state poll tick.
                    wanted = sorted(bucket.results)
                    pending += len(bucket.order)
                    claimed += len(bucket.claimed)
                else:
                    wanted = self._matching_ids(bucket.results, match)
                    index = bisect.bisect_left(bucket.order, match)
                    while (
                        index < len(bucket.order)
                        and bucket.order[index].startswith(match)
                    ):
                        pending += 1
                        index += 1
                    claimed += sum(
                        1 for t in bucket.claimed if t.startswith(match)
                    )
                results.extend(dict(bucket.results[t]) for t in wanted)
            return {
                "results": results,
                "pending": pending,
                "claimed": claimed,
            }

    def _do_cancel(self, ids: Iterable[str]) -> int:
        cancelled = 0
        for task_id in ids:
            task_id = str(task_id)
            key = bucket_key(task_id)
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            if bucket.tasks.pop(task_id, None) is not None:
                cancelled += 1
                index = bisect.bisect_left(bucket.order, task_id)
                if index < len(bucket.order) and bucket.order[index] == task_id:
                    bucket.order.pop(index)
            cancelled += bucket.claimed.pop(task_id, None) is not None
            bucket.results.pop(task_id, None)
            self._drop_if_empty(key)
        return cancelled

    def cancel(self, ids: list[str]) -> int:
        """Withdraw a submission: nobody is waiting for these tasks."""
        with self._lock:
            cancelled = self._do_cancel(ids)
            self._journal({"op": "cancel", "ids": [str(t) for t in ids]})
            return cancelled

    def stats(self) -> dict[str, Any]:
        now = self._now()
        with self._lock:
            self._expire(now)
            buckets = [self._buckets[key] for key in self._keys]
            return {
                "pending": sum(len(b.tasks) for b in buckets),
                "claimed": sum(len(b.claimed) for b in buckets),
                "results": sum(len(b.results) for b in buckets),
                "buckets": len(buckets),
                "durable": self._store is not None,
                "lease_s": self._lease_s,
                "max_attempts": self._max_attempts,
            }


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shim over :class:`BrokerQueue`; no state of its own.

    With a ``token`` configured (``REPRO_BROKER_TOKEN``), every request
    must carry ``Authorization: Bearer <token>`` — a constant-time
    comparison, 401 on mismatch — before it reaches the queue.
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

    def _body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        return json.loads(raw.decode("utf-8"))

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
        try:
            body = self._body()
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"bad JSON body: {exc}"})
            return
        if not self._authorized():
            # Body read first so the keep-alive stream stays in sync.
            self._refuse_unauthorized()
            return
        route = self.path.split("?", 1)[0]
        try:
            if route == "/submit":
                self._reply(
                    200, {"accepted": self.queue.submit(body.get("tasks", []))}
                )
            elif route == "/claim":
                task = self.queue.claim(
                    match=str(body.get("match", "")),
                    worker=str(body.get("worker", "")),
                )
                self._reply(200, {"task": task})
            elif route == "/heartbeat":
                self._reply(200, {"ok": self.queue.heartbeat(str(body.get("id")))})
            elif route == "/result":
                self._reply(200, {"ok": self.queue.result(body)})
            elif route == "/collect":
                match = body.get("match")
                if not isinstance(match, str):
                    # Never default to "": the empty prefix reaches every
                    # bucket and would hand one submitter every tenant's
                    # results.
                    self._reply(
                        400, {"error": "/collect needs a string 'match' prefix"}
                    )
                    return
                self._reply(
                    200, self.queue.collect(match, ack=list(body.get("ack", [])))
                )
            elif route == "/cancel":
                self._reply(
                    200, {"cancelled": self.queue.cancel(list(body.get("ids", [])))}
                )
            else:
                self._reply(404, {"error": f"unknown endpoint {route!r}"})
        except Exception as exc:  # a broken request must not kill the broker
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})


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
        handler = type(
            "BoundHandler", (_Handler,), {"queue": queue, "token": token}
        )
        super().__init__(address, handler)
        self.queue = queue
        self.token = token

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A peer that went away mid-request (a drainer terminated on a
        keep-alive connection) is that peer's business, not a broker
        fault: no traceback for it.  Anything else is reported as usual."""
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        display = "127.0.0.1" if host in ("0.0.0.0", "::") else host
        return f"http://{display}:{port}"


def start_broker(
    host: str = "127.0.0.1",
    port: int = 0,
    lease_s: float | None = None,
    max_attempts: int | None = None,
    ttl_s: float | None = None,
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
    uses for its private per-run broker, and what tests use to get a
    real HTTP broker without a subprocess.
    """
    store = (
        BrokerStore(store_dir, snapshot_every=snapshot_every, fsync=fsync)
        if store_dir
        else None
    )
    server = BrokerServer(
        (host, port),
        BrokerQueue(
            lease_s=lease_s, max_attempts=max_attempts, ttl_s=ttl_s, store=store
        ),
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
        "(see repro.experiment.backends.BrokerBackend).",
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
    parser.add_argument(
        "--lease-s",
        type=float,
        default=None,
        help="fallback claim lease for tasks that carry none "
        "(default: REPRO_QUEUE_LEASE_S or 30)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="fallback per-task retry budget "
        "(default: REPRO_QUEUE_MAX_ATTEMPTS or 3)",
    )
    parser.add_argument(
        "--ttl-s",
        type=float,
        default=None,
        help="drop submissions idle this long — abandoned-submitter "
        "garbage collection (default: one week)",
    )
    args = parser.parse_args(argv)
    store = (
        BrokerStore(
            args.store_dir, snapshot_every=args.snapshot_every, fsync=args.fsync
        )
        if args.store_dir
        else None
    )
    token = default_broker_token()
    server = BrokerServer(
        (args.host, args.port),
        BrokerQueue(
            lease_s=args.lease_s,
            max_attempts=args.max_attempts,
            ttl_s=args.ttl_s,
            store=store,
        ),
        token=token,
    )
    durability = f"durable store {args.store_dir}" if args.store_dir else "in-memory"
    auth = "token auth on" if token else "unauthenticated"
    print(
        f"repro broker listening on {server.url} ({durability}, {auth})",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
