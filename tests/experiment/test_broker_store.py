"""BrokerStore and the durable BrokerQueue: restart must lose nothing.

The store mechanics (journal generations, snapshot rotation, torn-tail
tolerance) are pinned directly; the queue-level tests then drive a
durable :class:`BrokerQueue` through submit/claim/result, "restart" it —
a brand-new queue on a brand-new clock pointed at the same store
directory — and assert the recovered state is exactly what died,
including lease deadlines re-anchored from persisted *remaining*
durations rather than dead absolute instants.  The full-stack version
(a real SIGKILL of a real broker subprocess mid-sweep) lives in
``test_recovery.py``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.backends.queue_common import ORPHAN_HORIZON_S, task_envelope
from repro.experiment.broker import BrokerQueue
from repro.experiment.broker_store import BrokerStore


def envelopes(*ids: str, lease_s: float = 5.0, max_attempts: int = 3) -> list:
    return [
        task_envelope(task_id, {"cell": task_id}, lease_s=lease_s,
                      max_attempts=max_attempts)
        for task_id in ids
    ]


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def journals(store_dir) -> list[str]:
    return sorted(p.name for p in store_dir.glob("journal-*.jsonl"))


class TestBrokerStore:
    """The journal/snapshot mechanics, without a queue on top."""

    def test_fresh_store_recovers_to_nothing(self, tmp_path):
        store = BrokerStore(tmp_path / "store")
        assert store.recover() == (None, [])
        store.close()

    def test_journal_records_replay_in_order(self, tmp_path):
        store = BrokerStore(tmp_path / "store", snapshot_every=100)
        for index in range(3):
            assert not store.append({"op": "submit", "seq": index})
        store.close()
        state, records = BrokerStore(tmp_path / "store").recover()
        assert state is None
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_append_reports_when_a_checkpoint_is_due(self, tmp_path):
        store = BrokerStore(tmp_path / "store", snapshot_every=2)
        assert not store.append({"op": "a"})
        assert store.append({"op": "b"})  # second record: checkpoint due
        store.checkpoint({"x": 1})
        assert not store.append({"op": "c"})  # counter reset
        store.close()

    def test_checkpoint_rotates_and_retires_journals(self, tmp_path):
        store = BrokerStore(tmp_path / "store", snapshot_every=100)
        store.append({"op": "a"})
        store.checkpoint({"x": 1})
        # The superseded generation is gone; the live one remains.
        assert journals(tmp_path / "store") == ["journal-00000001.jsonl"]
        store.append({"op": "b"})
        store.close()
        state, records = BrokerStore(tmp_path / "store").recover()
        assert state == {"x": 1}
        assert [r["op"] for r in records] == ["b"]  # "a" is in the snapshot

    def test_torn_final_line_is_skipped(self, tmp_path):
        """The record a SIGKILL interrupted mid-append was never
        acknowledged to anyone, so dropping it loses nothing."""
        store = BrokerStore(tmp_path / "store", snapshot_every=100)
        store.append({"op": "whole"})
        store.close()
        [journal] = (tmp_path / "store").glob("journal-*.jsonl")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"op": "torn", "tasks": [{"id"')  # no newline, no close
        state, records = BrokerStore(tmp_path / "store").recover()
        assert state is None
        assert [r["op"] for r in records] == ["whole"]

    def test_unreadable_snapshot_falls_back_to_journal_replay(self, tmp_path):
        store = BrokerStore(tmp_path / "store", snapshot_every=100)
        store.append({"op": "a"})
        store.close()
        (tmp_path / "store" / "snapshot.json").write_text(
            "not json at all", encoding="utf-8"
        )
        state, records = BrokerStore(tmp_path / "store").recover()
        assert state is None
        assert [r["op"] for r in records] == ["a"]

    def test_snapshot_write_is_atomic(self, tmp_path):
        """The snapshot must land via os.replace — a crash mid-write
        leaves the previous snapshot, never a torn one."""
        store = BrokerStore(tmp_path / "store")
        store.checkpoint({"x": 1})
        raw = (tmp_path / "store" / "snapshot.json").read_text(encoding="utf-8")
        snapshot = json.loads(raw)  # whole, parseable
        assert snapshot["state"] == {"x": 1}
        assert snapshot["generation"] == 1
        assert not list((tmp_path / "store").glob(".snapshot*"))  # no temp residue
        store.close()

    def test_snapshot_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            BrokerStore(tmp_path / "store", snapshot_every=0)


def durable_queue(store_dir, clock, snapshot_every=1000) -> BrokerQueue:
    return BrokerQueue(
        time_fn=clock, store=BrokerStore(store_dir, snapshot_every=snapshot_every)
    )


class TestDurableBrokerQueue:
    """Queue state across a simulated restart (new process clock)."""

    def test_restart_recovers_pending_claimed_and_results(self, tmp_path):
        queue = durable_queue(tmp_path / "store", FakeClock(100.0))
        queue.submit(envelopes("j-00000", "j-00001", "j-00002"))
        assert queue.claim()["id"] == "j-00000"
        assert queue.result({"id": "j-00000", "result": {"ok": 1}})
        assert queue.claim()["id"] == "j-00001"

        # Restart: brand-new queue, brand-new (much earlier!) clock.
        revived = durable_queue(tmp_path / "store", FakeClock(7.0))
        stats = revived.stats()
        assert stats["pending"] == 1  # j-00002
        assert stats["claimed"] == 1  # j-00001, lease re-anchored
        assert stats["results"] == 1  # j-00000's finished payload
        assert stats["durable"]
        response = revived.collect(match="j-")
        assert [e["id"] for e in response["results"]] == ["j-00000"]
        assert response["results"][0]["result"] == {"ok": 1}

    def test_restart_equals_never_having_died(self, tmp_path):
        """Same operations, with and without a restart in the middle,
        end in the same observable state."""
        ops_first = envelopes("e-00000", "e-00001")
        witness = BrokerQueue(time_fn=FakeClock(100.0))
        witness.submit(ops_first)
        witness.claim()
        witness.result({"id": "e-00000", "result": {"ok": 0}})

        durable = durable_queue(tmp_path / "store", FakeClock(100.0))
        durable.submit(ops_first)
        durable.claim()
        durable.result({"id": "e-00000", "result": {"ok": 0}})
        revived = durable_queue(tmp_path / "store", FakeClock(50.0))

        for queue in (witness, revived):
            response = queue.collect(match="e-")
            assert [e["id"] for e in response["results"]] == ["e-00000"]
            assert response["pending"] == 1
        # The pending task is claimable on both sides, same id.
        assert witness.claim()["id"] == revived.claim()["id"] == "e-00001"

    def test_journal_replayed_claim_gets_a_full_fresh_lease(self, tmp_path):
        clock = FakeClock(100.0)
        queue = durable_queue(tmp_path / "store", clock)
        queue.submit(envelopes("j-00000", lease_s=5.0))
        queue.claim()

        new_clock = FakeClock(0.0)
        revived = durable_queue(tmp_path / "store", new_clock)
        new_clock.now += 4.0  # within the re-granted 5 s lease
        assert revived.claim() is None
        new_clock.now += 2.0  # past it: requeued with attempts bumped
        reclaimed = revived.claim()
        assert reclaimed is not None and reclaimed["attempts"] == 1

    def test_snapshot_persists_remaining_lease_not_an_instant(self, tmp_path):
        """A claim that reaches the snapshot carries its *remaining*
        duration: 2 s left at checkpoint is 2 s left after restart, on a
        clock with a completely different origin."""
        clock = FakeClock(100.0)
        # snapshot_every=1: every transition checkpoints immediately.
        queue = durable_queue(tmp_path / "store", clock, snapshot_every=1)
        queue.submit(envelopes("j-00000", lease_s=5.0))
        queue.claim()  # deadline 105.0 on the dying clock
        clock.now = 103.0  # 2 s of lease left...
        queue.submit(envelopes("other-00000"))  # ...snapshotted here

        new_clock = FakeClock(1000.0)
        revived = durable_queue(tmp_path / "store", new_clock)
        new_clock.now += 1.0  # 1 s in: still leased
        assert revived.claim(match="j-") is None
        new_clock.now += 1.5  # 2.5 s in: the 2 s remainder expired
        reclaimed = revived.claim(match="j-")
        assert reclaimed is not None and reclaimed["attempts"] == 1

    def test_bucket_idle_age_survives_restart(self, tmp_path):
        """Orphan garbage collection must not reset on restart — an
        abandoned submission stays abandoned."""
        clock = FakeClock(100.0)
        queue = durable_queue(tmp_path / "store", clock, snapshot_every=1)
        queue.submit(envelopes("dead-00000"))
        clock.now += 0.8 * ORPHAN_HORIZON_S  # idle this long when the broker dies
        queue.submit(envelopes("live-00000"))  # forces a fresh snapshot

        new_clock = FakeClock(0.0)
        revived = durable_queue(tmp_path / "store", new_clock, snapshot_every=1)
        new_clock.now += 0.3 * ORPHAN_HORIZON_S  # 0.8 + 0.3: dead- crosses it
        assert revived.claim(match="dead-") is None  # GC'd, not offered
        assert revived.claim(match="live-") is not None  # 0.3 of it: kept

    def test_cancel_and_ack_survive_restart(self, tmp_path):
        """Negative durability: state removed before the crash must not
        resurrect after it."""
        queue = durable_queue(tmp_path / "store", FakeClock(100.0))
        queue.submit(envelopes("j-00000", "j-00001", "j-00002"))
        queue.claim()
        queue.result({"id": "j-00000", "result": {"ok": 1}})
        queue.collect(match="j-", ack=["j-00000"])  # handed over for good
        queue.cancel(["j-00002"])  # withdrawn

        revived = durable_queue(tmp_path / "store", FakeClock(0.0))
        stats = revived.stats()
        assert stats["results"] == 0  # the acked result stayed gone
        assert stats["pending"] == 1  # j-00001 only; j-00002 stayed cancelled
        assert revived.claim()["id"] == "j-00001"

    def test_recovery_spans_many_snapshots_and_journals(self, tmp_path):
        """A long-lived broker: transitions straddling several checkpoint
        rotations all land in the recovered state exactly once."""
        clock = FakeClock(100.0)
        queue = durable_queue(
            tmp_path / "store", clock, snapshot_every=3
        )
        ids = [f"j-{index:05d}" for index in range(10)]
        for task_id in ids:  # one submit record each: several rotations
            queue.submit(envelopes(task_id))
        for _ in range(4):
            claimed = queue.claim()
            queue.result({"id": claimed["id"], "result": {"ok": 1}})

        revived = durable_queue(tmp_path / "store", FakeClock(0.0))
        stats = revived.stats()
        assert stats["pending"] == 6
        assert stats["results"] == 4
        collected = revived.collect(match="j-")
        assert [e["id"] for e in collected["results"]] == ids[:4]

    def test_batch_with_one_malformed_task_is_refused_whole(self, tmp_path):
        """The first task of a refused batch used to stay pending in
        memory while the journal never heard of it: live and restarted
        broker disagreed about what had been submitted."""
        queue = durable_queue(tmp_path / "store", FakeClock())
        queue.submit(envelopes("j-00000"))
        before = queue.stats()
        with pytest.raises(ValueError, match="'id'"):
            queue.submit(envelopes("j-00001") + [{"spec": {}}])
        assert queue.stats() == before
        assert durable_queue(tmp_path / "store", FakeClock()).stats() == before

    def test_a_hand_written_journal_of_all_eight_ops_recovers(self, tmp_path):
        """The on-disk vocabulary, literally: a store written by an
        earlier broker keeps loading, and the snapshot the recovery
        writes has the layout it always had."""
        store = tmp_path / "store"
        store.mkdir()
        tasks = [
            {"id": task_id, "spec": {"cell": task_id}, "attempts": 0,
             "lease_s": 5.0, "max_attempts": 2}
            for task_id in [f"j-{index:05d}" for index in range(6)] + ["k-00000"]
        ]
        records = [
            {"op": "submit", "tasks": tasks},
            {"op": "claim", "id": "j-00000", "worker": "w1"},
            {"op": "result", "outcome": {"id": "j-00000", "result": {"ok": 0}}},
            {"op": "claim", "id": "j-00001", "worker": "w1"},
            {"op": "requeue", "id": "j-00001", "attempts": 1},
            {"op": "claim", "id": "j-00001", "worker": "w2"},
            {"op": "exhaust", "id": "j-00001", "attempts": 2, "budget": 2},
            {"op": "claim", "id": "j-00002", "worker": "w2"},
            {"op": "result", "outcome": {"id": "j-00002", "result": {"ok": 2}}},
            {"op": "ack", "ids": ["j-00002"]},
            {"op": "cancel", "ids": ["j-00003"]},
            {"op": "claim", "id": "j-00004", "worker": "w3"},
            {"op": "gc", "keys": ["k-"]},
        ]
        (store / "journal-00000000.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records),
            encoding="utf-8",
        )
        durable_queue(store, FakeClock(0.0)).close()
        snapshot = json.loads((store / "snapshot.json").read_text(encoding="utf-8"))
        [error] = [
            r.pop("error") for r in snapshot["state"]["buckets"]["j-"]["results"]
            if "error" in r
        ]
        assert "j-00001" in error and "2 time(s)" in error and "max_attempts=2" in error
        assert snapshot == {
            "generation": 1,
            "state": {
                "buckets": {
                    "j-": {
                        "pending": [tasks[5]],
                        "claimed": [[tasks[4], 5.0, "w3"]],  # a full fresh lease
                        "results": [
                            {"id": "j-00000", "result": {"ok": 0}, "attempts": 0},
                            {"id": "j-00001", "attempts": 2},
                        ],
                        "idle_s": 0.0,
                    }
                }
            },
        }
        # ...and the snapshot loads back to the same tables.
        again = durable_queue(store, FakeClock(50.0))
        assert again._state_dict(50.0) == {
            "buckets": {
                "j-": {
                    **snapshot["state"]["buckets"]["j-"],
                    "results": [
                        {"id": "j-00000", "result": {"ok": 0}, "attempts": 0},
                        {"id": "j-00001", "error": error, "attempts": 2},
                    ],
                }
            }
        }
        again.close()

    def test_a_stored_task_with_unparsable_policy_exhausts_naming_the_field(
        self, tmp_path
    ):
        """Submit refuses such an envelope now, but a store written
        before it did may hold one: it is given up with an error naming
        the field, not raised out of the claim that meets it."""
        store = tmp_path / "store"
        store.mkdir()
        bad = {"id": "p-00000", "spec": {}, "attempts": 0, "lease_s": "soon"}
        (store / "journal-00000000.jsonl").write_text(
            json.dumps({"op": "submit", "tasks": [bad]}) + "\n", encoding="utf-8"
        )
        queue = durable_queue(store, FakeClock(0.0))
        assert queue.claim()["id"] == "p-00000"  # a claim born expired
        [lost] = queue.collect(match="p-")["results"]
        assert "p-00000" in lost["error"] and "lease_s" in lost["error"]
        assert queue.stats()["pending"] == queue.stats()["claimed"] == 0
        queue.close()


IDS = [f"{job}-{index:05d}" for job in ("a", "b") for index in range(3)]
LEASE_S = 5.0
MALFORMED = [
    {"spec": {}},  # no id
    {"id": "a-00009", "spec": {}, "lease_s": "soon"},
    {"id": "a-00009", "spec": {}, "max_attempts": 0},
    {"id": "a-00009", "spec": {}, "attempts": -1},
    {"id": "a-00009"},  # no spec
    "a-00009",
]
OPS = st.one_of(
    # Repeated ids inside and across batches are resubmissions.
    st.tuples(st.just("submit"), st.lists(st.sampled_from(IDS), min_size=1, max_size=3)),
    st.tuples(
        st.just("submit_malformed"),
        st.lists(st.sampled_from(IDS), max_size=2),
        st.sampled_from(MALFORMED),
    ),
    st.tuples(st.just("claim"), st.sampled_from(["", "a-", "b-"])),
    st.tuples(st.just("heartbeat"), st.sampled_from(IDS)),
    # Known, unknown, or late (its lease long gone), as the sequence has it.
    st.tuples(st.just("result"), st.sampled_from(IDS + ["zz-00000"])),
    st.tuples(st.just("collect_and_ack"), st.sampled_from(["a-", "b-"])),
    st.tuples(st.just("cancel"), st.lists(st.sampled_from(IDS), max_size=3)),
    st.tuples(
        st.just("advance"), st.sampled_from([1.0, LEASE_S + 1.0, ORPHAN_HORIZON_S + 1.0])
    ),
)


def tables(queue: BrokerQueue, now: float) -> dict:
    """The tables the property compares: everything but the clocks."""
    return {
        key: {
            "pending": [(env["id"], env["attempts"]) for env in bucket["pending"]],
            "claimed": [
                (env["id"], env["attempts"], worker)
                for env, _, worker in bucket["claimed"]
            ],
            "results": bucket["results"],
        }
        for key, bucket in queue._state_dict(now)["buckets"].items()
    }


def held_ids(state: dict) -> set:
    return {
        entry[0] if isinstance(entry, tuple) else entry["id"]
        for bucket in state.values()
        for table in bucket.values()
        for entry in table
    }


class TestLiveStateEqualsReplayedState:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(OPS, max_size=40))
    def test_at_every_step(self, ops):
        """After every operation a broker restarted on (a copy of) the
        store holds the tables the live one holds, and no task that was
        accepted and not since acked, cancelled or orphaned is missing
        from them — with the journal rotating into snapshots mid-way."""
        with tempfile.TemporaryDirectory() as scratch:
            clock = FakeClock(100.0)
            live = durable_queue(Path(scratch) / "store", clock, snapshot_every=3)
            owed: set = set()  # accepted, not yet handed over or withdrawn
            for step, (op, *args) in enumerate(ops):
                if op == "submit":
                    assert live.submit(envelopes(*args[0], max_attempts=2)) == len(args[0])
                    owed.update(args[0])
                elif op == "submit_malformed":
                    before = tables(live, clock.now)
                    with pytest.raises(ValueError):
                        live.submit(envelopes(*args[0]) + [args[1]])
                    assert tables(live, clock.now) == before  # refused whole
                elif op == "claim":
                    live.claim(match=args[0], worker=f"w{step}")
                elif op == "heartbeat":
                    live.heartbeat(args[0])
                elif op == "result":
                    live.result({"id": args[0], "result": {"step": step}})
                elif op == "collect_and_ack":
                    got = [r["id"] for r in live.collect(match=args[0])["results"]]
                    live.collect(match=args[0], ack=got)
                    owed.difference_update(got)
                elif op == "cancel":
                    live.cancel(args[0])
                    owed.difference_update(args[0])
                else:
                    clock.now += args[0]
                    if args[0] > ORPHAN_HORIZON_S:
                        live.stats()  # the sweep that drops what was orphaned
                        owed = held_ids(tables(live, clock.now))

                state = tables(live, clock.now)
                assert owed <= held_ids(state)

                replica = Path(scratch) / f"replica-{step}"
                shutil.copytree(Path(scratch) / "store", replica)
                revived = durable_queue(replica, clock)
                assert tables(revived, clock.now) == state
                for bucket in revived._state_dict(clock.now)["buckets"].values():
                    for _, remaining_s, _ in bucket["claimed"]:
                        assert 0.0 <= remaining_s <= LEASE_S  # re-anchored
                revived.close()
            live.close()
