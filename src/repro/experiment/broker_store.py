"""Durability backend for the HTTP broker: append-only journal + snapshot.

Without it a broker restart (deploy, OOM, crash) drops every in-flight
submission, the one failure class a multi-hour measurement sweep cannot
afford to replay.  :class:`~repro.experiment.broker.BrokerQueue` writes
every record into an append-only **journal** and periodically folds the
journal into an atomic **snapshot**, so a restarted broker pointed at
the same store directory recovers exactly the submissions, claims and
finished results it held when it died.

Store layout (one directory per broker)::

    <store>/snapshot.json         # atomic full-state checkpoint
    <store>/journal-<gen>.jsonl   # one JSON record per state transition

The snapshot records the journal *generation* it covers; recovery loads
the snapshot (if any) and replays every journal generation at or after
it, in order, tolerating a torn final line (the record a SIGKILL
interrupted mid-append was never acknowledged to anyone, so dropping it
loses nothing).  After every ``snapshot_every`` journal records the
queue hands its full state back to :meth:`checkpoint`, which writes the
snapshot via :func:`repro.experiment.fsio.atomic_write_text`, rotates
to a fresh journal generation, and retires the generations the snapshot
superseded — the same atomic-IO discipline ``tests/invariants`` holds
the rest of the queue layer to (RPL201/202/203), with the journal itself
using the one sanctioned non-atomic primitive: append, whose partial
failure mode (a torn tail) recovery explicitly tolerates.

What the records are, and how the clocks in them survive a restart
(durations are persisted, never instants; heartbeats are not journaled),
is the queue's business — see ``BrokerQueue._apply`` and
``_state_dict``; the store persists dicts.

By default appends are flushed to the OS (surviving any broker *process*
death, which is what the chaos suite kills); ``fsync=True`` additionally
fsyncs every append for whole-host crash durability at a per-request
cost.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, IO, Mapping

from repro.experiment.fsio import atomic_write_text

__all__ = ["BrokerStore", "DEFAULT_SNAPSHOT_EVERY"]

#: Journal records folded into a snapshot per rotation — small enough
#: that replay after a crash is instant, large enough that the O(state)
#: snapshot write stays off the per-request path.
DEFAULT_SNAPSHOT_EVERY = 512

_SNAPSHOT_NAME = "snapshot.json"
_JOURNAL_PREFIX = "journal-"
_JOURNAL_SUFFIX = ".jsonl"


class BrokerStore:
    """Journal + snapshot persistence for one broker's queue state.

    Not thread-safe by itself: the owning
    :class:`~repro.experiment.broker.BrokerQueue` already serializes
    every state transition under its queue lock and calls the store only
    while holding it, so a second lock here would only add deadlock
    surface.

    Args:
        root: the store directory (created if missing).  One directory
            per broker; two live brokers must never share one.
        snapshot_every: journal records between checkpoints.
        fsync: fsync every journal append (host-crash durability) rather
            than flushing to the OS (process-crash durability, the
            default).
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        fsync: bool = False,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self._generation = 0
        self._records_since_checkpoint = 0
        self._journal: IO[str] | None = None

    # ------------------------------------------------------------ layout
    def _snapshot_path(self) -> Path:
        return self.root / _SNAPSHOT_NAME

    def _journal_path(self, generation: int) -> Path:
        return self.root / f"{_JOURNAL_PREFIX}{generation:08d}{_JOURNAL_SUFFIX}"

    def _journal_generations(self) -> list[tuple[int, Path]]:
        """Every journal generation on disk, oldest first."""
        found: list[tuple[int, Path]] = []
        for path in sorted(self.root.glob(f"{_JOURNAL_PREFIX}*{_JOURNAL_SUFFIX}")):
            stem = path.name[len(_JOURNAL_PREFIX) : -len(_JOURNAL_SUFFIX)]
            try:
                found.append((int(stem), path))
            except ValueError:
                continue  # foreign file; not ours to interpret
        return found

    # ----------------------------------------------------------- recovery
    def recover(self) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
        """Load the persisted state: ``(snapshot_state, journal_records)``.

        ``snapshot_state`` is the last checkpoint's state dict (``None``
        when no usable snapshot exists — a fresh store, or one whose
        snapshot is unreadable, in which case every journal generation
        still on disk is replayed from scratch).  ``journal_records``
        are the transitions appended after that checkpoint, in order.
        The caller applies both, then calls :meth:`checkpoint` with the
        recovered state — which compacts the store and opens the journal
        generation new appends go to.
        """
        state: dict[str, Any] | None = None
        covered = 0
        try:
            with open(self._snapshot_path(), encoding="utf-8") as fh:
                snapshot = json.load(fh)
            state = snapshot["state"]
            covered = int(snapshot["generation"])
        except (OSError, ValueError, KeyError, TypeError):
            state = None
            covered = 0
        records: list[dict[str, Any]] = []
        highest = covered
        for generation, path in self._journal_generations():
            highest = max(highest, generation)
            if generation < covered:
                continue  # folded into the snapshot already
            try:
                with open(path, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except OSError:
                continue
            for line in lines:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn tail: the append a crash interrupted.  The
                    # transition was never acknowledged, so skipping it
                    # is the correct (and only possible) recovery.
                    continue
                if isinstance(record, dict):
                    records.append(record)
        self._generation = highest
        return state, records

    # ---------------------------------------------------------- mutation
    def append(self, record: Mapping[str, Any]) -> bool:
        """Append one transition record; True when a checkpoint is due.

        The caller (the queue, holding its lock) responds to ``True`` by
        calling :meth:`checkpoint` with its current full state — the
        store cannot do that itself because only the queue knows its
        state.
        """
        if self._journal is None:
            # First append after construction without a checkpoint (the
            # queue always checkpoints after recover(), so this is a
            # defensive fallback): extend the newest generation.
            self._journal = open(
                self._journal_path(self._generation), "a", encoding="utf-8"
            )
        self._journal.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._journal.flush()
        if self.fsync:
            os.fsync(self._journal.fileno())
        self._records_since_checkpoint += 1
        return self._records_since_checkpoint >= self.snapshot_every

    def checkpoint(self, state: Mapping[str, Any]) -> None:
        """Fold the journal into an atomic snapshot and rotate.

        Crash-ordering: the next journal generation is opened *before*
        the snapshot lands and old generations are only retired *after*
        — whichever step a crash interrupts, recovery sees either the
        old snapshot plus both generations (replayed in order) or the
        new snapshot plus a stale generation it knows to skip.  Replay
        is idempotent, so the overlap windows are safe.
        """
        next_generation = self._generation + 1
        if self._journal is not None:
            self._journal.close()
        self._journal = open(
            self._journal_path(next_generation), "a", encoding="utf-8"
        )
        atomic_write_text(
            self._snapshot_path(),
            json.dumps(
                {"generation": next_generation, "state": dict(state)},
                separators=(",", ":"),
            ),
        )
        self._generation = next_generation
        self._records_since_checkpoint = 0
        self._retire_journals(next_generation)

    def _retire_journals(self, keep_from: int) -> None:
        """Delete journal generations a snapshot has superseded.

        The one sanctioned deletion site in this module (audited into
        ``BLESSED_UNLINK`` in ``tests/invariants``): a generation below the
        snapshot's is pure history — every record in it is folded into
        the snapshot, so no recovery will ever read it again.
        """
        for generation, path in self._journal_generations():
            if generation >= keep_from:
                continue
            try:
                os.unlink(path)
            except OSError:
                pass  # a leftover costs bytes, never correctness

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BrokerStore({str(self.root)!r}, generation={self._generation}, "
            f"snapshot_every={self.snapshot_every})"
        )
