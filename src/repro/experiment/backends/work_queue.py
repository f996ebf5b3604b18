"""The shared-directory transport: a lease-based, self-healing file queue.

One task file per cell lands in ``<queue_dir>/tasks/``; workers claim a
task by atomically renaming it into ``claimed/`` (the rename is the
lock — exactly one claimant wins), run
:func:`~repro.experiment.backends.base.run_spec_payload`, and write the
result JSON into ``results/``.  :class:`FileQueueClient` is the whole
transport — the worker verbs :func:`repro.experiment.worker.drain` runs
on and the submitter verbs
:class:`~repro.experiment.backends.queue_common.QueueBackend` runs on —
and :class:`WorkQueueBackend` only opens one.

A claim is a **lease**, not a tombstone: the claimed file's mtime is the
heartbeat (set on claim, refreshed by the worker while it computes), and
any observer — the submitting process on its collects, or an idle worker
— may repossess a claim whose mtime has gone silent for longer than the
envelope's ``lease_s``.  What the claim then becomes (back into
``tasks/`` with ``attempts`` bumped, or an error envelope in
``results/``) is
:func:`~repro.experiment.backends.queue_common.lease_verdict`'s to say,
as on the broker; this module only does the renames.  A ``kill -9``'d
drainer therefore costs one lease interval, not the sweep.

Requeue races are benign by construction: if a slow-but-alive worker
completes a task that was concurrently requeued, both executions produce
byte-identical payloads (the engine's determinism guarantee), so
whichever result file lands is correct and the duplicate is withdrawn
with the submission's other leftovers.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, Iterator, Mapping, Sequence

from repro.experiment.backends.base import register_backend
from repro.experiment.backends.queue_common import (
    DEFAULT_LEASE_S,
    ORPHAN_HORIZON_S,
    QueueBackend,
    check_task_id,
    lease_of,
    lease_verdict,
    validate_envelope,
    validate_outcome,
)
from repro.experiment.fsio import atomic_write_text

__all__ = [
    "CLAIMED_DIR",
    "FileQueueClient",
    "RESULTS_DIR",
    "TASKS_DIR",
    "WorkQueueBackend",
    "claim_next_task",
    "ensure_queue_dirs",
    "queue_clock",
    "requeue_expired_claims",
]

#: Queue-directory layout, shared with :mod:`repro.experiment.worker`.
TASKS_DIR = "tasks"
CLAIMED_DIR = "claimed"
RESULTS_DIR = "results"


def _atomic_write_json(target: Path, payload: Mapping[str, Any]) -> None:
    """Write JSON atomically so queue consumers never see partial files."""
    atomic_write_text(target, json.dumps(payload))


def ensure_queue_dirs(queue_dir: str | os.PathLike[str]) -> Path:
    """Create the tasks/claimed/results layout; returns the queue root."""
    root = Path(queue_dir).expanduser()
    for name in (TASKS_DIR, CLAIMED_DIR, RESULTS_DIR):
        (root / name).mkdir(parents=True, exist_ok=True)
    return root


def queue_clock(root: Path) -> float:
    """The queue filesystem's own notion of *now*.

    Lease expiry compares claim-file mtimes — stamped by worker hosts'
    ``os.utime`` calls, which a network filesystem resolves against the
    *server's* clock — so judging them by the local ``time.time()``
    would fold the full submitter↔server clock skew into every lease.
    Touching a probe file and reading its mtime back asks the same
    clock that stamps the claims, making skew cancel out; a filesystem
    that refuses falls back to local time (correct for local queues,
    where there is only one clock).
    """
    probe = root / CLAIMED_DIR / ".lease-clock"
    try:
        probe.touch()
        return probe.stat().st_mtime
    except OSError:
        return time.time()


def requeue_expired_claims(root: Path, match: str = "") -> tuple[int, int]:
    """Repossess every expired claim under ``root``; ``(requeued, exhausted)``.

    A claim is expired when its file's mtime — refreshed by the owning
    worker's heartbeats — is older than the envelope's own ``lease_s``;
    :func:`~repro.experiment.backends.queue_common.lease_verdict` says
    whether it goes back to ``tasks/`` or becomes an error envelope in
    ``results/``.  ``match`` restricts the sweep to one submission's
    tasks, exactly like claims.

    Any process sharing the directory may call this — the submitter
    does from its collects, and idle workers do between claims —
    and concurrent sweeps are safe: the bumped envelope is written
    atomically and idempotently (two sweepers compute the same bytes),
    and the rename back into ``tasks/`` is the handover — exactly one
    sweeper's rename lands, and no claimant can touch the task before
    it does.
    """
    now = queue_clock(root)
    requeued = exhausted = 0
    try:
        # Sorted so every sweeper repossesses in one deterministic order —
        # scandir order is filesystem-dependent, and two concurrent
        # sweepers walking the same order contend less and account alike.
        entries = sorted(os.scandir(root / CLAIMED_DIR), key=lambda e: e.name)
    except OSError:
        return 0, 0
    for entry in entries:
        if not entry.name.endswith(".json") or not entry.name.startswith(match):
            continue
        try:
            mtime = entry.stat().st_mtime
        except OSError:
            continue  # completed (or requeued) under us
        try:
            with open(entry.path, encoding="utf-8") as fh:
                envelope = json.load(fh)
        except (OSError, ValueError):
            continue  # mid-rename or torn read; the next sweep sees it
        if now - mtime <= lease_of(envelope):
            continue
        task_stem = Path(entry.name).stem
        envelope.setdefault("id", task_stem)
        # A result already on disk means the owner was slow, not dead:
        # resurrecting the task would only burn a duplicate
        # (byte-identical) simulation, so the spent claim is dropped.
        if not (root / RESULTS_DIR / f"{task_stem}.json").exists():
            verdict, after = lease_verdict(envelope)
            if verdict == "requeue":
                # Atomic repossession: bump the envelope *in the claimed
                # file*, then rename it back into tasks/.  Writing a fresh
                # task file and unlinking the claim afterwards would race a
                # quick worker — its re-claim lands at this very claimed
                # path, and the trailing unlink would destroy the live claim
                # and lose the task from every directory.  The rename *is*
                # the handover: until it happens nobody can claim, and two
                # concurrent sweepers just have the loser's rename fail.
                _atomic_write_json(Path(entry.path), after)
                try:
                    os.replace(entry.path, root / TASKS_DIR / entry.name)
                    requeued += 1
                except OSError:
                    pass  # completed (or repossessed) under us
                continue
            _atomic_write_json(root / RESULTS_DIR / f"{task_stem}.json", after)
            exhausted += 1
        try:
            os.unlink(entry.path)
        except OSError:
            pass
    return requeued, exhausted


def _queue_names(root: Path, subdir: str, match: str) -> list[str]:
    """The ``match``-prefixed envelope file names in one queue
    subdirectory, sorted (ids embed the submitter's planned index, so
    name order is submission order) — one ``scandir``, not one failing
    ``open`` per task: the difference between O(files) and O(pending)
    syscalls matters when thousands of cells wait on a network
    filesystem."""
    try:
        return sorted(
            entry.name
            for entry in os.scandir(root / subdir)
            if entry.name.startswith(match) and entry.name.endswith(".json")
        )
    except OSError:
        return []


def claim_next_task(root: Path, match: str = "") -> Path | None:
    """Claim the oldest pending task, or ``None`` when the queue is empty.

    Claiming renames the task file into ``claimed/``; the rename either
    succeeds (this worker owns the task) or raises because another
    worker got there first, in which case the next candidate is tried.
    The file's mtime is refreshed around the rename — the claimed file's
    mtime is the lease clock, and without the touch a task that waited
    in ``tasks/`` longer than its lease would look expired the moment it
    was claimed.  ``match`` restricts claims to task files whose name
    starts with that prefix — how a submitter's own short-lived drainers
    stay off other submitters' tasks in a shared directory.
    """
    for name in _queue_names(root, TASKS_DIR, match):
        candidate = root / TASKS_DIR / name
        claimed = root / CLAIMED_DIR / name
        try:
            os.utime(candidate)  # start the lease before the rename lands
        except FileNotFoundError:
            continue  # lost the race before even trying
        except OSError:
            # Cross-user shares can forbid utime on another user's file
            # (rename needs only directory write) — claiming must still
            # work there; the lease clock just starts best-effort.
            pass
        try:
            os.replace(candidate, claimed)
        except OSError:
            continue  # lost the race; try the next task
        try:
            os.utime(claimed)
        except OSError:
            pass
        return claimed
    return None


class FileQueueClient:
    """Shared-directory transport: claim by rename, heartbeat by mtime.

    ``match`` scopes the worker verbs (``claim``/``heartbeat``/
    ``complete``/``recover``) to one submission's id prefix; the
    submitter verbs (``submit``/``collect``/``cancel``) are addressed
    per call, exactly like :class:`BrokerClient`'s.
    """

    def __init__(self, queue_dir: str | os.PathLike[str], match: str = "") -> None:
        self.root = ensure_queue_dirs(queue_dir)
        self.match = match
        # Sweep for expired leases often enough that recovery costs about
        # one lease interval, but not on every poll: a fleet (or a
        # submitter) polling a busy NFS queue at 20 Hz must not
        # scandir-and-parse every claimed envelope on every tick.  An
        # eighth of the shortest lease this client has submitted or
        # claimed; the default's until it has seen one.
        self._sweep_every = DEFAULT_LEASE_S / 8.0
        self._next_sweep = 0.0

    def _note_lease(self, envelope: Mapping[str, Any]) -> None:
        lease_s = lease_of(envelope)
        if lease_s > 0:
            self._sweep_every = min(self._sweep_every, lease_s / 8.0)

    # ------------------------------------------------------------ worker half
    def claim(self) -> tuple[dict[str, Any], Path] | None:
        while (claimed := claim_next_task(self.root, self.match)) is not None:
            # A torn read right after a rename is a transient of exotic
            # filesystems (task files are written atomically, so the bytes
            # are whole) — the same condition collect and
            # requeue_expired_claims shrug off.  Retry briefly, then hand
            # the claim back rather than fabricating a fatal error envelope
            # for a task that is perfectly runnable next tick.
            for attempt in range(3):
                try:
                    with open(claimed, encoding="utf-8") as fh:
                        envelope = json.load(fh)
                    break
                except (OSError, ValueError):
                    time.sleep(0.05 * (attempt + 1))
            else:
                try:
                    os.replace(claimed, self.root / TASKS_DIR / claimed.name)
                except OSError:
                    pass  # requeued or completed under us; either way not ours
                return None
            try:
                check_task_id(envelope.get("id"))
            except ValueError as exc:
                # A hand-dropped task naming a path outside the queue is never
                # run: its claim becomes an error outcome under the file's name.
                outcome = {"id": claimed.stem, "error": f"{exc}; not run", "attempts": 0}
                _atomic_write_json(claimed, outcome)
                with suppress(OSError):  # cancelled under us
                    os.replace(claimed, self.root / RESULTS_DIR / claimed.name)
                continue
            self._note_lease(envelope)
            return envelope, claimed
        return None

    def heartbeat(self, token: Path) -> None:
        try:
            os.utime(token)
        except OSError:
            pass  # requeued under us; the duplicate run is byte-identical

    def complete(self, token: Path, outcome: dict[str, Any]) -> None:
        validate_outcome(outcome)
        _atomic_write_json(
            self.root / RESULTS_DIR / f"{outcome['id']}.json", outcome
        )
        try:
            token.unlink()
        except OSError:
            pass

    def _sweep(self, match: str) -> int:
        """The throttled lease sweep behind ``recover`` and ``collect``."""
        now = time.monotonic()
        if now < self._next_sweep:
            return 0
        self._next_sweep = now + self._sweep_every
        return sum(requeue_expired_claims(self.root, match))

    def recover(self) -> int:
        """Requeue expired claims (scoped to ``match``); the idle-time
        half of fleet self-healing."""
        return self._sweep(self.match)

    def close(self) -> None:
        """Nothing stays open between verbs; the worker closes whichever
        transport it drains (see :meth:`BrokerClient.close`)."""

    # --------------------------------------------------------- submitter half
    def _reap_stale_files(self) -> None:
        """Collect orphan result *and* claim files abandoned in a shared
        directory.

        A submitter that timed out withdraws its files, but a claimant
        that outlived the timeout may write its result afterwards with
        nobody left to consume it — and a worker that died holding a
        claim from a pre-lease submission (whose envelope nobody will
        ever requeue because its submitter is gone) leaves a claim file
        behind forever.  Live submitters unlink results within a poll
        tick and live claims are either heartbeat-fresh or requeued
        within a lease, so anything older than ``ORPHAN_HORIZON_S``
        belongs to no one: orphans accumulate slowly, and deleting a
        live file would lose work.
        """
        horizon = time.time() - ORPHAN_HORIZON_S
        for subdir in (RESULTS_DIR, CLAIMED_DIR):
            try:
                entries = sorted(os.scandir(self.root / subdir), key=lambda e: e.name)
            except OSError:
                continue
            for entry in entries:
                try:
                    if entry.stat().st_mtime < horizon:
                        os.unlink(entry.path)
                except OSError:
                    continue

    def submit(self, envelopes: Sequence[Mapping[str, Any]]) -> int:
        """Enqueue a batch — whole or, with one malformed envelope, not
        at all (``ValueError`` naming the task and the field)."""
        for envelope in envelopes:
            validate_envelope(envelope)
        self._reap_stale_files()
        for envelope in envelopes:
            _atomic_write_json(
                self.root / TASKS_DIR / f"{envelope['id']}.json", envelope
            )
            self._note_lease(envelope)
        return len(envelopes)

    def collect(self, match: str, ack: Sequence[str] = ()) -> dict[str, Any]:
        """Finished results under ``match`` plus the unclaimed and
        claimed counts; a result is handed over again on every call
        until a later call lists its id in ``ack``, which unlinks it.
        Every collect sweeps expired leases (throttled), as the broker's
        does."""
        for task_id in ack:
            check_task_id(task_id)
            try:
                (self.root / RESULTS_DIR / f"{task_id}.json").unlink()
            except OSError:
                pass
        self._sweep(match)
        # Tasks only move forward (tasks -> claimed -> results) outside
        # the sweep above, so reading the directories in that order can
        # count a task twice but never lose sight of it — a task seen
        # nowhere would read as a stall.
        pending = len(_queue_names(self.root, TASKS_DIR, match))
        claimed = len(_queue_names(self.root, CLAIMED_DIR, match))
        results = []
        for name in _queue_names(self.root, RESULTS_DIR, match):
            try:
                with open(self.root / RESULTS_DIR / name, encoding="utf-8") as fh:
                    results.append(json.load(fh))
            except (OSError, ValueError):
                continue  # mid-replace on an exotic fs; next tick has it
        return {"results": results, "pending": pending, "claimed": claimed}

    def cancel(self, ids: Sequence[str]) -> int:
        """Withdraw these tasks wherever they are; returns how many were
        still unfinished (pending or claimed)."""
        cancelled = 0
        for task_id in ids:
            check_task_id(task_id)
            for subdir in (TASKS_DIR, CLAIMED_DIR, RESULTS_DIR):
                try:
                    (self.root / subdir / f"{task_id}.json").unlink()
                except OSError:
                    continue
                if subdir != RESULTS_DIR:
                    cancelled += 1
        return cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileQueueClient({str(self.root)!r}, match={self.match!r})"


class WorkQueueBackend(QueueBackend):
    """:class:`QueueBackend` over a shared directory any worker process
    that can see it may drain (``python -m repro.experiment.worker
    <queue_dir>``).

    Args:
        queue_dir: the shared directory.  ``None`` creates a private
            temporary queue per :meth:`run` — convenient for local use,
            pointless for remote workers, which need a directory they
            can see too.
        workers, cache_dir, poll_interval_s, timeout_s, lease_s,
        max_attempts: see :class:`QueueBackend`.
    """

    name = "work_queue"

    def __init__(
        self,
        queue_dir: str | os.PathLike[str] | None = None,
        workers: int | None = None,
        cache_dir: str | os.PathLike[str] | None = None,
        poll_interval_s: float = 0.05,
        timeout_s: float = 600.0,
        lease_s: float | None = None,
        max_attempts: int | None = None,
    ) -> None:
        super().__init__(
            workers, cache_dir, poll_interval_s, timeout_s, lease_s, max_attempts
        )
        if workers == 0 and queue_dir is None:
            raise ValueError(
                "workers=0 (external drain) requires a queue_dir the "
                "external workers can see; a private temporary queue "
                "would hang until timeout"
            )
        self.queue_dir = Path(queue_dir).expanduser() if queue_dir else None

    @contextmanager
    def _open(self) -> Iterator[tuple[FileQueueClient, list[str], dict[str, str]]]:
        with ExitStack() as stack:
            client = FileQueueClient(
                self.queue_dir
                or stack.enter_context(TemporaryDirectory(prefix="repro-queue-"))
            )
            yield client, [str(client.root)], {}


register_backend(
    WorkQueueBackend.name, lambda max_workers: WorkQueueBackend(workers=max_workers)
)
