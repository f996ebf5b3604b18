"""The one submitter of the queue-shaped backends, and what it shares.

``work_queue`` (a shared directory) and ``broker`` (HTTP) are the same
backend over two transports.  A transport is one client class with two
halves: four **worker verbs** (``claim``, ``heartbeat``, ``complete``,
``recover`` — what :func:`repro.experiment.worker.drain` runs on) and
three **submitter verbs**::

    submit(envelopes)
    collect(match=, ack=) -> {"results": [...], "pending": n, "claimed": n}
    cancel(ids)

:class:`QueueBackend` is everything on the submitting side that is not
transport — and it is written once:

* the **lease policy**: ``lease_s`` and ``max_attempts`` are set here,
  where a submission is born, and written into every task envelope;
  everything downstream reads the envelope (:func:`lease_policy`),
  checks it at the edge
  (:func:`validate_envelope`) and settles an expired claim by the one
  rule both transports call (:func:`lease_verdict`);
* :class:`QueueStats`, the per-submission account of what self-healing
  actually did (drainers spawned, leases expired, retry budgets
  exhausted), surfaced on ``BatchResult.queue``;
* :class:`DrainerPool`, the submitter-side auto-scaler: instead of
  spawning a fixed worker count up front, the collect loop tops the
  pool up from the *observed* queue depth every tick — a drainer that
  died (or exited on an empty queue before a lease-expired task was
  requeued) is replaced the moment there is visible work again.  Each
  drainer is a fork of this process's one warm ``python -m
  repro.experiment.worker --serve-forks`` host, so only the host pays
  the interpreter and the imports, and writes its own log file, so a
  failure embeds the tail of the log of the worker that actually failed
  instead of an interleaved mess;
* the submit → collect loop itself (:meth:`QueueBackend._collect`), with
  every liveness rule in one place: ack-based handover, idle and outage
  backoff, fail-fast on drainers that keep dying, patience while any
  claim is live, and a stall timeout only for tasks nobody holds.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import uuid
from abc import abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, ContextManager, Mapping, Sequence

from repro.experiment.backends.base import BackendError, ExecutionBackend

__all__ = [
    "BROKER_TOKEN_ENV_VAR",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DrainerPool",
    "ORPHAN_HORIZON_S",
    "PollBackoff",
    "QueueBackend",
    "QueueStats",
    "check_task_id",
    "default_broker_token",
    "lease_of",
    "lease_policy",
    "lease_verdict",
    "task_envelope",
    "validate_envelope",
    "validate_outcome",
    "worker_subprocess_env",
]

#: Seconds a claim may go without a heartbeat before any observer may
#: requeue it.  Workers heartbeat at a quarter of the lease, so a live
#: worker never comes close; a SIGKILL'd one is requeued within one
#: lease interval.
DEFAULT_LEASE_S = 30.0

#: Total executions a task may consume (first run + retries) before the
#: queue gives up and synthesizes an error envelope naming the task.
DEFAULT_MAX_ATTEMPTS = 3

#: Idle time after which what a submission left behind belongs to no
#: one — a submitter killed before its ``cancel`` must not grow a shared
#: queue forever: the broker drops a bucket nothing has touched for this
#: long, the file queue reaps result and claim files this old.  A week,
#: because the file queue judges "old" from other hosts' mtimes: far
#: beyond any clock skew, suspended submitter or long ``timeout_s``.
ORPHAN_HORIZON_S = 7 * 24 * 3600.0

#: Shared broker secret.  Set on the broker it *requires* the token; set
#: on clients (submitter, workers) they *send* it.  Export the same
#: value everywhere; locally spawned drainers get the submitter's token
#: through their environment either way (see ``BrokerBackend._open``).
#: Unlike every other setting this one stays an environment variable: a
#: credential must reach the drainers without riding in their argv,
#: which ``ps`` shows.
BROKER_TOKEN_ENV_VAR = "REPRO_BROKER_TOKEN"


def default_broker_token() -> str | None:
    """The environment's broker token, or ``None`` (open broker)."""
    return os.environ.get(BROKER_TOKEN_ENV_VAR) or None


class PollBackoff:
    """Jittered exponential backoff for idle polling.

    Flat ``poll_interval_s`` polling is right while work is flowing, but
    an *idle* tenant hammering a shared broker at 20 Hz — every
    submitter waiting on stragglers, every ``--idle-timeout-s`` worker
    between submissions — is pure load.  The first ``grace`` consecutive
    empty polls stay at ``base_s`` (an *active* sweep sees empty polls
    between result arrivals and during worker startup; slowing those
    would trade submit→collect latency for nothing — a poll costs the
    broker well under a millisecond), then the delay doubles up to ``cap_s``
    (callers cap well below a lease so liveness reactions stay prompt).
    Full jitter (a uniform factor in ``[0.5, 1.0]``) decorrelates a
    fleet that went idle together.  Any progress resets the clock.
    """

    def __init__(self, base_s: float, cap_s: float, grace: int = 32) -> None:
        self.base_s = max(base_s, 0.001)
        self.cap_s = max(cap_s, self.base_s)
        self.grace = max(grace, 0)
        self._idle_polls = 0
        # Not the sim layer: schedule jitter may be nondeterministic.
        self._rng = random.Random()

    def reset(self) -> None:
        """Call on any progress; the next delay is the base again."""
        self._idle_polls = 0

    def next_delay(self) -> float:
        """Delay before the next poll, growing per consecutive idle call."""
        exponent = max(self._idle_polls - self.grace, 0)
        delay = min(self.base_s * (2.0**exponent), self.cap_s)
        self._idle_polls += 1
        return delay * (0.5 + 0.5 * self._rng.random())


def task_envelope(
    task_id: str,
    spec: Mapping[str, Any],
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> dict[str, Any]:
    """The task half of the queue protocol, shared by every transport.

    ``attempts`` counts claims so far (bumped by whoever requeues an
    expired claim); ``lease_s``/``max_attempts`` ride inside the
    envelope so workers and requeuers — possibly on other hosts —
    enforce the *submitter's* policy.
    """
    return {
        "id": task_id,
        "spec": dict(spec),
        "attempts": 0,
        "lease_s": float(lease_s),
        "max_attempts": int(max_attempts),
    }


def lease_policy(envelope: Mapping[str, Any]) -> tuple[float, int, int]:
    """``(lease_s, max_attempts, attempts)`` as the envelope states them.

    The one reader of an envelope's policy fields.  An absent field
    reads as the module default (a hand-written task file) — never as
    the reader's environment; a present one must be a positive finite
    number, an integer ``>= 1`` and an integer ``>= 0`` respectively,
    or ``ValueError`` names the task and the field.
    """
    lease_s = envelope.get("lease_s", DEFAULT_LEASE_S)
    budget = envelope.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
    attempts = envelope.get("attempts", 0)
    if type(lease_s) not in (int, float) or not 0 < lease_s < math.inf:
        problem = f"lease_s must be a positive finite number, got {lease_s!r}"
    elif type(budget) is not int or budget < 1:
        problem = f"max_attempts must be an integer >= 1, got {budget!r}"
    elif type(attempts) is not int or attempts < 0:
        problem = f"attempts must be an integer >= 0, got {attempts!r}"
    else:
        return float(lease_s), budget, attempts
    raise ValueError(f"task {envelope.get('id')!r}: {problem}")


_TASK_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


def check_task_id(task_id: Any) -> None:
    """Refuse (``ValueError``) an id that is not one plain file name: the file transport
    stores envelopes as ``{id}.json``.  Generated ids are ``{12 hex}-{5 digits}``."""
    if not isinstance(task_id, str) or not _TASK_ID.fullmatch(task_id):
        raise ValueError(f"a task 'id' must match {_TASK_ID.pattern}, got {task_id!r:.80}")


def validate_envelope(envelope: Any) -> None:
    """Refuse a malformed task envelope at the edge (``ValueError``).

    Both transports' ``submit`` call this on every envelope before they
    store any, so a batch is accepted whole or not at all and nothing
    downstream meets a task it cannot lease.
    """
    if not isinstance(envelope, dict):
        raise ValueError(f"a task envelope must be an object, got {envelope!r:.80}")
    check_task_id(task_id := envelope.get("id"))
    if not isinstance(envelope.get("spec"), dict):
        raise ValueError(f"task {task_id!r}: spec must be an object")
    lease_policy(envelope)


def validate_outcome(outcome: Any) -> None:
    """Refuse a malformed outcome at the edge (``ValueError``) — where a worker
    hands one in and where the submitter takes one over: an ``id`` as
    :func:`check_task_id` takes it, ``attempts`` as :func:`lease_policy` reads
    it, and exactly one of ``result`` (an object) and ``error`` (a string)."""
    if not isinstance(outcome, dict):
        raise ValueError(f"an outcome must be an object, got {outcome!r:.80}")
    check_task_id(outcome.get("id"))
    lease_policy(outcome)
    kinds = {"result": dict, "error": str}
    stated = [key for key in kinds if key in outcome]
    if len(stated) != 1 or not isinstance(outcome[stated[0]], kinds[stated[0]]):
        raise ValueError(
            f"outcome of task {outcome['id']!r}: exactly one of 'result' (an object) "
            "and 'error' (a string) must be stated"
        )


def lease_of(envelope: Mapping[str, Any]) -> float:
    """The envelope's lease — minus infinity when its policy does not
    parse, so its claim reads as expired whatever the clock says and
    :func:`lease_verdict` gives the task up naming the field."""
    try:
        return lease_policy(envelope)[0]
    except ValueError:
        return -math.inf


def lease_verdict(envelope: Mapping[str, Any]) -> tuple[str, dict[str, Any]]:
    """What a claim whose lease ran out becomes — the one expiry rule.

    ``("requeue", envelope)`` with ``attempts + 1`` while the retry
    budget lasts, else ``("exhaust", outcome)``: an error outcome
    ``{"id", "error", "attempts"}`` naming the task and the attempt
    count, so the submitter fails on the one task that kept losing its
    worker instead of a blanket timeout that discards every finished
    cell.  An envelope whose policy does not parse is given up at once,
    naming the field.  Pure: the transports only store the answer.
    """
    task_id = str(envelope.get("id"))
    try:
        _, budget, attempts = lease_policy(envelope)
    except ValueError as exc:
        error = f"{exc}; a task without a readable lease policy is not retried"
        return "exhaust", {"id": task_id, "error": error, "attempts": 0}
    attempts += 1
    if attempts < budget:
        return "requeue", {**envelope, "attempts": attempts}
    error = (
        f"task {task_id} lost its worker {attempts} time(s) and exhausted "
        f"its retry budget (max_attempts={budget}); the claim lease "
        f"expired without a result each time"
    )
    return "exhaust", {"id": task_id, "error": error, "attempts": attempts}


@dataclass
class QueueStats:
    """What the self-healing layer did during one submission."""

    #: Local drainers forked over the whole run (top-ups after worker
    #: deaths included — this can exceed the worker cap).
    spawned: int = 0
    #: Expired claims put back on the queue (worker deaths survived).
    requeued: int = 0
    #: Tasks that burned their whole retry budget and were synthesized
    #: into error envelopes.
    exhausted: int = 0
    #: Largest unclaimed backlog the collect loop observed.
    max_depth: int = 0


def worker_subprocess_env() -> dict[str, str]:
    """Environment for spawned drainers.

    Workers must be able to import repro even when the submitter runs
    from a source checkout that was put on ``sys.path`` by hand (tests,
    conftest) rather than installed.
    """
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[3])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = package_root + (
            os.pathsep + existing if existing else ""
        )
    return env


class _ForkHost:
    """This process's ``worker --serve-forks`` child: started by the first spawn,
    asked one request at a time (any thread, any submission), replaced by the next
    spawn once found dead, closed at exit — or by the end of its stdin, should
    this process be killed."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._proc: subprocess.Popen | None = None

    def ask(self, proc: subprocess.Popen | None, request: dict[str, Any]) -> Any:
        """``proc``'s reply; ``None`` from a host that is dead, or dies of the asking."""
        with self._lock:
            if proc is not None and proc.poll() is None:
                try:
                    print(json.dumps(request), file=proc.stdin, flush=True)
                    return json.loads(proc.stdout.readline())
                except (OSError, ValueError):  # EPIPE, or EOF where a reply was due
                    proc.kill()
                    proc.wait()
            return None

    def spawn(self, request: dict[str, Any]) -> "_Drainer":
        with self._lock:
            reply = self.ask(self._proc, request)
            if reply is None:
                self.close()
                self._proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.experiment.worker", "--serve-forks"],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=worker_subprocess_env(),
                    text=True,
                )
                reply = self.ask(self._proc, request)
            if reply is None:
                raise BackendError(
                    "the drainer fork host died of its first request (its stderr is this process's)"
                )
            return _Drainer(self._proc, reply["pid"])

    def close(self) -> None:
        with self._lock:
            proc, self._proc = self._proc, None
            if proc is not None:
                try:
                    proc.stdin.close()  # the host terminates its drainers and exits
                except OSError:  # a request a dead host never read, still buffered
                    pass
                proc.stdout.close()
                proc.wait()


_FORK_HOST = _ForkHost()
atexit.register(_FORK_HOST.close)


@dataclass
class _Drainer:
    """What :class:`DrainerPool` needs of a ``Popen``, for a fork of the host."""

    host: subprocess.Popen
    pid: int
    returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            reply = _FORK_HOST.ask(self.host, {"op": "poll", "pid": self.pid})
            # A dead host's drainers all read as gone the way the host went:
            # whichever still run hold leases, which the queue heals as ever.
            self.returncode = self.host.poll() if reply is None else reply["status"]
        return self.returncode

    def send_signal(self, signum: int) -> None:
        # The pid stays this drainer's until a poll saw it exit: the host reaps a
        # child only when asked about it.
        if self.poll() is None:
            os.kill(self.pid, signum)


@dataclass
class DrainerPool:
    """Submitter-side drainer processes, topped up from queue depth.

    Args:
        command: the worker CLI arguments every drainer runs
            (:func:`repro.experiment.worker.main`'s argv).
        log_dir: where per-drainer logs go, ``worker-{n:02d}.log`` — one
            per drainer, so a traceback is never interleaved with
            another process's output.
        cap: most drainers alive at once (0 = external-drain mode, the
            pool never spawns).
        env: what the drainers' environment holds beyond this process's
            own (credentials).
    """

    command: Sequence[str]
    log_dir: Path
    cap: int
    env: dict[str, str]
    stats: QueueStats = field(default_factory=QueueStats)
    _drainers: list[tuple[_Drainer, Path]] = field(default_factory=list)

    def _spawn(self) -> None:
        log_path = self.log_dir / f"worker-{self.stats.spawned:02d}.log"
        request = {
            "op": "spawn",
            "argv": list(self.command),
            # As they are now, not as they were when the host started: a token,
            # a chaos hook set since, a relative queue_dir after a chdir.
            "env": {**worker_subprocess_env(), **self.env},
            "cwd": os.getcwd(),
            "log": str(log_path),
        }
        self._drainers.append((_FORK_HOST.spawn(request), log_path))
        self.stats.spawned += 1

    def top_up(self, depth: int) -> None:
        """Spawn drainers until ``min(cap, depth)`` are alive.

        ``depth`` is the *observed* unclaimed backlog — the pool never
        spawns more workers than there are visible tasks, and a worker
        that died mid-sweep is replaced the next time a task (its own,
        requeued after lease expiry) becomes visible again.
        """
        self.stats.max_depth = max(self.stats.max_depth, depth)
        want = min(self.cap, depth)
        for _ in range(want - self.alive_count()):
            self._spawn()

    def alive_count(self) -> int:
        return sum(1 for proc, _ in self._drainers if proc.poll() is None)

    def failing_log_tail(self, limit: int = 2000) -> str:
        """Tail of the log of the most recently failed drainer (or, when
        none failed, of the last drainer at all): the traceback shown is
        the *failing* worker's own."""
        # Nonzero exit = crash or kill; oldest first.
        failed = [d for d in self._drainers if d[0].poll() not in (None, 0)]
        candidates = failed if failed else self._drainers
        for proc, log_path in reversed(candidates):
            try:
                text = log_path.read_text(encoding="utf-8")
            except OSError:
                continue
            if text.strip():
                return (
                    f"[drainer exit status {proc.poll()}, log {log_path.name}]\n"
                    + text[-limit:]
                )
        return ""

    def terminate(self) -> None:
        for proc, _ in self._drainers:
            proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10.0
        while self.alive_count():  # polled: they are the host's children to wait for
            if time.monotonic() > deadline:  # pragma: no cover
                for proc, _ in self._drainers:
                    proc.send_signal(signal.SIGKILL)
            time.sleep(0.002)


class QueueBackend(ExecutionBackend):
    """Submit a sweep to a queue, drain it, collect it — over any transport.

    Subclasses only say how to reach their queue (:meth:`_open`).  Task
    ids are unique per submission and every verb is scoped to the
    submission's id prefix, so several submitters (and any number of
    workers) can share one queue.  Locally spawned drainers are
    auto-scaled: the collect loop tops the pool up from the observed
    unclaimed backlog each tick (never above ``workers``), so a drainer
    that crashed — or exited on a momentarily empty queue before a dead
    worker's task was requeued — is replaced as soon as there is work
    for it.

    Args:
        workers: cap on concurrently live local drainer processes
            (forks of this process's warm worker host).  ``0`` spawns none
            and relies entirely on external workers already draining
            the queue.
        cache_dir: optional shared :class:`ResultCache` directory the
            spawned workers write results back to (content-addressed,
            so concurrent writers are safe) — lets a warm shared store
            build up even when the submitter itself runs uncached.
        poll_interval_s: base ``collect`` interval while results are
            flowing; consecutive empty polls back off exponentially
            (with jitter, capped well below a lease) so an idle
            submitter does not hammer a shared queue.
        timeout_s: give up (``BackendError``) when results stop arriving
            for this long with nothing claimed — and the outage budget:
            a durable broker may restart mid-sweep, so the loop rides
            out unreachability up to this long before declaring the
            submission lost.
        lease_s: claim lease embedded in this submission's envelopes.
        max_attempts: per-task execution budget, likewise embedded.

    After :meth:`run`, :attr:`last_run_stats` holds the submission's
    :class:`QueueStats`.
    """

    def __init__(
        self,
        workers: int | None,
        cache_dir: str | os.PathLike[str] | None,
        poll_interval_s: float,
        timeout_s: float,
        lease_s: float,
        max_attempts: int,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.workers = workers
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.poll_interval_s = poll_interval_s
        self.timeout_s = timeout_s
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.last_run_stats: QueueStats | None = None

    @abstractmethod
    def _open(self) -> ContextManager[tuple[Any, list[str], dict[str, str]]]:
        """Open this backend's queue for one submission.

        Yields ``(transport, target, env)``: the client whose submitter
        verbs the loop calls, the worker CLI arguments that point a
        drainer at the same queue, and any environment a drainer needs
        beyond the submitter's own (credentials — never argv, which
        ``ps`` shows).  Whatever was opened is released on exit.
        """

    def workers_for(self, num_tasks: int) -> int:
        """Local drainer cap (external-drain mode reports 1 — the
        submitter cannot know how many remote workers are draining)."""
        if num_tasks <= 0 or self.workers == 0:
            return 1
        if self.workers is not None:
            return min(self.workers, max(num_tasks, 1))
        return min(num_tasks, os.cpu_count() or 1)

    def _drainer_command(self, target: Sequence[str], match: str) -> list[str]:
        command = [
            *target,
            "--exit-when-empty",
            "--poll-interval-s",
            str(self.poll_interval_s),
            # Scoped to this submission: terminating these drainers at the
            # end of run() must never kill another submitter's task
            # mid-simulation in a shared queue.
            "--match",
            match,
        ]
        if self.cache_dir is not None:
            command += ["--cache-dir", str(self.cache_dir)]
        return command

    def run(self, payloads: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        self.last_run_stats = None  # never leak a previous run's account
        if not payloads:
            return []
        match = f"{uuid.uuid4().hex[:12]}-"
        task_ids = [f"{match}{index:05d}" for index in range(len(payloads))]
        envelopes = [
            task_envelope(
                task_id, payload, lease_s=self.lease_s, max_attempts=self.max_attempts
            )
            for task_id, payload in zip(task_ids, payloads)
        ]
        with self._open() as (transport, target, env), TemporaryDirectory(
            prefix="repro-drainer-logs-"
        ) as log_dir:
            pool = DrainerPool(
                command=self._drainer_command(target, match),
                log_dir=Path(log_dir),
                cap=self.workers_for(len(payloads)) if self.workers != 0 else 0,
                env=env,
            )
            self.last_run_stats = pool.stats
            where = target[-1]  # the directory or URL, for messages
            try:
                try:
                    transport.submit(envelopes)
                except ConnectionError as exc:
                    raise BackendError(
                        f"could not submit to the {self.name} queue ({where}): {exc}"
                    ) from exc
                return self._collect(transport, task_ids, pool, match, where)
            except PermissionError as exc:
                # A refused credential (BrokerAuthError) never heals by
                # waiting, at submit or mid-run: no retry, the fix is in
                # the transport's message.
                raise BackendError(
                    f"the {self.name} queue ({where}) refused this "
                    f"submitter's credentials: {exc}"
                ) from exc
            finally:
                pool.terminate()
                # On success, failure or timeout alike, withdraw this
                # submission's leftovers: external workers must not burn
                # compute on a sweep nobody is waiting for, and a shared
                # queue must not accumulate dead submissions.  Best-effort
                # — a claimant that outlives us can still report an
                # orphan result; the transports age those out.
                try:
                    transport.cancel(task_ids)
                except (ConnectionError, PermissionError):
                    pass

    def _collect(
        self,
        transport: Any,
        task_ids: list[str],
        pool: DrainerPool,
        match: str,
        where: str,
    ) -> list[dict[str, Any]]:
        pending = set(task_ids)
        collected: dict[str, dict[str, Any]] = {}
        last_progress = time.monotonic()
        spawned_at_progress = 0
        backlog = len(task_ids)
        # Idle polls back off exponentially (with jitter) so a submitter
        # waiting on stragglers polls a shared queue a few times per
        # second at worst, not at a flat 20 Hz; the cap stays well below
        # a lease so requeue/auto-scale reactions remain prompt.
        idle_backoff = PollBackoff(
            self.poll_interval_s,
            max(self.poll_interval_s, min(self.lease_s / 4.0, 2.0)),
        )
        outage_backoff = PollBackoff(
            max(self.poll_interval_s, 0.25), min(self.lease_s / 2.0, 5.0)
        )
        outage_since: float | None = None
        # Ack-based handover: each tick acknowledges the results safely
        # received last tick (the transport then drops them) and addresses
        # the submission by its id prefix — per-tick traffic scales with
        # newly finished cells, not with the size of the sweep.
        ack: list[str] = []
        while pending:
            try:
                response = transport.collect(match=match, ack=ack)
            except ConnectionError as exc:
                # An unreachable queue is not a lost queue: a durable
                # broker comes back with the full submission intact, and
                # a transient network blip heals by itself (nothing is
                # lost either way — unacked results are simply re-sent).
                # Keep polling with backoff until the outage has lasted
                # a full timeout_s; only then declare the sweep lost.
                now = time.monotonic()
                if outage_since is None:
                    outage_since = now
                elif now - outage_since > self.timeout_s:
                    raise BackendError(
                        f"{self.name} queue ({where}) unreachable for "
                        f"{self.timeout_s:.0f}s with {len(pending)} task(s) "
                        f"unfinished: {exc}"
                    ) from exc
                time.sleep(outage_backoff.next_delay())
                continue
            outage_since = None
            outage_backoff.reset()
            try:
                for envelope in response["results"]:
                    validate_outcome(envelope)
            except ValueError as exc:  # whoever reaches the queue can write a result
                raise BackendError(
                    f"the {self.name} queue ({where}) handed over a malformed outcome: {exc}"
                ) from exc
            ack = [envelope["id"] for envelope in response["results"]]
            progressed = False
            for envelope in response["results"]:
                task_id = envelope["id"]
                if task_id not in pending:
                    continue  # re-sent while its ack was in flight
                # Accounting reads the envelope, not any one sweeper: the
                # submitter, idle workers and the broker all requeue
                # expired claims, and only the envelope's attempts
                # counter sees every requeuer exactly once.
                attempts = envelope.get("attempts", 0)
                if "error" in envelope:
                    # A running worker reports at most max_attempts - 1;
                    # only a synthesized give-up envelope reaches the cap.
                    if attempts >= self.max_attempts:
                        pool.stats.exhausted += 1
                    raise BackendError(
                        f"{self.name} task {task_id} failed in a worker:\n"
                        f"{envelope['error']}"
                    )
                pool.stats.requeued += attempts
                collected[task_id] = envelope["result"]
                pending.discard(task_id)
                progressed = True
            depth = int(response.get("pending", 0))
            if progressed or depth > backlog:
                # The backlog only grows when an expired claim is put
                # back on the queue, and lease recovery is progress too:
                # the sweep is healing, not hanging.
                last_progress = time.monotonic()
                spawned_at_progress = pool.stats.spawned
            backlog = depth
            if progressed:
                idle_backoff.reset()
                continue
            # Auto-scaling from the transport's own backlog count:
            # requeued tasks (their worker died; the collect above swept
            # the expired lease) become visible here and get a fresh
            # drainer, never beyond the worker cap.
            if pool.cap > 0:
                pool.top_up(depth)
                if pool.stats.spawned - spawned_at_progress > max(6, 3 * pool.cap):
                    # Drainers keep exiting without a single result or
                    # lease recovery in between — a broken environment (import error,
                    # unwritable queue, refused token), not a worker
                    # death the lease machinery would heal.  Fail fast
                    # with the failing worker's own log instead of
                    # looping until the timeout.
                    raise BackendError(
                        f"local {self.name} workers keep exiting without "
                        f"progress ({pool.stats.spawned} spawned, {len(pending)} "
                        f"task(s) unfinished) on {where}\n{pool.failing_log_tail()}"
                    )
            if pool.alive_count():
                # A live local drainer is computing (simulations always
                # terminate) — a big cell legitimately takes as long as
                # it takes, so the stall timeout does not apply here.
                time.sleep(idle_backoff.next_delay())
                continue
            if time.monotonic() - last_progress > self.timeout_s:
                # A claim the transport still counts is *live* — every
                # collect sweeps expired leases, so a dead worker's claim
                # would already have been requeued (visible backlog) or
                # exhausted (error envelope).  A live worker computing a
                # big cell gets the same patience local drainers do; only
                # tasks sitting unclaimed with nobody to run them can
                # time out.  The count comes from the same response as
                # the results, so a worker finishing between the two
                # reads as claimed now and as a result next tick.
                if int(response.get("claimed", 0)) > 0:
                    time.sleep(idle_backoff.next_delay())
                    continue
                raise BackendError(
                    f"timed out after {self.timeout_s:.0f}s waiting for "
                    f"{len(pending)} unclaimed {self.name} task(s) on {where}"
                    f"\n{pool.failing_log_tail()}"
                )
            time.sleep(idle_backoff.next_delay())
        return [collected[task_id] for task_id in task_ids]
