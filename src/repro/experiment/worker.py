"""Queue drainer: ``python -m repro.experiment.worker``.

The executable half of the queue-shaped backends: :func:`main` is what every
drainer runs, started from this command line (an external worker, any host) or
forked, imports already paid, by a submitter's ``--serve-forks`` host
(:func:`serve_forks`: its local drainers).  A worker claims task
envelopes (``{"id": ..., "spec": <canonical spec dict>, "attempts": ...,
"lease_s": ..., "max_attempts": ...}``), runs
:func:`repro.experiment.backends.run_spec_payload` on the spec, and
reports ``{"id": ..., "result": <result dict>}`` (or ``{"id": ...,
"error": <traceback>}``) back — over either transport:

* ``python -m repro.experiment.worker <queue_dir>`` drains a
  shared-directory :class:`~repro.experiment.backends.WorkQueueBackend`
  queue (claim = atomic rename into ``claimed/``; exactly one claimant
  wins);
* ``python -m repro.experiment.worker --broker http://host:port`` drains
  a :mod:`repro.experiment.broker` over HTTP — no shared filesystem at
  all.

Claims are **leases**: while a task computes, a background thread
heartbeats it (touching the claimed file's mtime, or POSTing
``/heartbeat``) every quarter of the envelope's ``lease_s``, so only a
*dead* worker ever goes silent.  Idle file-queue workers also repossess
other workers' expired claims (``client.recover()``), which is what
makes a long-lived fleet self-healing with no submitter involvement;
over HTTP the broker sweeps leases itself.

Any number of workers on any hosts can drain the same queue;
determinism is the engine's, not the scheduler's — a spec's result
payload is byte-identical no matter which worker ran it, which is also
why a task that was requeued *and* finished by its slow original owner
resolves to the same bytes either way.  With ``--cache-dir`` every
computed result is also written into a shared content-addressed
:class:`repro.experiment.cache.ResultCache` (concurrent-writer-safe),
so a fleet of workers warms one store as a side effect of draining the
queue — including the store's measured-cost ledger, which future
submissions' sweep planners use to dispatch slowest-first by observed
cost rather than heuristic.

A remote session with no shared filesystem — broker, workers with
``--cache-dir``, submitter with ``workers=0`` — is spelled out in
:mod:`repro.experiment.broker`; export the same ``REPRO_BROKER_TOKEN``
on every host when the broker requires one (an unauthenticated worker
is refused with 401 and exits).

Chaos hooks (used by the recovery test suite, harmless otherwise):
``REPRO_WORKER_KILL_FILE`` names a flag file — the first worker to claim
a task while the flag exists unlinks it and ``SIGKILL``s itself, one
death per flag; ``REPRO_WORKER_KILL_MATCH`` is a substring — every
worker that claims a task whose id contains it dies, which is how the
retry budget's exhaustion path is exercised end to end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
import time
import traceback
import warnings
from typing import TYPE_CHECKING, Any

from repro.experiment.backends import (
    DEFAULT_LEASE_S,
    BrokerClient,
    FileQueueClient,
    PollBackoff,
    run_spec_payload,
)
from repro.experiment.backends.queue_common import lease_of, lease_policy

if TYPE_CHECKING:
    from repro.experiment.cache import ResultCache

__all__ = [
    "FileQueueClient",
    "drain",
    "main",
    "serve_forks",
]

#: Chaos hooks, read once per claim (see the module docstring).
KILL_FILE_ENV_VAR = "REPRO_WORKER_KILL_FILE"
KILL_MATCH_ENV_VAR = "REPRO_WORKER_KILL_MATCH"


class _Heartbeat:
    """Background lease refresher for one claimed task."""

    def __init__(self, client: Any, token: Any, interval_s: float) -> None:
        self._client = client
        self._token = token
        self._interval_s = max(interval_s, 0.01)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            while not self._stop.wait(self._interval_s):
                try:
                    self._client.heartbeat(self._token)
                except Exception:  # pragma: no cover - heartbeat is best-effort
                    pass
        finally:
            # A broker connection belongs to the thread that opened it:
            # this thread's first beat did, so this thread closes it.
            self._client.close()

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _chaos_kill(task_id: str) -> None:
    """Die on command: the recovery tests' stand-in for real worker loss.

    SIGKILL (not an exception) on purpose — the whole point is a worker
    that never gets to write an error envelope, exactly like a crashed
    host or an OOM kill.
    """
    flag = os.environ.get(KILL_FILE_ENV_VAR)
    if flag:
        try:
            os.unlink(flag)  # atomic: exactly one worker wins the flag
        except OSError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    match = os.environ.get(KILL_MATCH_ENV_VAR)
    if match and match in task_id:
        os.kill(os.getpid(), signal.SIGKILL)


def _execute(
    client: Any, envelope: dict[str, Any], token: Any, cache: "ResultCache | None"
) -> bool:
    """Run one claimed task; returns True when the shared cache is dirty
    (a payload was written with its index flush deferred to the caller)."""
    cache_dirty = False
    task_id = str(envelope.get("id", "unknown"))
    lease_s, attempts = DEFAULT_LEASE_S, 0
    try:
        # An envelope whose policy does not parse is reported like any
        # other failure, naming the field, instead of killing the worker.
        lease_s, _, attempts = lease_policy(envelope)
        spec_payload: dict[str, Any] = envelope["spec"]
        with _Heartbeat(client, token, lease_s / 4.0):
            result = run_spec_payload(spec_payload)
        if cache is not None:
            # Shared-store writeback: content-addressed and atomic, so
            # any number of workers can target one cache directory.  A
            # failing store (unwritable, full) must never poison the
            # computed result — the writeback is best-effort.
            try:
                cache.put_payload(
                    spec_payload,
                    result,
                    label=spec_payload.get("label", ""),
                    flush=False,
                )
                cache_dirty = True
            except Exception:
                print(
                    f"warning: shared-cache writeback failed for {task_id}:\n"
                    f"{traceback.format_exc()}",
                    flush=True,
                )
        outcome: dict[str, Any] = {"id": task_id, "result": result}
    except Exception:
        # Report the failure to the submitter instead of dying silently —
        # a lost task would cost a whole lease + retry before erroring.
        outcome = {"id": task_id, "error": traceback.format_exc()}
    # Attempts ride along so the submitter can account for every worker
    # death this task survived, whoever did the requeuing.
    outcome["attempts"] = attempts
    # The result just cost a whole simulation — a transient broker blip
    # on the report must not crash the worker and throw it away.  Retry
    # across roughly a lease (heartbeats have stopped, so a re-claim
    # starts after lease_s anyway); past that the queue's retry budget
    # re-runs the task and this copy is surplus.
    for remaining in range(9, -1, -1):
        try:
            client.complete(token, outcome)
            break
        except ConnectionError:
            if not remaining:
                print(
                    f"warning: could not report result for {task_id}; "
                    "dropping it (the queue's retry budget re-runs the task)",
                    flush=True,
                )
                break
            time.sleep(lease_s / 8.0)
    return cache_dirty


def drain(
    client: Any,
    max_tasks: int | None = None,
    idle_timeout_s: float | None = None,
    poll_interval_s: float = 0.05,
    exit_when_empty: bool = False,
    cache: "ResultCache | None" = None,
) -> int:
    """Drain tasks from a queue client; returns how many were executed.

    Runs until ``max_tasks`` tasks were executed, the queue has stayed
    empty for ``idle_timeout_s``, or — with ``exit_when_empty`` — the
    first moment no pending task is found and no expired claim could be
    recovered.  With no stop condition it drains forever (the long-lived
    remote-worker mode).

    Shared-cache writebacks are batched: payload files land atomically
    per task, but the O(entries) index flush is deferred to idle moments
    and to exit, so a busy worker never pays an index rewrite per cell.
    """
    executed = 0
    cache_dirty = False
    idle_since = time.monotonic()
    # Consecutive empty claims back off exponentially (jittered, capped
    # well below a lease) — an idle fleet parked on a shared broker
    # between submissions must not keep hammering it at 20 Hz; the first
    # task that lands resets to the base interval.  The cap follows the
    # lease of the last task claimed (the default's before the first).
    idle_backoff = PollBackoff(
        poll_interval_s, max(poll_interval_s, min(DEFAULT_LEASE_S / 4.0, 2.0))
    )

    def flush_cache() -> None:
        nonlocal cache_dirty
        if cache is not None and cache_dirty:
            try:
                cache.flush()
            except Exception:
                print(
                    f"warning: shared-cache flush failed:\n{traceback.format_exc()}",
                    flush=True,
                )
            cache_dirty = False

    try:
        while max_tasks is None or executed < max_tasks:
            outage = False
            try:
                task = client.claim()
            except ConnectionError:
                # A long-lived fleet worker outlives broker restarts:
                # an unreachable broker is an empty queue with backoff,
                # not a crash (short-lived --exit-when-empty drainers
                # still exit below, and their submitter takes it from
                # there).
                task = None
                outage = True
            if task is None:
                # Self-healing before giving up: an expired claim
                # (somebody's dead worker) is pending work too.  The
                # transport throttles its own sweeps.
                if not outage and client.recover():
                    continue
                flush_cache()
                if exit_when_empty:
                    break
                if (
                    idle_timeout_s is not None
                    and time.monotonic() - idle_since > idle_timeout_s
                ):
                    break
                delay = idle_backoff.next_delay()
                time.sleep(max(delay, 0.5) if outage else delay)
                continue
            envelope, token = task
            idle_backoff.reset()
            idle_backoff.cap_s = max(
                poll_interval_s, min(lease_of(envelope) / 4.0, 2.0)
            )
            _chaos_kill(str(envelope.get("id", "")))
            cache_dirty = _execute(client, envelope, token, cache) or cache_dirty
            executed += 1
            idle_since = time.monotonic()
    finally:
        flush_cache()
    return executed


def _become_drainer(request: dict[str, Any]) -> None:
    """The forked child's half of a spawn: take on the submission's environment,
    directory and log file, run :func:`main` as a fresh ``python -m`` would have."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        os.environ.clear()
        os.environ.update(request["env"])
        os.chdir(request["cwd"])
        log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        null = os.open(os.devnull, os.O_RDONLY)  # fd 0 was the host's requests
        for fd, source in enumerate((null, log, log)):
            os.dup2(source, fd)
        code = main(request["argv"])
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        traceback.print_exc()
    finally:
        # Never the host's way out: its atexit handlers are not this process's.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def serve_forks() -> int:
    """Be a submitter's fork host: start its drainers warm, never drain here.

    One JSON line per request on stdin, one reply line on what was stdout:
    ``{"op": "spawn", "argv", "env", "cwd", "log"}`` -> ``{"pid"}`` of a fork
    that runs :func:`_become_drainer`; ``{"op": "poll", "pid"}`` -> ``{"status"}``,
    ``None`` while that drainer runs, else ``Popen``'s convention (minus the signal
    for a killed one) - a child is reaped here, and only when asked about.  The
    end of stdin means the submitter is gone, however it went: the drainers still
    alive are terminated and the host exits.
    """
    replies = os.dup(1)
    os.dup2(2, 1)  # a stray print must not read as a reply
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the submitter's to handle
    alive: set[int] = set()
    try:
        for line in sys.stdin:
            request = json.loads(line)
            if request["op"] == "spawn":
                with warnings.catch_warnings():
                    # 3.12+ warns when a process with a second OS thread forks.  The
                    # one here is OpenBLAS's pool, which registers its own atfork
                    # handlers (ProcessPoolBackend forks numpy-loaded processes
                    # too); the host itself starts no thread.
                    warnings.filterwarnings("ignore", ".*multi-threaded", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    os.close(replies)
                    _become_drainer(request)
                alive.add(pid)
                reply: dict[str, Any] = {"pid": pid}
            else:
                done, status = os.waitpid(request["pid"], os.WNOHANG)
                alive.discard(done)
                reply = {"status": os.waitstatus_to_exitcode(status) if done else None}
            os.write(replies, f"{json.dumps(reply)}\n".encode())
    finally:  # also when the submitter died mid-reply (EPIPE)
        for pid in alive:
            os.kill(pid, signal.SIGTERM)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiment.worker",
        description="Drain a repro work queue — a shared directory "
        "(repro.experiment.backends.WorkQueueBackend) or an HTTP broker "
        "(repro.experiment.broker).",
    )
    parser.add_argument(
        "queue_dir",
        nargs="?",
        default=None,
        help="the shared queue directory (omit when using --broker)",
    )
    parser.add_argument(
        "--broker",
        default=None,
        metavar="URL",
        help="drain this HTTP broker instead of a shared directory",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=None, help="exit after this many tasks"
    )
    parser.add_argument(
        "--idle-timeout-s",
        type=float,
        default=None,
        help="exit after the queue has been empty for this long",
    )
    parser.add_argument(
        "--poll-interval-s", type=float, default=0.05, help="queue scan interval"
    )
    parser.add_argument(
        "--exit-when-empty",
        action="store_true",
        help="exit the first time no pending task is found",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="also write every computed result into this shared ResultCache",
    )
    parser.add_argument(
        "--match",
        default="",
        help="only claim task ids starting with this prefix "
        "(used by submitters' own drainers to leave other submissions alone)",
    )
    args = parser.parse_args(argv)
    if (args.queue_dir is None) == (args.broker is None):
        parser.error("exactly one of queue_dir or --broker is required")
    cache = None
    if args.cache_dir:
        from repro.experiment.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    if args.broker:
        client: Any = BrokerClient(args.broker, match=args.match)
        source = args.broker
    else:
        client = FileQueueClient(args.queue_dir, match=args.match)
        source = args.queue_dir
    try:
        with contextlib.closing(client):
            executed = drain(
                client,
                max_tasks=args.max_tasks,
                idle_timeout_s=args.idle_timeout_s,
                poll_interval_s=args.poll_interval_s,
                exit_when_empty=args.exit_when_empty,
                cache=cache,
            )
    except PermissionError as exc:
        # BrokerAuthError: a rejected token never heals by retrying —
        # refuse to run rather than spin against 401s.
        print(
            f"error: the broker refused this worker's credentials: {exc}",
            flush=True,
        )
        return 2
    print(f"drained {executed} task(s) from {source}")
    return 0


if __name__ == "__main__":
    # The host's entry is not a worker option: main() is what its forks run.
    raise SystemExit(serve_forks() if sys.argv[1:] == ["--serve-forks"] else main())
