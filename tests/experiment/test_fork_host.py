"""The fork host's contract: local drainers start warm and nothing leaks.

A submitting process keeps one ``python -m repro.experiment.worker
--serve-forks`` child (``queue_common._FORK_HOST``) and every local
drainer is a fork of it.  What must hold, and is checked here against
real processes: a drainer sees the environment and directory of *its*
spawn, not of the host's start; a dead host costs nothing but its own
restart; the host and its drainers never outlive the submitter, however
it went; threads share the one host; and every drainer is reaped.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiment import (
    BatchRunner,
    BrokerBackend,
    SerialBackend,
    WorkQueueBackend,
    seed_sweep,
)
from repro.experiment.backends import queue_common
from repro.experiment.backends.queue_common import worker_subprocess_env

from _helpers import FAST_SPEC, canonical_batch

pytestmark = [
    pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc"),
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def _stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of a process, ``None`` once it is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _running(pid: int) -> bool:
    """Alive and not a zombie (a container's pid 1 may never reap one)."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid: int) -> dict[int, str]:
    """pid -> state of every process whose parent is ``pid``."""
    found = {}
    for entry in os.listdir("/proc"):
        stat = _stat(int(entry)) if entry.isdigit() else None
        if stat is not None and stat[1] == pid:
            found[int(entry)] = stat[0]
    return found


def _host() -> subprocess.Popen:
    host = queue_common._FORK_HOST._proc
    assert host is not None and host.poll() is None, "no live fork host"
    return host


@pytest.fixture(scope="module")
def sweep():
    return seed_sweep(FAST_SPEC, range(3))


@pytest.fixture(scope="module")
def reference(sweep):
    return canonical_batch(BatchRunner(sweep, backend=SerialBackend(), cache=False).run())


@pytest.fixture
def warm_host():
    """The host as a first submission leaves it."""
    WorkQueueBackend(workers=1).run([FAST_SPEC.to_dict()])
    return _host()


def test_a_drainer_sees_the_environment_and_directory_of_its_own_spawn(
    warm_host, sweep, reference, tmp_path, monkeypatch
):
    """The chaos hook is exported, and the directory changed, *after* the
    host started: exactly one drainer of the next submission must die of
    the flag, and a relative ``queue_dir`` must mean the submitter's."""
    flag = tmp_path / "kill-one-worker"
    flag.touch()
    monkeypatch.setenv("REPRO_WORKER_KILL_FILE", str(flag))
    monkeypatch.chdir(tmp_path)
    backend = WorkQueueBackend("queue", workers=2, lease_s=1.0, timeout_s=120.0)
    batch = BatchRunner(sweep, backend=backend, cache=False).run()
    assert canonical_batch(batch) == reference
    assert not flag.exists()
    assert backend.last_run_stats.requeued == 1
    assert (tmp_path / "queue" / "claimed").is_dir()
    assert _host() is warm_host  # the same host served both submissions


@pytest.mark.parametrize("settle_s", [0.0, 0.2], ids=["dying", "dead"])
def test_a_killed_host_is_replaced_by_the_next_submission(
    warm_host, sweep, reference, settle_s
):
    """Whether the next spawn finds the host already dead or kills the
    pipe under it, the submission completes on a new host and counts
    only its own drainers."""
    os.kill(warm_host.pid, signal.SIGKILL)
    time.sleep(settle_s)
    backend = BrokerBackend(workers=2, timeout_s=120.0)
    batch = BatchRunner(sweep, backend=backend, cache=False).run()
    assert canonical_batch(batch) == reference
    assert backend.last_run_stats.spawned == 2
    assert backend.last_run_stats.requeued == 0
    assert warm_host.poll() == -signal.SIGKILL
    assert _host().pid != warm_host.pid


def test_threads_share_one_host(warm_host, sweep, reference):
    """Two submissions at once, one per transport, four drainers on two
    cores: both byte-identical to serial, all forked from the one host."""
    backends = [WorkQueueBackend(workers=2), BrokerBackend(workers=2)]
    batches: dict[str, str] = {}

    def submit(backend) -> None:
        batch = BatchRunner(sweep, backend=backend, cache=False).run()
        batches[backend.name] = canonical_batch(batch)

    threads = [threading.Thread(target=submit, args=(backend,)) for backend in backends]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    assert batches == {"work_queue": reference, "broker": reference}
    assert [backend.last_run_stats.spawned for backend in backends] == [2, 2]
    assert _host() is warm_host


def test_twenty_submissions_leave_the_host_no_child(warm_host):
    """``DrainerPool.terminate`` returns once the host has reaped every
    drainer: no zombie accumulates under a long-lived submitter."""
    backend = WorkQueueBackend(workers=2)
    tiny = dataclasses.replace(FAST_SPEC, cycle_measure_s=0.3, settle_s=0.1)
    payloads = [spec.to_dict() for spec in seed_sweep(tiny, range(2))]
    for _ in range(20):
        backend.run(payloads)
        assert backend.last_run_stats.spawned == 2
    assert _host() is warm_host
    assert _children(warm_host.pid) == {}


_SUBMITTER = """
import json, sys
from repro.experiment import WorkQueueBackend
from repro.experiment.backends import queue_common
payloads = json.load(open(sys.argv[2]))
results = WorkQueueBackend(sys.argv[1], workers=2).run(payloads)
print(len(results), queue_common._FORK_HOST._proc.pid, flush=True)
"""


def _start_submitter(tmp_path, cells: int) -> subprocess.Popen:
    payloads = [spec.to_dict() for spec in seed_sweep(FAST_SPEC, range(cells))]
    (tmp_path / "payloads.json").write_text(json.dumps(payloads), encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-c", _SUBMITTER, str(tmp_path / "queue"), str(tmp_path / "payloads.json")],
        stdout=subprocess.PIPE,
        env=worker_subprocess_env(),
        text=True,
    )


def test_a_submitter_that_exits_leaves_no_process_behind(tmp_path):
    """The host is closed and waited for at exit, after ``run`` reaped
    the drainers: nothing of the submission is alive when it returns."""
    submitter = _start_submitter(tmp_path, cells=2)
    out, _ = submitter.communicate(timeout=120.0)
    assert submitter.returncode == 0, out
    done, host_pid = map(int, out.split())
    assert done == 2
    assert _stat(host_pid) is None  # waited for: not even a zombie
    assert _children(host_pid) == {}


def test_a_sigkilled_submitter_takes_its_host_and_drainers_with_it(tmp_path):
    """Killed mid-collect, no atexit: the end of the host's stdin is what
    terminates the drainers and the host - within seconds, and with most
    of the sweep still unclaimed (they were stopped, they did not finish)."""
    cells = 200
    tasks = tmp_path / "queue" / "tasks"
    submitter = _start_submitter(tmp_path, cells=cells)
    try:
        deadline = time.monotonic() + 60.0
        drainers: dict[int, str] = {}
        while not drainers or len(os.listdir(tasks)) > cells - 4:
            assert time.monotonic() < deadline and submitter.poll() is None
            time.sleep(0.02)
            for host_pid in _children(submitter.pid):
                drainers = _children(host_pid)
    finally:
        submitter.kill()
        submitter.communicate(timeout=10.0)
    deadline = time.monotonic() + 5.0
    left = [host_pid, *drainers]
    while left and time.monotonic() < deadline:
        time.sleep(0.02)
        left = [pid for pid in left if _running(pid)]
    assert not left, f"still running 5 s after the submitter's SIGKILL: {left}"
    assert len(os.listdir(tasks)) > cells // 2
