"""Spans, profiler-site attribution and small measurement helpers.

The ledger measures the program from outside: spans are recorded by the
benchmark's own code around calls into public functions, and event-loop
time is split by callback-site module through the engine's public
``SimProfiler`` hook.  Spans stay in memory; ``run.py`` writes them out
once, when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Sequence


# --------------------------------------------------------------------- spans
class Tracer:
    """In-memory span recorder.

    A span is ``[name, trace_id, parent_index, start_s, end_s]``; spans
    of one op (one cell, one cycle, one batch) share ``trace_id``, and
    ``parent_index`` is the enclosing span's position in :attr:`spans`
    (``None`` at the root).
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str) -> Iterator[None]:
        record = [name, trace_id, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[3] = perf_counter()
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------- queries
    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, _, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, _, _, start, end), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def to_records(self) -> list[dict[str, Any]]:
        return [
            {"name": n, "id": i, "parent": p, "start_s": s, "end_s": e}
            for n, i, p, s, e in self.spans
        ]


class NullTracer:
    """The untraced run's tracer: ``span`` costs one generator frame."""

    @contextmanager
    def span(self, name: str, trace_id: str) -> Iterator[None]:
        yield


# --------------------------------------------------------- profiler sites
#: Site-name prefixes that are their own ledger layer (checked first).
_SITE_LAYERS = (
    ("repro.sim.dynamics.", "sim.dynamics"),
    ("repro.monitors.", "monitors"),
)


def layer_of_site(site: str) -> str:
    """Ledger layer of a ``SimProfiler`` callback site.

    ``repro.mac.medium.WirelessMedium._finish_transmission`` -> ``mac``.
    Root callbacks never nest, so the layers partition the event loop.
    """
    for prefix, layer in _SITE_LAYERS:
        if site.startswith(prefix):
            return layer
    parts = site.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def sites_by_layer(profiler: Any) -> dict[str, tuple[float, int]]:
    """``layer -> (wall_s, events)`` summed over a profiler's sites."""
    layers: dict[str, tuple[float, int]] = {}
    for site, events, wall_s in profiler.table():
        wall, count = layers.get(layer_of_site(site), (0.0, 0))
        layers[layer_of_site(site)] = (wall + wall_s, count + events)
    return layers


# ------------------------------------------------------------------ helpers
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean_ms(durations_s: Sequence[float]) -> float:
    return 1e3 * sum(durations_s) / len(durations_s) if durations_s else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))])


def canonical_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_digest(payload: Any) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def peak_rss_mb() -> dict[str, float]:
    """Peak resident set of this process and of its waited-for children."""
    scale = 1.0 / 1024.0  # ru_maxrss is KiB on Linux
    if sys.platform == "darwin":  # pragma: no cover - bytes there
        scale = 1.0 / (1024.0 * 1024.0)
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * scale,
    }


def import_seconds(src_dir: str) -> float:
    """A fresh interpreter importing what a queue drainer imports."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.experiment.worker"], env=env, check=True)
    return perf_counter() - start


class Budget:
    """A wall-clock budget for a closed measurement loop."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def fits(self, next_s: float, reserve: float = 0.0) -> bool:
        """Whether a step expected to take ``next_s`` still ends in budget
        with ``reserve`` seconds to spare (half a step of overshoot is
        tolerated, so runs stay near ``seconds`` instead of always
        stopping short)."""
        return self.elapsed() + 0.5 * next_s + reserve <= self.seconds


@contextmanager
def captured_fds(path: str) -> Iterator[None]:
    """Send file descriptors 1 and 2 to ``path`` (appending) for the block.

    At the descriptor level, so output of forked pool workers, spawned
    drainers and ``http.server`` threads lands in the file instead of
    spilling into the benchmark's own output.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    saved_out, saved_err = os.dup(1), os.dup(2)
    sink = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.dup2(sink, 1)
        os.dup2(sink, 2)
        yield
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(saved_out, 1)
        os.dup2(saved_err, 2)
        for fd in (sink, saved_out, saved_err):
            os.close(fd)


def count_tracebacks(path: str) -> int:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read().count("Traceback (most recent call last)")
    except OSError:
        return 0


@dataclass
class Outcome:
    """What one untraced workload run produced."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: ``op_ms_best`` (``run.py`` adds set-up and memory).
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: The issue's named views native to this workload (printed, recorded,
    #: judged by ``compare.py``; not part of the driver's JSON line).
    headline: dict[str, float] = field(default_factory=dict)
    #: Free-form context for the results file (counts, sizes).
    info: dict[str, Any] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)
