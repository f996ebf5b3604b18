"""Discrete-event simulation kernel.

A minimal, dependency-free event scheduler.  Events live in a binary
heap of ``(time, seq, Event)`` tuples (see :mod:`repro.scheduler`);
scheduling builds the tuple and hands it to ``heapq.heappush`` bound to
that heap, so a push runs no Python frame.  The calendar queue stays
constructible as ``Simulator(scheduler="calendar")`` for the
performance ledger's reference rows only.  Both queues pop events in
exactly ``(time, seq)`` order, so the choice can never change a
simulation result; the equivalence property suite and the sim trace
goldens pin this byte-for-byte.

Cancellation is handled lazily by flagging the event and skipping it
when popped, which keeps both ``schedule`` and ``cancel`` cheap;
``Event.cancel`` counts cancelled-but-queued entries on the queue and
has it compact in place once they dominate, so a workload that
schedules and cancels in a loop cannot grow the queue without bound.

Every stochastic component of the simulator draws from RNG streams
derived from the simulator seed, so a given scenario replays identically
across runs — a property the test suite and benchmark harness rely on.

Profiling: the run loop has a duck-typed hook (see
:mod:`repro.sim.profile`).  When a profiler is installed — per instance
via :attr:`Simulator.profiler` or process-wide via
:func:`set_default_profiler` — the loop times each callback with the
profiler's own clock and reports ``(callback, elapsed)`` pairs to it.
The engine itself never touches a wall clock (``tests/invariants``,
RPL104); the clock lives in the profiler module, which is the one
sanctioned exclusion.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from repro.scheduler import COMPACT_MIN_CANCELLED, SCHEDULER_KINDS, make_scheduler

#: The event queue a :class:`Simulator` uses unless the constructor
#: names one: the binary heap.
DEFAULT_SCHEDULER = "heap"

#: Process-wide fallback profiler (see :func:`set_default_profiler`).
_DEFAULT_PROFILER = None


def set_default_profiler(profiler) -> object:
    """Install ``profiler`` as the fallback for every :class:`Simulator`.

    Returns the previous default so callers can restore it.  Simulators
    with an explicit :attr:`Simulator.profiler` keep their own.  The
    profiler is duck-typed: it needs a ``clock()`` returning seconds as
    a float and a ``record(callback, elapsed_s)`` method.
    """
    global _DEFAULT_PROFILER
    previous = _DEFAULT_PROFILER
    _DEFAULT_PROFILER = profiler
    return previous


def rng_spawn_key(name: str) -> int:
    """Stable 32-bit spawn key for a named RNG stream.

    A CRC32 of the UTF-8 name rather than ``hash(name)``: Python's string
    hash is salted per process (PYTHONHASHSEED), which would give every
    worker of a parallel batch run a different random stream for the same
    component and break run-to-run reproducibility.
    """
    return zlib.crc32(name.encode("utf-8"))


def named_rng(seed: int, name: str) -> np.random.Generator:
    """The reproducible RNG stream ``name`` of ``seed``.

    Streams of one seed are independent of each other, so a component
    that adds draws to its own stream cannot perturb another's — the
    discipline every seeded part of a scenario (kernel components,
    topology placement, workloads, mobility, churn) follows.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(rng_spawn_key(name),))
    )


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_sched")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        sched=None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._sched = sched

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            sched = self._sched
            if sched is not None:
                # The queue's accounting, kept here so that a cancel runs
                # no Python frame inside the queue.
                sched.dead = dead = sched.dead + 1
                if dead > COMPACT_MIN_CANCELLED and dead * 2 > len(sched):
                    sched.compact()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time!r}, seq={self.seq}{state})"


class Simulator:
    """Event loop with virtual time.

    Args:
        seed: master seed; per-component RNG streams are spawned from it
            via :meth:`rng_stream` so adding a component never perturbs
            the random draws of another.
        scheduler: event-queue kind, ``"heap"`` or ``"calendar"`` (see
            :mod:`repro.scheduler`); ``None`` (the default) is
            :data:`DEFAULT_SCHEDULER`, the heap.  Both kinds dispatch
            events in identical order, so this never changes a result.
    """

    def __init__(self, seed: int = 0, scheduler: str | None = None) -> None:
        self.now: float = 0.0
        self.seed = seed
        if scheduler is None:
            scheduler = DEFAULT_SCHEDULER
        if scheduler not in SCHEDULER_KINDS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; "
                f"expected one of {', '.join(SCHEDULER_KINDS)}"
            )
        self.scheduler_kind = scheduler
        self._sched = make_scheduler(scheduler)
        self._push = self._sched.push
        self._pop_due = self._sched.pop_due
        self._run_due = self._sched.run_due
        self._seq = 0
        self._rng = np.random.default_rng(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._processed = 0
        #: Optional per-instance profiler (duck-typed, see module docs).
        self.profiler = None

    # ------------------------------------------------------------------ RNG
    def rng_stream(self, name: str) -> np.random.Generator:
        """A named, reproducible RNG stream derived from the master seed."""
        if name not in self._streams:
            self._streams[name] = named_rng(self.seed, name)
        return self._streams[name]

    # ------------------------------------------------------------ scheduling
    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        now = self.now
        # Written as ``not >=`` so NaN, which compares false either way,
        # is refused here instead of stalling the queue it would enter.
        if not time >= now:
            if not time >= now - 1e-12:
                raise ValueError(f"cannot schedule at {time!r}: now is {now!r}")
            time = now
        self._seq = seq = self._seq + 1
        event = Event(time, seq, callback, self._sched)
        self._push((time, seq, event))
        return event

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of virtual time."""
        if not delay >= 0:  # NaN included
            raise ValueError(f"delay must be a non-negative number, got {delay!r}")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        event = Event(time, seq, callback, self._sched)
        self._push((time, seq, event))
        return event

    # --------------------------------------------------------------- running
    def run_until(self, end_time: float) -> None:
        """Process events in order until virtual time reaches ``end_time``."""
        profiler = self.profiler if self.profiler is not None else _DEFAULT_PROFILER
        if profiler is not None:
            self._run_until_profiled(end_time, profiler)
            return
        # The dispatch loop lives in the scheduler (``run_due``) so each
        # queue keeps its hot state in locals instead of paying a
        # ``pop_due`` call per event.
        self._run_due(self, end_time)
        if end_time > self.now:
            self.now = end_time

    def _run_until_profiled(self, end_time: float, profiler) -> None:
        """The run loop with per-callback timing via ``profiler``.

        Kept separate so the unprofiled loop pays nothing; the clock is
        the profiler's own (the engine stays wall-clock free).
        """
        pop_due = self._pop_due
        clock = profiler.clock
        record = profiler.record
        while True:
            entry = pop_due(end_time)
            if entry is None:
                break
            self.now = entry[0]
            self._processed += 1
            callback = entry[2].callback
            start = clock()
            callback()
            record(callback, clock() - start)
        if end_time > self.now:
            self.now = end_time

    def run(self) -> None:
        """Process every pending event (use with care: sources that
        reschedule themselves forever will never drain)."""
        self._run_due(self, float("inf"))

    def close(self) -> None:
        """Drop every queued event: the simulator's references back into
        the objects it drove (see "Lifetime" in ``docs/architecture.md``)."""
        self._sched.clear()

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return self._sched.live_count()

    @property
    def queued_entries(self) -> int:
        """Raw queue size including lazily-cancelled entries (diagnostics)."""
        return len(self._sched)

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed
