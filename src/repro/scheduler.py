"""Event-queue implementations for the simulation kernel.

Two interchangeable schedulers back :class:`repro.engine.Simulator`:

* :class:`HeapScheduler` — the event store every run uses: a binary
  heap of ``(time, seq, Event)`` tuples (every comparison at C level,
  ``seq`` unique so the ``Event`` never compares).  Its ``push`` is
  ``heapq.heappush`` bound to the heap, so scheduling runs no Python
  frame.
* :class:`CalendarScheduler` — a calendar queue: a window of fixed-width
  time buckets consumed in order (the bucket under the cursor kept
  sorted, buckets ahead plain unsorted lists), plus a spill heap for
  events beyond the window.  Interleaved ledger pairs measured the heap
  faster on every simulating workload, so the calendar is no longer a
  default; it stays constructible (``Simulator(scheduler="calendar")``)
  only for the performance ledger's ``scheduler.*`` reference rows.

Both preserve the kernel's total order **exactly**: events pop in
``(time, seq)`` order, so the two schedulers are byte-identical in
every simulation — the equivalence property suite
(``tests/test_scheduler_equivalence.py``) and the sim trace goldens
under both schedulers are the proof.

Shared semantics:

* ``push(entry)`` enqueues one ``(time, seq, event)`` tuple; ``seq``
  values are unique and increase monotonically (the simulator's
  dispatch counter), and ``time`` is never NaN (the simulator refuses
  it).
* ``pop_due(limit)`` removes and returns the next *live* entry with
  ``time <= limit``, or ``None``.  Lazily-cancelled entries are
  discarded (and their accounting settled) on the way.
* ``run_due(sim, limit)`` is the fused dispatch loop the unprofiled
  run path uses: it pops due entries and invokes their callbacks
  directly, advancing ``sim.now`` and accumulating into
  ``sim._processed`` (under ``try/finally``, so a raising callback
  loses no accounting).  Keeping the loop inside the scheduler lets
  each implementation cache its own hot state in locals instead of
  paying a method call per event; behaviour is identical to a
  ``pop_due`` loop, which the profiled run path still uses.
* ``dead`` counts lazily-cancelled entries still queued.
  ``Event.cancel`` raises it and, past :data:`COMPACT_MIN_CANCELLED`
  and once dead entries are the majority, calls ``compact()``, which
  drops them in place — one policy for both, so the two schedulers'
  raw entry counts agree at every step.
* ``len(scheduler)`` is the raw not-yet-popped entry count (live +
  lazily cancelled); ``live_count()`` is the live subset.
* ``clear()`` drops every queued entry (``Simulator.close``): a queued
  ``Event`` points back at its scheduler and, through its callback, at
  whoever scheduled it, so a queue left full keeps the run alive.

The bucketing function ``idx = int((time - base) * inv_width)`` is
monotone in ``time`` (subtraction, positive multiply and ``int``
truncation are all monotone for the non-negative operands involved), so
bucket order can never contradict time order; float rounding can at
worst land an entry one bucket *early*, which the push-time clamp to
the consume cursor absorbs (the entry joins the current bucket's sorted
remainder, still in exact ``(time, seq)`` position — its ``(time,
seq)`` exceeds every already-consumed entry because the simulator
clamps times to ``now`` and ``seq`` grows monotonically).
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from heapq import heapify, heappop, heappush

__all__ = [
    "COMPACT_MIN_CANCELLED",
    "CalendarScheduler",
    "HeapScheduler",
    "SCHEDULER_KINDS",
    "make_scheduler",
]

#: Compaction policy (applied by ``Event.cancel`` to either scheduler):
#: rebuild when more than this many entries are cancelled AND they make
#: up over half the raw entry count.  The absolute floor keeps tiny
#: queues from compacting on every cancel; the fraction bounds memory at
#: ~2x the live event count.
COMPACT_MIN_CANCELLED = 64

#: Default calendar geometry.  The bucket width is a power of two
#: (2**-9 s ~ 1.95 ms) so the ``inv_width`` multiply is exact scaling;
#: 512 buckets give a 1 s window — backoff slots, SIFS/DIFS gaps, frame
#: airtimes, ACK timeouts and most TCP timers all land in the window,
#: while second-scale probe cycles spill to the heap tier.  Width was
#: chosen by sweeping the fig14 cell: ~2 ms buckets batch enough events
#: per slice (at the cell's ~2k events/s) to amortize the per-bucket
#: sort-and-advance work, where sub-millisecond buckets averaged under
#: one event each and paid a bucket transition per pop.
_DEFAULT_BUCKET_WIDTH_S = 2.0**-9
_DEFAULT_BUCKET_COUNT = 512


class HeapScheduler:
    """The classic binary-heap event queue (tuple-packed entries)."""

    __slots__ = ("_heap", "dead", "push")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, object]] = []
        self.dead = 0
        #: ``push(entry)``: ``heappush`` bound to this heap.  Every
        #: mutation of ``_heap`` is in place, so the binding stays valid.
        self.push = partial(heappush, self._heap)

    def pop_due(self, limit: float):
        heap = self._heap
        while heap and heap[0][0] <= limit:
            entry = heappop(heap)
            if entry[2].cancelled:
                self.dead -= 1
                continue
            return entry
        return None

    def run_due(self, sim, limit: float) -> None:
        """Dispatch every live entry with ``time <= limit`` through
        ``entry.callback()``, maintaining ``sim.now``/``sim._processed``."""
        heap = self._heap
        pop = heappop
        processed = 0
        try:
            # ``heap`` stays a valid alias across callbacks: compaction
            # rebuilds the list in place.
            while heap and heap[0][0] <= limit:
                entry = pop(heap)
                event = entry[2]
                if event.cancelled:
                    self.dead -= 1
                    continue
                sim.now = entry[0]
                processed += 1
                event.callback()
        finally:
            sim._processed += processed

    def compact(self) -> None:
        """Drop lazily-cancelled entries in place: ``push`` and a running
        ``run_due`` hold aliases of the heap list."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self.dead = 0

    def live_count(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def clear(self) -> None:
        self._heap.clear()
        self.dead = 0

    def __len__(self) -> int:
        return len(self._heap)


class CalendarScheduler:
    """Calendar queue: a bucketed window over near time, a heap beyond.

    The window covers ``[base, base + buckets * width)``.  Bucket ``i``
    holds entries whose bucketing index is ``i``.  Invariant: the bucket
    *under* the consume cursor is always sorted ascending (sorted once
    when the cursor reaches it) and consumed via an index; late arrivals
    are insorted into its unconsumed tail.  Buckets ahead of the cursor
    are plain unsorted lists, so push is an append.  The window anchors
    at virtual time zero (the simulator clamps event times to ``>=
    now >= 0``) and re-anchors only when it drains with spilled entries
    waiting: the calendar then jumps to the spill heap's minimum and
    migrates the next window's worth of entries into buckets.  Anchoring
    never depends on push order — a far-future timer scheduled before
    the near-term churn (a measurement-end alarm, a TCP retransmission
    clock) spills to the heap tier instead of dragging the window out to
    its own timestamp.  Sparse workloads never walk empty buckets
    between distant events either: a drained window skips straight to
    the migration path.

    Args:
        width_s: bucket width in virtual seconds (a power of two keeps
            the index arithmetic exact scaling).
        buckets: bucket count per window.
    """

    __slots__ = (
        "_width",
        "_inv_width",
        "_nbuckets",
        "_span",
        "_base",
        "_horizon",
        "_buckets",
        "_cur",
        "_cur_bucket",
        "_ptr",
        "_near",
        "_max_idx",
        "_far",
        "dead",
    )

    def __init__(
        self,
        width_s: float = _DEFAULT_BUCKET_WIDTH_S,
        buckets: int = _DEFAULT_BUCKET_COUNT,
    ) -> None:
        if width_s <= 0.0:
            raise ValueError("bucket width must be positive")
        if buckets < 1:
            raise ValueError("bucket count must be at least 1")
        self._width = width_s
        self._inv_width = 1.0 / width_s
        self._nbuckets = buckets
        self._span = width_s * buckets
        self._base = 0.0
        self._horizon = self._span
        self._buckets: list[list[tuple[float, int, object]]] = [
            [] for _ in range(buckets)
        ]
        self._cur = 0
        self._cur_bucket = self._buckets[0]
        self._ptr = 0
        self._near = 0  # unconsumed entries in the bucket window
        # Upper bound on the highest occupied bucket index: compaction
        # and live counting scan [cur+1, max_idx] instead of the whole
        # window (an over-estimate is harmless, a miss would leak).
        self._max_idx = 0
        self._far: list[tuple[float, int, object]] = []
        self.dead = 0

    # ------------------------------------------------------------------ push
    def push(self, entry: tuple[float, int, object]) -> None:
        time = entry[0]
        if time < self._horizon:
            idx = int((time - self._base) * self._inv_width)
            if idx > self._cur:
                if idx >= self._nbuckets:
                    # float overshoot at the window edge: the top two
                    # partitions merge, which stays monotone.
                    idx = self._nbuckets - 1
                self._buckets[idx].append(entry)
                if idx > self._max_idx:
                    self._max_idx = idx
            else:
                # Current bucket (or a time before the window base — a
                # float-rounding undershoot, a past-clamped timestamp,
                # or a push right after re-anchoring at the spill
                # minimum): join the sorted remainder in exact order —
                # every consumed entry precedes (time, seq).
                insort(self._cur_bucket, entry, lo=self._ptr)
            self._near += 1
        else:
            heappush(self._far, entry)

    def _anchor(self, time: float) -> None:
        """Re-anchor the (empty) window so ``time`` lands in bucket 0."""
        self._base = time
        self._horizon = time + self._span
        self._cur = 0
        self._cur_bucket = self._buckets[0]
        self._ptr = 0
        self._max_idx = 0

    # ------------------------------------------------------------------- pop
    def pop_due(self, limit: float):
        while True:
            bucket = self._cur_bucket
            ptr = self._ptr
            if ptr < len(bucket):
                entry = bucket[ptr]
                if entry[0] > limit:
                    return None
                self._ptr = ptr + 1
                self._near -= 1
                if entry[2].cancelled:
                    self.dead -= 1
                    continue
                return entry
            if not self._advance(limit):
                return None

    def run_due(self, sim, limit: float) -> None:
        """Dispatch every live entry with ``time <= limit`` through
        ``entry.callback()``, maintaining ``sim.now``/``sim._processed``.

        The ``bucket`` alias stays valid across callbacks: pushes into
        the current bucket insort in place, compaction filters it in
        place, and re-anchoring only happens once the queue is fully
        drained (inside :meth:`_advance`, never inside a callback).
        ``self._ptr`` *is* reloaded every iteration because compaction
        resets it, and ``len(bucket)`` is re-read because late arrivals
        grow the unconsumed tail.
        """
        processed = 0
        try:
            while True:
                bucket = self._cur_bucket
                while True:
                    ptr = self._ptr
                    if ptr >= len(bucket):
                        break
                    entry = bucket[ptr]
                    time = entry[0]
                    if time > limit:
                        return
                    self._ptr = ptr + 1
                    self._near -= 1
                    event = entry[2]
                    if event.cancelled:
                        self.dead -= 1
                        continue
                    sim.now = time
                    processed += 1
                    event.callback()
                if not self._advance(limit):
                    return
        finally:
            sim._processed += processed

    def _advance(self, limit: float) -> bool:
        """Move the cursor past the exhausted current bucket.

        Returns True when a new sorted current bucket is in place, False
        when the queue is idle up to ``limit`` (drained, or the next
        spilled entry lies beyond it).
        """
        bucket = self._cur_bucket
        if bucket:
            bucket.clear()
        self._ptr = 0
        if self._near:
            # Somewhere ahead in the window a bucket is non-empty
            # (buckets behind the cursor are consumed and cleared).
            cur = self._cur + 1
            buckets = self._buckets
            while not buckets[cur]:
                cur += 1
            self._cur = cur
            bucket = buckets[cur]
            bucket.sort()
            self._cur_bucket = bucket
            return True
        # Window drained: migrate the spill heap or stay idle in place.
        far = self._far
        if not far or far[0][0] > limit:
            return False
        self._anchor(far[0][0])
        horizon = self._horizon
        buckets = self._buckets
        base = self._base
        inv_width = self._inv_width
        near = 0
        max_idx = 0
        nbuckets_top = self._nbuckets - 1
        while far and far[0][0] < horizon:
            entry = heappop(far)
            idx = int((entry[0] - base) * inv_width)
            if idx > nbuckets_top:
                idx = nbuckets_top  # float overshoot at the window edge
            buckets[idx].append(entry)
            if idx > max_idx:
                max_idx = idx
            near += 1
        self._near = near
        self._max_idx = max_idx
        # Find and sort the first occupied bucket (bucket 0 always
        # holds the migrated minimum, but stay defensive).
        cur = 0
        while not buckets[cur]:
            cur += 1  # pragma: no cover - bucket 0 holds the minimum
        self._cur = cur
        bucket = buckets[cur]
        bucket.sort()
        self._cur_bucket = bucket
        return True

    # ---------------------------------------------------------- cancellation
    def compact(self) -> None:
        """Drop lazily-cancelled entries from every tier, in place."""
        live_far = [entry for entry in self._far if not entry[2].cancelled]
        heapify(live_far)
        self._far = live_far
        near = 0
        current = self._cur_bucket
        # The current bucket keeps only its unconsumed live tail;
        # filtering preserves sort order, so the cursor restarts at 0.
        current[:] = [
            entry for entry in current[self._ptr :] if not entry[2].cancelled
        ]
        self._ptr = 0
        near += len(current)
        buckets = self._buckets
        for i in range(self._cur + 1, self._max_idx + 1):
            bucket = buckets[i]
            if bucket:
                bucket[:] = [entry for entry in bucket if not entry[2].cancelled]
                near += len(bucket)
        self._near = near
        self.dead = 0

    # --------------------------------------------------------------- queries
    def live_count(self) -> int:
        count = sum(1 for entry in self._far if not entry[2].cancelled)
        current = self._cur_bucket
        count += sum(
            1 for entry in current[self._ptr :] if not entry[2].cancelled
        )
        buckets = self._buckets
        for i in range(self._cur + 1, self._max_idx + 1):
            bucket = buckets[i]
            if bucket:
                count += sum(1 for entry in bucket if not entry[2].cancelled)
        return count

    def clear(self) -> None:
        for bucket in self._buckets:
            bucket.clear()
        self._far.clear()
        self._ptr = self._near = self.dead = 0

    def __len__(self) -> int:
        return self._near + len(self._far)


#: Registered scheduler kinds, in documentation order.
SCHEDULER_KINDS = ("calendar", "heap")


def make_scheduler(kind: str):
    """Instantiate the scheduler named ``kind`` (see ``SCHEDULER_KINDS``)."""
    if kind == "calendar":
        return CalendarScheduler()
    if kind == "heap":
        return HeapScheduler()
    raise ValueError(
        f"unknown scheduler {kind!r}; expected one of {', '.join(SCHEDULER_KINDS)}"
    )
