"""Calendar-queue / binary-heap scheduler equivalence.

The heap is the event store every run uses; the calendar queue stays
constructible for the performance ledger's reference rows, and while it
exists it must be impossible to observe which scheduler a simulation
ran on.  This suite pins that from three directions:

* property tests drive both schedulers through the same randomized
  push/cancel/pop interleavings (times spanning bucket ties, window
  edges and the far spill tier) and assert identical pop sequences and
  identical raw/live accounting at every step;
* a Simulator-level workload (self-rescheduling callbacks that also
  cancel pending events) must dispatch in the same order under both
  kinds, through both the fused ``run_due`` path and the profiled
  ``pop_due`` path;
* the frozen sim-trace goldens must reproduce byte-for-byte under
  ``scheduler="heap"`` and ``scheduler="calendar"`` alike.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine
from repro.engine import Event, Simulator
from repro.scheduler import SCHEDULER_KINDS, make_scheduler

_GOLDEN_DIR = Path(__file__).resolve().parent / "sim" / "golden"


def _noop() -> None:
    return None


# --------------------------------------------------------------- properties
#: Delays mixing a continuum with exact grid points, so interleavings hit
#: same-time ties (seq must break them), bucket-width boundaries, the
#: 1 s window horizon, and the far spill tier beyond it.
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 2.0**-9, 2.0**-8, 0.5, 1.0 - 2.0**-9, 1.0, 1.5, 2.5]),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_interleavings_pop_identically(data) -> None:
    """Both schedulers, same operations, same observable behaviour.

    The driver respects the engine's contract: pushed times never
    precede the consumption frontier (the simulator clamps delays to be
    non-negative), and only queued, not-yet-popped events are cancelled.
    """
    heap = make_scheduler("heap")
    cal = make_scheduler("calendar")
    live: list[tuple[Event, Event]] = []  # queued, uncancelled pairs
    now = 0.0
    seq = 0
    for _ in range(data.draw(st.integers(min_value=10, max_value=120))):
        op = data.draw(st.sampled_from(["push", "push", "push", "cancel", "pop"]))
        if op == "push":
            seq += 1
            time = now + data.draw(_DELAYS)
            pair = (
                Event(time, seq, _noop, heap),
                Event(time, seq, _noop, cal),
            )
            heap.push((time, seq, pair[0]))
            cal.push((time, seq, pair[1]))
            live.append(pair)
        elif op == "cancel" and live:
            index = data.draw(st.integers(min_value=0, max_value=len(live) - 1))
            event_h, event_c = live.pop(index)
            event_h.cancel()
            event_c.cancel()
        else:
            limit = now + data.draw(_DELAYS)
            entry_h = heap.pop_due(limit)
            entry_c = cal.pop_due(limit)
            if entry_h is None:
                assert entry_c is None
                now = limit
            else:
                assert entry_c is not None
                assert (entry_h[0], entry_h[1]) == (entry_c[0], entry_c[1])
                assert entry_h[2].seq == entry_c[2].seq
                now = entry_h[0]
                live.remove((entry_h[2], entry_c[2]))
        # Raw and live accounting agree after every operation — the
        # compaction policy is shared, so even the cancelled-entry
        # bookkeeping must move in lockstep.
        assert len(heap) == len(cal)
        assert heap.live_count() == cal.live_count() == len(live)

    # Drain: the full remaining sequence matches, entry for entry.
    while True:
        entry_h = heap.pop_due(float("inf"))
        entry_c = cal.pop_due(float("inf"))
        if entry_h is None:
            assert entry_c is None
            break
        assert entry_c is not None
        assert (entry_h[0], entry_h[1]) == (entry_c[0], entry_c[1])
    assert len(heap) == len(cal) == 0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(SCHEDULER_KINDS),
    delays=st.lists(_DELAYS, min_size=1, max_size=60),
)
def test_pop_order_is_time_seq_sorted(kind: str, delays: list[float]) -> None:
    """Each scheduler alone honours the kernel's total order exactly."""
    sched = make_scheduler(kind)
    expected = []
    for seq, delay in enumerate(delays, start=1):
        event = Event(delay, seq, _noop, sched)
        sched.push((delay, seq, event))
        expected.append((delay, seq))
    popped = []
    while (entry := sched.pop_due(float("inf"))) is not None:
        popped.append((entry[0], entry[1]))
    assert popped == sorted(expected)


# --------------------------------------------------------------- accounting
@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_cancel_is_idempotent(kind: str) -> None:
    sched = make_scheduler(kind)
    events = [Event(0.1 * seq, seq, _noop, sched) for seq in range(1, 4)]
    for event in events:
        sched.push((event.time, event.seq, event))
    events[1].cancel()
    events[1].cancel()  # double-cancel must not double-count
    assert sched.live_count() == 2
    drained = []
    while (entry := sched.pop_due(float("inf"))) is not None:
        drained.append(entry[1])
    assert drained == [1, 3]
    assert len(sched) == 0


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_compaction_reclaims_dead_entries(kind: str) -> None:
    """Mass cancellation must shrink the raw structure (not just flag
    entries) and leave the survivors popping in exact order."""
    sched = make_scheduler(kind)
    events = []
    for seq in range(1, 401):
        # Spread across the current bucket, later buckets and (>1 s)
        # the calendar's far spill tier.
        time = (seq % 7) * 0.25
        event = Event(time, seq, _noop, sched)
        sched.push((time, seq, event))
        events.append(event)
    for event in events[:300]:
        event.cancel()
    assert sched.live_count() == 100
    assert len(sched) < 200, "compaction should have reclaimed dead entries"
    popped = []
    while (entry := sched.pop_due(float("inf"))) is not None:
        popped.append((entry[0], entry[1]))
    assert popped == sorted((event.time, event.seq) for event in events[300:])


# ---------------------------------------------------------- simulator level
def _drive_workload(kind: str, profiled: bool) -> tuple[list[tuple[str, int]], int, str]:
    """A seeded self-rescheduling workload with cancellations.

    Returns ``(dispatch log, processed event count, repr(final now))``.
    The RNG draws happen inside callbacks, so the log can only match
    across schedulers if the dispatch order matches exactly.
    """
    sim = Simulator(seed=5, scheduler=kind)
    if profiled:
        class _Profiler:
            clock = staticmethod(lambda: 0.0)

            def record(self, callback, elapsed_s: float) -> None:
                return None

        sim.profiler = _Profiler()
    rng = sim.rng_stream("workload")
    log: list[tuple[str, int]] = []
    pending: dict[int, Event] = {}
    counter = [0]

    def make_callback(ident: int):
        def callback() -> None:
            pending.pop(ident, None)
            log.append((repr(sim.now), ident))
            for _ in range(int(rng.integers(0, 3))):
                counter[0] += 1
                child = counter[0]
                scale = (0.0005, 0.02, 1.8)[int(rng.integers(0, 3))]
                delay = float(rng.random()) * scale
                pending[child] = sim.schedule(delay, make_callback(child))
            if pending and int(rng.integers(0, 4)) == 0:
                victim = list(pending)[int(rng.integers(0, len(pending)))]
                pending.pop(victim).cancel()

        return callback

    for _ in range(40):
        counter[0] += 1
        ident = counter[0]
        delay = float(rng.random()) * (0.01 if ident % 3 else 2.5)
        pending[ident] = sim.schedule(delay, make_callback(ident))
    sim.run_until(6.0)
    return log, sim.processed_events, repr(sim.now)


def test_simulator_workload_is_scheduler_invariant() -> None:
    runs = {
        (kind, profiled): _drive_workload(kind, profiled)
        for kind in SCHEDULER_KINDS
        for profiled in (False, True)
    }
    reference = runs[("calendar", False)]
    assert reference[0], "workload must actually dispatch events"
    for key, run in runs.items():
        assert run == reference, f"dispatch diverged under {key}"


# ------------------------------------------------------------- golden traces
def _load_golden_module():
    spec = importlib.util.spec_from_file_location(
        "sim_golden_regenerate_equivalence", _GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden_module()


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
@pytest.mark.parametrize("name", sorted(golden.GOLDEN_SCENARIOS))
def test_golden_traces_match_under_both_schedulers(
    name: str, kind: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """The frozen per-event digests reproduce under either queue — the
    scheduler choice is invisible at event granularity."""
    monkeypatch.setattr(repro.engine, "DEFAULT_SCHEDULER", kind)
    record, _ = golden.compute(name)
    frozen = golden.golden_path(name).read_text(encoding="utf-8")
    assert golden.canonical_json(record) == frozen, (
        f"sim trace {name!r} drifted under scheduler={kind!r}"
    )
