"""Tests for the discrete-event simulation kernel."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine import Simulator, rng_spawn_key


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, lambda: order.append("c"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.2, lambda: order.append("b"))
        sim.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.1, lambda: order.append(1))
        sim.schedule(0.1, lambda: order.append(2))
        sim.run_until(1.0)
        assert order == [1, 2]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run_until(1.0)
        assert seen == [pytest.approx(0.5)]
        assert sim.now == pytest.approx(1.0)

    def test_run_until_does_not_execute_future_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append("late"))
        sim.run_until(1.0)
        assert seen == []
        sim.run_until(3.0)
        assert seen == ["late"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(0.1, lambda: seen.append("x"))
        event.cancel()
        sim.run_until(1.0)
        assert seen == []

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run_until(1.0)
        with pytest.raises(ValueError):
            sim.schedule_at(0.2, lambda: None)

    @pytest.mark.parametrize("scheduler", ["calendar", "heap"])
    def test_nan_time_is_refused_where_it_enters(self, scheduler):
        """NaN orders against nothing: queued, it stalls the heap behind
        it (``heap[0][0] <= limit`` is false) and breaks the calendar's
        bucket index, so both entry points refuse it by name."""
        sim = Simulator(scheduler=scheduler)
        fired = []
        sim.schedule(0.3, lambda: fired.append("due"))
        with pytest.raises(ValueError, match="nan"):
            sim.schedule(float("nan"), lambda: fired.append("nan"))
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_at(float("nan"), lambda: fired.append("nan"))
        assert sim.queued_entries == 1
        sim.run_until(1.0)
        assert fired == ["due"]
        assert sim.pending_events == 0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(0.25, lambda: seen.append(sim.now))

        sim.schedule(0.5, first)
        sim.run_until(1.0)
        assert seen == [pytest.approx(0.5), pytest.approx(0.75)]

    def test_pending_and_processed_counters(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        evt = sim.schedule(0.2, lambda: None)
        evt.cancel()
        assert sim.pending_events == 1
        sim.run_until(1.0)
        assert sim.processed_events == 1

    @pytest.mark.parametrize("scheduler", ["calendar", "heap"])
    def test_close_drops_every_queued_event(self, scheduler):
        """Near (bucketed), far (spilled), consumed-bucket and cancelled
        entries all go; nothing queued fires afterwards and the queue
        keeps its order for whatever is scheduled next."""
        sim = Simulator(scheduler=scheduler)
        fired = []
        for delay in (0.001, 0.0011, 0.3, 5.0, 90.0):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.schedule(0.2, lambda: fired.append("cancelled")).cancel()
        sim.run_until(0.00105)  # mid-bucket: one consumed, one waiting
        assert fired == [0.001]
        sim.close()
        assert sim.pending_events == sim.queued_entries == 0
        sim.run_until(100.0)
        assert fired == [0.001]
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run_until(200.0)
        assert fired == [0.001, "early", "late"]

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
    def test_arbitrary_delays_execute_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run_until(200.0)
        assert fired == sorted(delays)
        assert len(fired) == len(delays)


class TestRngStreams:
    def test_streams_are_reproducible(self):
        a = Simulator(seed=5).rng_stream("mac-1").random(5)
        b = Simulator(seed=5).rng_stream("mac-1").random(5)
        assert list(a) == list(b)

    def test_streams_differ_by_name(self):
        sim = Simulator(seed=5)
        a = sim.rng_stream("mac-1").random(5)
        b = sim.rng_stream("mac-2").random(5)
        assert list(a) != list(b)

    def test_streams_differ_by_seed(self):
        a = Simulator(seed=5).rng_stream("mac-1").random(5)
        b = Simulator(seed=6).rng_stream("mac-1").random(5)
        assert list(a) != list(b)

    def test_same_stream_returned_on_repeat_lookup(self):
        sim = Simulator(seed=5)
        assert sim.rng_stream("x") is sim.rng_stream("x")

    def test_spawn_key_is_hash_seed_independent(self):
        """Stream seeding must not depend on PYTHONHASHSEED.

        The spawn key is a CRC32 of the stream name — these constants
        pin the exact values so that runs agree across interpreter
        processes (required for the parallel batch runner).
        """
        assert rng_spawn_key("medium") == 3329443255
        assert rng_spawn_key("mac-1") == 528481067
        assert rng_spawn_key("") == 0

    def test_stream_draws_match_pinned_seed_sequence(self):
        stream = Simulator(seed=5).rng_stream("medium")
        reference = np.random.default_rng(
            np.random.SeedSequence(entropy=5, spawn_key=(3329443255,))
        )
        assert list(stream.random(4)) == list(reference.random(4))


class TestHeapCompaction:
    """Cancelled events are lazily deleted; compaction bounds the heap.

    The DCF churns timers constantly (every deferral cancels and
    reschedules a backoff/ACK timeout), so dead heap entries must not
    accumulate — before compaction, a long run's heap grew with the
    number of cancellations rather than the number of live events.
    """

    def test_schedule_cancel_churn_keeps_heap_bounded(self):
        sim = Simulator()
        live = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        for _ in range(10_000):
            sim.schedule(500.0, lambda: None).cancel()
        # Compaction triggers whenever cancelled entries outnumber live
        # ones (past a small floor), so the raw heap stays within a
        # constant factor of the live set instead of growing to ~10k.
        assert sim.queued_entries < 200
        assert sim.pending_events == len(live)

    def test_double_cancel_does_not_corrupt_accounting(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.1, lambda: fired.append("dead"))
        event.cancel()
        event.cancel()  # idempotent: must not double-count
        sim.schedule(0.2, lambda: fired.append("live"))
        for _ in range(200):  # push accounting past the compaction floor
            sim.schedule(0.15, lambda: None).cancel()
        sim.run_until(1.0)
        assert fired == ["live"]
        assert sim.queued_entries == 0

    def test_cancelling_from_inside_a_callback_survives_compaction(self):
        """Compaction rebuilds the heap in place mid-run; the run loop's
        alias must keep seeing the surviving events, in order."""
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(0.5 + i * 1e-6, lambda: fired.append("dead"))
                  for i in range(300)]

        def purge():
            fired.append("purge")
            for event in doomed:
                event.cancel()

        sim.schedule(0.1, purge)
        sim.schedule(0.9, lambda: fired.append("after"))
        sim.run_until(1.0)
        assert fired == ["purge", "after"]
        assert sim.processed_events == 2

    def test_cancelled_events_popped_normally_below_threshold(self):
        """A few cancellations never trigger compaction; the run loop
        skips the dead entries as it pops them."""
        sim = Simulator()
        fired = []
        for i in range(10):
            event = sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
            if i % 2:
                event.cancel()
        sim.run_until(2.0)
        assert fired == [0, 2, 4, 6, 8]
        assert sim.queued_entries == 0


class TestProfilerHook:
    """The duck-typed profiler hook on the run loop."""

    class _FakeProfiler:
        """Deterministic stand-in: the 'clock' ticks once per call."""

        def __init__(self):
            self.ticks = 0
            self.recorded = []

        def clock(self):
            self.ticks += 1
            return float(self.ticks)

        def record(self, callback, elapsed_s):
            self.recorded.append((callback, elapsed_s))

    def test_instance_profiler_sees_every_dispatched_event(self):
        sim = Simulator()
        prof = self._FakeProfiler()
        sim.profiler = prof
        seen = []
        sim.schedule(0.1, lambda: seen.append("a"))
        sim.schedule(0.2, lambda: seen.append("b"))
        cancelled = sim.schedule(0.3, lambda: seen.append("dead"))
        cancelled.cancel()
        sim.run_until(1.0)
        assert seen == ["a", "b"]
        # One (callback, elapsed) pair per executed event; elapsed is
        # clock() - clock() = 1.0 with the ticking fake.
        assert [elapsed for _, elapsed in prof.recorded] == [1.0, 1.0]
        assert sim.processed_events == 2

    def test_profiled_and_unprofiled_runs_are_identical(self):
        """Profiling must not change simulation behaviour, only observe it."""

        def drive(sim):
            order = []

            def reschedule():
                order.append(sim.now)
                if sim.now < 0.5:
                    sim.schedule(0.125, reschedule)

            sim.schedule(0.125, reschedule)
            sim.run_until(1.0)
            return order, sim.now, sim.processed_events

        plain = drive(Simulator(seed=3))
        profiled_sim = Simulator(seed=3)
        profiled_sim.profiler = self._FakeProfiler()
        assert drive(profiled_sim) == plain

    def test_default_profiler_is_process_wide_and_restorable(self):
        from repro.engine import set_default_profiler

        prof = self._FakeProfiler()
        previous = set_default_profiler(prof)
        try:
            sim = Simulator()  # constructed *after* install: still profiled
            sim.schedule(0.1, lambda: None)
            sim.run_until(1.0)
            assert len(prof.recorded) == 1
        finally:
            set_default_profiler(previous)
        sim2 = Simulator()
        sim2.schedule(0.1, lambda: None)
        sim2.run_until(1.0)
        assert len(prof.recorded) == 1  # restored: no further reports
