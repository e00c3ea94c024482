"""Unit tests for the event heap."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import COMPACTION_MIN_GARBAGE, EventHeap


def make_callback(log, tag):
    def callback(sim):
        log.append(tag)

    return callback


class TestEventHeap:
    def test_pop_orders_by_time(self):
        heap = EventHeap()
        log = []
        heap.push(5.0, make_callback(log, "b"))
        heap.push(1.0, make_callback(log, "a"))
        heap.push(9.0, make_callback(log, "c"))
        times = [heap.pop_next().time for _ in range(3)]
        assert times == [1.0, 5.0, 9.0]

    def test_ties_break_fifo(self):
        heap = EventHeap()
        first = heap.push(3.0, lambda sim: None)
        second = heap.push(3.0, lambda sim: None)
        assert heap.pop_next() is first
        assert heap.pop_next() is second

    def test_len_counts_live_events(self):
        heap = EventHeap()
        heap.push(1.0, lambda sim: None)
        event = heap.push(2.0, lambda sim: None)
        assert len(heap) == 2
        event.cancel()
        heap.note_cancelled()
        assert len(heap) == 1

    def test_cancelled_events_are_skipped(self):
        heap = EventHeap()
        first = heap.push(1.0, lambda sim: None)
        second = heap.push(2.0, lambda sim: None)
        first.cancel()
        heap.note_cancelled()
        assert heap.pop_next() is second

    def test_pop_next_empty_returns_none(self):
        heap = EventHeap()
        assert heap.pop_next() is None
        heap.push(1.0, lambda sim: None)
        heap.pop_next()
        assert heap.pop_next() is None
        assert len(heap) == 0

    def test_pop_next_until_on_empty_returns_none(self):
        heap = EventHeap()
        assert heap.pop_next(until=10.0) is None
        heap.push_immediate(0.0, lambda sim: None)
        heap.pop_next(until=10.0)
        assert heap.pop_next(until=10.0) is None
        assert len(heap) == 0

    def test_pop_next_horizon_skips_cancelled_head(self):
        heap = EventHeap()
        first = heap.push(1.0, lambda sim: None)
        second = heap.push(4.0, lambda sim: None)
        first.cancel()
        heap.note_cancelled()
        # The cancelled head does not count as "due before the horizon";
        # the live event beyond it stays queued until the horizon reaches it.
        assert heap.pop_next(until=3.0) is None
        assert len(heap) == 1
        assert heap.pop_next(until=4.0) is second

    def test_pop_next_merges_immediate_and_timer_queues(self):
        heap = EventHeap()
        timer = heap.push(0.0, lambda sim: None)
        immediate = heap.push_immediate(0.0, lambda sim: None)
        later = heap.push(2.0, lambda sim: None)
        assert heap.pop_next() is timer  # same time, smaller seq
        assert heap.pop_next(until=0.0) is immediate
        assert heap.pop_next(until=0.0) is None
        assert heap.pop_next() is later

    def test_cancel_bookkeeping_underflow_raises(self):
        heap = EventHeap()
        with pytest.raises(SimulationError):
            heap.note_cancelled()


class TestLazyCompaction:
    def test_cancel_heavy_workload_triggers_compaction(self):
        heap = EventHeap()
        events = [heap.push(float(i % 17), lambda sim: None) for i in range(400)]
        survivors = []
        for index, event in enumerate(events):
            if index % 8 == 0:
                survivors.append(event)
            else:
                event.cancel()
                heap.note_cancelled(event)
        assert heap.compactions >= 1
        assert len(heap) == len(survivors)
        # The physical heap has actually shed its garbage.
        assert len(heap._heap) < COMPACTION_MIN_GARBAGE + len(survivors)

    def test_compaction_preserves_pop_order(self):
        heap = EventHeap()
        events = [heap.push(float(i % 13), lambda sim: None) for i in range(300)]
        expected = []
        for index, event in enumerate(events):
            if index % 10 == 3:
                expected.append(event)
            else:
                event.cancel()
                heap.note_cancelled(event)
        assert heap.compactions >= 1
        popped = [heap.pop_next() for _ in range(len(heap))]
        assert popped == sorted(expected, key=lambda e: (e.time, e.seq))
        assert heap.pop_next() is None

    def test_immediate_cancellations_are_not_heap_garbage(self):
        heap = EventHeap()
        for _ in range(5 * COMPACTION_MIN_GARBAGE):
            event = heap.push_immediate(0.0, lambda sim: None)
            event.cancel()
            heap.note_cancelled(event)
        assert heap.compactions == 0
        assert len(heap) == 0

    def test_below_threshold_never_compacts(self):
        heap = EventHeap()
        events = [
            heap.push(float(i), lambda sim: None)
            for i in range(COMPACTION_MIN_GARBAGE)
        ]
        for event in events[:-1]:
            event.cancel()
            heap.note_cancelled(event)
        assert heap.compactions == 0

    def test_simulator_exposes_compaction_counter(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(400):
            event = sim.schedule(float(i % 29), lambda s, i=i: fired.append(i))
            if i % 9 == 0:
                keep.append(i)
            else:
                sim.cancel(event)
        assert sim.compactions >= 1
        sim.run()
        assert sorted(fired) == keep
