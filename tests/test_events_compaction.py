"""Tests for lazy-cancellation compaction in the columnar event queue.

Compaction is purely an internal storage optimisation; the observable
contract is that pop order and results are unchanged (events are totally
ordered by unique ``(time, seq)`` keys, so any heap over the same live
set pops the same sequence).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.columnar import ColumnarEventQueue


class LazyOnlyQueue(ColumnarEventQueue):
    """Pre-compaction behaviour for differential comparison."""

    COMPACT_MIN = 1 << 60


def push(queue, time):
    """Schedule an event whose action returns its own identity."""
    ident = []
    handle = queue.push(time, lambda: ident[0])
    ident.append(handle[1])
    return handle


def pop(queue):
    nxt = queue.pop_next()
    return None if nxt is None else (nxt[0], nxt[1]())


def drain_times(queue):
    times = []
    while True:
        event = pop(queue)
        if event is None:
            return times
        times.append(event)


class TestCompactionTrigger:
    def test_small_heaps_never_compact(self):
        q = ColumnarEventQueue()
        events = [q.push(float(i), lambda: None) for i in range(ColumnarEventQueue.COMPACT_MIN - 1)]
        for event in events:
            q.cancel(event)
        assert q.n_compactions == 0

    def test_majority_dead_triggers_compaction(self):
        q = ColumnarEventQueue()
        doomed = [q.push(float(i), lambda: None) for i in range(100)]
        q.push(1000.0, lambda: None)
        for event in doomed:
            q.cancel(event)
        assert q.n_compactions >= 1
        # The physical heap shed the dead majority (later cancels may
        # re-accumulate below the next trigger point).
        assert len(q._heap) < 100
        assert len(q) == 1

    def test_len_tracks_live_events_through_compaction(self):
        q = ColumnarEventQueue()
        events = [q.push(float(i), lambda: None) for i in range(200)]
        for event in events[::2]:
            q.cancel(event)
        assert len(q) == 100

    def test_cancel_after_fire_is_noop(self):
        q = ColumnarEventQueue()
        event = q.push(1.0, lambda: None)
        assert q.pop_next()[0] == 1.0
        q.cancel(event)
        q.cancel(event)
        assert not q._cancelled

    def test_peek_compacts_dead_prefix(self):
        # Regression: peek_time used to drain cancelled heads one heappop
        # at a time without ever consulting the compaction heuristic.  Set
        # up a dead prefix too small for cancel() to compact (dead entries
        # are not the majority) but well past COMPACT_MIN, then assert a
        # single peek sheds all of them through _compact().
        q = ColumnarEventQueue()
        doomed = [q.push(float(i), lambda: None) for i in range(100)]
        survivors = [q.push(1000.0 + i, lambda: None) for i in range(300)]
        for event in doomed:
            q.cancel(event)
        assert q.n_compactions == 0  # cancel: 100 dead of 400 is no majority
        assert q.peek_time() == 1000.0
        assert q.n_compactions == 1
        assert not q._cancelled
        assert len(q._heap) == len(survivors)

    def test_peek_drains_small_dead_prefix_without_compacting(self):
        q = ColumnarEventQueue()
        doomed = [q.push(float(i), lambda: None) for i in range(ColumnarEventQueue.COMPACT_MIN - 1)]
        q.push(500.0, lambda: None)
        for event in doomed:
            q.cancel(event)
        assert q.peek_time() == 500.0
        assert q.n_compactions == 0
        assert not q._cancelled

    def test_compaction_preserves_pending_pop_order(self):
        q, lazy = ColumnarEventQueue(), LazyOnlyQueue()
        handles_q, handles_l = [], []
        for i in range(300):
            t = float((i * 37) % 50)
            handles_q.append(push(q, t))
            handles_l.append(push(lazy, t))
        for hq, hl in zip(handles_q[:220], handles_l[:220]):
            q.cancel(hq)
            lazy.cancel(hl)
        assert q.n_compactions >= 1 and lazy.n_compactions == 0
        assert drain_times(q) == drain_times(lazy)


class TestCompactionEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=0,
            max_size=300,
        )
    )
    def test_pop_sequence_identical_with_and_without_compaction(self, ops):
        q, lazy = ColumnarEventQueue(), LazyOnlyQueue()
        for time, doomed in ops:
            eq = push(q, time)
            el = push(lazy, time)
            if doomed:
                q.cancel(eq)
                lazy.cancel(el)
        assert drain_times(q) == drain_times(lazy)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_interleaved_pops_and_cancels(self, n):
        q, lazy = ColumnarEventQueue(), LazyOnlyQueue()
        state = 12345
        live_q, live_l = [], []
        popped_q, popped_l = [], []
        for i in range(n):
            state = (state * 1103515245 + 12345) & (2**31 - 1)
            t = q._last_popped + (state % 1000) / 10.0
            live_q.append(push(q, t))
            live_l.append(push(lazy, t))
            if state % 3 == 0 and live_q:
                k = state % len(live_q)
                q.cancel(live_q.pop(k))
                lazy.cancel(live_l.pop(k))
            if state % 7 == 0:
                popped_q.append(pop(q))
                popped_l.append(pop(lazy))
        assert popped_q == popped_l
        assert drain_times(q) == drain_times(lazy)
