"""Columnar event queue: scalar sort keys, payload columns, batched cleanup.

:class:`~repro.events.queue.EventQueue` orders frozen :class:`Event`
dataclasses; every heap sift compares them through a generated Python
``__lt__``, and every schedule allocates an object that carries its
callback and bookkeeping flags along the heap.  On the T6 path
(``mp_sim``/``sm_sim``) the event loop is thousands of tiny events, so
those per-event Python frames are pure overhead.

This module applies the :mod:`repro.memsim.columnar` storage trick to the
event kernel: keep each *column* of the event table in the structure that
serves it at machine speed, instead of one Python object per row.

- **sort keys** — plain ``(time, seq)`` tuples of scalars.  CPython
  compares these without entering a Python frame, so every heap sift runs
  at C speed.
- **callbacks** — a ``seq -> action`` dict, touched exactly twice per
  event (schedule, fire) instead of travelling through every comparison.
- **liveness** — a set of cancelled ``seq`` values; cancellation is a set
  insert, and dead entries are shed in *batch* by one filtered rebuild
  (:meth:`_compact`) once they outnumber the live ones, including from
  :meth:`peek_time`.

What deliberately did **not** land: batch-advancing a whole window of
ready events in one vectorised step, the full order-statistics replay of
``memsim.columnar``.  A fired action may schedule *into* the window being
advanced (a node activation schedules its own commit at ``now + dt``), so
the ready set is not known until each callback has run — the replay trick
needs a closed trace, and the live event loop is not one.  The columnar
storage above is the part of the trick that survives contact with a live
schedule; ``benchmarks/bench_perf_suite.py`` (``t6_event_kernel``)
measures what it buys.

Pop order is bit-identical to :class:`EventQueue`: both order strictly by
unique ``(time, seq)`` keys with sequence numbers assigned at schedule
time, so any mix of the two queues over the same schedule fires the same
callbacks in the same order at the same virtual times.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import SimulationError

__all__ = ["ColumnarEventQueue"]

#: Opaque cancellable handle: the event's ``(time, seq)`` sort key.
Handle = Tuple[float, int]


class ColumnarEventQueue:
    """Min-heap of ``(time, seq)`` scalar keys with columnar payloads.

    Drop-in protocol match for :class:`~repro.events.queue.EventQueue`
    as the simulator uses it: ``push`` returns an opaque cancellable
    handle, ``pop_next`` yields ``(time, action)`` pairs in ``(time,
    seq)`` order, ``peek_time``/``cancel``/``__len__`` behave
    identically (including the monotonic-time guard and the
    cancel-after-fire no-op).
    """

    #: Compaction floor on the dead count: no rebuild happens until at
    #: least this many cancelled keys linger (filtering a heap to shed a
    #: handful costs more than skipping them on pop).
    COMPACT_MIN = 64

    __slots__ = (
        "_heap",
        "_actions",
        "_cancelled",
        "_counter",
        "_last_popped",
        "n_compactions",
    )

    def __init__(self) -> None:
        self._heap: List[Handle] = []
        self._actions: Dict[int, Callable[[], Any]] = {}
        self._cancelled: Set[int] = set()
        self._counter = itertools.count()
        self._last_popped = 0.0
        self.n_compactions = 0

    def __len__(self) -> int:
        return len(self._actions)

    def push(self, time: float, action: Callable[[], Any]) -> Handle:
        """Schedule *action* at absolute *time*; returns a cancellable handle."""
        if time < self._last_popped:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._last_popped}"
            )
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, seq))
        self._actions[seq] = action
        return (time, seq)

    def cancel(self, handle: Handle) -> None:
        """Mark *handle* cancelled (skipped on pop).

        Cancelling an event that already fired, or cancelling twice, is a
        no-op.  The callback column is released immediately; the dead key
        stays in the heap until a batched :meth:`_compact` sheds it.
        """
        seq = handle[1]
        if seq not in self._actions:
            return  # already fired or already cancelled
        del self._actions[seq]
        self._cancelled.add(seq)
        dead = len(self._cancelled)
        if dead >= self.COMPACT_MIN and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Shed every dead key in one filtered rebuild + heapify.

        Pop order is unaffected: keys are unique, so any heap over the
        same live key set pops the same sequence.
        """
        cancelled = self._cancelled
        self._heap = [key for key in self._heap if key[1] not in cancelled]
        heapq.heapify(self._heap)
        cancelled.clear()
        self.n_compactions += 1

    def pop_next(self) -> Optional[Tuple[float, Callable[[], Any]]]:
        """Pop the earliest live event as ``(time, action)``, else ``None``."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, seq = heapq.heappop(heap)
            if cancelled:
                if seq in cancelled:
                    cancelled.discard(seq)
                    continue
            self._last_popped = time
            return time, self._actions.pop(seq)
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without popping it.

        Dead heads are shed through the batched compaction path once
        :data:`COMPACT_MIN` dead keys have accumulated, so a peek-heavy
        caller (the time-bounded simulator loop) never drains a long dead
        prefix one heappop at a time.
        """
        while True:
            heap = self._heap  # _compact() rebinds the heap list
            if not heap:
                return None
            if heap[0][1] not in self._cancelled:
                return heap[0][0]
            if len(self._cancelled) >= self.COMPACT_MIN:
                self._compact()
            else:
                self._cancelled.discard(heapq.heappop(heap)[1])
