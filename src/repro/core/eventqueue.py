"""The pending-event set.

The simulator's hot loop is ``pop smallest-timestamp entry / execute /
push successors``, so the queue dominates engine throughput.
:class:`HeapEventQueue` is a binary heap (``heapq``): O(log n) with a
low constant factor, and the only implementation (the binned calendar
queue it was ablated against lost on every measured shape; see ENG-1 in
DESIGN.md).

The heap stores plain ``(time, priority, seq, handler, event)`` tuples
(:data:`Entry`), the same layout checkpoint shards use.  ``seq`` is
unique per queue, so ordering is tuple comparison in C and never
reaches the handler.  The kernel takes raw entries through
:attr:`HeapEventQueue.pop_entry` and puts back the one entry it popped
past its window with :meth:`HeapEventQueue.unpop`;
:meth:`HeapEventQueue.pop` wraps an entry in an
:class:`~repro.core.event.EventRecord` for attribute access.

Link endpoints push without a Python frame: they bind the queue's
:attr:`~HeapEventQueue.push_entry` and :attr:`~HeapEventQueue.next_seq`
once and build the entry themselves.  The queue still owns ``seq``:
``next_seq`` is its one sequence source, and a restore re-seats it in
place, so senders bound before the restore stay correct.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import count
from typing import Iterable, List, Optional, Tuple

from .event import Event, EventRecord, Handler
from .units import SimTime

#: A queued delivery as stored: ``(time, priority, seq, handler, event)``.
Entry = Tuple[SimTime, int, int, Optional[Handler], Optional[Event]]

#: ``_new_record(EventRecord, entry)`` wraps an entry without running the
#: NamedTuple's Python-level ``__new__``.
_new_record = tuple.__new__


class HeapEventQueue:
    """Binary-heap pending-event set (the engine queue)."""

    __slots__ = ("_heap", "pop_entry", "push_entry", "next_seq")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        #: Remove and return the earliest raw entry (the kernel's
        #: accessor); raises ``IndexError`` when empty.  Bound to the one
        #: heap list for the queue's lifetime (restore refills it in
        #: place): a pop is a C call with no Python frame.
        self.pop_entry = partial(heapq.heappop, self._heap)
        #: Insert a raw entry whose seq came from :attr:`next_seq` (the
        #: link endpoints' push); a C call like :attr:`pop_entry`.
        self.push_entry = partial(heapq.heappush, self._heap)
        #: The next insertion sequence number, consumed.  One partial
        #: object for the queue's lifetime: restore re-seats the counter
        #: inside it, never replaces it.
        self.next_seq = partial(next, count())

    def push(
        self,
        time: SimTime,
        priority: int,
        handler: Optional[Handler],
        event: Optional[Event],
    ) -> int:
        """Queue a delivery; returns the insertion sequence number."""
        seq = self.next_seq()
        heapq.heappush(self._heap, (time, priority, seq, handler, event))
        return seq

    def unpop(self, entry: Entry) -> None:
        """Put back an entry just taken by :attr:`pop_entry`, unchanged.

        It keeps its seq, so the pop order is as if it had never left.
        """
        heapq.heappush(self._heap, entry)

    def pop(self) -> EventRecord:
        return _new_record(EventRecord, self.pop_entry())

    def peek_time(self) -> Optional[SimTime]:
        """Timestamp of the earliest entry, or None when empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # -- checkpoint support ------------------------------------------------
    # The insertion-sequence counter is part of the determinism contract:
    # a restored queue must hand out exactly the seq values the original
    # would have, so `repro.ckpt` captures it explicitly (the max pending
    # seq underestimates it whenever the newest entries have already been
    # popped).

    @property
    def seq(self) -> int:
        """The next insertion sequence number this queue will assign."""
        seq = self.next_seq()
        self._reseat(seq)
        return seq

    def _reseat(self, seq: int) -> None:
        """Make ``seq`` the next number :attr:`next_seq` hands out, in
        place (``partial.__setstate__``), for every sender bound to it."""
        self.next_seq.__setstate__((next, (count(seq),), None, None))

    def snapshot_records(self) -> List[EventRecord]:
        """All pending records, non-destructively, in no particular order."""
        return [_new_record(EventRecord, entry) for entry in self._heap]

    def restore_records(self, records: Iterable[Entry], seq: int) -> None:
        """Replace the queue's contents and seq counter wholesale.

        Existing entries are discarded (a rebuild pushes setup-time
        events that the snapshot's records supersede).  ``records`` are
        ``(time, priority, seq, handler, event)`` tuples that already
        carry their final, distinct seq values.
        """
        heap = self._heap
        heap[:] = records
        heapq.heapify(heap)
        self._reseat(seq)


def make_queue(kind: str = "heap") -> HeapEventQueue:
    """A new pending-event set; ``"heap"`` is the one kind."""
    require_heap(kind)
    return HeapEventQueue()


def require_heap(kind: str) -> None:
    """Reject any queue kind but ``"heap"`` (the one implementation)."""
    if kind != "heap":
        raise ValueError(f"unknown event queue type {kind!r}; "
                         f"the only choice is 'heap'")
