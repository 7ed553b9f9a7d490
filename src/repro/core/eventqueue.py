"""Pending-event set implementations.

The simulator's hot loop is ``pop smallest-timestamp entry / execute /
push successors``, so the queue dominates engine throughput.  Two
interchangeable implementations are provided:

* :class:`HeapEventQueue` — a binary heap (``heapq``).  O(log n), low
  constant factor, the default.
* :class:`BinnedEventQueue` — a calendar-style queue with fixed-width
  time bins and an overflow heap.  O(1) amortised for workloads whose
  event horizon is short relative to the bin width (clocked component
  graphs), but degrades when timestamps are spread widely.

Both store plain ``(time, priority, seq, handler, event)`` tuples
(:data:`Entry`), the same layout checkpoint shards use.  ``seq`` is
unique per queue, so ordering is tuple comparison in C and never
reaches the handler.  The kernel takes raw entries through
:meth:`EventQueueBase.pop_entry`; :meth:`EventQueueBase.pop` wraps one
in an :class:`~repro.core.event.EventRecord` for attribute access.

``benchmarks/bench_engine_throughput.py`` carries the ablation between
the two (experiment ENG-1 in DESIGN.md).
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from .event import Event, EventRecord, Handler
from .units import SimTime

#: A queued delivery as stored: ``(time, priority, seq, handler, event)``.
Entry = Tuple[SimTime, int, int, Optional[Handler], Optional[Event]]

#: ``_new_record(EventRecord, entry)`` wraps an entry without running the
#: NamedTuple's Python-level ``__new__``.
_new_record = tuple.__new__


class EventQueueBase:
    """Interface shared by all pending-event set implementations."""

    def push(
        self,
        time: SimTime,
        priority: int,
        handler: Optional[Handler],
        event: Optional[Event],
    ) -> int:
        """Queue a delivery; returns the insertion sequence number."""
        raise NotImplementedError

    def pop_entry(self) -> Entry:
        """Remove and return the earliest raw entry (the kernel's
        accessor); raises ``IndexError`` when empty."""
        raise NotImplementedError

    def pop(self) -> EventRecord:
        return _new_record(EventRecord, self.pop_entry())

    def peek_time(self) -> Optional[SimTime]:
        """Timestamp of the earliest entry, or None when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- checkpoint support ------------------------------------------------
    # The insertion-sequence counter is part of the determinism contract:
    # a restored queue must hand out exactly the seq values the original
    # would have, so `repro.ckpt` captures it explicitly (the max pending
    # seq underestimates it whenever the newest entries have already been
    # popped).

    @property
    def seq(self) -> int:
        """The next insertion sequence number this queue will assign."""
        raise NotImplementedError

    def snapshot_records(self) -> List[EventRecord]:
        """All pending records, non-destructively, in no particular order."""
        raise NotImplementedError

    def restore_records(self, records: Iterable[Entry], seq: int) -> None:
        """Replace the queue's contents and seq counter wholesale.

        Existing entries are discarded (a rebuild pushes setup-time
        events that the snapshot's records supersede).  ``records`` are
        ``(time, priority, seq, handler, event)`` tuples that already
        carry their final, distinct seq values.
        """
        raise NotImplementedError


class HeapEventQueue(EventQueueBase):
    """Binary-heap pending-event set (the default engine queue)."""

    __slots__ = ("_heap", "_seq", "pop_entry")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        # Bound to the one heap list for the queue's lifetime (restore
        # refills it in place): a pop is a C call with no Python frame.
        self.pop_entry = partial(heapq.heappop, self._heap)

    def push(
        self,
        time: SimTime,
        priority: int,
        handler: Optional[Handler],
        event: Optional[Event],
    ) -> int:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handler, event))
        return seq

    def peek_time(self) -> Optional[SimTime]:
        heap = self._heap
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def seq(self) -> int:
        return self._seq

    def snapshot_records(self) -> List[EventRecord]:
        return [_new_record(EventRecord, entry) for entry in self._heap]

    def restore_records(self, records: Iterable[Entry], seq: int) -> None:
        heap = self._heap
        heap[:] = records
        heapq.heapify(heap)
        self._seq = seq


class BinnedEventQueue(EventQueueBase):
    """Calendar-queue variant: fixed-width bins plus an overflow heap.

    Entries within ``horizon = bin_width * n_bins`` of the current front
    go into per-bin FIFO lists (sorted lazily on first pop from the
    bin); entries beyond the horizon land in an overflow heap that is
    drained as the calendar advances.

    Parameters
    ----------
    bin_width:
        Bin granularity in picoseconds.  A good choice is the GCD of
        the clock periods in the design (e.g. 1000 for a 1 GHz system).
    n_bins:
        Number of bins in the rotating calendar window.
    """

    __slots__ = ("_bin_width", "_n_bins", "_bins", "_base", "_overflow", "_seq", "_count")

    def __init__(self, bin_width: SimTime = 1000, n_bins: int = 256) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if n_bins <= 0:
            raise ValueError("n_bins must be positive")
        self._bin_width = bin_width
        self._n_bins = n_bins
        self._bins: Dict[int, List[Entry]] = {}
        self._base = 0  # index of the first bin in the active window
        self._overflow: List[Entry] = []
        self._seq = 0
        self._count = 0

    def _bin_index(self, time: SimTime) -> int:
        return time // self._bin_width

    def push(
        self,
        time: SimTime,
        priority: int,
        handler: Optional[Handler],
        event: Optional[Event],
    ) -> int:
        seq = self._seq
        self._seq = seq + 1
        self._insert((time, priority, seq, handler, event))
        return seq

    def _insert(self, entry: Entry) -> None:
        index = self._bin_index(entry[0])
        if index >= self._base + self._n_bins:
            heapq.heappush(self._overflow, entry)
        else:
            self._bins.setdefault(index, []).append(entry)
        self._count += 1

    def _advance(self) -> None:
        """Move the window forward until the front bin is non-empty."""
        while True:
            if self._bins:
                lowest = min(self._bins)
                if lowest >= self._base:
                    self._base = lowest
            if self._overflow:
                over_index = self._bin_index(self._overflow[0][0])
                if not self._bins or over_index <= min(self._bins):
                    self._base = over_index
            # Drain overflow entries that now fall inside the window.
            horizon = self._base + self._n_bins
            moved = False
            while self._overflow and self._bin_index(self._overflow[0][0]) < horizon:
                entry = heapq.heappop(self._overflow)
                self._bins.setdefault(self._bin_index(entry[0]), []).append(entry)
                moved = True
            if not moved:
                return

    def pop_entry(self) -> Entry:
        if self._count == 0:
            raise IndexError("pop from empty BinnedEventQueue")
        self._advance()
        lowest = min(self._bins)
        bucket = self._bins[lowest]
        # Lazy sort: a bin is sorted only when the window front reaches it.
        if len(bucket) > 1:
            bucket.sort(reverse=True)  # pop() from the end = smallest first
        entry = bucket.pop()
        if not bucket:
            del self._bins[lowest]
        self._count -= 1
        return entry

    def peek_time(self) -> Optional[SimTime]:
        if self._count == 0:
            return None
        self._advance()
        lowest = min(self._bins)
        return min(entry[0] for entry in self._bins[lowest])

    def __len__(self) -> int:
        return self._count

    @property
    def seq(self) -> int:
        return self._seq

    def snapshot_records(self) -> List[EventRecord]:
        entries = [e for bucket in self._bins.values() for e in bucket]
        entries.extend(self._overflow)
        return [_new_record(EventRecord, entry) for entry in entries]

    def restore_records(self, records: Iterable[Entry], seq: int) -> None:
        self._bins = {}
        self._overflow = []
        self._base = 0
        self._count = 0
        for record in records:
            self._insert(record)
        self._seq = seq


#: Registry used by Simulation(queue="...") and the ENG-1 ablation bench.
QUEUE_TYPES = {
    "heap": HeapEventQueue,
    "binned": BinnedEventQueue,
}


def make_queue(kind: str = "heap", **kwargs) -> EventQueueBase:
    """Instantiate a pending-event set by name (``"heap"`` or ``"binned"``)."""
    try:
        factory = QUEUE_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown event queue type {kind!r}; options: {sorted(QUEUE_TYPES)}")
    return factory(**kwargs)
