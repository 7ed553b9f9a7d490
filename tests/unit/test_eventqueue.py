"""Unit + property tests for the pending-event set implementations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eventqueue import (BinnedEventQueue, HeapEventQueue,
                                   make_queue)

QUEUES = [HeapEventQueue, lambda: BinnedEventQueue(bin_width=100, n_bins=8)]
QUEUE_IDS = ["heap", "binned"]


@pytest.fixture(params=QUEUES, ids=QUEUE_IDS)
def queue(request):
    return request.param()


class TestBasics:
    def test_empty(self, queue):
        assert len(queue) == 0
        assert not queue
        assert queue.peek_time() is None

    def test_push_pop_single(self, queue):
        queue.push(100, 50, None, None)
        assert len(queue) == 1
        record = queue.pop()
        assert record.time == 100
        assert len(queue) == 0

    def test_pop_empty_raises(self, queue):
        with pytest.raises(IndexError):
            queue.pop()

    def test_time_ordering(self, queue):
        for t in (500, 100, 300, 200, 400):
            queue.push(t, 50, None, None)
        times = [queue.pop().time for _ in range(5)]
        assert times == [100, 200, 300, 400, 500]

    def test_priority_breaks_time_ties(self, queue):
        queue.push(100, 50, None, None)
        queue.push(100, 25, None, None)
        queue.push(100, 90, None, None)
        priorities = [queue.pop().priority for _ in range(3)]
        assert priorities == [25, 50, 90]

    def test_insertion_order_breaks_full_ties(self, queue):
        seqs = [queue.push(100, 50, None, None) for _ in range(10)]
        popped = [queue.pop() for _ in range(10)]
        assert [r.seq for r in popped] == seqs

    def test_peek_matches_pop(self, queue):
        for t in (300, 100, 200):
            queue.push(t, 50, None, None)
        assert queue.peek_time() == 100
        assert queue.pop().time == 100
        assert queue.peek_time() == 200

    def test_interleaved_push_pop(self, queue):
        queue.push(100, 50, None, None)
        queue.push(50, 50, None, None)
        assert queue.pop().time == 50
        queue.push(75, 50, None, None)
        assert queue.pop().time == 75
        assert queue.pop().time == 100

    def test_unorderable_handlers_pop_in_seq_order(self, queue):
        # Bound methods support no ordering; with every entry at one
        # (time, priority), only the unique seq may ever be compared.
        class Sink:
            def on(self, event):
                pass

        handlers = [Sink().on for _ in range(20)]
        seqs = [queue.push(100, 50, handler, None) for handler in handlers]
        popped = [queue.pop() for _ in range(20)]
        assert [r.seq for r in popped] == seqs
        assert [r.handler for r in popped] == handlers

    def test_pop_entry_is_the_raw_tuple(self, queue):
        seq = queue.push(7, 50, None, "payload")
        assert queue.pop_entry() == (7, 50, seq, None, "payload")


class TestBinnedSpecifics:
    def test_overflow_beyond_horizon(self):
        q = BinnedEventQueue(bin_width=10, n_bins=4)  # horizon = 40ps
        q.push(5, 50, None, None)
        q.push(1000, 50, None, None)  # far future -> overflow heap
        q.push(15, 50, None, None)
        assert [q.pop().time for _ in range(3)] == [5, 15, 1000]

    def test_all_in_overflow(self):
        q = BinnedEventQueue(bin_width=1, n_bins=1)
        for t in (30, 10, 20):
            q.push(t, 50, None, None)
        assert [q.pop().time for _ in range(3)] == [10, 20, 30]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BinnedEventQueue(bin_width=0)
        with pytest.raises(ValueError):
            BinnedEventQueue(n_bins=0)


class TestMakeQueue:
    def test_known_kinds(self):
        assert isinstance(make_queue("heap"), HeapEventQueue)
        assert isinstance(make_queue("binned"), BinnedEventQueue)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_queue("quantum")


@st.composite
def _event_batches(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5000),  # time
                st.sampled_from([25, 40, 50, 90]),  # priority
            ),
            min_size=0,
            max_size=200,
        )
    )


class TestProperties:
    @given(_event_batches())
    @settings(max_examples=100)
    def test_heap_pops_fully_sorted(self, batch):
        self._check_sorted(HeapEventQueue(), batch)

    @given(_event_batches())
    @settings(max_examples=100)
    def test_binned_pops_fully_sorted(self, batch):
        self._check_sorted(BinnedEventQueue(bin_width=64, n_bins=16), batch)

    @staticmethod
    def _check_sorted(queue, batch):
        for time, priority in batch:
            queue.push(time, priority, None, None)
        popped = [queue.pop() for _ in range(len(batch))]
        keys = [(r.time, r.priority, r.seq) for r in popped]
        assert keys == sorted(keys)
        assert len(queue) == 0

    @given(_event_batches(), _event_batches())
    @settings(max_examples=50)
    def test_heap_and_binned_agree(self, batch_a, batch_b):
        """Both queue types yield the identical pop sequence, including a
        drain-refill cycle in the middle."""
        heap, binned = HeapEventQueue(), BinnedEventQueue(bin_width=32, n_bins=8)
        out_heap, out_binned = [], []
        for q, out in ((heap, out_heap), (binned, out_binned)):
            for t, p in batch_a:
                q.push(t, p, None, None)
            for _ in range(len(batch_a) // 2):
                out.append(q.pop()[:3])
            base = max((t for t, _ in batch_a), default=0)
            for t, p in batch_b:
                q.push(base + t, p, None, None)
            while q:
                out.append(q.pop()[:3])
        assert out_heap == out_binned
