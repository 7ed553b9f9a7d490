"""Unit + property tests for the pending-event set.

The queue contract runs on the heap itself and on the causal tracer's
queue proxy, the other object the kernel pops from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigGraph, build, build_parallel
from repro.core.eventqueue import HeapEventQueue, make_queue
from repro.obs.causal import _TracedQueue

QUEUES = [HeapEventQueue, lambda: _TracedQueue(HeapEventQueue(), [None])]
QUEUE_IDS = ["heap", "traced"]


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

    def test_unpop_restores_pop_order(self, queue):
        # The kernel's limit test pops first and puts back an entry past
        # its window: the same tuple, so the pop order is unchanged.
        for t in (300, 100, 100, 200):
            queue.push(t, 50, None, None)
        entry = queue.pop_entry()
        queue.unpop(entry)
        assert queue.seq == 4
        popped = [queue.pop_entry() for _ in range(4)]
        assert popped[0] is entry
        assert [e[:3] for e in popped] == \
            [(100, 50, 1), (100, 50, 2), (200, 50, 3), (300, 50, 0)]


class TestMakeQueue:
    def test_known_kinds(self):
        assert isinstance(make_queue("heap"), HeapEventQueue)
        assert isinstance(make_queue(), HeapEventQueue)

    def test_unknown_kind(self):
        for kind in ("quantum", "binned"):
            with pytest.raises(ValueError, match="only choice is 'heap'"):
                make_queue(kind)

    def test_builders_accept_only_heap(self):
        graph = ConfigGraph("one-queue")
        graph.component("sink", "testlib.Sink", {})
        assert build(graph, queue="heap").pending_events == 0
        with pytest.raises(ValueError, match="only choice is 'heap'"):
            build(graph, queue="binned")
        with pytest.raises(ValueError, match="only choice is 'heap'"):
            build_parallel(graph, 2, queue="binned")


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
        queue = HeapEventQueue()
        for time, priority in batch:
            queue.push(time, priority, None, None)
        popped = [queue.pop() for _ in range(len(batch))]
        keys = [(r.time, r.priority, r.seq) for r in popped]
        assert keys == sorted(keys)
        assert len(queue) == 0
