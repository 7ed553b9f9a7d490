"""Unit coverage for the shm data plane and the repartition feedback loop.

* :class:`repro.core.shm.RingBuffer` — SPSC byte ring: wrap-around,
  full-ring backpressure, frames larger than the whole ring, and a
  property over random capacities and frame sizes;
* :class:`repro.core.shm.ShmExchange` — the doorbell handshake, and a
  worker-side wait that fails instead of sleeping forever once the
  parent is gone;
* :func:`encode_entries` / :func:`decode_entries` — the batch-pickled
  outbox-entry framing (:mod:`repro.core.event`);
* :func:`encode_step` / :func:`decode_step` — the worker's step frame
  (:mod:`repro.core.backends`);
* engine snapshots taken mid-run on the processes backend resume
  exactly (the control plane stays on the pipes);
* ``restore(assignment=...)`` — the pinned repartition restore the
  ``obs partition-advise`` flow feeds;
* :class:`PartitionProfile` / :func:`build_profile` / :func:`advise` —
  feedback-driven repartitioning from recorded telemetry.
"""

from __future__ import annotations

import os
import select
import signal
import threading
import time as _wall_time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigGraph, build_parallel
from repro.core.backends import RankStep, decode_step, encode_step
from repro.core.event import Event, decode_entries, encode_entries
from repro.core.partition import (PartitionEdge, PartitionProfile,
                                  partition)
from repro.core.shm import _RING_HEADER, RingBuffer, ShmExchange
from repro.core.simulation import SimulationError
from repro.memory.events import MemRequest
from repro.obs import build_profile


def _fail_wait():
    raise AssertionError("ring unexpectedly blocked")


class _WouldBlock(Exception):
    pass


def _raise_wait():
    raise _WouldBlock


def _sleep_wait():
    _wall_time.sleep(0.0001)


def _deadline_wait(seconds):
    """A ring wait that yields, and fails the test instead of hanging
    once ``seconds`` have passed (say, when the peer thread died)."""
    deadline = _wall_time.monotonic() + seconds

    def wait():
        if _wall_time.monotonic() > deadline:
            raise AssertionError("ring peer stopped making progress")
        _wall_time.sleep(0.00001)

    return wait


# ----------------------------------------------------------------------
# RingBuffer
# ----------------------------------------------------------------------

class TestRingBuffer:
    def _ring(self, capacity):
        buf = bytearray(_RING_HEADER + capacity)
        return RingBuffer(buf, 0, capacity)

    def test_frames_wrap_across_the_boundary(self):
        """11-byte frames through a 16-byte ring: head/tail wrap inside
        both the length prefix and the payload within a few frames."""
        ring = self._ring(16)
        for i in range(10):
            payload = bytes([i]) * 7
            ring.write_frame(payload, _fail_wait)
            assert ring.read_frame(_fail_wait) == payload
        assert ring.head == ring.tail == 10 * 11
        assert ring.head > ring.capacity  # it really wrapped

    def test_full_ring_backpressures_writer(self):
        ring = self._ring(8)
        ring.write(b"x" * 8, _fail_wait)
        with pytest.raises(_WouldBlock):
            ring.write(b"y", _raise_wait)
        assert ring.read(8, _fail_wait) == b"x" * 8
        ring.write(b"y", _fail_wait)  # drained: space again
        assert ring.read(1, _fail_wait) == b"y"

    def test_empty_ring_backpressures_reader(self):
        ring = self._ring(8)
        with pytest.raises(_WouldBlock):
            ring.read(1, _raise_wait)

    def test_transient_zero_head_read_does_not_desync_reader(self):
        """Some kernels let a freshly-forked worker's first faults into
        the shared mapping observe a zero page where the producer long
        since wrote a nonzero head.  The reader must treat the
        impossible value as "no news" and retry — trusting it would
        compute a negative occupancy and walk the tail backwards."""
        ring = self._ring(64)
        ring.write_frame(b"first", _fail_wait)
        assert ring.read_frame(_fail_wait) == b"first"
        ring.write_frame(b"second", _fail_wait)
        real_head = bytes(ring._buf[0:8])
        ring._buf[0:8] = b"\0" * 8  # the transient zero page
        waits = []

        def restore_wait():
            waits.append(1)
            ring._buf[0:8] = real_head

        assert ring.read_frame(restore_wait) == b"second"
        assert waits  # the zero read was rejected, not trusted

    def test_transient_zero_tail_read_does_not_overrun_writer(self):
        """Mirror hazard on the producer: a zero tail read would
        overstate the free space and let the writer clobber unread
        bytes on a nearly-full ring."""
        ring = self._ring(8)
        ring.write(b"abcd", _fail_wait)
        assert ring.read(4, _fail_wait) == b"abcd"
        ring.write(b"efgh", _fail_wait)  # head=8, tail=4: 4 bytes free
        real_tail = bytes(ring._buf[8:16])
        ring._buf[8:16] = b"\0" * 8
        waits = []

        def restore_wait():
            waits.append(1)
            ring._buf[8:16] = real_tail

        ring.write(b"ijkl", restore_wait)
        assert waits
        assert ring.read(8, _fail_wait) == b"efghijkl"

    def test_frame_larger_than_ring_streams_through(self):
        """A frame 32x the ring capacity completes as long as both
        sides run concurrently — the no-deadlock property post() and
        complete() rely on when an epoch's batch outgrows the ring."""
        ring = self._ring(32)
        payload = bytes(range(256)) * 4  # 1 KiB through a 32-byte ring
        writer_waits = []

        def _writer():
            ring.write_frame(payload,
                             lambda: (writer_waits.append(1),
                                      _wall_time.sleep(0.0001)))

        thread = threading.Thread(target=_writer)
        thread.start()
        out = ring.read_frame(_sleep_wait)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert out == payload
        assert writer_waits  # the writer really was backpressured

    @given(capacity=st.integers(1, 48), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_frames_arrive_byte_exact_and_in_order(self, capacity,
                                                          data):
        """Any capacity down to one byte, any frame sizes — empty,
        exactly the ring, one either side of it, several rings long:
        frames a writer thread streams reach the reader byte-exact and
        in order.  Drawn writer pauses let the reader drain to
        arbitrary offsets, so chunks straddle the wrap point (a writer
        that only ever fills the ring keeps both sides aligned to it)."""
        size = st.one_of(
            st.sampled_from([0, capacity - 1, capacity, capacity + 1]),
            st.integers(0, 5 * capacity))
        sizes = data.draw(st.lists(size, min_size=1, max_size=8),
                          label="sizes")
        pauses = data.draw(st.lists(st.booleans(), min_size=len(sizes),
                                    max_size=len(sizes)), label="pauses")
        frames = [bytes((7 * i + j) % 251 for j in range(n))
                  for i, n in enumerate(sizes)]
        ring = self._ring(capacity)
        wait = _deadline_wait(10.0)

        def _writer():
            for frame, pause in zip(frames, pauses):
                ring.write_frame(frame, wait)
                if pause:
                    _wall_time.sleep(0.001)

        thread = threading.Thread(target=_writer, daemon=True)
        thread.start()
        received = [ring.read_frame(wait) for _ in frames]
        thread.join(timeout=10)
        assert received == frames
        assert ring.head == ring.tail == sum(4 + n for n in sizes)


# ----------------------------------------------------------------------
# outbox-entry batches
# ----------------------------------------------------------------------

class DictPayload(Event):
    """A slotted event whose one slot holds a nested container."""

    __slots__ = ("table",)

    def __init__(self, table=None):
        self.table = table if table is not None else {}


class TestEntryBatch:
    def test_entries_roundtrip_mixed_kinds(self):
        """Slotted scalars, a nested dict payload and an int beyond 64
        bits all survive one batch, with the entry headers intact."""
        entries = [
            (1000, 50, 3, 1, 7, MemRequest(addr=64, req_id=1, is_write=True,
                                           src_port=None)),
            (1000, 50, 3, 0, 8, DictPayload({"k": [1, 2], "n": {"x": True}})),
            (2500, 40, 9, 1, 9, MemRequest(addr=1 << 80, req_id=2,
                                           phase="x" * 300)),
        ]
        blob = encode_entries(entries)
        out, offset = decode_entries(blob)
        assert offset == len(blob)
        assert [e[:5] for e in out] == [e[:5] for e in entries]
        assert type(out[0][5]) is MemRequest
        assert (out[0][5].addr, out[0][5].is_write, out[0][5].src_port) == \
            (64, True, None)
        assert out[1][5].table == {"k": [1, 2], "n": {"x": True}}
        assert (out[2][5].addr, out[2][5].phase) == (1 << 80, "x" * 300)

    def test_empty_entries(self):
        blob = encode_entries([])
        assert decode_entries(blob) == ([], len(blob))


class TestStepFrame:
    def test_roundtrip_with_outbox_and_obs(self):
        outbox = [[], [(10, 50, 1, 1, 0, MemRequest(addr=8, req_id=3))],
                  [(10, 50, 2, 2, 1, DictPayload({"z": 1}))]]
        step = RankStep(wall_seconds=0.25, events=42, outbox=outbox,
                        next_time=999, primaries_pending=1,
                        last_event_time=998, now=1000,
                        obs_records=[{"kind": "sample", "events": 42}])
        out = decode_step(encode_step(step), num_ranks=3)
        assert (out.wall_seconds, out.events, out.next_time,
                out.primaries_pending, out.last_event_time, out.now) == \
            (0.25, 42, 999, 1, 998, 1000)
        assert [len(b) for b in out.outbox] == [0, 1, 1]
        assert out.outbox[1][0][:5] == (10, 50, 1, 1, 0)
        assert out.outbox[2][0][5].table == {"z": 1}
        assert out.obs_records == [{"kind": "sample", "events": 42}]

    def test_roundtrip_drained_rank(self):
        step = RankStep(wall_seconds=0.0, events=0, outbox=[],
                        next_time=None, primaries_pending=0,
                        last_event_time=-1, now=500)
        out = decode_step(encode_step(step), num_ranks=2)
        assert out.next_time is None
        assert out.outbox == []
        assert out.obs_records is None


# ----------------------------------------------------------------------
# ShmExchange (parent and "worker" share one process unless a test forks)
# ----------------------------------------------------------------------

def _rung(fd) -> bool:
    return bool(select.select([fd], [], [], 0)[0])


def _read_fd(fd, until, timeout=5.0) -> bytes:
    """Read ``fd`` until ``until`` has arrived (to EOF when None);
    fails the test instead of hanging after ``timeout`` seconds."""
    data = b""
    deadline = _wall_time.monotonic() + timeout
    while until is None or until not in data:
        remaining = deadline - _wall_time.monotonic()
        assert remaining > 0, f"timed out reading a pipe, got {data!r}"
        if select.select([fd], [], [], remaining)[0]:
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            data += chunk
    return data


class TestShmExchange:
    def test_epoch_handshake(self):
        exchange = ShmExchange(2, ring_capacity=4096)
        try:
            assert not _rung(exchange.bell(0))
            exchange.post(0, b"deliveries-for-rank0")
            assert _rung(exchange.bell(0)) and not _rung(exchange.bell(1))
            assert exchange.read_deliveries(0) == b"deliveries-for-rank0"
            assert not _rung(exchange.bell(0))  # answering consumed it
            exchange.complete(0, b"step-result")
            assert exchange.collect(0) == b"step-result"
        finally:
            exchange.close(unlink=True)

    def test_waiting_side_blocks_instead_of_spinning(self):
        """collect() waiting 0.5 s for its peer must sleep in the kernel:
        a spin-wait would burn most of those 0.5 s as process time."""
        exchange = ShmExchange(1, ring_capacity=1024)
        try:
            exchange.post(0, b"go")

            def peer():
                assert exchange.read_deliveries(0) == b"go"
                _wall_time.sleep(0.5)
                exchange.complete(0, b"done")

            thread = threading.Thread(target=peer)
            wall0 = _wall_time.perf_counter()
            cpu0 = _wall_time.process_time()
            thread.start()
            assert exchange.collect(0) == b"done"
            cpu = _wall_time.process_time() - cpu0
            thread.join(timeout=10)
            assert _wall_time.perf_counter() - wall0 >= 0.5
            assert cpu < 0.05, f"waiting side used {cpu:.3f} s of CPU"
        finally:
            exchange.close(unlink=True)

    def test_worker_wait_fails_once_the_parent_is_killed(self):
        """A worker streams a step frame 4x the ring; its parent never
        reads and is SIGKILLed mid-frame.  The worker's ring wait must
        notice (its parent is no longer the exchange's creator) and
        raise within about a second instead of sleeping forever."""
        capacity = 4096
        read_fd, write_fd = os.pipe()
        parent = os.fork()
        if parent == 0:  # the parent rank process: creates the exchange
            try:
                os.close(read_fd)
                exchange = ShmExchange(1, ring_capacity=capacity)
                if os.fork() == 0:  # its worker
                    try:
                        os.write(write_fd, f"{os.getpid()};".encode())
                        exchange.complete(0, bytes(4 * capacity))
                    except SimulationError as exc:
                        os.write(write_fd, f"raised: {exc}".encode())
                    finally:
                        os._exit(0)
                # The worker keeps its own mapping and bells; dropping
                # the name now leaves no segment behind after the kill.
                exchange.close(unlink=True)
                _wall_time.sleep(60)
            finally:
                os._exit(0)
        os.close(write_fd)
        worker = None
        try:
            worker = int(_read_fd(read_fd, until=b";").rstrip(b";"))
            _wall_time.sleep(0.3)  # the worker is blocked mid-frame
            os.kill(parent, signal.SIGKILL)
            os.waitpid(parent, 0)
            killed_at = _wall_time.monotonic()
            report = _read_fd(read_fd, until=None)  # EOF: the worker exited
            assert _wall_time.monotonic() - killed_at < 1.0
        finally:
            os.close(read_fd)
            if worker is not None:  # never leave an orphan behind a failure
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert report == (b"raised: parent died while the shm exchange "
                          b"was waiting")

    def test_fail_reports_no_result(self):
        exchange = ShmExchange(1, ring_capacity=1024)
        try:
            exchange.post(0, b"")
            exchange.read_deliveries(0)
            exchange.fail(0)
            assert exchange.collect(0) is None
            # the handshake stays usable: the next epoch completes
            exchange.post(0, b"next")
            assert exchange.read_deliveries(0) == b"next"
            exchange.complete(0, b"ok")
            assert exchange.collect(0) == b"ok"
        finally:
            exchange.close(unlink=True)


# ----------------------------------------------------------------------
# snapshots on the processes backend (the control plane stays on pipes)
# ----------------------------------------------------------------------

def _ckpt_graph() -> ConfigGraph:
    graph = ConfigGraph("shm-ckpt")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": 30})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="3ns")
    graph.component("src", "testlib.Source", {"count": 20, "period": "2ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "in", latency="4ns")
    return graph


def _run_shm(graph, **run_kwargs):
    psim = build_parallel(graph, 2, strategy="round_robin", seed=7,
                          backend="processes")
    result = psim.run(**run_kwargs)
    stats = psim.stat_values()
    return psim, result, stats


class TestSnapshotUnderShm:
    def test_midrun_snapshot_resumes_exactly(self, tmp_path):
        from repro.ckpt import restore

        ref, ref_result, ref_stats = _run_shm(_ckpt_graph())
        ref.close()
        assert ref_result.reason == "exit"

        psim, _, _ = _run_shm(_ckpt_graph(),
                              checkpoint_every=ref_result.end_time // 3,
                              checkpoint_dir=str(tmp_path))
        assert psim.checkpoints_written, "no snapshot landed mid-run"
        mid = psim.checkpoints_written[0]
        psim.close()

        resumed = restore(mid)
        result = resumed.run()
        stats = resumed.stat_values()
        resumed.close()
        assert result.reason == ref_result.reason
        assert result.end_time == ref_result.end_time
        assert stats == ref_stats


class TestAssignmentRestore:
    def test_restore_with_pinned_assignment(self, tmp_path):
        """An explicit component->rank map forces the repartition path
        and lands every component on its advised rank, with the final
        statistics unchanged."""
        from repro.ckpt import restore

        ref = build_parallel(_ckpt_graph(), 2, strategy="round_robin",
                             seed=7)
        ref_result = ref.run()
        ref_stats = ref.stat_values()

        psim = build_parallel(_ckpt_graph(), 2, strategy="round_robin",
                              seed=7)
        psim.run(checkpoint_every=ref_result.end_time // 3,
                 checkpoint_dir=str(tmp_path))
        mid = psim.checkpoints_written[0]
        psim.close()

        assignment = {"ping": 0, "pong": 0, "src": 1, "sink": 1}
        resumed = restore(mid, assignment=assignment)
        placed = {name: rank for rank in range(resumed.num_ranks)
                  for name in resumed.rank_sim(rank).components}
        assert placed == assignment
        result = resumed.run()
        stats = resumed.stat_values()
        resumed.close()
        assert result.reason == "exit"
        assert stats == ref_stats

    def test_restore_rejects_unknown_component(self, tmp_path):
        from repro.ckpt import CheckpointError, restore

        psim = build_parallel(_ckpt_graph(), 2, strategy="round_robin",
                              seed=7)
        psim.run(checkpoint_every="40ns", checkpoint_dir=str(tmp_path))
        mid = psim.checkpoints_written[0]
        psim.close()
        with pytest.raises(CheckpointError):
            restore(mid, assignment={"nonexistent": 0})


# ----------------------------------------------------------------------
# PartitionProfile / build_profile / advise
# ----------------------------------------------------------------------

class TestPartitionProfile:
    def test_scaled_node_weights(self):
        profile = PartitionProfile(node_multipliers={"a": 2.5})
        scaled = profile.scaled_node_weights({"a": 2.0, "b": 3.0})
        assert scaled == {"a": 5.0, "b": 3.0}

    def test_weighted_edges_add_traffic(self):
        profile = PartitionProfile(
            edge_traffic={frozenset(("a", "b")): 9.0})
        edges = [PartitionEdge("a", "b", weight=1.0, latency=10),
                 PartitionEdge("b", "c", weight=2.0, latency=20)]
        out = profile.weighted_edges(edges)
        assert out[0].weight == 10.0 and out[0].latency == 10
        assert out[1].weight == 2.0

    def test_partition_accepts_profile(self):
        nodes = ["a", "b", "c", "d"]
        edges = [PartitionEdge("a", "b"), PartitionEdge("b", "c"),
                 PartitionEdge("c", "d")]
        heavy = PartitionProfile(node_multipliers={"a": 50.0})
        result = partition(nodes, edges, 2, strategy="kl",
                           weights={n: 1.0 for n in nodes}, profile=heavy)
        # 'a' carries ~50/53 of the observed work: a balance-aware
        # strategy must leave it alone on its rank.
        rank_a = result.assignment["a"]
        assert [result.assignment[n] for n in "bcd"].count(rank_a) == 0


class TestAdvise:
    NAMES = {"src0", "sink0", "src1", "sink1"}

    def _graph(self) -> ConfigGraph:
        graph = ConfigGraph("advise-unit")
        for i in range(2):
            graph.component(f"src{i}", "testlib.Source",
                            {"count": 10, "period": "2ns"})
            graph.component(f"sink{i}", "testlib.Sink", {})
            graph.link(f"src{i}", "out", f"sink{i}", "in", latency="5ns")
        return graph

    def test_build_profile_from_busy_and_cut_edges(self):
        graph = self._graph()
        nodes, edges, weights = graph.partition_inputs()
        baseline = partition(nodes, edges, 2, strategy="round_robin",
                             weights=weights)
        cut = [{"name": "src0.out--sink0.in", "crossings": 12},
               {"name": "not-a-link", "crossings": 99}]
        profile = build_profile(graph, baseline, [3.0, 1.0], cut)
        # rank 0 ran 1.5x the mean, rank 1 0.5x: every component
        # inherits its rank's ratio.
        for node, rank in baseline.assignment.items():
            expected = 1.5 if rank == 0 else 0.5
            assert profile.node_multipliers[node] == pytest.approx(expected)
        assert profile.edge_traffic == {frozenset(("src0", "sink0")): 12.0}

    def test_advise_from_recorded_metrics(self, tmp_path):
        from repro.obs import TelemetryRecorder, advise

        graph = self._graph()
        metrics = tmp_path / "m.jsonl"
        psim = build_parallel(graph, 2, strategy="round_robin", seed=3)
        recorder = TelemetryRecorder(metrics).attach(psim)
        result = psim.run()
        recorder.finalize(result, graph=graph)
        psim.close()

        advice = advise(metrics, graph, num_ranks=2,
                        original_strategy="round_robin", strategy="kl")
        assert advice.num_ranks == 2
        assert set(advice.advised.assignment) == self.NAMES
        assert set(advice.advised.assignment.values()) <= {0, 1}
        doc = advice.as_dict()
        assert doc["version"] == 1
        assert set(doc["assignment"]) == self.NAMES
        assert doc["moved"] == advice.moved
        assert advice.report().strip()

    def test_advise_requires_parallel_metrics(self, tmp_path):
        from repro.obs import AdviseError, advise

        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"kind": "run_start", "mode": "sequential"}\n')
        with pytest.raises(AdviseError):
            advise(empty, self._graph(), num_ranks=2,
                   original_strategy="round_robin")
