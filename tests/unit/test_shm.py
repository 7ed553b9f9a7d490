"""Unit coverage for the pipe data plane and snapshot restores over it.

* :class:`repro.core.exchange.PipeExchange` — frames byte-exact and in
  order over the non-blocking pipes (a property over sizes around the
  pipe capacity), the epoch handshake, waits that spin only while every
  rank has a CPU of its own and then block, and a worker-side wait that
  fails instead of sleeping forever once the parent is gone;
* :func:`encode_entries` / :func:`decode_entries` — the batch-pickled
  outbox-entry framing (:mod:`repro.core.event`);
* :func:`encode_step` / :func:`decode_step` — the worker's step frame
  (:mod:`repro.core.backends`);
* engine snapshots taken mid-run on the processes backend resume
  exactly (the control plane stays on the pipes);
* ``restore(assignment=...)`` — the pinned repartition restore.
"""

from __future__ import annotations

import fcntl
import os
import select
import signal
import threading
import time as _wall_time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigGraph, build_parallel
from repro.core import ParallelSimulation, Params
from repro.core.backends import (_STEP_META, RankStep, decode_step,
                                 encode_step)
from repro.core.event import (Event, EventTable, decode_entries,
                              encode_entries)
from repro.core.exchange import SPIN_S, PipeExchange
from repro.core.simulation import SimulationError
from repro.memory.events import MemRequest
from tests.conftest import PingPong


def _pipe_capacity(fd) -> int:
    return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)


# ----------------------------------------------------------------------
# frames over the pipes
# ----------------------------------------------------------------------

class TestPipeFrames:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_frames_arrive_byte_exact_and_in_order(self, data):
        """Frames of any size — empty, one byte, the pipe capacity and
        one either side of it, several pipes long — reach the worker
        side byte-exact and in order, and its echoes come back the same
        way.  A frame larger than the pipe only completes while the
        reader drains it, so this is also the no-deadlock property.
        Drawn pauses before each post and each echo make the waiting
        side meet the frame while spinning, after it blocked, or
        mid-stream; drawn spin budgets cover both wait paths."""
        exchange = PipeExchange(1)
        try:
            capacity = _pipe_capacity(exchange.down_fd(0))
            size = st.one_of(
                st.sampled_from([0, 1, capacity - 1, capacity,
                                 capacity + 1]),
                st.integers(0, 5 * capacity))
            sizes = data.draw(st.lists(size, min_size=1, max_size=8),
                              label="sizes")
            pause = st.sampled_from([0.0, 0.0002, 0.002])
            posts = data.draw(st.lists(pause, min_size=len(sizes),
                                       max_size=len(sizes)), label="posts")
            echoes = data.draw(st.lists(pause, min_size=len(sizes),
                                        max_size=len(sizes)),
                               label="echoes")
            exchange.spin_s = data.draw(st.sampled_from([0.0, SPIN_S]),
                                        label="spin_s")
            frames = [bytes((7 * i + j) % 251 for j in range(n))
                      for i, n in enumerate(sizes)]
            received = []

            def worker():
                for echo_pause in echoes:
                    exchange.wait((exchange.down_fd(0),))
                    received.append(exchange.read_deliveries(0))
                    _wall_time.sleep(echo_pause)
                    exchange.complete(0, received[-1])

            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            echoed = []
            for frame, post_pause in zip(frames, posts):
                _wall_time.sleep(post_pause)
                exchange.post(0, frame, alive_check=thread.is_alive)
                # an empty up frame reads as fail()'s no-result None
                echoed.append(exchange.collect(0, alive_check=thread.is_alive)
                              or b"")
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert received == frames
            assert echoed == frames
        finally:
            exchange.close()


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
            (1000, 3, 1, 7, MemRequest(addr=64, req_id=1, is_write=True,
                                           src_port=None)),
            (1000, 3, 0, 8, DictPayload({"k": [1, 2], "n": {"x": True}})),
            (2500, 9, 1, 9, MemRequest(addr=1 << 80, req_id=2,
                                           phase="x" * 300)),
        ]
        blob = encode_entries(entries, EventTable())
        out, offset = decode_entries(blob, 0, EventTable())
        assert offset == len(blob)
        assert [e[:4] for e in out] == [e[:4] for e in entries]
        assert type(out[0][4]) is MemRequest
        assert (out[0][4].addr, out[0][4].is_write, out[0][4].src_port) == \
            (64, True, None)
        assert out[1][4].table == {"k": [1, 2], "n": {"x": True}}
        assert (out[2][4].addr, out[2][4].phase) == (1 << 80, "x" * 300)

    def test_empty_entries(self):
        blob = encode_entries([], EventTable())
        assert decode_entries(blob, 0, EventTable()) == ([], len(blob))


class TestStepFrame:
    def test_roundtrip_with_outbox(self):
        outbox = [[], [(10, 1, 1, 0, MemRequest(addr=8, req_id=3))],
                  [(10, 2, 2, 1, DictPayload({"z": 1}))]]
        step = RankStep(wall_seconds=0.25, events=42, outbox=outbox,
                        next_time=999, primaries_pending=1,
                        last_event_time=998, now=1000)
        out = decode_step(encode_step(step, EventTable()), 3, EventTable())
        assert (out.wall_seconds, out.events, out.next_time,
                out.primaries_pending, out.last_event_time, out.now) == \
            (0.25, 42, 999, 1, 998, 1000)
        assert [len(b) for b in out.outbox] == [0, 1, 1]
        assert out.outbox[1][0][:4] == (10, 1, 1, 0)
        assert out.outbox[2][0][4].table == {"z": 1}

    def test_roundtrip_drained_rank(self):
        step = RankStep(wall_seconds=0.0, events=0, outbox=[],
                        next_time=None, primaries_pending=0,
                        last_event_time=-1, now=500)
        out = decode_step(encode_step(step, EventTable()), 2, EventTable())
        assert out.next_time is None
        assert out.outbox == []

    def test_frame_is_header_plus_entry_batch(self):
        """A step frame is the 48-byte header and the flattened outbox
        batch, nothing after it."""
        assert _STEP_META.size == 48
        entries = [(10, 1, 1, 0, MemRequest(addr=8, req_id=3)),
                   (12, 1, 1, 1, DictPayload({"z": 1}))]
        for outbox, flat in (([], []), ([[], entries], entries)):
            step = RankStep(wall_seconds=0.5, events=7, outbox=outbox,
                            next_time=3, primaries_pending=0,
                            last_event_time=2, now=3)
            frame = encode_step(step, EventTable())
            batch = encode_entries(flat, EventTable())
            assert len(frame) == _STEP_META.size + len(batch)
            assert frame[_STEP_META.size:] == batch


# ----------------------------------------------------------------------
# PipeExchange (parent and "worker" share one process unless a test forks)
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


def _cpu_seconds(pid) -> float:
    """User plus system CPU time of process ``pid``, from /proc."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3): utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class TestShmExchange:
    def test_epoch_handshake(self):
        exchange = PipeExchange(2)
        try:
            assert not _rung(exchange.down_fd(0))
            exchange.post(0, b"deliveries-for-rank0")
            assert _rung(exchange.down_fd(0))
            assert not _rung(exchange.down_fd(1))
            assert exchange.read_deliveries(0) == b"deliveries-for-rank0"
            assert not _rung(exchange.down_fd(0))  # reading consumed it
            exchange.complete(0, b"step-result")
            assert exchange.collect(0) == b"step-result"
        finally:
            exchange.close()

    def test_waiting_side_blocks_instead_of_spinning(self):
        """collect() waiting 0.5 s for its peer must sleep in the kernel
        once its spin budget is spent: a spin-wait would burn most of
        those 0.5 s as process time."""
        exchange = PipeExchange(1)
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
            exchange.close()

    def test_idle_worker_blocks_instead_of_spinning(self):
        """The worker-side twin: while the parent spends 0.5 s in an
        epoch observer, the idle worker waiting for its next command
        must sleep in the kernel, not spin."""
        psim = ParallelSimulation(2, seed=1, backend="processes")
        ping = PingPong(psim.rank_sim(0), "ping",
                        Params({"initiator": True, "n_round_trips": 5}))
        pong = PingPong(psim.rank_sim(1), "pong")
        psim.connect(ping, "io", pong, "io", latency="5ns")
        used = []

        def sleep_in_epoch(info):
            if info.index == 1:
                pid = psim._backend.worker_pid(1)
                cpu0 = _cpu_seconds(pid)
                _wall_time.sleep(0.5)
                used.append(_cpu_seconds(pid) - cpu0)

        psim.add_epoch_observer(sleep_in_epoch)
        try:
            assert psim.run().reason == "exit"
        finally:
            psim.close()
        assert len(used) == 1
        assert used[0] < 0.05, f"idle worker used {used[0]:.3f} s of CPU"

    @pytest.mark.parametrize("cpus, spins", [({0}, False), ({0, 1}, True)])
    def test_wait_spins_only_with_a_cpu_per_rank(self, monkeypatch, cpus,
                                                 spins):
        """Two ranks on one usable CPU: a collect wait goes straight to
        a blocking ``select`` (no zero-timeout poll at all); with a CPU
        per rank it polls first."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        exchange = PipeExchange(2)
        polls = []
        real_select = select.select
        main = threading.get_ident()

        def counting_select(r, w, x, timeout=None):
            if threading.get_ident() == main:
                polls.append(timeout)
            return real_select(r, w, x, timeout)

        try:
            assert exchange.spin_s == (SPIN_S if spins else 0.0)
            exchange.post(0, b"go")

            def peer():
                assert exchange.read_deliveries(0) == b"go"
                _wall_time.sleep(0.005)
                exchange.complete(0, b"done")

            monkeypatch.setattr(select, "select", counting_select)
            thread = threading.Thread(target=peer)
            thread.start()
            assert exchange.collect(0) == b"done"
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            monkeypatch.undo()
            exchange.close()
        assert (0 in polls) is spins, polls

    def test_worker_wait_fails_once_the_parent_is_killed(self):
        """A worker streams a step frame 4x the pipe capacity; its
        parent never reads and is SIGKILLed mid-frame.  The worker's
        wait must notice (its parent is no longer the exchange's
        creator) and raise within about a second instead of sleeping
        forever."""
        read_fd, write_fd = os.pipe()
        parent = os.fork()
        if parent == 0:  # the parent rank process: creates the exchange
            try:
                os.close(read_fd)
                exchange = PipeExchange(1)
                capacity = _pipe_capacity(exchange.down_fd(0))
                if os.fork() == 0:  # its worker
                    try:
                        os.write(write_fd, f"{os.getpid()};".encode())
                        exchange.complete(0, bytes(4 * capacity))
                    except SimulationError as exc:
                        os.write(write_fd, f"raised: {exc}".encode())
                    finally:
                        os._exit(0)
                # The worker keeps its own pipe ends, so the up pipe
                # stays open (and full) after the kill.
                exchange.close()
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
        assert report == b"raised: parent died while the exchange was waiting"

    def test_fail_reports_no_result(self):
        exchange = PipeExchange(1)
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
            exchange.close()


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
        and lands every component on its pinned rank, with the final
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
