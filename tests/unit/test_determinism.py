"""Determinism regression tests for the PR 4 hot-path optimisations.

The shared-clock arbiter, the tuple-entry event queues and the batched
cross-rank exchange all rewrite hot paths whose *correctness contract*
is deterministic execution order: identical builds must pop identical
``(time, priority, seq)`` sequences and land on identical statistics,
on every execution backend.  These tests pin that contract with a mixed
clocked+link workload:

* run-to-run: the same partitioned graph, run twice per backend, yields
  bit-identical per-rank pop traces (serial, where the rank engines are
  observable in-process) and bit-identical final stats (both backends,
  including processes where the trace stays in the forked workers);
* cross-backend: every backend produces the same stats, end time and
  event count as the sequential engine, and the window rule widens
  epochs without changing them;
* checkpoint/resume (PR 5): a run segmented by engine snapshots pops
  the *same* ``(time, priority, seq)`` sequence as an uninterrupted
  one, and a run resumed from a snapshot pops exactly the suffix the
  uninterrupted run would have popped after the snapshot time — the
  repro.ckpt exactness contract, sequential and parallel.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, register
from repro.core.backends import BACKENDS

ALL_BACKENDS = sorted(BACKENDS)


class RecordingQueue:
    """Transparent event-queue proxy that logs every dispatch.

    The kernel hoists ``sim._queue.pop_entry`` — its one accessor for
    raw ``(time, priority, seq, handler, event)`` entries — once per
    run, so installing the proxy before ``run()`` captures the full
    execution order.  A loop stopping at a time limit pops the first
    entry past it and puts it back through ``unpop``; that entry was
    not dispatched, so ``unpop`` drops it from the trace again.
    """

    def __init__(self, inner, trace):
        self._inner = inner
        self.trace = trace

    def pop_entry(self):
        entry = self._inner.pop_entry()
        time, priority, seq, _handler, event = entry
        self.trace.append((time, priority, seq, type(event).__name__))
        return entry

    def unpop(self, entry):
        self.trace.pop()
        self._inner.unpop(entry)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def __bool__(self):
        return bool(self._inner)


def mixed_graph() -> ConfigGraph:
    """Clocked + link-event workload with cross-rank traffic when split."""
    graph = ConfigGraph("determinism")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": 40})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="3ns")
    graph.component("src", "testlib.Source", {"count": 25, "period": "2ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "in", latency="4ns")
    # Same-frequency clocks land in one shared arbiter; the 500 MHz one
    # gets its own, so both arbiter code paths run.
    for i in range(4):
        graph.component(f"clk{i}", "testlib.Clocked",
                        {"clock": "1GHz", "n_ticks": 120})
    graph.component("slow", "testlib.Clocked",
                    {"clock": "500MHz", "n_ticks": 60})
    return graph


def run_parallel_traced(backend: str):
    """One 2-rank run; returns (per-rank traces, stats, result tuple)."""
    psim = build_parallel(mixed_graph(), 2, strategy="round_robin",
                          seed=7, backend=backend)
    traces = []
    for rank in range(psim.num_ranks):
        sim = psim.rank_sim(rank)
        sim._queue = RecordingQueue(sim._queue, [])
        traces.append(sim._queue.trace)
    result = psim.run()
    summary = (result.reason, result.end_time, result.events_executed,
               result.epochs, result.remote_events)
    return traces, psim.stat_values(), summary


class TestBackendDeterminism:
    def test_run_to_run_traces_and_stats(self):
        """PR 4 acceptance: two runs per backend, identical
        (time, priority, seq) traces and identical final stats."""
        runs = {}
        for backend in ALL_BACKENDS:
            first = run_parallel_traced(backend)
            second = run_parallel_traced(backend)
            if backend == "processes":
                # Rank engines execute in forked workers: the in-process
                # trace stays empty there, so the run-to-run contract is
                # pinned through stats + the result summary instead.
                assert first[1] == second[1], backend
                assert first[2] == second[2], backend
            else:
                assert first == second, backend
            runs[backend] = first
        # Cross-backend: identical stats and result summary everywhere.
        for backend in ALL_BACKENDS:
            assert runs[backend][1] == runs["serial"][1], backend
            assert runs[backend][2] == runs["serial"][2], backend

    def test_trace_is_nonempty_and_ordered(self):
        """Sanity on the harness itself: the proxy actually records, and
        pops come out in nondecreasing (time, priority, seq) order per
        rank."""
        traces, stats, summary = run_parallel_traced("serial")
        assert summary[0] == "exit"
        for trace in traces:
            assert len(trace) > 100
            keys = [entry[:3] for entry in trace]
            assert keys == sorted(keys)
        assert any(name == "_ArbiterTickEvent"
                   for trace in traces for (_, _, _, name) in trace)


class TestParallelDeterminism:
    """The determinism matrix: both execution backends land on the
    sequential engine's stats, end time and event count, agree with
    each other on epochs and remote events, and pop bit-identical
    (time, priority, seq) traces wherever the rank engines are
    observable in this process."""

    def _run(self, backend):
        psim = build_parallel(mixed_graph(), 2, strategy="round_robin",
                              seed=7, backend=backend)
        traces = []
        for rank in range(psim.num_ranks):
            sim = psim.rank_sim(rank)
            sim._queue = RecordingQueue(sim._queue, [])
            traces.append(sim._queue.trace)
        result = psim.run()
        stats = psim.stat_values()
        psim.close()
        return traces, stats, result

    def test_backends_match_sequential_reference(self):
        seq = build(mixed_graph(), seed=7)
        ref = seq.run()
        ref_stats = seq.stat_values()
        runs = {backend: self._run(backend) for backend in ALL_BACKENDS}
        for backend, (_traces, stats, result) in runs.items():
            assert stats == ref_stats, backend
            assert (result.reason, result.end_time, result.events_executed) \
                == (ref.reason, ref.end_time, ref.events_executed), backend
        serial_traces, _, serial = runs["serial"]
        traces, _, processes = runs["processes"]
        assert (processes.epochs, processes.remote_events) == \
            (serial.epochs, serial.remote_events)
        # Rank 0 runs in this process under both backends, so its pops
        # are observable here too; the workers keep theirs.
        assert traces[0] == serial_traces[0]
        assert serial.exchange_bytes == 0 < processes.exchange_bytes

    def test_windows_widen_past_the_lookahead(self):
        """The window rule is exercised, not just allowed: once the
        1 ns flow that sets the lookahead is done, rank 2's only link is
        20 ns long and the earliest-send bound beats ``gmin + lookahead
        - 1``.  The widening counters count exactly the wider windows,
        and the results are the sequential engine's."""
        graph = ConfigGraph("widening")
        graph.component("fast_src", "testlib.Source",
                        {"count": 3, "period": "1ns"}, rank=0)
        graph.component("fast_sink", "testlib.Sink", {}, rank=1)
        graph.link("fast_src", "out", "fast_sink", "in", latency="1ns")
        graph.component("slow_src", "testlib.Source",
                        {"count": 20, "period": "2ns"}, rank=2)
        graph.component("slow_sink", "testlib.Sink", {}, rank=0)
        graph.link("slow_src", "out", "slow_sink", "in", latency="20ns")
        seq = build(graph, seed=7)
        ref = seq.run()
        psim = build_parallel(graph, 3, seed=7)
        epochs = []
        psim.add_epoch_observer(epochs.append)
        result = psim.run()
        assert psim.stat_values() == seq.stat_values()
        assert (result.end_time, result.events_executed) == \
            (ref.end_time, ref.events_executed)
        described = psim.sync_strategy.describe()
        widths = [info.window_width for info in epochs]
        assert min(widths) >= result.lookahead == 1000
        assert described["windows_widened"] > 0
        assert described["windows_widened"] == \
            sum(width > result.lookahead for width in widths)
        assert described["widened_ps"] == \
            sum(width - result.lookahead for width in widths)


class TestCheckpointResumeBitIdentity:
    """PR 5 acceptance: checkpoint/resume is bit-identical, not merely
    stats-equivalent.  The queue seq counter and the bare/instrumented
    dispatch modes are part of the snapshot, so the resumed engine pops
    the exact (time, priority, seq) triples the uninterrupted engine
    would have popped."""

    def _sequential_reference(self):
        sim = build(mixed_graph(), seed=7)
        sim._queue = RecordingQueue(sim._queue, [])
        result = sim.run()
        return sim._queue.trace, sim.stat_values(), result

    def test_sequential_checkpointed_trace_identical(self, tmp_path):
        """Segmenting a run into checkpoint intervals is invisible: the
        full pop trace matches an unsegmented run's exactly."""
        trace, stats, cold = self._sequential_reference()
        sim = build(mixed_graph(), seed=7)
        sim._queue = RecordingQueue(sim._queue, [])
        sim.run(checkpoint_every=cold.end_time // 4,
                checkpoint_dir=str(tmp_path))
        assert sim._queue.trace == trace
        assert sim.stat_values() == stats

    def test_sequential_resume_trace_is_exact_suffix(self, tmp_path):
        from repro.ckpt import restore, snapshot_info

        trace, stats, cold = self._sequential_reference()
        sim = build(mixed_graph(), seed=7)
        sim.run(checkpoint_every=cold.end_time // 4,
                checkpoint_dir=str(tmp_path))
        mid = sim.checkpoints_written[1]
        cut = snapshot_info(mid)["sim_time_ps"]
        resumed = restore(mid)
        resumed._queue = RecordingQueue(resumed._queue, [])
        resumed.run()
        suffix = [entry for entry in trace if entry[0] > cut]
        assert resumed._queue.trace == suffix
        assert suffix  # the cut really was mid-run
        assert resumed.stat_values() == stats

    def test_per_clock_era_snapshot_is_refused(self, tmp_path):
        """A ``repro-ckpt/1`` snapshot may say ``"clock_arbiter": false``
        and hold per-clock tick records whose class is gone: restore and
        replay both refuse it by schema, with one CheckpointError naming
        both schemas."""
        from repro.ckpt import CheckpointError, replay, restore, snapshot
        from tests.unit.test_ckpt import OLD_SCHEMA_REFUSED, stamp_schema

        sim = build(mixed_graph(), seed=7)
        sim.run(max_time="100ns", finalize=False)
        path = snapshot(sim, tmp_path / "per-clock")
        stamp_schema(path, "repro-ckpt/1", clock_arbiter=False)
        for load in (restore, replay):
            with pytest.raises(CheckpointError, match=OLD_SCHEMA_REFUSED):
                load(path)

    def test_parallel_resume_traces_are_exact_suffixes(self, tmp_path):
        """2-rank exact restore: every rank's resumed pop trace is the
        uninterrupted run's per-rank suffix after the snapshot time
        (pending cross-rank sends included, with the same seqs)."""
        from repro.ckpt import restore, snapshot_info

        traces, stats, _summary = run_parallel_traced("serial")
        psim = build_parallel(mixed_graph(), 2, strategy="round_robin",
                              seed=7, backend="serial")
        psim.run(checkpoint_every="60ns", checkpoint_dir=str(tmp_path))
        mid = psim.checkpoints_written[0]
        cut = snapshot_info(mid)["sim_time_ps"]
        psim.close()
        resumed = restore(mid)
        resumed_traces = []
        for rank in range(resumed.num_ranks):
            sim = resumed.rank_sim(rank)
            sim._queue = RecordingQueue(sim._queue, [])
            resumed_traces.append(sim._queue.trace)
        resumed.run()
        resumed.close()
        assert resumed.stat_values() == stats
        for rank in range(2):
            suffix = [entry for entry in traces[rank] if entry[0] > cut]
            assert resumed_traces[rank] == suffix, rank
            assert suffix, rank


#: (time, component, cycle) of every LockstepTicker tick, in call order
_TICKS = []


@register("testlib.LockstepTicker")
class LockstepTicker(Component):
    """One LCG step per 1 GHz tick, logged to ``_TICKS``; unregisters
    after ``ticks`` cycles."""

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.x = self.params.find_int("seed", 1)
        self.last = self.params.find_int("ticks", 60)
        self.final = self.stats.counter("final")
        self.register_clock("1GHz", self.on_tick)

    def on_tick(self, cycle):
        self.x = (self.x * 1103515245 + 12345) & 0x7FFFFFFF
        _TICKS.append((self.sim.now, self.name, cycle))
        return cycle >= self.last

    def finish(self):
        self.final.add(self.x)


def lockstep_fabric() -> ConfigGraph:
    """200 same-class tickers: one arbiter that runs lockstep between
    its first boundary and the handoffs at cycles 40 and 60."""
    graph = ConfigGraph("lockstep")
    for i in range(200):
        graph.component(f"t{i}", "testlib.LockstepTicker",
                        {"seed": i + 1, "ticks": 40 if i % 7 == 3 else 60})
    return graph


class TestLockstepPlanCheckpoint:
    """A snapshot taken while the arbiter's lockstep plan is live: the
    shard holds the same clock entries as the member loop would leave,
    and exact and 1 -> 2-rank restores resume the uninterrupted run."""

    CUT = 20_500  # between the 20th and 21st lockstep boundaries

    def test_snapshot_between_lockstep_boundaries(self, tmp_path):
        from repro.ckpt import restore, snapshot
        from repro.ckpt.state import capture_sim_state

        _TICKS.clear()
        sim = build(lockstep_fabric(), seed=7)
        sim._queue = RecordingQueue(sim._queue, [])
        cold = sim.run()
        trace, ticks, stats = sim._queue.trace, list(_TICKS), sim.stat_values()
        suffix = [entry for entry in trace if entry[0] > self.CUT]
        tick_suffix = [entry for entry in ticks if entry[0] > self.CUT]
        assert len(suffix) == 40 and len(tick_suffix) == 200 * 40 - 29 * 20

        _TICKS.clear()
        sim = build(lockstep_fabric(), seed=7)
        sim.run(max_time=self.CUT, finalize=False)
        (arbiter,) = sim._arbiters.values()
        assert arbiter._plan is not None
        clocks = capture_sim_state(sim)["meta"]["clocks"]
        assert [sorted(entry) for entry in clocks] == \
            [["active", "cycle", "name", "next_tick"]] * 200
        assert {(entry["cycle"], entry["active"], entry["next_tick"])
                for entry in clocks} == {(20, True, 21_000)}
        path = snapshot(sim, tmp_path / "snap")
        assert arbiter._plan is not None  # capture reads the derived views

        _TICKS.clear()
        resumed = restore(path)
        resumed._queue = RecordingQueue(resumed._queue, [])
        result = resumed.run()
        assert resumed._queue.trace == suffix
        assert _TICKS == tick_suffix
        assert resumed.stat_values() == stats
        assert (result.reason, result.end_time) == (cold.reason, cold.end_time)

        _TICKS.clear()
        resumed = restore(path, ranks=2)
        try:
            assert resumed.checkpoint_lineage["mode"] == "repartition"
            traces = []
            for rank in range(2):
                rank_sim = resumed.rank_sim(rank)
                rank_sim._queue = RecordingQueue(rank_sim._queue, [])
                traces.append(rank_sim._queue.trace)
            resumed.run()
            assert resumed.stat_values() == stats
        finally:
            resumed.close()
        # Each rank's arbiter pops every remaining boundary (sequence
        # numbers are renumbered by a repartition) and every clock ticks
        # exactly as in the uninterrupted run.
        boundaries = [(t, prio, kind) for t, prio, _seq, kind in suffix]
        for rank_trace in traces:
            assert [(t, prio, kind) for t, prio, _seq, kind in rank_trace] \
                == boundaries
        by_clock = sorted(tick_suffix, key=lambda entry: entry[1])
        assert sorted(_TICKS, key=lambda entry: entry[1]) == by_clock
