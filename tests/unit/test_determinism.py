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
* arbiter ablation: arbiter-on and arbiter-off runs of one sequential
  simulation agree on everything observable — stats, end time, executed
  events, and the ordered non-tick event sequence — even though their
  internal tick bookkeeping records differ by design;
* checkpoint/resume (PR 5): a run segmented by engine snapshots pops
  the *same* ``(time, priority, seq)`` sequence as an uninterrupted
  one, and a run resumed from a snapshot pops exactly the suffix the
  uninterrupted run would have popped after the snapshot time — the
  repro.ckpt exactness contract, sequential and parallel.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigGraph, build, build_parallel
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


def run_parallel_traced(backend: str, clock_arbiter: bool = True):
    """One 2-rank run; returns (per-rank traces, stats, result tuple)."""
    psim = build_parallel(mixed_graph(), 2, strategy="round_robin",
                          seed=7, backend=backend,
                          clock_arbiter=clock_arbiter)
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


class TestArbiterAblationEquivalence:
    def test_sequential_observables_identical(self):
        """Arbiter on vs off: same stats, end time, executed-event count
        and ordered non-tick event stream.  Raw (seq) values differ by
        design — the arbiter collapses N tick records into one — so the
        comparison filters the internal tick bookkeeping."""

        def run(arbiter_on: bool):
            sim = build(mixed_graph(), seed=7, clock_arbiter=arbiter_on)
            sim._queue = RecordingQueue(sim._queue, [])
            result = sim.run()
            ticks = ("_ClockTickEvent", "_ArbiterTickEvent")
            visible = [(t, prio, name)
                       for (t, prio, _seq, name) in sim._queue.trace
                       if name not in ticks]
            return (sim.stat_values(), result.reason, result.end_time,
                    result.events_executed, visible)

        on = run(True)
        off = run(False)
        assert on == off

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_parallel_stats_match_arbiter_off(self, backend):
        """Every backend lands on the pre-arbiter stats."""
        baseline = run_parallel_traced(backend, clock_arbiter=False)[1]
        assert run_parallel_traced(backend)[1] == baseline


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

    def test_binned_era_snapshot_resumes_bit_identically(self, tmp_path):
        """Snapshots once recorded their queue kind, and a since-deleted
        binned queue held the same (time, priority, seq, handler, event)
        tuples as the heap: restore ignores the field and resumes the
        exact suffix."""
        import json

        from repro.ckpt import restore, snapshot, snapshot_info

        trace, stats, cold = self._sequential_reference()
        sim = build(mixed_graph(), seed=7)
        sim.run(max_time=cold.end_time // 2, finalize=False)
        path = snapshot(sim, tmp_path / "binned-era")
        manifest_path = path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["queue"] = "binned"
        manifest_path.write_text(json.dumps(manifest))
        cut = snapshot_info(path)["sim_time_ps"]
        resumed = restore(path)
        resumed._queue = RecordingQueue(resumed._queue, [])
        result = resumed.run()
        suffix = [entry for entry in trace if entry[0] > cut]
        assert suffix
        assert resumed._queue.trace == suffix
        assert resumed.stat_values() == stats
        assert (result.reason, result.end_time) == (cold.reason, cold.end_time)

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
