"""Tests for repro.ckpt: engine-level checkpoint/restore.

The subsystem contract under test:

* sequential and parallel checkpointed runs are observationally
  identical to uninterrupted runs (full bit-identity is pinned in
  test_determinism.py; here we pin stats and end state);
* snapshots restore across execution backends and across rank counts
  (exact restores resume the same layout, repartition restores rebuild
  a different one with stats-equivalent results);
* committed snapshots are validated on the way in — a missing
  manifest, a corrupt shard, a mismatched config-graph hash or any
  schema but :data:`SNAPSHOT_SCHEMA` is a :class:`CheckpointError`,
  never silent corruption;
* on random graphs, strategies and cut times, a resumed run pops
  exactly the uninterrupted run's suffix;
* finish hooks follow the documented rule across a limit stop;
* warm-started sweeps reproduce cold-sweep results exactly;
* the ``python -m repro ckpt`` CLI round-trips info/resume.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dse
from repro.ckpt import (SNAPSHOT_SCHEMA, CheckpointError, replay, restore,
                        snapshot, snapshot_info, snapshot_parallel)
from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, register
from repro.core.backends import BACKENDS
from repro.core.event import IdSource
from repro.core.partition import STRATEGIES
from repro.miniapps import build_app_machine
from tests.unit.test_determinism import RecordingQueue

ALL_BACKENDS = sorted(BACKENDS)

#: what a refusal of a ``repro-ckpt/1`` snapshot says: both schemas
OLD_SCHEMA_REFUSED = re.escape(f"'repro-ckpt/1' (this engine reads "
                               f"'{SNAPSHOT_SCHEMA}')")


def stamp_schema(path, schema, shard=None, **fields):
    """Rewrite snapshot ``path``'s manifest schema (and ``fields``).

    With ``shard`` bytes, shard 0 is replaced too and its checksum
    updated, so only the schema check stands between a restore and
    unpickling them.
    """
    manifest_path = path / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(fields, schema=schema)
    if shard is not None:
        entry = manifest["shards"][0]
        (path / entry["file"]).write_bytes(shard)
        entry.update(sha256=hashlib.sha256(shard).hexdigest(),
                     size=len(shard))
    manifest_path.write_text(json.dumps(manifest))


def small_graph() -> ConfigGraph:
    """Clocked + link-event workload, cross-rank traffic when split."""
    graph = ConfigGraph("ckpt-mixed")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": 30})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="3ns")
    graph.component("src", "testlib.Source", {"count": 20, "period": "2ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "in", latency="4ns")
    for i in range(2):
        graph.component(f"clk{i}", "testlib.Clocked",
                        {"clock": "1GHz", "n_ticks": 90})
    graph.component("slow", "testlib.Clocked",
                    {"clock": "500MHz", "n_ticks": 45})
    return graph


def cold_reference():
    sim = build(small_graph(), seed=7)
    result = sim.run()
    return sim.stat_values(), result


class TestSequentialCheckpoint:
    def test_checkpointed_run_matches_cold(self, tmp_path):
        stats, cold = cold_reference()
        sim = build(small_graph(), seed=7)
        result = sim.run(checkpoint_every=cold.end_time // 4,
                         checkpoint_dir=str(tmp_path))
        assert sim.stat_values() == stats
        assert (result.reason, result.end_time, result.events_executed) == \
            (cold.reason, cold.end_time, cold.events_executed)
        assert len(sim.checkpoints_written) >= 3

    def test_restore_resumes_to_identical_stats(self, tmp_path):
        stats, cold = cold_reference()
        sim = build(small_graph(), seed=7)
        sim.run(checkpoint_every=cold.end_time // 4,
                checkpoint_dir=str(tmp_path))
        mid = sim.checkpoints_written[1]
        resumed = restore(mid)
        assert resumed.checkpoint_lineage["mode"] == "exact"
        assert resumed.now == snapshot_info(mid)["sim_time_ps"]
        result = resumed.run()
        assert resumed.stat_values() == stats
        assert result.end_time == cold.end_time

    def test_explicit_snapshot_and_info(self, tmp_path):
        sim = build(small_graph(), seed=7)
        sim.run(max_time="50ns", finalize=False)
        path = snapshot(sim, tmp_path / "snap")
        info = snapshot_info(path)
        assert info["schema"] == "repro-ckpt/8"
        assert info["mode"] == "sequential"
        assert info["num_ranks"] == 1
        assert info["sim_time_ps"] == sim.now
        assert info["intact"] and info["files"][0]["status"] == "ok"

    def test_replay_produces_event_trace(self, tmp_path):
        stats, _cold = cold_reference()
        sim = build(small_graph(), seed=7)
        sim.run(max_time="80ns", finalize=False)
        path = snapshot(sim, tmp_path / "snap")
        replayed, result, trace = replay(path)
        assert result.reason == "exit"
        assert replayed.stat_values() == stats
        assert trace and all(len(entry) == 3 for entry in trace)
        times = [t for (t, _h, _e) in trace]
        assert times == sorted(times)
        # Labels are tracelog.describe_handler's: ports as component.port,
        # each arbiter member tick as its own clock.
        labels = {label for (_t, label, _e) in trace}
        assert {"ping.io", "clock:clk0.clock", "clock:slow.clock"} <= labels


class TestParallelCheckpoint:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_snapshot_restores_across_backends(self, backend, tmp_path):
        """A snapshot taken on any backend restores under serial (and
        the checkpointed run itself matches the cold reference)."""
        stats, cold = cold_reference()
        psim = build_parallel(small_graph(), 2, strategy="round_robin",
                              seed=7, backend=backend)
        try:
            result = psim.run(checkpoint_every=cold.end_time // 3,
                              checkpoint_dir=str(tmp_path / backend))
            assert psim.stat_values() == stats
            assert result.end_time == cold.end_time
            written = list(psim.checkpoints_written)
            assert written
        finally:
            psim.close()
        resumed = restore(written[0], backend="serial")
        try:
            resumed.run()
            assert resumed.stat_values() == stats
        finally:
            resumed.close()

    def test_restore_across_rank_counts(self, tmp_path):
        """4-rank snapshot -> 2-rank and sequential repartition restores
        all land on the cold-reference statistics."""
        stats, _cold = cold_reference()
        psim = build_parallel(small_graph(), 4, strategy="round_robin",
                              seed=7)
        try:
            psim.run(max_time="60ns")
            path = snapshot_parallel(psim, tmp_path / "snap4")
        finally:
            psim.close()
        for ranks in (2, 1):
            resumed = restore(path, ranks=ranks)
            try:
                assert resumed.checkpoint_lineage["mode"] == "repartition"
                resumed.run()
                assert resumed.stat_values() == stats, ranks
            finally:
                close = getattr(resumed, "close", None)
                if close:
                    close()

    def test_exact_parallel_restore_is_exact(self, tmp_path):
        stats, cold = cold_reference()
        psim = build_parallel(small_graph(), 2, strategy="round_robin",
                              seed=7)
        try:
            psim.run(max_time="60ns")
            path = snapshot_parallel(psim, tmp_path / "snap2")
        finally:
            psim.close()
        resumed = restore(path)
        try:
            assert resumed.checkpoint_lineage["mode"] == "exact"
            result = resumed.run()
            assert resumed.stat_values() == stats
            assert result.end_time == cold.end_time
        finally:
            resumed.close()

    @staticmethod
    def _exit_graph():
        """A ping-pong exit at 1.1 ns; the source's last token would
        arrive at 1.3 ns, inside the window the exit ends."""
        graph = ConfigGraph("exit-epoch")
        graph.component("ping", "testlib.PingPong",
                        {"initiator": True, "n_round_trips": 1})
        graph.component("pong", "testlib.PingPong", {})
        graph.link("ping", "io", "pong", "io", latency="500ps")
        graph.component("src", "testlib.Source",
                        {"count": 4, "period": "200ps"})
        graph.component("sink", "testlib.Sink", {})
        graph.link("src", "out", "sink", "in", latency="500ps")
        return graph

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_no_snapshot_of_the_exit_epoch(self, backend, tmp_path):
        """The epoch that ends a run by exit writes no periodic
        snapshot (a resume from it would run past the exit); the
        snapshots written before it resume to the uninterrupted
        statistics."""
        reference = build_parallel(self._exit_graph(), 2,
                                   strategy="round_robin", seed=5)
        cold = reference.run()
        stats = reference.stat_values()
        reference.close()
        assert (cold.reason, cold.end_time, cold.epochs) == ("exit", 1100, 2)
        psim = build_parallel(self._exit_graph(), 2, strategy="round_robin",
                              seed=5, backend=backend)
        try:
            psim.run(checkpoint_every="100ps", checkpoint_dir=str(tmp_path))
            written = list(psim.checkpoints_written)
        finally:
            psim.close()
        assert [snapshot_info(path)["sim_time_ps"] for path in written] == \
            [699]
        resumed = restore(written[0])
        try:
            resumed.run()
            assert resumed.stat_values() == stats
        finally:
            resumed.close()

    def test_checkpoint_marks_step_over_a_wide_window(self, tmp_path):
        """Without cross-rank links the one window reaches the end of
        time; the next checkpoint mark is computed past it, not walked
        to in interval steps."""
        psim = build_parallel(self._exit_graph(), 2, strategy="linear",
                              seed=5)
        try:
            assert psim.cross_link_count == 0
            result = psim.run(checkpoint_every="1ps",
                              checkpoint_dir=str(tmp_path))
        finally:
            psim.close()
        assert result.reason == "exit"

    def test_deleted_strategy_is_refused_on_every_restore_path(self,
                                                               tmp_path):
        """A manifest naming a strategy the engine does not have (the
        deleted ``kl``) is refused by name wherever it is restored: at
        its own ranks, fully pinned, re-partitioned, or replayed."""
        psim = build_parallel(small_graph(), 2, strategy="round_robin",
                              seed=7)
        try:
            psim.run(max_time="60ns")
            path = snapshot_parallel(psim, tmp_path / "snap2")
        finally:
            psim.close()
        manifest = json.loads((path / "MANIFEST.json").read_text())
        manifest["partition_strategy"] = "kl"
        (path / "MANIFEST.json").write_text(json.dumps(manifest))
        for kwargs in ({}, {"ranks": 1}, {"ranks": 3},
                       {"assignment": manifest["assignment"]}):
            with pytest.raises(CheckpointError, match="strategy 'kl'"):
                restore(path, **kwargs)
        with pytest.raises(CheckpointError, match="strategy 'kl'"):
            replay(path)


class TestSnapshotValidation:
    def _snapshot(self, tmp_path):
        sim = build(small_graph(), seed=7)
        sim.run(max_time="50ns", finalize=False)
        return snapshot(sim, tmp_path / "snap")

    def test_uncommitted_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CheckpointError, match="not a committed"):
            restore(tmp_path / "empty")

    def test_corrupted_shard_rejected(self, tmp_path):
        path = self._snapshot(tmp_path)
        shard = path / "shard-0000.pkl"
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        shard.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt"):
            restore(path)
        info = snapshot_info(path)
        assert not info["intact"]
        assert info["files"][0]["status"] == "corrupt"

    def test_missing_shard_detected(self, tmp_path):
        path = self._snapshot(tmp_path)
        (path / "shard-0000.pkl").unlink()
        assert snapshot_info(path)["files"][0]["status"] == "missing"
        with pytest.raises(CheckpointError):
            restore(path)

    def test_wrong_graph_hash_rejected(self, tmp_path):
        path = self._snapshot(tmp_path)
        manifest = json.loads((path / "MANIFEST.json").read_text())
        manifest["graph_hash"] = "0" * 16
        (path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="hash"):
            restore(path)

    @pytest.mark.parametrize("surface", ["restore", "replay", "ckpt-info"])
    @pytest.mark.parametrize("schema", ["repro-ckpt/1", "repro-ckpt/2",
                                        "repro-ckpt/3", "repro-ckpt/4",
                                        "repro-ckpt/5", "repro-ckpt/6",
                                        "repro-ckpt/7", "repro-ckpt/999"])
    def test_wrong_schema_rejected(self, tmp_path, capsys, schema, surface):
        """Any schema but the engine's is refused before a shard is
        unpickled (this shard is not even a pickle), with one
        CheckpointError naming both schemas."""
        from repro.__main__ import main

        path = self._snapshot(tmp_path)
        stamp_schema(path, schema, shard=b"not a pickle")
        message = re.escape(f"{schema!r} (this engine reads "
                            f"{SNAPSHOT_SCHEMA!r})")
        if surface == "ckpt-info":
            assert main(["ckpt", "info", str(path)]) == 1
            assert re.search(message, capsys.readouterr().err)
        else:
            load = {"restore": restore, "replay": replay}[surface]
            with pytest.raises(CheckpointError, match=message):
                load(path)


# ----------------------------------------------------------------------
# property: a resume at a random cut pops the uninterrupted suffix
# ----------------------------------------------------------------------

@st.composite
def random_graphs(draw):
    """A random graph over the testlib types: ping-pong pairs, source →
    sink pairs (at least one pair) and clocked tickers, with random
    parameters and link latencies."""
    graph = ConfigGraph("ckpt-random")

    def latency():
        return f"{draw(st.integers(500, 6000))}ps"

    pingpongs = draw(st.integers(0, 2))
    for i in range(pingpongs):
        graph.component(f"ping{i}", "testlib.PingPong",
                        {"initiator": True,
                         "n_round_trips": draw(st.integers(1, 25))})
        graph.component(f"pong{i}", "testlib.PingPong", {})
        graph.link(f"ping{i}", "io", f"pong{i}", "io", latency=latency())
    for i in range(draw(st.integers(0 if pingpongs else 1, 2))):
        graph.component(f"src{i}", "testlib.Source",
                        {"count": draw(st.integers(1, 25)),
                         "period": f"{draw(st.integers(200, 4000))}ps"})
        graph.component(f"sink{i}", "testlib.Sink", {})
        graph.link(f"src{i}", "out", f"sink{i}", "in", latency=latency())
    for i in range(draw(st.integers(0, 3))):
        graph.component(f"clk{i}", "testlib.Clocked",
                        {"clock": draw(st.sampled_from(
                            ["2GHz", "1GHz", "500MHz", "250MHz"])),
                         "n_ticks": draw(st.integers(1, 80))})
    return graph


def _close(engine):
    getattr(engine, "close", lambda: None)()


def _traced(engine):
    """Install a RecordingQueue on every in-process rank; returns the
    per-rank traces (a processes worker rank's stays empty)."""
    sims = ([engine] if not hasattr(engine, "rank_sim") else
            [engine.rank_sim(rank) for rank in range(engine.num_ranks)])
    for sim in sims:
        sim._queue = RecordingQueue(sim._queue, [])
    return [sim._queue.trace for sim in sims]


def check_random_cut(mode, graph, strategy, fraction, root):
    """Run ``graph`` uninterrupted and checkpointed on ``mode``
    (``sequential`` or a 2-rank backend), resume the first snapshot at
    or after ``fraction`` of the run and compare pop traces and stats."""

    def make(backend):
        if mode == "sequential":
            return build(graph, seed=5)
        return build_parallel(graph, 2, strategy=strategy, seed=5,
                              backend=backend)

    reference = make("serial")
    traces = _traced(reference)
    end_time = reference.run().end_time
    stats = reference.stat_values()
    _close(reference)

    checkpointed = make(mode)
    try:
        checkpointed.run(checkpoint_every=max(1, int(end_time * fraction)),
                         checkpoint_dir=str(root))
        assert checkpointed.stat_values() == stats
        written = list(checkpointed.checkpoints_written)
    finally:
        _close(checkpointed)
    if not written:  # the run exited in the epoch that reached the mark
        return
    cut = snapshot_info(written[0])["sim_time_ps"]
    resumed = (restore(written[0]) if mode == "sequential"
               else restore(written[0], backend=mode))
    resumed_traces = _traced(resumed)
    try:
        resumed.run()
        assert resumed.stat_values() == stats
    finally:
        _close(resumed)
    observed = 1 if mode == "processes" else len(traces)
    for rank in range(observed):
        suffix = [entry for entry in traces[rank] if entry[0] > cut]
        assert resumed_traces[rank] == suffix, rank


@pytest.mark.parametrize("mode", ["sequential", "serial", "processes"])
@settings(max_examples=30, deadline=None)
@given(graph=random_graphs(), strategy=st.sampled_from(STRATEGIES),
       fraction=st.floats(0.05, 0.9))
def test_random_cut_resumes_exact_suffix(tmp_path_factory, mode, graph,
                                         strategy, fraction):
    check_random_cut(mode, graph, strategy, fraction,
                     tmp_path_factory.mktemp("ckpt"))


@register("testlib.FinishCounter")
class FinishCounter(Component):
    """Adds one to ``finish_calls`` on every ``finish()`` call."""

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.calls = self.stats.counter("finish_calls")

    def finish(self):
        self.calls.add()


class TestFinishHooksAcrossLimitStop:
    """The finish-hook rule across a limit stop (docs/CHECKPOINT.md),
    pinned as it stands: a run stopped by ``max_time`` with the default
    ``finalize=True`` runs the finish hooks once, and running the same
    engine on does not rerun them.  A snapshot taken after the stop
    carries their effects, and an engine restored from it runs them
    again when it finishes — so a hook that adds on every call ends one
    call ahead of the uninterrupted run."""

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_rule(self, tmp_path, ranks):
        graph = small_graph()
        graph.component("fin", "testlib.FinishCounter", {})

        def make():
            if ranks == 1:
                return build(graph, seed=7)
            return build_parallel(graph, ranks, strategy="round_robin",
                                  seed=7, backend="serial")

        def calls(engine):
            return engine.stat_values()["fin.finish_calls"]

        cold = make()
        cold.run()
        stats = cold.stat_values()
        _close(cold)
        assert stats["fin.finish_calls"] == 1

        stopped = make()
        assert stopped.run(max_time="60ns").reason == "max_time"
        assert calls(stopped) == 1
        path = (snapshot(stopped, tmp_path / "after-stop") if ranks == 1
                else snapshot_parallel(stopped, tmp_path / "after-stop"))
        stopped.run()
        assert stopped.stat_values() == stats
        _close(stopped)

        resumed = restore(path)
        assert calls(resumed) == 1
        resumed.run()
        assert calls(resumed) == 2
        assert resumed.stat_values() == {**stats, "fin.finish_calls": 2}
        _close(resumed)


class TestIdSourceCounters:
    """``IdSource.capture_all``/``restore_all``: the counters a snapshot
    carries in every shard's meta."""

    @pytest.fixture
    def counters(self):
        made = [IdSource("test.ckpt_a"), IdSource("test.ckpt_b", start=100)]
        yield made
        for source in made:
            del IdSource._registry[source.name]

    def test_exact_restore(self, counters):
        a, b = counters
        next(a), next(b), next(b)
        captured = IdSource.capture_all()
        assert (captured["test.ckpt_a"], captured["test.ckpt_b"]) == (2, 102)
        next(a), next(b)
        IdSource.restore_all(captured)
        assert (next(a), next(b)) == (2, 102)

    def test_merge_max_only_moves_forward(self, counters):
        a, b = counters
        for _ in range(5):
            next(a)
        IdSource.restore_all({"test.ckpt_a": 3, "test.ckpt_b": 150},
                             merge_max=True)
        assert (a.peek(), b.peek()) == (6, 150)

    def test_unknown_name_is_ignored_not_registered(self, counters):
        a, _b = counters
        IdSource.restore_all({"test.ckpt_unloaded": 7, "test.ckpt_a": 9})
        assert "test.ckpt_unloaded" not in IdSource.capture_all()
        assert a.peek() == 9


class TestWarmStartSweep:
    def test_warm_sweep_matches_cold(self, tmp_path):
        from repro.dse import sweep

        kwargs = dict(instructions=60_000, seed=3)
        cold = sweep(["hpccg"], [2], ["DDR3-1066"], **kwargs)
        warm1 = sweep(["hpccg"], [2], ["DDR3-1066"], warm_start="20us",
                      warm_dir=tmp_path, **kwargs)
        # The first warm sweep simulated the prefix and snapshotted it.
        snaps = list(tmp_path.glob("warm-*/MANIFEST.json"))
        assert len(snaps) == 1
        warm2 = sweep(["hpccg"], [2], ["DDR3-1066"], warm_start="20us",
                      warm_dir=tmp_path, **kwargs)
        assert cold.points == warm1.points == warm2.points

    def test_schema_keys_the_warm_cache(self, tmp_path, monkeypatch):
        import repro.ckpt
        from repro.dse import _warm_snapshot_path, design_point_graph

        graph = design_point_graph("hpccg", issue_width=2,
                                   technology="DDR3-1066",
                                   instructions=60_000)
        path = _warm_snapshot_path(tmp_path, graph, 3, 20_000_000)
        assert path == _warm_snapshot_path(tmp_path, graph, 3, 20_000_000)
        monkeypatch.setattr(repro.ckpt, "SNAPSHOT_SCHEMA", "repro-ckpt/1")
        assert _warm_snapshot_path(tmp_path, graph, 3, 20_000_000) != path

    def test_stale_schema_warm_cache_is_recomputed(self, tmp_path,
                                                   monkeypatch):
        """A warm dir written by an engine of an older snapshot format
        is not restored (the engine would refuse it): the sweep
        simulates the prefix again and returns the cold results."""
        import importlib

        import repro.ckpt
        from repro.dse import sweep

        writer = importlib.import_module("repro.ckpt.snapshot")

        kwargs = dict(instructions=60_000, seed=3, warm_start="20us",
                      warm_dir=tmp_path)
        cold = sweep(["hpccg"], [2], ["DDR3-1066"], instructions=60_000,
                     seed=3)
        with monkeypatch.context() as older:
            older.setattr(repro.ckpt, "SNAPSHOT_SCHEMA", "repro-ckpt/1")
            older.setattr(writer, "SNAPSHOT_SCHEMA", "repro-ckpt/1")
            sweep(["hpccg"], [2], ["DDR3-1066"], **kwargs)
        (stale,) = tmp_path.glob("warm-*")
        with pytest.raises(CheckpointError, match=OLD_SCHEMA_REFUSED):
            restore(stale)
        warm = sweep(["hpccg"], [2], ["DDR3-1066"], **kwargs)
        assert warm.points == cold.points
        assert len(list(tmp_path.glob("warm-*/MANIFEST.json"))) == 2

    def test_warm_start_requires_dir(self):
        from repro.dse import run_design_point, sweep

        with pytest.raises(ValueError, match="warm_dir"):
            run_design_point("hpccg", instructions=10_000, warm_start="1us")
        with pytest.raises(ValueError, match="warm_dir"):
            sweep(["hpccg"], [2], ["DDR3-1066"], instructions=10_000,
                  warm_start="1us")


class TestCkptCli:
    def test_info_and_resume_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.config import save

        cfg = tmp_path / "machine.json"
        save(small_graph(), cfg)
        ckpt_dir = tmp_path / "ckpts"
        assert main(["run", str(cfg), "--seed", "7",
                     "--checkpoint-every", "50ns",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        snaps = sorted(ckpt_dir.glob("ckpt-*"))
        assert snaps
        capsys.readouterr()
        assert main(["ckpt", "info", str(snaps[0])]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["schema"] == "repro-ckpt/8" and info["intact"]
        stats_json = tmp_path / "final.json"
        assert main(["ckpt", "resume", str(snaps[0]),
                     "--stats-json", str(stats_json)]) == 0
        payload = json.loads(stats_json.read_text())
        stats, cold = cold_reference()
        assert payload["reason"] == "exit"
        assert payload["end_time_ps"] == cold.end_time
        assert payload["stats"] == {k: stats[k] for k in stats}

    def test_info_reports_corruption(self, tmp_path, capsys):
        from repro.__main__ import main

        sim = build(small_graph(), seed=7)
        sim.run(max_time="50ns", finalize=False)
        path = snapshot(sim, tmp_path / "snap")
        shard = path / "shard-0000.pkl"
        blob = bytearray(shard.read_bytes())
        blob[0] ^= 0xFF
        shard.write_bytes(bytes(blob))
        assert main(["ckpt", "info", str(path)]) == 1
        capsys.readouterr()
        assert main(["ckpt", "resume", str(path)]) == 1
        assert "corrupt" in capsys.readouterr().err


#: the two benchmark model paths whose handlers hold what they send
#: through: MixCore reads its ``mem`` endpoint per block, each
#: NodeMemory handler closes over its Port, and every torus Router's
#: route memo (``save=False``) holds the output endpoint
HELD_ENDPOINT_MACHINES = {
    "design-point-4core": lambda: dse.design_point_graph(
        "hpccg", issue_width=2, technology="GDDR5",
        instructions=3_000_000, n_cores=4),
    "hpccg-torus-16": lambda: build_app_machine(
        "miniapps.HPCCG", 16, iterations=2, name="hpccg"),
}


class TestHeldEndpointsResume:
    """A resumed run sends through the rebuilt engine's endpoints: a
    periodic snapshot of either machine, restored, ends with the
    uninterrupted run's statistics, sequentially and on 2 process
    ranks."""

    @pytest.mark.parametrize("mode", ["sequential", "processes"])
    @pytest.mark.parametrize("machine", sorted(HELD_ENDPOINT_MACHINES))
    def test_checkpointed_resume_ends_with_cold_stats(self, tmp_path,
                                                      machine, mode):
        graph = HELD_ENDPOINT_MACHINES[machine]
        cold = build(graph(), seed=11)
        end_time = cold.run().end_time
        stats = cold.stat_values()
        if mode == "sequential":
            checkpointed = build(graph(), seed=11)
        else:
            checkpointed = build_parallel(graph(), 2, strategy="bfs",
                                          seed=11, backend=mode)
        try:
            checkpointed.run(checkpoint_every=end_time // 3,
                             checkpoint_dir=str(tmp_path))
            assert checkpointed.stat_values() == stats
            written = list(checkpointed.checkpoints_written)
        finally:
            _close(checkpointed)
        assert written
        for path in written:
            resumed = restore(path)
            try:
                resumed.run()
                assert resumed.stat_values() == stats, path
            finally:
                _close(resumed)
