"""Tests for repro.ckpt: engine-level checkpoint/restore.

The subsystem contract under test:

* sequential and parallel checkpointed runs are observationally
  identical to uninterrupted runs (full bit-identity is pinned in
  test_determinism.py; here we pin stats and end state);
* snapshots restore across execution backends and across rank counts
  (exact restores resume the same layout, repartition restores rebuild
  a different one with stats-equivalent results);
* committed snapshots are validated on the way in — a missing
  manifest, a corrupt shard or a mismatched config-graph hash is a
  :class:`CheckpointError`, never silent corruption;
* warm-started sweeps reproduce cold-sweep results exactly;
* the ``python -m repro ckpt`` CLI round-trips info/resume.
"""

from __future__ import annotations

import json

import pytest

from repro.ckpt import (CheckpointError, replay, restore, snapshot,
                        snapshot_info, snapshot_parallel)
from repro.config import ConfigGraph, build, build_parallel
from repro.core.backends import BACKENDS

ALL_BACKENDS = sorted(BACKENDS)


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
        assert info["schema"] == "repro-ckpt/1"
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


    def test_deleted_strategy_restores_through_recorded_pins(self, tmp_path):
        """A manifest naming a since-deleted strategy (``kl``) restores
        wherever the layout is pinned; a rebuild that needs the
        strategy to place components fails by name."""
        stats, cold = cold_reference()
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
        for kwargs in ({}, {"ranks": 1},
                       {"assignment": manifest["assignment"]}):
            resumed = restore(path, **kwargs)
            try:
                result = resumed.run()
                assert resumed.stat_values() == stats, kwargs
                assert result.end_time == cold.end_time
            finally:
                close = getattr(resumed, "close", None)
                if close:
                    close()
        with pytest.raises(CheckpointError, match="strategy 'kl'"):
            restore(path, ranks=3)


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

    def test_wrong_schema_rejected(self, tmp_path):
        path = self._snapshot(tmp_path)
        manifest = json.loads((path / "MANIFEST.json").read_text())
        manifest["schema"] = "repro-ckpt/999"
        (path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="schema"):
            restore(path)


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
        assert info["schema"] == "repro-ckpt/1" and info["intact"]
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
