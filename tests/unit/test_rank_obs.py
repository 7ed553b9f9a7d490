"""Tests for rank-local telemetry: per-rank streams, cross-rank trace
merge, and sync/load-imbalance diagnostics.

The load-bearing property: observability output is equal across both
execution backends.  Every backend steps its ranks through a
``RankRunner``, and every instrument reaches a parallel run's ranks
only through the rank plan (per-rank JSONL shards, harvested profile
buckets and rank records) — these tests pin that serial and processes
runs record the same thing.
"""

import json
import warnings as _warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigGraph, build_parallel, save
from repro.core import Component, register
from repro.core.backends import BACKENDS, RankObservabilityWarning
from repro.obs import (ChromeTraceExporter, HandlerProfiler,
                       TelemetryRecorder, analyze)
from repro.obs.merge import RunArtifacts, find_rank_shards, merge_trace

ALL_BACKENDS = sorted(BACKENDS)


def traffic_graph(rounds=40, count=30):
    """A partitionable graph with cross-rank traffic on every backend."""
    graph = ConfigGraph("rank-obs")
    for i in range(2):
        graph.component(f"src{i}", "testlib.Source",
                        {"count": count, "period": "2ns"})
        graph.component(f"sink{i}", "testlib.Sink", {})
        graph.link(f"src{i}", "out", f"sink{i}", "in", latency="5ns")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": rounds})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="7ns")
    return graph


def run_with_metrics(tmp_path, backend, *, name="m.jsonl", seed=9,
                     ranks=2, sample_every=5, profile=False, chrome=False):
    """One instrumented parallel run; returns (metrics_path, extras)."""
    psim = build_parallel(traffic_graph(), ranks, strategy="round_robin",
                          seed=seed, backend=backend)
    metrics = tmp_path / name
    telemetry = TelemetryRecorder(metrics, sample_every_events=sample_every)
    telemetry.attach(psim)
    profiler = HandlerProfiler(psim) if profile else None
    exporter = ChromeTraceExporter() if chrome else None
    if exporter is not None:
        exporter.attach(psim)
    result = psim.run()
    manifest = telemetry.finalize(result)
    if exporter is not None:
        exporter.detach()
    return metrics, {"result": result, "manifest": manifest,
                     "profiler": profiler, "exporter": exporter,
                     "psim": psim}


class TestRankShards:
    def test_processes_run_writes_one_shard_per_rank(self, tmp_path):
        metrics, extras = run_with_metrics(tmp_path, "processes")
        shards = find_rank_shards(metrics)
        assert sorted(shards) == [0, 1]
        for rank, shard in shards.items():
            records = [json.loads(line) for line in
                       shard.read_text().splitlines()]
            kinds = [r["kind"] for r in records]
            assert kinds[0] == "rank_start"
            assert kinds[-1] == "rank_end"
            assert "rank_epoch" in kinds
            assert all(r["rank"] == rank for r in records)
        start = records[0]
        assert start["schema"] == "repro-rank-stream/1"
        assert start["backend"] == "processes"
        assert start["ranks"] == 2

    def test_shard_epoch_events_match_run_totals(self, tmp_path):
        metrics, extras = run_with_metrics(tmp_path, "processes")
        total = 0
        for shard in find_rank_shards(metrics).values():
            for line in shard.read_text().splitlines():
                record = json.loads(line)
                if record["kind"] == "rank_epoch":
                    total += record["events"]
        assert total == extras["result"].events_executed

    def test_manifest_records_backend_ranks_and_shards(self, tmp_path):
        metrics, extras = run_with_metrics(tmp_path, "processes")
        manifest = extras["manifest"]
        telemetry = manifest["telemetry"]
        assert telemetry["backend"] == "processes"
        assert telemetry["ranks"] == 2
        assert len(telemetry["rank_shards"]) == 2
        assert set(telemetry["rank_records"]) == {"0", "1"}
        assert telemetry["rank_records"]["0"]["records"] > 0
        assert manifest["engine"]["sync"]["strategy"] == "conservative"
        # and the same inventory is in the on-disk copy
        on_disk = json.loads(
            metrics.with_name(metrics.name + ".manifest.json").read_text())
        assert on_disk["telemetry"] == telemetry

    def test_rank_counters_harvest_into_engine_stats(self, tmp_path):
        metrics, extras = run_with_metrics(tmp_path, "processes")
        merged = extras["psim"].sync_stats()
        assert merged["obs.rank_records"].count > 0
        # parent-maintained sync stats survived the adoption
        assert merged["sync.epochs"].count == 2 * extras["result"].epochs

    def test_rank_counts_are_per_run(self, tmp_path):
        """A manifest counts the records of this run's shards: two
        traced runs on one engine, then a traced resume of a snapshot,
        each report what their own shards hold, although the
        ``obs.rank_*`` engine counters carry over."""
        from repro.ckpt import restore, snapshot_parallel

        def traced(psim, name, **run_kwargs):
            metrics = tmp_path / name
            telemetry = TelemetryRecorder(metrics, sample_every_events=5)
            telemetry.attach(psim)
            manifest = telemetry.finalize(psim.run(**run_kwargs))
            for rank, shard in find_rank_shards(metrics).items():
                lines = shard.read_text().splitlines()
                report = manifest["telemetry"]["rank_records"][str(rank)]
                assert report["records"] == len(lines), (name, rank)
                end = json.loads(lines[-1])
                assert end["kind"] == "rank_end"
                assert end["records"] == len(lines) - 1, (name, rank)
                assert report["samples"] == sum(
                    json.loads(line)["kind"] == "rank_sample"
                    for line in lines), (name, rank)

        psim = build_parallel(traffic_graph(), 2, strategy="round_robin",
                              seed=9, backend="serial")
        try:
            traced(psim, "first.jsonl", max_time="100ns")
            traced(psim, "second.jsonl", max_time="200ns")
            path = snapshot_parallel(psim, tmp_path / "snap")
        finally:
            psim.close()
        resumed = restore(path)
        try:
            traced(resumed, "resumed.jsonl")
        finally:
            resumed.close()


class TestBackendEquivalence:
    def test_epoch_records_identical_shape_across_backends(self, tmp_path):
        streams = {}
        for backend in ALL_BACKENDS:
            metrics, _ = run_with_metrics(tmp_path, backend,
                                          name=f"{backend}.jsonl")
            epochs = RunArtifacts(metrics).epochs
            streams[backend] = [
                (e["epoch"], tuple(e["window_ps"]), e["events"],
                 e["exchanged"], tuple(e["per_rank_events"]))
                for e in epochs
            ]
        assert streams["serial"] == streams["processes"]

    def test_heartbeat_samples_delivered_on_every_backend(self, tmp_path):
        samples = {}
        for backend in ALL_BACKENDS:
            metrics, _ = run_with_metrics(tmp_path, backend,
                                          name=f"hb-{backend}.jsonl",
                                          sample_every=10)
            artifacts = RunArtifacts(metrics)
            samples[backend] = [
                (r["rank"], r["sim_ps"], r["events"], r["queued"])
                for records in artifacts.rank_records.values()
                for r in records if r["kind"] == "rank_sample"]
            assert {s[0] for s in samples[backend]} == {0, 1}, backend
        assert samples["serial"] == samples["processes"]

    def test_pathless_recorder_keeps_parent_stream_only(self):
        """Rank records need a metrics path: without one a processes
        run records the parent stream and no rank shards."""
        psim = build_parallel(traffic_graph(), 2, strategy="round_robin",
                              seed=9, backend="processes")
        telemetry = TelemetryRecorder(sample_every_events=10)
        telemetry.attach(psim)
        result = psim.run()
        manifest = telemetry.finalize(result)
        kinds = [r["kind"] for r in telemetry.records]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert set(kinds) == {"run_start", "epoch", "run_end"}
        assert kinds.count("epoch") == result.epochs
        assert manifest["telemetry"]["rank_shards"] == []
        assert "rank_records" not in manifest["telemetry"]

    def test_pathless_recorder_profiler_matches_serial(self):
        counts = {}
        for backend in ALL_BACKENDS:
            psim = build_parallel(traffic_graph(), 2, strategy="round_robin",
                                  seed=9, backend=backend)
            telemetry = TelemetryRecorder(sample_every_events=10)
            telemetry.attach(psim)
            profiler = HandlerProfiler(psim)
            telemetry.finalize(psim.run())
            counts[backend] = sorted(
                (row.rank, row.component, row.handler, row.event_type,
                 row.count) for row in profiler.rows())
        assert counts["processes"]
        assert counts["serial"] == counts["processes"]

    def test_profiler_counts_match_across_backends(self, tmp_path):
        counts = {}
        for backend in ALL_BACKENDS:
            metrics, extras = run_with_metrics(tmp_path, backend,
                                               name=f"prof-{backend}.jsonl",
                                               profile=True)
            rows = extras["profiler"].rows()
            assert {row.rank for row in rows} == {0, 1}, backend
            counts[backend] = sorted(
                (row.rank, row.component, row.handler, row.event_type,
                 row.count) for row in rows)
            assert sum(row.count for row in rows) == \
                extras["result"].events_executed, backend
        assert counts["serial"] == counts["processes"]


class TestObservabilityWarning:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_uncovered_observer_warns_once(self, backend):
        psim = build_parallel(traffic_graph(), 2, seed=9, backend=backend)
        seen = []
        psim.rank_sim(0).add_trace_observer(
            lambda t, h, e: seen.append(t))
        with pytest.warns(RankObservabilityWarning) as caught:
            psim.run()
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "rank 0" in message
        assert "obs merge" in message
        assert not seen  # detached for the run, wherever the rank ran
        # ...and put back afterwards
        assert psim.rank_sim(0).observers_installed

    def test_pathless_chrome_exporter_spans_arrive(self):
        spans = {}
        for backend in ALL_BACKENDS:
            psim = build_parallel(traffic_graph(), 2,
                                  strategy="round_robin", seed=9,
                                  backend=backend)
            exporter = ChromeTraceExporter().attach(psim)
            with _warnings.catch_warnings():
                _warnings.simplefilter("error", RankObservabilityWarning)
                result = psim.run()
            exporter.detach()
            handler = [e for e in exporter.trace_dict()["traceEvents"]
                       if e["ph"] == "X" and e["cat"] != "epoch"]
            assert len(handler) == result.events_executed, backend
            spans[backend] = sorted((e["pid"], e["name"], e["args"]["sim_ps"])
                                    for e in handler)
        assert {pid for pid, _, _ in spans["serial"]} == {0, 1}
        assert spans["serial"] == spans["processes"]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_span_cap_holds_per_run(self, backend, monkeypatch):
        """Each run's recorder keeps SPAN_LIMIT spans per rank, however
        many an earlier run on the same engine recorded."""
        monkeypatch.setattr("repro.obs.rank_stream.SPAN_LIMIT", 5)
        psim = build_parallel(traffic_graph(), 2, strategy="round_robin",
                              seed=9, backend=backend)
        for limit in ("100ns", None):
            exporter = ChromeTraceExporter().attach(psim)
            result = psim.run(max_time=limit)
            exporter.detach()
            spans = {rank: sum(r["kind"] == "span" for r in records)
                     for rank, records in exporter.records.items()}
            assert spans == {0: 5, 1: 5}, (backend, limit)
            assert exporter.dropped_events == result.events_executed - 10

    def test_plan_covered_instruments_do_not_warn(self, tmp_path):
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RankObservabilityWarning)
            for backend in ALL_BACKENDS:
                run_with_metrics(tmp_path, backend, name=f"{backend}.jsonl",
                                 profile=True, chrome=True)


class TestMerge:
    def test_merged_trace_has_rank_lanes_and_sync_lane(self, tmp_path):
        metrics, _ = run_with_metrics(tmp_path, "processes", chrome=True)
        trace = merge_trace(RunArtifacts(metrics))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {0, 1, 2}  # ranks + sync
        sync_spans = [e for e in spans if e["pid"] == 2]
        assert any(e["cat"] == "sync" for e in sync_spans)
        assert any("lookahead_ps" in e.get("args", {}) for e in sync_spans)
        rank_epochs = [e for e in spans
                       if e["pid"] in (0, 1) and e["cat"] == "epoch"]
        assert rank_epochs
        assert all(e["ts"] >= 0 for e in spans)
        # per-handler spans made it out of the workers and into lanes
        handler_spans = [e for e in spans
                        if e["pid"] in (0, 1) and e["cat"] != "epoch"]
        assert handler_spans
        assert trace["otherData"]["ranks"] == 2
        assert trace["otherData"]["backend"] == "processes"

    def test_merge_works_for_inprocess_backends_too(self, tmp_path):
        metrics, _ = run_with_metrics(tmp_path, "serial", chrome=True)
        artifacts = RunArtifacts(metrics)
        assert sorted(artifacts.shards) == [0, 1]
        trace = merge_trace(artifacts)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # true rank lanes from the serial run's own shards
        assert {0, 1}.issubset({e["pid"] for e in spans})
        assert not any(e.get("args", {}).get("synthesized") for e in spans)
        assert any(e["pid"] in (0, 1) and e["cat"] not in ("epoch", "sync")
                   for e in spans)

    def test_merge_deterministic_event_counts(self, tmp_path):
        """Same seed => identical merged per-rank event counts."""
        per_run = []
        for attempt in range(2):
            metrics, _ = run_with_metrics(tmp_path, "processes",
                                          name=f"det-{attempt}.jsonl")
            artifacts = RunArtifacts(metrics)
            per_rank = {}
            for rank, records in artifacts.rank_records.items():
                per_rank[rank] = sum(r["events"] for r in records
                                     if r["kind"] == "rank_epoch")
            per_run.append(per_rank)
        assert per_run[0] == per_run[1]
        assert sum(per_run[0].values()) > 0


class TestImbalance:
    def test_every_epoch_attributed_to_a_bounding_rank(self, tmp_path):
        metrics, extras = run_with_metrics(tmp_path, "processes")
        report = analyze(metrics)
        assert report.epochs == extras["result"].epochs
        assert len(report.attributions) == report.epochs
        assert report.attributions  # >= 1 epoch attributed
        assert all(a.bounding_rank in (0, 1) for a in report.attributions)
        assert sum(r.epochs_bounded for r in report.ranks) == report.epochs
        assert report.imbalance_factor >= 1.0
        assert report.events_skew >= 1.0
        critical = report.critical_rank
        assert critical is not None and critical.epochs_bounded > 0

    def test_rank_events_total_matches_run(self, tmp_path):
        metrics, extras = run_with_metrics(tmp_path, "serial")
        report = analyze(metrics)
        assert sum(r.events for r in report.ranks) == \
            extras["result"].events_executed

    def test_text_report_names_backend_and_ranks(self, tmp_path):
        metrics, _ = run_with_metrics(tmp_path, "processes")
        text = analyze(metrics).report()
        assert "backend=processes" in text
        assert "critical rank:" in text
        assert "imbalance factor:" in text
        payload = analyze(metrics).as_dict()
        assert payload["ranks"] == 2
        assert payload["per_epoch"]


class TestObsCli:
    def test_merge_imbalance_report_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        config = tmp_path / "machine.json"
        save(traffic_graph(), config)
        metrics = tmp_path / "cli.jsonl"
        assert main(["run", str(config), "--ranks", "2",
                     "--backend", "processes",
                     "--metrics", str(metrics)]) == 0
        assert main(["obs", "merge", str(metrics)]) == 0
        merged = metrics.with_name(metrics.name + ".trace.json")
        assert merged.exists()
        trace = json.loads(merged.read_text())
        assert trace["traceEvents"]
        assert main(["obs", "imbalance", str(metrics),
                     "--json", str(tmp_path / "imb.json")]) == 0
        assert json.loads((tmp_path / "imb.json").read_text())["per_epoch"]
        assert main(["obs", "report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "backend: processes" in out
        assert "rank shards:" in out


    def test_parallel_trace_chrome_lanes_are_obs_merge_lanes(self, tmp_path):
        """``run --trace-chrome`` on a parallel run writes the rank lanes
        ``obs merge`` builds from the shards of the same run."""
        from repro.__main__ import main

        config = tmp_path / "machine.json"
        save(traffic_graph(), config)
        metrics, chrome = tmp_path / "m.jsonl", tmp_path / "t.json"
        assert main(["run", str(config), "--ranks", "2",
                     "--backend", "processes", "--metrics", str(metrics),
                     "--trace-chrome", str(chrome)]) == 0
        merged = tmp_path / "merged.json"
        assert main(["obs", "merge", str(metrics), "-o", str(merged)]) == 0

        def rank_lanes(path):
            events = json.loads(path.read_text())["traceEvents"]
            lanes = {(e["pid"], e["tid"]): e["args"]["name"]
                     for e in events
                     if e["ph"] == "M" and e["name"] == "thread_name"}
            return sorted((e["pid"], lanes[e["pid"], e["tid"]], e["name"],
                           e["cat"], e["args"].get("sim_ps"), e["dur"])
                          for e in events
                          if e["ph"] == "X" and e["pid"] in (0, 1))

        lanes = rank_lanes(chrome)
        assert {cat for _, _, _, cat, _, _ in lanes} > {"epoch"}
        assert lanes == rank_lanes(merged)

    def test_merge_warns_once_for_a_missing_shard(self, tmp_path, capsys):
        from repro.__main__ import main

        metrics, _ = run_with_metrics(tmp_path, "serial")
        find_rank_shards(metrics)[1].unlink()
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            assert main(["obs", "merge", str(metrics)]) == 0
        missing = [w for w in caught
                   if "missing rank shard(s): 1" in str(w.message)]
        assert len(missing) == 1
        assert "2 rank lanes" in capsys.readouterr().out


class TestObsCliErrors:
    """Satellite: every obs subcommand fails with a one-line error (exit
    1), never a traceback, on missing or broken inputs."""

    def _run_metrics(self, tmp_path):
        config = tmp_path / "machine.json"
        save(traffic_graph(), config)
        metrics = tmp_path / "ok.jsonl"
        from repro.__main__ import main

        assert main(["run", str(config), "--ranks", "2",
                     "--metrics", str(metrics)]) == 0
        return metrics

    @pytest.mark.parametrize("sub", ["merge", "imbalance", "report"])
    def test_missing_metrics_stream(self, tmp_path, capsys, sub):
        from repro.__main__ import main

        assert main(["obs", sub, str(tmp_path / "missing.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing.jsonl" in err

    def test_empty_metrics_stream_merges_to_empty_trace(self, tmp_path,
                                                        capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "merge", str(empty)]) == 0
        captured = capsys.readouterr()
        assert "0 epochs, 0 shards" in captured.out
        assert "Traceback" not in captured.err

    def test_empty_metrics_stream_imbalance_notes_no_epochs(self, tmp_path,
                                                            capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "imbalance", str(empty)]) == 0
        captured = capsys.readouterr()
        assert "no epoch records" in captured.out
        assert "Traceback" not in captured.err

    def test_report_on_empty_stream_is_graceful(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        # An empty stream still has a printable (if vacuous) report.
        code = main(["obs", "report", str(empty)])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "Traceback" not in captured.err

    def test_malformed_manifest_reported(self, tmp_path, capsys):
        from repro.__main__ import main

        metrics = self._run_metrics(tmp_path)
        manifest = metrics.with_name(metrics.name + ".manifest.json")
        manifest.write_text("{not json")
        assert main(["obs", "report", str(metrics)]) == 1
        err = capsys.readouterr().err
        assert "malformed manifest" in err
        assert "Traceback" not in err

    def test_report_surfaces_checkpoint_lineage(self, tmp_path, capsys):
        from repro.__main__ import main

        metrics = self._run_metrics(tmp_path)
        manifest = metrics.with_name(metrics.name + ".manifest.json")
        doc = json.loads(manifest.read_text())
        doc["checkpoint"] = {
            "restored_from": {"snapshot": "warm/ckpt-100", "schema": 1,
                              "sim_time_ps": 123_000, "mode": "exact"},
            "written": ["out/ckpt-200", "out/ckpt-400"],
        }
        manifest.write_text(json.dumps(doc))
        assert main(["obs", "report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert ("checkpoint lineage: restored from warm/ckpt-100 "
                "at 123000 ps (exact restore)") in out
        assert "snapshots written: 2" in out
        assert "out/ckpt-400" in out


class TestMergeDegradation:
    """Satellite: a missing or truncated rank shard degrades the merge
    gracefully — one warning naming the rank, the remaining lanes still
    merged, and the gap marked in the trace itself — on every backend."""

    def test_missing_shard_warns_and_merges_the_rest(self, tmp_path):
        for backend in ALL_BACKENDS:
            metrics, _ = run_with_metrics(tmp_path, backend,
                                          name=f"{backend}.jsonl")
            find_rank_shards(metrics)[1].unlink()
            with pytest.warns(RuntimeWarning,
                              match=r"missing rank shard\(s\): 1"):
                artifacts = RunArtifacts(metrics)
            assert artifacts.missing_ranks == [1]
            assert artifacts.truncated_ranks == []
            trace = merge_trace(artifacts)
            # rank 0's lane survived
            assert any(e["ph"] == "X" and e["pid"] == 0
                       for e in trace["traceEvents"])
            # the gap is in the trace, not only on stderr
            markers = [e for e in trace["traceEvents"]
                       if e.get("cat") == "merge"]
            assert ["rank 1 shard missing — lane incomplete"] == \
                [m["name"] for m in markers]
            assert markers[0]["pid"] == 1
            assert trace["otherData"]["missing_rank_shards"] == [1]

    def test_truncated_shard_warns_and_is_marked(self, tmp_path):
        for backend in ALL_BACKENDS:
            metrics, _ = run_with_metrics(tmp_path, backend,
                                          name=f"{backend}.jsonl")
            shard = find_rank_shards(metrics)[0]
            kept = [line for line in shard.read_text().splitlines()
                    if json.loads(line)["kind"] != "rank_end"]
            shard.write_text("\n".join(kept) + "\n")
            with pytest.warns(RuntimeWarning,
                              match=r"truncated rank shard\(s\).*: 0"):
                artifacts = RunArtifacts(metrics)
            assert artifacts.truncated_ranks == [0]
            trace = merge_trace(artifacts)
            assert any(e.get("cat") == "merge" and e["name"]
                       == "rank 0 shard truncated — lane incomplete"
                       for e in trace["traceEvents"])
            assert trace["otherData"]["truncated_rank_shards"] == [0]
            # rank 0's surviving epoch spans still merged
            assert any(e["ph"] == "X" and e["pid"] == 0
                       for e in trace["traceEvents"])

    def test_intact_run_warns_nothing(self, tmp_path):
        for backend in ALL_BACKENDS:
            metrics, _ = run_with_metrics(tmp_path, backend,
                                          name=f"{backend}.jsonl")
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                artifacts = RunArtifacts(metrics)
            assert artifacts.missing_ranks == []
            assert artifacts.truncated_ranks == []
            other = merge_trace(artifacts)["otherData"]
            assert "missing_rank_shards" not in other
            assert "truncated_rank_shards" not in other


@register("testlib.BusyClocked")
class BusyClocked(Component):
    """A clocked component whose ticks burn configurable wall time."""

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.work = self.params.find_int("work", 0)
        self.n_ticks = self.params.find_int("n_ticks", 50)
        self.ticks = self.stats.counter("ticks")
        self.register_clock("1GHz", self.on_tick)

    def on_tick(self, cycle):
        self.ticks.add()
        if self.work:
            sum(range(self.work))
        return cycle >= self.n_ticks


class TestImbalanceClockedStraggler:
    """Straggler attribution is about *wall time per rank*: the shared
    clock arbiter collapses a rank's tick records into one chain event,
    and the rank whose clock handlers burn the time is still critical."""

    def test_busy_clocked_rank_is_critical(self, tmp_path):
        graph = ConfigGraph("skewed")
        # round_robin: busy -> rank 0, light -> rank 1; the pingpong
        # pair keeps real cross-rank epochs flowing.
        graph.component("busy", "testlib.BusyClocked",
                        {"work": 30000, "n_ticks": 80})
        graph.component("light", "testlib.BusyClocked",
                        {"work": 0, "n_ticks": 80})
        graph.component("ping", "testlib.PingPong",
                        {"initiator": True, "n_round_trips": 40})
        graph.component("pong", "testlib.PingPong", {})
        graph.link("ping", "io", "pong", "io", latency="7ns")
        psim = build_parallel(graph, 2, strategy="round_robin", seed=3,
                              backend="serial")
        metrics = tmp_path / "skewed.jsonl"
        telemetry = TelemetryRecorder(metrics)
        telemetry.attach(psim)
        result = psim.run()
        telemetry.finalize(result)
        report = analyze(metrics)
        assert report.attributions
        assert report.critical_rank is not None
        assert report.critical_rank.rank == 0


#: wall-clock and process fields: the only shard fields that may differ
#: between two runs of the same seed
_WALL_FIELDS = ("mono_s", "wall_s", "dur_us", "pid", "created_unix")


@st.composite
def pinned_graphs(draw):
    """1-3 source->sink pairs plus an optional cross-link ping-pong,
    every component pinned to one of 2-3 ranks (each rank gets at least
    one, so every rank executes events: the ping-pong's exit comes
    after every sink's first arrival)."""
    pairs = draw(st.integers(1, 3))
    pingpong = draw(st.booleans())
    names = [name for i in range(pairs) for name in (f"src{i}", f"sink{i}")]
    if pingpong:
        names += ["ping", "pong"]
    ranks = draw(st.integers(2, min(3, len(names))))
    extra = draw(st.lists(st.integers(0, ranks - 1),
                          min_size=len(names) - ranks,
                          max_size=len(names) - ranks))
    pins = draw(st.permutations(list(range(ranks)) + extra))
    rank_of = dict(zip(names, pins))
    graph = ConfigGraph("pinned")
    for i in range(pairs):
        graph.component(f"src{i}", "testlib.Source",
                        {"count": draw(st.integers(1, 12)),
                         "period": f"{draw(st.integers(1, 4))}ns"},
                        rank=rank_of[f"src{i}"])
        graph.component(f"sink{i}", "testlib.Sink", {},
                        rank=rank_of[f"sink{i}"])
        graph.link(f"src{i}", "out", f"sink{i}", "in",
                   latency=f"{draw(st.integers(1, 9))}ns")
    if pingpong:
        graph.component("ping", "testlib.PingPong",
                        {"initiator": True,
                         "n_round_trips": draw(st.integers(10, 20))},
                        rank=rank_of["ping"])
        graph.component("pong", "testlib.PingPong", {},
                        rank=rank_of["pong"])
        graph.link("ping", "io", "pong", "io",
                   latency=f"{draw(st.integers(1, 9))}ns")
    return graph, ranks


def observe_everything(tmp_path, graph, ranks, backend):
    """One run with every plan-borne instrument attached; returns the
    three views the backends must agree on."""
    psim = build_parallel(graph, ranks, seed=4, backend=backend)
    metrics = tmp_path / f"{backend}.jsonl"
    telemetry = TelemetryRecorder(metrics, sample_every_events=3)
    telemetry.attach(psim)
    profiler = HandlerProfiler(psim)
    exporter = ChromeTraceExporter().attach(psim)
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", RankObservabilityWarning)
        result = telemetry.finalize(psim.run())
    exporter.detach()
    profiler.detach()
    shards = {}
    for rank, path in find_rank_shards(metrics).items():
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records[0].pop("backend") == backend
        shards[rank] = [{k: v for k, v in r.items() if k not in _WALL_FIELDS}
                        for r in records]
    rows = sorted((row.rank, row.component, row.handler, row.event_type,
                   row.count) for row in profiler.rows())
    spans = {}
    for event in exporter.trace_dict()["traceEvents"]:
        if event["ph"] == "X" and event["cat"] != "epoch":
            spans[event["pid"]] = spans.get(event["pid"], 0) + 1
    assert result["run"]["events_executed"] == sum(spans.values())
    return shards, rows, spans


class TestOneWayToObserveARank:
    @given(case=pinned_graphs())
    @settings(max_examples=20, deadline=None)
    def test_serial_and_processes_observe_ranks_identically(self, tmp_path_factory,
                                                            case):
        graph, ranks = case
        tmp_path = tmp_path_factory.mktemp("rank-obs")
        serial = observe_everything(tmp_path, graph, ranks, "serial")
        procs = observe_everything(tmp_path, graph, ranks, "processes")
        shards, rows, spans = serial
        assert sorted(shards) == list(range(ranks))
        assert shards == procs[0]
        assert rows and rows == procs[1]
        assert sorted(spans) == list(range(ranks))
        assert all(count > 0 for count in spans.values())
        assert spans == procs[2]
