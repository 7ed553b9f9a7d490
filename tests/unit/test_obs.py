"""Tests for the observability layer: engine observer dispatch plus the
``repro.obs`` clients (telemetry, manifests, profiler, Chrome trace,
progress reporting) and the parallel engine's sync metrics."""

import io
import json

import pytest

from repro.config import ConfigGraph
from repro.core import Params, ParallelSimulation, Simulation
from repro.obs import (ChromeTraceExporter, HandlerProfiler,
                       MANIFEST_SCHEMA, METRICS_SCHEMA, ProgressReporter,
                       TelemetryRecorder, attribute_event, build_manifest,
                       graph_hash)
from tests.conftest import Clocked, PingPong, Sink, Source


def _machine(sim, count=20):
    src = Source(sim, "src", Params({"count": count, "period": "2ns"}))
    sink = Sink(sim, "sink")
    sim.connect(src, "out", sink, "in", latency="1ns")
    return src, sink


def _parallel_pingpong(n=50, **kw):
    psim = ParallelSimulation(2, seed=3, **kw)
    ping = PingPong(psim.rank_sim(0), "ping",
                    Params({"initiator": True, "n_round_trips": n}))
    pong = PingPong(psim.rank_sim(1), "pong", Params({}))
    psim.connect(ping, "io", pong, "io", latency="5ns")
    return psim


class TestObserverDispatch:
    def test_uninstrumented_by_default(self):
        sim = Simulation()
        assert not sim.observers_installed
        assert sim._instr is None

    def test_trace_observer_sees_every_event(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=5)
        seen = []
        sim.add_trace_observer(lambda t, h, e: seen.append(t))
        assert sim.observers_installed
        result = sim.run()
        assert len(seen) == result.events_executed
        assert seen == sorted(seen)

    def test_multiple_observers_coexist(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=3)
        a, b = [], []
        sim.add_trace_observer(lambda t, h, e: a.append(t))
        sim.add_trace_observer(lambda t, h, e: b.append(t))
        result = sim.run()
        assert len(a) == len(b) == result.events_executed

    def test_remove_observer_restores_bare_path(self):
        sim = Simulation()
        fn = lambda t, h, e: None
        sim.add_trace_observer(fn)
        assert sim.observers_installed
        sim.remove_trace_observer(fn)
        assert not sim.observers_installed

    def test_span_observer_measures_wall_time(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=5)
        spans = []
        sim.add_span_observer(
            lambda t, h, e, wall: spans.append((t, wall)))
        result = sim.run()
        assert len(spans) == result.events_executed
        assert all(wall >= 0.0 for _, wall in spans)

    def test_heartbeat_fires_every_n_events(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=10)
        beats = []
        sim.add_heartbeat(lambda s: beats.append(s.events_executed),
                          every_events=7)
        result = sim.run()
        assert beats == list(range(7, result.events_executed + 1, 7))

    def test_heartbeat_rejects_bad_interval(self):
        from repro.core.simulation import SimulationError
        with pytest.raises(SimulationError):
            Simulation().add_heartbeat(lambda s: None, every_events=0)

    def test_trace_and_span_run_same_events(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=4)
        order = []
        sim.add_trace_observer(lambda t, h, e: order.append("pre"))
        sim.add_span_observer(lambda t, h, e, w: order.append("post"))
        sim.run()
        assert order[::2] == ["pre"] * (len(order) // 2)
        assert order[1::2] == ["post"] * (len(order) // 2)

    def test_epoch_observer_parallel(self):
        psim = _parallel_pingpong(n=10)
        infos = []
        psim.add_epoch_observer(infos.append)
        result = psim.run()
        assert len(infos) == result.epochs
        assert infos[0].index == 0
        assert all(i.window_end >= i.window_start for i in infos)
        # events_total is the cumulative count: monotone, ends at the total.
        totals = [i.events_total for i in infos]
        assert totals == sorted(totals)
        assert totals[-1] == result.events_executed
        assert sum(sum(i.per_rank_events) for i in infos) == result.events_executed
        assert all(len(i.per_rank_events) == 2 for i in infos)


class TestTelemetry:
    def test_sequential_stream_and_manifest(self, tmp_path):
        sim = Simulation(seed=2)
        _machine(sim, count=30)
        metrics = tmp_path / "m.jsonl"
        rec = TelemetryRecorder(metrics, sample_every_events=10).attach(sim)
        result = sim.run()
        manifest = rec.finalize(result)
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines[0]["kind"] == "run_start"
        assert lines[0]["schema"] == METRICS_SCHEMA
        assert lines[-1]["kind"] == "run_end"
        samples = [l for l in lines if l["kind"] == "sample"]
        assert samples, "expected at least one sample record"
        assert all(s["events"] > 0 for s in samples)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["run"]["events_executed"] == result.events_executed
        side = json.loads((tmp_path / "m.jsonl.manifest.json").read_text())
        assert side["run"] == manifest["run"]
        # finalize() detaches: engine returns to the bare path.
        assert not sim.observers_installed

    def test_parallel_stream_has_epoch_records(self, tmp_path):
        psim = _parallel_pingpong(n=20)
        metrics = tmp_path / "p.jsonl"
        with TelemetryRecorder(metrics) as rec:
            rec.attach(psim)
            result = psim.run()
            manifest = rec.finalize(result)
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        epochs = [l for l in lines if l["kind"] == "epoch"]
        assert len(epochs) == result.epochs
        assert lines[0]["ranks"] == 2
        assert manifest["engine"]["mode"] == "parallel"
        assert manifest["run"]["epochs"] == result.epochs
        assert "sync" in manifest and manifest["sync"]

    def test_manifest_embeds_graph(self, tmp_path):
        g = ConfigGraph("m")
        g.component("src", "processor.TrafficGenerator", {"requests": 10})
        sim = Simulation(seed=1)
        _machine(sim, count=5)
        result = sim.run()
        manifest = build_manifest(sim, result, graph=g,
                                  invocation=["run", "m.json"])
        assert manifest["graph"]["name"] == "m"
        assert manifest["graph"]["hash"] == graph_hash(g)
        # Counts are taken from the instantiated simulation, not the graph.
        assert manifest["graph"]["components"] == len(sim.components)
        assert manifest["invocation"] == ["run", "m.json"]


class TestManifestHelpers:
    def test_graph_hash_deterministic_and_sensitive(self):
        def make(requests):
            g = ConfigGraph("m")
            g.component("src", "processor.TrafficGenerator",
                        {"requests": requests})
            return g

        assert graph_hash(make(10)) == graph_hash(make(10))
        assert graph_hash(make(10)) != graph_hash(make(11))
        assert len(graph_hash(make(10))) == 16


class TestProfiler:
    def test_attributes_time_to_components(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=25)
        prof = HandlerProfiler(sim)
        sim.run()
        prof.detach()
        names = {row.component for row in prof.rows()}
        assert {"ping", "pong"} <= names
        assert prof.hottest_component() in ("ping", "pong")
        assert prof.total_seconds() > 0.0
        assert sum(r.count for r in prof.rows()) == sim.events_executed

    def test_report_and_as_dict(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=5)
        with HandlerProfiler(sim) as prof:
            sim.run()
        text = prof.report(top=5)
        assert "component" in text and "ping" in text
        d = prof.as_dict()
        assert d["rows"] and d["total_seconds"] > 0.0

    def test_parallel_rows_carry_ranks(self):
        psim = _parallel_pingpong(n=20)
        with HandlerProfiler(psim) as prof:
            psim.run()
        ranks = {row.rank for row in prof.rows()}
        assert ranks == {0, 1}

    def test_attribute_event_port_handler(self):
        sim = Simulation()
        src, sink = _machine(sim, count=1)
        component, label = attribute_event(sink.port("in").handler)
        assert component == "sink"
        assert "in" in label

    def test_clock_ticks_attribute_to_their_clock(self):
        """Two clocks share one arbiter chain; the profiler still sees
        every member tick as ``(<component>, clock:<name>)``."""
        sim = Simulation(seed=1)
        clocked = [Clocked(sim, f"c{i}", Params({"n_ticks": 7}))
                   for i in range(2)]
        with HandlerProfiler(sim) as prof:
            sim.run()
        rows = {(row.component, row.handler): row.count for row in prof.rows()}
        assert rows == {("c0", "clock:c0.clock"): 7,
                        ("c1", "clock:c1.clock"): 7}
        assert sum(rows.values()) == sim.events_executed
        assert attribute_event(clocked[0].clock) == \
            ("c0", "clock:c0.clock")


class TestChromeTrace:
    def test_sequential_trace_shape(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=10)
        exporter = ChromeTraceExporter()
        exporter.attach(sim)
        sim.run()
        exporter.detach()
        trace = exporter.trace_dict()
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(spans) == sim.events_executed
        assert meta, "expected process/thread metadata records"
        assert all(e["dur"] >= 0 and "sim_ps" in e["args"] for e in spans)
        lanes = {(e["pid"], e["tid"]) for e in spans}
        assert len(lanes) >= 2  # ping and pong lanes

    def test_parallel_trace_has_epoch_lane(self, tmp_path):
        psim = _parallel_pingpong(n=10)
        path = tmp_path / "trace.json"
        with ChromeTraceExporter(path) as exporter:
            exporter.attach(psim)
            result = psim.run()
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert any(n.startswith("epoch") for n in names)
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}

    @pytest.mark.parametrize("batch", [1, 7, 4096])
    def test_close_writes_what_json_dumps_writes(self, make_pingpong,
                                                 monkeypatch, tmp_path,
                                                 batch):
        """The file is written a batch of events at a time, byte for
        byte the JSON of the whole trace, and the records are let go."""
        monkeypatch.setattr("repro.obs.merge._WRITE_BATCH", batch)
        sim = Simulation(seed=1)
        make_pingpong(sim, n=10)
        path = tmp_path / "trace.json"
        exporter = ChromeTraceExporter(path).attach(sim)
        sim.run()
        trace = exporter.trace_dict()
        exporter.close()
        assert path.read_text() == json.dumps(trace) + "\n"
        assert exporter.records == {}

    def test_max_events_caps_collection(self, make_pingpong, monkeypatch):
        monkeypatch.setattr("repro.obs.merge.SPAN_LIMIT", 10)
        sim = Simulation(seed=1)
        make_pingpong(sim, n=50)
        exporter = ChromeTraceExporter()
        exporter.attach(sim)
        sim.run()
        exporter.detach()
        spans = [e for e in exporter.trace_dict()["traceEvents"]
                 if e["ph"] == "X"]
        assert len(spans) == 10
        assert exporter.dropped_events == sim.events_executed - 10


class TestProgress:
    def test_emits_lines(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=40)
        out = io.StringIO()
        rep = ProgressReporter(stream=out, interval_s=0.0, every_events=10)
        rep.attach(sim)
        sim.run()
        rep.detach()
        lines = out.getvalue().strip().splitlines()
        assert rep.lines_emitted == len(lines) > 0
        assert all(l.startswith("[progress]") for l in lines)
        # Every in-flight line carries a rate; detach appends a summary.
        assert all("ev/s" in l for l in lines[:-1])
        assert lines[-1].startswith("[progress] done:")

    def test_detach_prints_final_summary(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=40)
        out = io.StringIO()
        rep = ProgressReporter(stream=out, interval_s=1e9)
        rep.attach(sim)
        result = sim.run()
        rep.detach()
        lines = out.getvalue().strip().splitlines()
        # Long interval: no periodic lines, just the detach summary.
        assert len(lines) == 1
        assert lines[0].startswith("[progress] done: ")
        assert f"{result.events_executed} events" in lines[0]
        assert "mean" in lines[0]

    def test_detach_without_attach_is_silent(self):
        out = io.StringIO()
        rep = ProgressReporter(stream=out)
        rep.detach()
        assert out.getvalue() == ""

    def test_eta_with_max_time(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=1000)
        out = io.StringIO()
        rep = ProgressReporter(stream=out, interval_s=0.0, every_events=100,
                               max_time="1ms")
        rep.attach(sim)
        sim.run(max_time="1ms")
        rep.detach()
        assert "ETA" in out.getvalue()

    def test_eta_placeholder_when_window_advances_nothing(self):
        """Satellite: a reporting window that executed zero events (and
        so advanced no sim time) must print an ETA placeholder, not
        divide by the zero sim-rate."""
        out = io.StringIO()
        rep = ProgressReporter(stream=out, interval_s=0.0, max_time="1ms")
        rep._t0 = 0.0  # the window is open; nothing has run in it
        rep._maybe_emit(0, 0, extra="")
        line = out.getvalue().strip()
        assert line.startswith("[progress]")
        assert line.endswith("| ETA --")

    def test_parallel_progress_reports_epochs(self):
        psim = _parallel_pingpong(n=30)
        out = io.StringIO()
        rep = ProgressReporter(stream=out, interval_s=0.0)
        rep.attach(psim)
        psim.run()
        rep.detach()
        assert "epoch" in out.getvalue()


class TestRunResultSerialization:
    def test_sequential_as_dict(self, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=5)
        d = sim.run().as_dict()
        assert d["reason"] == "exit"
        assert d["events_executed"] == 10  # 5 round trips, 2 deliveries each
        assert d["wall_seconds"] >= 0.0
        assert "events_per_second" in d
        json.dumps(d)  # must be JSON-clean

    def test_parallel_as_dict(self):
        psim = _parallel_pingpong(n=10)
        result = psim.run()
        d = result.as_dict()
        assert d["epochs"] == result.epochs
        assert d["lookahead_ps"] == 5000
        assert d["barrier_wait_seconds"] >= 0.0
        assert 0.0 <= d["lookahead_utilization"] <= 1.0
        assert len(d["per_rank_barrier_wait"]) == 2
        json.dumps(d)


class TestCliWiring:
    def _config(self, tmp_path):
        from repro.config import save
        g = ConfigGraph("m")
        g.component("src", "testlib.Source", {"count": 20, "period": "2ns"})
        g.component("sink", "testlib.Sink")
        g.link("src", "out", "sink", "in", latency="1ns")
        path = tmp_path / "m.json"
        save(g, path)
        return path

    def test_run_with_observability_flags(self, tmp_path, capsys):
        from repro.__main__ import main
        config = self._config(tmp_path)
        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "trace.json"
        assert main(["run", str(config), "--metrics", str(metrics),
                     "--profile", "--trace-chrome", str(trace),
                     "--progress"]) == 0
        out = capsys.readouterr().out
        assert "events/s" in out          # throughput printed by default
        assert "hottest component" in out  # --profile table
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines[-1]["kind"] == "run_end"
        manifest = json.loads(
            (tmp_path / "m.jsonl.manifest.json").read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["engine"]["mode"] == "sequential"
        assert json.loads(trace.read_text())["traceEvents"]

    def test_parallel_run_with_observability_flags(self, tmp_path, capsys):
        from repro.__main__ import main
        config = self._config(tmp_path)
        metrics = tmp_path / "p.jsonl"
        assert main(["run", str(config), "--ranks", "2",
                     "--metrics", str(metrics), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "events/s" in out and "barrier wait" in out
        manifest = json.loads(
            (tmp_path / "p.jsonl.manifest.json").read_text())
        assert manifest["engine"]["mode"] == "parallel"
        assert manifest["engine"]["ranks"] == 2
        assert manifest["sync"]


class TestParallelSyncMetrics:
    def test_sync_stats_merged_across_ranks(self):
        psim = _parallel_pingpong(n=25)
        result = psim.run()
        sync = psim.sync_stat_values()
        assert sync["sync.epochs"] == result.epochs * 2  # one count per rank
        assert sync["sync.remote_sends"] == result.remote_events
        merged = psim.sync_stats()
        assert merged["sync.epoch_events"].count == result.epochs * 2

    def test_engine_stats_excluded_by_default(self):
        psim = _parallel_pingpong(n=10)
        psim.run()
        default = psim.stats()
        assert not any(k.startswith("_engine.") for k in default)
        with_engine = psim.stats(include_engine=True)
        assert any(k.startswith("_engine.sync.") for k in with_engine)

    def test_equivalence_holds_with_sync_metrics_present(self, make_pingpong):
        # The per-rank sync.* collectors live outside the component
        # harvest, so a parallel run still reports component statistics
        # identical to the sequential engine's.
        seq = Simulation(seed=3)
        make_pingpong(seq, n=25, latency="5ns")
        seq.run()

        psim = _parallel_pingpong(n=25)
        psim.run()
        assert psim.sync_stat_values()["sync.epochs"] > 0  # metrics active
        assert psim.stat_values() == seq.stat_values()

    def test_sync_stats_merge_is_repeatable(self):
        # Merging must not mutate the per-rank collectors (regression:
        # folding into rank 0's own statistic doubled it on re-harvest).
        psim = _parallel_pingpong(n=10)
        psim.run()
        first = psim.sync_stat_values()
        second = psim.sync_stat_values()
        assert first == second
