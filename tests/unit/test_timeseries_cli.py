"""Tests for the StatSampler time series and the CLI."""

import json

import pytest

from repro.__main__ import main, make_parser
from repro.analysis import StatSampler
from repro.config import ConfigGraph, build, load, save
from repro.core import Params, Simulation
from tests.conftest import Sink, Source


class TestStatSampler:
    def _machine(self, patterns="*", period="5ns"):
        sim = Simulation(seed=2)
        source = Source(sim, "src", Params({"count": 20, "period": "2ns"}))
        sink = Sink(sim, "sink")
        sim.connect(source, "out", sink, "in", latency="1ns")
        sampler = StatSampler(sim, "sampler", Params({
            "period": period, "patterns": patterns}))
        return sim, sampler

    def test_samples_taken_periodically(self):
        sim, sampler = self._machine()
        sim.run()
        # Run lasts 41ns (20 emits x 2ns + 1ns flight); 5ns period gives
        # samples at 5..40ns plus one final sample after quiescence.
        assert sampler.n_samples == 9
        assert sampler.samples[0]["time_ps"] == 5000
        assert sampler.samples[-1]["time_ps"] == 45000

    def test_pattern_filtering(self):
        sim, sampler = self._machine(patterns="sink.*")
        sim.run()
        assert sampler.keys() == ["sink.received"]
        assert "src.sent" not in sampler.samples[0]

    def test_multiple_patterns(self):
        sim, sampler = self._machine(patterns="sink.received, src.sent")
        sim.run()
        assert sampler.keys() == ["sink.received", "src.sent"]

    def test_series_monotone_counter(self):
        sim, sampler = self._machine(patterns="sink.received")
        sim.run()
        series = sampler.series("sink.received")
        assert series == sorted(series)
        assert series[-1] == 20

    def test_deltas_sum_to_range(self):
        sim, sampler = self._machine(patterns="sink.received")
        sim.run()
        series = sampler.series("sink.received")
        deltas = sampler.deltas("sink.received")
        assert sum(deltas) == series[-1] - series[0]
        assert all(d >= 0 for d in deltas)

    def test_unknown_key_rejected(self):
        sim, sampler = self._machine(patterns="sink.*")
        sim.run()
        with pytest.raises(KeyError):
            sampler.series("src.sent")

    def test_table_output(self, tmp_path):
        sim, sampler = self._machine(patterns="sink.received")
        sim.run()
        table = sampler.to_table()
        assert table.columns == ["time_ps", "sink.received"]
        assert len(table) == sampler.n_samples
        path = tmp_path / "ts.csv"
        table.to_csv(path)
        assert path.read_text().startswith("time_ps,sink.received")

    def test_sampler_excludes_itself(self):
        sim, sampler = self._machine(patterns="*")
        sim.run()
        assert not any(k.startswith("sampler.") for k in sampler.keys())

    def test_max_samples_cap(self):
        sim = Simulation(seed=2)
        Source(sim, "src", Params({"count": 1000, "period": "1ns"})) \
            .port("out")  # leave unconnected-sink test out: wire a sink
        sink = Sink(sim, "sink")
        sim.connect(sim.component("src"), "out", sink, "in", latency="1ns")
        sampler = StatSampler(sim, "sampler", Params({
            "period": "1ns", "max_samples": 10}))
        sim.run()
        assert sampler.n_samples == 10

    def test_buildable_from_config(self):
        graph = ConfigGraph("m")
        graph.component("src", "testlib.Source", {"count": 5, "period": "2ns"})
        graph.component("sink", "testlib.Sink")
        graph.component("sampler", "analysis.StatSampler",
                        {"period": "4ns", "patterns": "sink.*"})
        graph.link("src", "out", "sink", "in", latency="1ns")
        sim = build(graph, seed=1)
        sim.run()
        sampler = sim.component("sampler")
        assert sampler.n_samples > 0


class TestCli:
    def _write_machine(self, tmp_path):
        graph = ConfigGraph("cli-machine")
        graph.component("src", "testlib.Source", {"count": 10, "period": "2ns"})
        graph.component("sink", "testlib.Sink")
        graph.link("src", "out", "sink", "in", latency="1ns")
        path = tmp_path / "machine.json"
        save(graph, path)
        return path

    def test_info(self, tmp_path, capsys):
        path = self._write_machine(tmp_path)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli-machine" in out
        assert "testlib.Source" in out
        assert "minimum link latency: 1000 ps" in out

    def test_run_sequential(self, tmp_path, capsys):
        path = self._write_machine(tmp_path)
        assert main(["run", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "run: exhausted" in out
        assert "sink.received" in out

    def test_run_with_max_time(self, tmp_path, capsys):
        path = self._write_machine(tmp_path)
        assert main(["run", str(path), "--max-time", "5ns"]) == 0
        assert "max_time" in capsys.readouterr().out

    def test_run_parallel(self, tmp_path, capsys):
        path = self._write_machine(tmp_path)
        assert main(["run", str(path), "--ranks", "2",
                     "--strategy", "round_robin"]) == 0
        out = capsys.readouterr().out
        assert "parallel run" in out
        assert "epochs" in out

    @pytest.mark.parametrize("argv", [
        ["run", "machine.json", "--ranks", "-3"],
        ["run", "machine.json", "--ranks", "0"],
        ["ckpt", "resume", "ckpt-0001", "--ranks", "-3"],
    ], ids=["run-negative", "run-zero", "ckpt-resume"])
    def test_non_positive_ranks_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            make_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--ranks: must be >= 1" in capsys.readouterr().err

    def test_trace_with_ranks_rejected(self, tmp_path, capsys):
        path = self._write_machine(tmp_path)
        trace = tmp_path / "t.log"
        assert main(["run", str(path), "--ranks", "2",
                     "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "error: --trace is for sequential runs only "
            "(drop --trace or --ranks)"]
        assert not trace.exists()

    def test_run_stats_csv(self, tmp_path, capsys):
        path = self._write_machine(tmp_path)
        csv_path = tmp_path / "stats.csv"
        assert main(["run", str(path), "--stats-csv", str(csv_path)]) == 0
        text = csv_path.read_text()
        assert "sink.received" in text

    @pytest.mark.parametrize("kind,extra", [
        ("torus", ["--dims", "3x3"]),
        ("fattree", ["--leaves", "4", "--spines", "2"]),
        ("dragonfly", ["--groups", "5", "--routers", "2", "--globals", "2"]),
        ("crossbar", ["--ports", "6"]),
    ])
    def test_topo_generation(self, tmp_path, capsys, kind, extra):
        out_path = tmp_path / f"{kind}.json"
        assert main(["topo", "--kind", kind, "-o", str(out_path)] + extra) == 0
        graph = load(out_path)
        assert len(graph) > 0
        assert graph.validate(resolve_types=True) == []
        doc = json.loads(out_path.read_text())
        assert doc["format"] == "pysst-config"

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["destroy"])
