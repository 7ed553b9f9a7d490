"""Tests for the live observability plane (repro.obs.live).

Covers the seqlock segment protocol, the registry's OpenMetrics/JSON
rendering, LiveMetrics publishing on every execution backend, the HTTP
endpoint, ``obs top``, the stall watchdog (synthetic snapshots and a
real injected stall on the processes backend) and the ``dse.sweep``
fleet segment.
"""

import io
import json
import os
import struct
import time
import urllib.request

import pytest

from repro.__main__ import main
from repro.config import build_parallel, save
from repro.core import Component, ParallelSimulation, Params, Simulation
from repro.core.simulation import SimulationError
from repro.obs import TelemetryRecorder
from repro.obs.live import (KIND_RUN, STATE_DONE, STATE_RUNNING,
                            STATE_WAITING, LiveMetrics, LiveSegment,
                            LiveView, MetricsRegistry, MetricsServer,
                            RankSlotWriter, SegmentError, StallWatchdog,
                            SweepLive, default_segment_path, eta_seconds,
                            make_run_render, make_sweep_render,
                            parse_address, resolve_segment, run_top,
                            straggler, sweep_status)
from repro.obs.live.segment import RANK_SLOT_SIZE, run_slot_size
from repro.obs.live.sweep import (POINT_DONE, POINT_FAILED, POINT_RUNNING,
                                  render_sweep_openmetrics)
from tests.unit.test_rank_obs import traffic_graph


class _FakeSim:
    """Just enough Simulation surface for a RankSlotWriter."""

    def __init__(self, events=0, queued=0, now=0):
        self._events_executed = events
        self._queue = [None] * queued
        self.now = now


def make_segment(tmp_path, *, ranks=2, limit_ps=0, name="seg.live"):
    path = tmp_path / name
    seg = LiveSegment.create(path, kind=KIND_RUN, slots=ranks,
                             slot_size=RANK_SLOT_SIZE,
                             run_size=run_slot_size(ranks),
                             backend="serial", mode="parallel",
                             limit_ps=limit_ps)
    return path, seg


class TestSegment:
    def test_rank_slot_roundtrip(self, tmp_path):
        path, seg = make_segment(tmp_path)
        sim = _FakeSim(events=123, queued=7, now=4_500)
        writer = RankSlotWriter(seg, 0, sim)
        writer.record_step(0.003)   # second histogram bucket (<= 0.005)
        writer.record_step(42.0)    # overflow bucket
        writer.publish(STATE_RUNNING)
        view = LiveView(path)
        slot = view.read_rank(0)
        view.close()
        seg.close()
        assert slot["pid"] == os.getpid()
        assert slot["state"] == STATE_RUNNING
        assert slot["state_name"] == "run"
        assert slot["events"] == 123
        assert slot["queued"] == 7
        assert slot["sim_ps"] == 4_500
        assert slot["epoch"] == 2
        assert slot["hist"][1] == 1 and slot["hist"][-1] == 1
        assert slot["busy_s"] == pytest.approx(42.003)

    def test_unwritten_slot_reads_as_zeroed_init(self, tmp_path):
        path, seg = make_segment(tmp_path)
        view = LiveView(path)
        slot = view.read_rank(1)
        view.close()
        seg.close()
        assert slot["state_name"] == "init"
        assert slot["events"] == 0 and slot["pid"] == 0

    def test_torn_slot_skipped_by_reader(self, tmp_path):
        path, seg = make_segment(tmp_path)
        # Fake a writer dying mid-update: odd sequence counter.
        off = 128 + 1 * RANK_SLOT_SIZE
        struct.pack_into("<Q", seg._mm, off, 3)
        view = LiveView(path)
        assert view.read_rank(1) is None
        snapshot = view.snapshot()
        view.close()
        seg.close()
        assert snapshot["ranks"][1] is None
        assert snapshot["ranks"][0] is not None or True  # rank 0 intact

    def test_run_slot_roundtrip(self, tmp_path):
        path, seg = make_segment(tmp_path, limit_ps=1_000_000)
        seg.write_run(state=STATE_RUNNING, epoch=9, events=5_000,
                      exchanged=40, now_ps=250_000, limit_ps=1_000_000,
                      mono_s=10.0, unix_s=time.time(), start_mono=2.0,
                      exchange_s=0.5, exec_s=6.0, reason="",
                      barrier_s=[1.5, 2.5])
        view = LiveView(path)
        run = view.read_run()
        view.close()
        seg.close()
        assert run["epoch"] == 9
        assert run["events"] == 5_000
        assert run["now_ps"] == 250_000
        assert run["limit_ps"] == 1_000_000
        assert run["barrier_s"] == [1.5, 2.5]
        # ETA: 25% of sim time in 8 wall seconds -> ~24s remaining.
        assert eta_seconds(run) == pytest.approx(24.0)

    def test_eta_needs_a_limit(self):
        assert eta_seconds({"limit_ps": 0, "now_ps": 10,
                            "start_mono": 0.0, "mono_s": 1.0}) is None

    def test_view_rejects_non_segment(self, tmp_path):
        bogus = tmp_path / "bogus.live"
        bogus.write_bytes(b"not a segment, definitely" * 20)
        with pytest.raises(SegmentError):
            LiveView(bogus)
        with pytest.raises(SegmentError):
            LiveSegment.open(bogus)

    def test_view_rejects_missing_file(self, tmp_path):
        with pytest.raises(SegmentError):
            LiveView(tmp_path / "nope.live")

    def test_resolve_segment_forms(self, tmp_path):
        path, seg = make_segment(tmp_path, name="m.jsonl.live")
        seg.close()
        # By segment path, by metrics sibling, by directory (newest).
        assert resolve_segment(path) == path
        assert resolve_segment(tmp_path / "m.jsonl") == path
        assert resolve_segment(tmp_path) == path
        assert default_segment_path("x/m.jsonl").name == "m.jsonl.live"
        with pytest.raises(SegmentError):
            resolve_segment(tmp_path / "other.jsonl")


class TestRegistry:
    def _snapshot(self, tmp_path):
        path, seg = make_segment(tmp_path, limit_ps=2_000_000)
        writer = RankSlotWriter(seg, 0, _FakeSim(events=10, queued=3,
                                                 now=1_000_000))
        writer.record_step(0.0005)
        writer.publish(STATE_WAITING)
        seg.write_run(state=STATE_RUNNING, epoch=4, events=10, exchanged=2,
                      now_ps=1_000_000, limit_ps=2_000_000, mono_s=5.0,
                      unix_s=time.time(), start_mono=1.0, exchange_s=0.1,
                      exec_s=0.4, reason="", barrier_s=[0.2, 0.3])
        view = LiveView(path)
        snapshot = view.snapshot()
        view.close()
        seg.close()
        return snapshot

    def test_openmetrics_exposition(self, tmp_path):
        text = MetricsRegistry().render_openmetrics(self._snapshot(tmp_path))
        assert "# TYPE repro_rank_events counter" in text
        assert 'repro_rank_events_total{rank="0"} 10' in text
        assert 'repro_rank_queue_depth{rank="0"} 3' in text
        assert 'repro_rank_barrier_seconds_total{rank="1"} 0.3' in text
        assert 'repro_rank_step_seconds_bucket{rank="0",le="0.001"} 1' in text
        assert 'repro_rank_step_seconds_bucket{rank="0",le="+Inf"} 1' in text
        assert "repro_run_events_total 10" in text
        assert text.endswith("# EOF\n")

    def test_status_document(self, tmp_path):
        doc = MetricsRegistry().status(self._snapshot(tmp_path))
        assert doc["backend"] == "serial"
        assert doc["ranks"] == 2
        assert doc["per_rank"][0]["events"] == 10
        assert doc["run"]["epoch"] == 4
        # Half the sim budget in 4 wall seconds -> ~4s to go.
        assert doc["run"]["eta_s"] == pytest.approx(4.0)


class TestLiveMetricsSequential:
    def test_sequential_run_publishes_and_finalizes(self, tmp_path):
        from tests.conftest import PingPong

        sim = Simulation(seed=1)
        a = PingPong(sim, "a", Params({"initiator": True,
                                       "n_round_trips": 50}))
        b = PingPong(sim, "b")
        sim.connect(a, "io", b, "io", latency="5ns")
        seg_path = tmp_path / "seq.live"
        live = LiveMetrics(seg_path, interval_s=0.05).attach(sim)
        result = sim.run()
        live.finalize(result)
        view = LiveView(seg_path)
        snapshot = view.snapshot()
        view.close()
        slot = snapshot["ranks"][0]
        assert slot["state"] == STATE_DONE
        assert slot["events"] == result.events_executed
        run = snapshot["run"]
        assert run["state"] == STATE_DONE
        assert run["events"] == result.events_executed
        assert run["reason"] == result.reason
        # The publisher detached: the hot-path slot is clear again.
        assert sim._live_publisher is None

    def test_double_attach_rejected(self, tmp_path):
        sim = Simulation(seed=1)
        live = LiveMetrics(tmp_path / "x.live").attach(sim)
        with pytest.raises(RuntimeError):
            live.attach(sim)
        live.detach()


@pytest.mark.parametrize("backend", ["serial", "processes"])
class TestLiveMetricsParallel:
    def test_per_rank_slots_match_run(self, tmp_path, backend):
        psim = build_parallel(traffic_graph(), 2, strategy="round_robin",
                              seed=9, backend=backend)
        seg_path = tmp_path / "par.live"
        live = LiveMetrics(seg_path, interval_s=0.05).attach(psim)
        result = psim.run()
        live.finalize(result)
        view = LiveView(seg_path)
        snapshot = view.snapshot()
        view.close()
        ranks = snapshot["ranks"]
        assert all(s is not None for s in ranks)
        assert sum(s["events"] for s in ranks) == result.events_executed
        assert all(s["state"] == STATE_DONE for s in ranks)
        assert all(s["epoch"] > 0 for s in ranks)
        if backend == "processes":
            # Whoever runs a rank owns its slot: rank 0 runs in this
            # process, the others in forked workers.
            assert ranks[0]["pid"] == os.getpid()
            assert all(s["pid"] != os.getpid() for s in ranks[1:])
        else:
            assert all(s["pid"] == os.getpid() for s in ranks)
        run = snapshot["run"]
        assert run["state"] == STATE_DONE
        assert run["events"] == result.events_executed
        assert len(run["barrier_s"]) == 2

    def test_manifest_records_live_segment(self, tmp_path, backend):
        psim = build_parallel(traffic_graph(), 2, strategy="round_robin",
                              seed=9, backend=backend)
        metrics = tmp_path / "m.jsonl"
        telemetry = TelemetryRecorder(metrics).attach(psim)
        live = LiveMetrics(default_segment_path(metrics)).attach(psim)
        result = psim.run()
        live.finalize(result)
        manifest = telemetry.finalize(result)
        assert manifest["telemetry"]["live_segment"] == str(
            default_segment_path(metrics))


class TestServer:
    def test_parse_address(self):
        assert parse_address(":8080") == ("127.0.0.1", 8080)
        assert parse_address("8080") == ("127.0.0.1", 8080)
        assert parse_address("0.0.0.0:9") == ("0.0.0.0", 9)
        with pytest.raises(ValueError):
            parse_address("nope")

    def test_scrape_endpoints(self, tmp_path):
        path, seg = make_segment(tmp_path)
        RankSlotWriter(seg, 0, _FakeSim(events=77)).publish(STATE_RUNNING)
        seg.write_run(state=STATE_RUNNING, epoch=1, events=77, exchanged=0,
                      now_ps=10, limit_ps=0, mono_s=1.0, unix_s=time.time(),
                      start_mono=0.0, exchange_s=0.0, exec_s=0.0,
                      reason="", barrier_s=[0.0, 0.0])
        server = MetricsServer(("127.0.0.1", 0), make_run_render(path))
        server.start()
        try:
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.headers["Content-Type"].startswith(
                    "application/openmetrics-text")
                text = resp.read().decode()
            assert 'repro_rank_events_total{rank="0"} 77' in text
            with urllib.request.urlopen(server.url + "/status") as resp:
                doc = json.loads(resp.read())
            assert doc["per_rank"][0]["events"] == 77
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/bogus")
            assert err.value.code == 404
        finally:
            server.stop()
            seg.close()

    def test_missing_segment_serves_placeholder(self, tmp_path):
        server = MetricsServer(("127.0.0.1", 0),
                               make_run_render(tmp_path / "later.live"))
        server.start()
        try:
            with urllib.request.urlopen(server.url + "/status") as resp:
                doc = json.loads(resp.read())
            assert doc["state"] == "pending"
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.read().decode() == "# EOF\n"
        finally:
            server.stop()


class TestTop:
    def _finished_segment(self, tmp_path):
        psim = build_parallel(traffic_graph(), 2, strategy="round_robin",
                              seed=9, backend="serial")
        seg_path = tmp_path / "top.live"
        live = LiveMetrics(seg_path).attach(psim)
        result = psim.run()
        live.finalize(result)
        return seg_path, result

    def test_run_top_once(self, tmp_path):
        seg_path, result = self._finished_segment(tmp_path)
        out = io.StringIO()
        assert run_top(str(seg_path), once=True, stream=out) == 0
        text = out.getvalue()
        assert "backend=serial" in text
        assert "rank" in text and "ev/s" in text
        assert "state=done" in text

    def test_top_stops_when_run_finishes(self, tmp_path):
        seg_path, _ = self._finished_segment(tmp_path)
        out = io.StringIO()
        # Not --once: the done run-state must break the refresh loop.
        assert run_top(str(seg_path), interval_s=0.01, stream=out) == 0

    def test_straggler_prefers_busy_delta(self):
        def snap(busy0, busy1, mono):
            return {"mono_now": mono, "header": {"backend": "x"},
                    "ranks": [
                        {"rank": 0, "busy_s": busy0, "events": 0},
                        {"rank": 1, "busy_s": busy1, "events": 0}]}

        first = snap(5.0, 1.0, 0.0)
        # Cumulative busy says rank 0; the recent window says rank 1.
        assert straggler(first, None) == 0
        assert straggler(snap(5.1, 3.0, 1.0), first) == 1

    def test_obs_top_cli(self, tmp_path, capsys):
        seg_path, _ = self._finished_segment(tmp_path)
        assert main(["obs", "top", str(seg_path), "--once"]) == 0
        assert "rank" in capsys.readouterr().out

    def test_obs_top_cli_missing_segment(self, tmp_path, capsys):
        assert main(["obs", "top", str(tmp_path / "no.live"),
                     "--once"]) == 1
        assert "error:" in capsys.readouterr().err


class _Recorder:
    def __init__(self):
        self.records = []

    def emit_record(self, record):
        self.records.append(record)


class TestWatchdog:
    def _snapshot(self, *, events, age_s, state=STATE_RUNNING, mono=0.0,
                  pid=None):
        return {
            "mono_now": mono,
            "ranks": [{
                "rank": 0, "pid": pid if pid is not None else os.getpid(),
                "state": state,
                "state_name": {1: "run", 2: "wait", 3: "done"}.get(state,
                                                                   "init"),
                "events": events, "sim_ps": events, "epoch": 1,
                "age_s": age_s, "busy_s": 0.0,
            }],
            "run": None,
        }

    def test_progress_stall_detected_once(self, tmp_path):
        recorder = _Recorder()
        wd = StallWatchdog(tmp_path / "w.live", threshold_s=1.0,
                           telemetry=recorder, stream=io.StringIO())
        assert wd.check(self._snapshot(events=10, age_s=0.0, mono=0.0)) == []
        # Same progress triple 2s later: stalled (and reported once).
        fresh = wd.check(self._snapshot(events=10, age_s=0.1, mono=2.0))
        assert len(fresh) == 1
        stall = fresh[0]
        assert stall["rank"] == 0 and not stall["worker_silent"]
        assert stall["progress_age_s"] == pytest.approx(2.0)
        # Own-pid stall: the dump is taken directly via faulthandler.
        assert stall["stack_dump"] is not None
        assert "check" in open(stall["stack_dump"]).read()
        assert wd.check(self._snapshot(events=10, age_s=0.2, mono=3.0)) == []
        assert recorder.records[0]["kind"] == "obs.stall"

    def test_progress_clears_the_flag(self, tmp_path):
        wd = StallWatchdog(tmp_path / "w.live", threshold_s=1.0,
                           stream=io.StringIO())
        wd.check(self._snapshot(events=10, age_s=0.0, mono=0.0))
        wd.check(self._snapshot(events=10, age_s=0.1, mono=2.0))
        # Progress resumed, then froze again: a second episode reports.
        wd.check(self._snapshot(events=20, age_s=0.1, mono=2.5))
        fresh = wd.check(self._snapshot(events=20, age_s=0.1, mono=5.0))
        assert len(fresh) == 1
        assert len(wd.stalls) == 2

    def test_silent_worker_flagged_without_dump(self, tmp_path):
        wd = StallWatchdog(tmp_path / "w.live", threshold_s=1.0,
                           stream=io.StringIO())
        wd.check(self._snapshot(events=5, age_s=0.0, state=STATE_WAITING,
                                mono=0.0))
        fresh = wd.check(self._snapshot(events=5, age_s=9.0,
                                        state=STATE_WAITING, mono=9.0))
        assert len(fresh) == 1
        assert fresh[0]["worker_silent"] is True
        assert fresh[0]["stack_dump"] is None

    def test_done_rank_never_stalls(self, tmp_path):
        wd = StallWatchdog(tmp_path / "w.live", threshold_s=1.0,
                           stream=io.StringIO())
        wd.check(self._snapshot(events=5, age_s=0.0, state=STATE_DONE,
                                mono=0.0))
        assert wd.check(self._snapshot(events=5, age_s=50.0,
                                       state=STATE_DONE, mono=50.0)) == []

    def test_injected_stall_on_processes_backend(self, tmp_path):
        """The acceptance scenario: a wedged worker is detected, its
        stack is dumped from across the process boundary, and abort
        fails the run instead of hanging it."""

        class Ticker(Component):
            def setup(self):
                self.wedge = bool(self.params.get("wedge", False))
                self.schedule(10_000, self.tick)

            def tick(self, payload=None):
                if self.wedge and self.sim.now > 2_000_000:
                    time.sleep(30)  # the injected stall
                self.schedule(10_000, self.tick)

        psim = ParallelSimulation(num_ranks=2, backend="processes")
        for rank in range(2):
            Ticker(psim.rank_sim(rank), f"t{rank}",
                   Params({"wedge": rank == 1}))
        seg_path = tmp_path / "stall.live"
        recorder = _Recorder()
        live = LiveMetrics(seg_path, interval_s=0.05,
                           watchdog_dumps=True).attach(psim)
        wd = StallWatchdog(seg_path, threshold_s=0.6, abort=True,
                           telemetry=recorder, target=psim,
                           stream=io.StringIO()).start()
        with pytest.raises(SimulationError):
            psim.run(max_time="1ms")
        wd.stop()
        live.finalize()
        assert len(wd.stalls) >= 1
        stall = wd.stalls[0]
        assert stall["rank"] == 1
        assert stall["aborted"] is True
        assert stall["worker_silent"] is False
        # The cross-process faulthandler dump names the wedged handler.
        dump = open(stall["stack_dump"]).read()
        assert "in tick" in dump
        assert any(r["kind"] == "obs.stall" for r in recorder.records)


class TestSweepLive:
    def test_fleet_lifecycle_and_status(self, tmp_path):
        path = tmp_path / "fleet.live"
        fleet = SweepLive.create(path, 3)
        start = fleet.mark_running(0)
        time.sleep(0.01)
        fleet.mark_done(0, start)
        fleet.mark_running(1)
        fleet.mark_done(2, fleet.mark_running(2), failed=True)
        view = LiveView(path)
        status = sweep_status(view)
        text = render_sweep_openmetrics(view)
        view.close()
        fleet.close()
        assert status["total"] == 3
        assert status["completed"] == 1
        assert status["running"] == 1
        assert status["failed"] == 1
        assert status["point_seconds_sum"] > 0
        assert 'repro_sweep_points{state="completed"} 1' in text
        assert text.endswith("# EOF\n")

    def test_sweep_render_tolerates_missing_segment(self, tmp_path):
        render = make_sweep_render(tmp_path / "later.live")
        status, text = render()
        assert status["state"] == "pending"
        assert text == "# EOF\n"

    def test_dse_sweep_populates_fleet_segment(self, tmp_path):
        from repro.dse import sweep

        path = tmp_path / "sweep.live"
        result = sweep(workloads=["hpccg"], widths=[1, 4],
                       technologies=["DDR3-1333"], instructions=100_000,
                       live_path=path)
        assert len(result.points) == 2
        view = LiveView(path)
        status = sweep_status(view.snapshot())
        view.close()
        assert status["total"] == 2
        assert status["completed"] == 2
        assert status["failed"] == 0
        assert status["eta_s"] == pytest.approx(0.0)


class TestCliRunFlags:
    def test_run_with_live_flags_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "machine.json"
        save(traffic_graph(), config)
        metrics = tmp_path / "m.jsonl"
        assert main(["run", str(config), "--ranks", "2",
                     "--metrics", str(metrics),
                     "--serve-metrics", "127.0.0.1:0",
                     "--watchdog", "30"]) == 0
        out = capsys.readouterr().out
        assert f"live segment -> {metrics}.live" in out
        assert "serving metrics on http://127.0.0.1:" in out
        seg = default_segment_path(metrics)
        assert seg.is_file()
        view = LiveView(seg)
        assert view.read_run()["state"] == STATE_DONE
        view.close()
        # The manifest advertises the segment; obs report surfaces it.
        assert main(["obs", "report", str(metrics)]) == 0
        assert f"live segment: {seg}" in capsys.readouterr().out
