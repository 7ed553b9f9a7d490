"""The timer path: one queue entry per timer, carrying the callback.

``Component.schedule`` and ``Simulation.schedule_callback`` push
``(time, priority, seq, callback, payload)``, and the kernel calls
``callback(payload)`` as it calls a port handler with its event.  These
tests pin what that must not change: observers attribute a timer to the
component method that was scheduled, the causal tracer still sees the
push, and a run snapshotted with timers pending — a ``MixCore`` block
end, a ``NodePool`` job completion carrying its ``Job`` — resumes
bit-identically, sequentially and on two ranks of either backend.  A
``repro-ckpt/1`` snapshot, whose timers may be in the older trampoline
form (an engine callback plus a wrapper event holding callback and
payload), is refused.
"""

from __future__ import annotations

import pickle

import pytest

from repro.ckpt import CheckpointError, restore, snapshot, snapshot_info
from repro.cluster.events import Job
from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, Params, Simulation
from repro.core.link import port_of
from repro.obs import CausalCapture, ChromeTraceExporter, HandlerProfiler
from repro.obs.critpath import load_causal
from repro.processor import MixCore
from tests.unit.test_ckpt import OLD_SCHEMA_REFUSED, stamp_schema
from tests.unit.test_determinism import RecordingQueue

#: Snapshot time: block ends and job completions are both pending.
_CUT_PS = 300_000_000


def _timer_graph() -> ConfigGraph:
    """A two-core node beside a job pipeline whose node pool sits on
    rank 1 when split, so a 2-rank run has cross-rank epochs."""
    g = ConfigGraph("timers")
    g.component("mem", "memory.NodeMemory",
                {"technology": "DDR3-1333", "n_ports": 2})
    for i in range(2):
        g.component(f"core{i}", "processor.MixCore",
                    {"workload": "hpccg", "instructions": 800_000,
                     "issue_width": 2})
        g.link(f"core{i}", "mem", "mem", f"core{i}", latency="1ns")
    g.component("src", "cluster.JobSource",
                {"jobs": 40, "mean_interarrival": "10us",
                 "mean_runtime": "100us", "max_nodes": 4, "window": 4})
    g.component("sched", "cluster.Scheduler",
                {"nodes": 8, "policy": "cluster.EASYBackfill"})
    g.component("pool", "cluster.NodePool", {"nodes": 8})
    g.component("slo", "cluster.SLOStats", {"capacity": 8})
    g.link("src", "out", "sched", "submit", latency="10ns")
    g.link("sched", "pool", "pool", "sched", latency="10ns")
    g.link("sched", "report", "slo", "report", latency="10ns")
    for comp in g.components():
        comp.rank = 1 if comp.name in ("pool", "slo") else 0
    return g


def _timers(records):
    """``(method name, payload type)`` of pending component timers."""
    return {(record[3].__name__, type(record[4]).__name__)
            for record in records
            if port_of(record[3]) is None
            and isinstance(getattr(record[3], "__self__", None), Component)}


_PENDING = {("_finish_block", "NoneType"), ("_complete", "Job")}


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------

class TestTimerAttribution:
    def test_profiler_attributes_timers_to_the_scheduled_method(self):
        sim = build(_timer_graph(), seed=3)
        with HandlerProfiler(sim) as prof:
            sim.run()
        rows = {(r.component, r.handler, r.event_type): r.count
                for r in prof.rows()}
        blocks = sim.component("core0").s_blocks.count
        assert rows[("core0", "_finish_block", "-")] == blocks
        assert rows[("pool", "_complete", "Job")] == 40

    def test_chrome_spans_name_the_scheduled_method(self):
        sim = build(_timer_graph(), seed=3)
        exporter = ChromeTraceExporter()
        exporter.attach(sim)
        sim.run()
        exporter.detach()
        spans = {(e["name"], e["cat"])
                 for e in exporter.trace_dict()["traceEvents"]
                 if e["ph"] == "X"}
        assert ("core0._finish_block", "-") in spans
        assert ("pool._complete", "Job") in spans

    def test_causal_tracer_sees_the_timer_push(self, tmp_path):
        """A core with no memory is a chain of timers: each block end is
        caused by the block end that scheduled it."""
        sim = Simulation(seed=1)
        MixCore(sim, "core", Params({"workload": "hpccg",
                                     "instructions": 500_000}))
        capture = CausalCapture(tmp_path / "m.jsonl").attach(sim)
        sim.run()
        capture.close()
        graph = load_causal(tmp_path / "m.jsonl")
        nodes = sorted(graph.nodes)
        assert len(nodes) == 5
        assert {graph.component_of(n) for n in nodes} == {("core", "MixCore")}
        assert {graph.event_of(n) for n in nodes} == {"-"}
        causes = [graph.nodes[n][2] for n in nodes]
        assert causes == [None] + [seq for _rank, seq in nodes[:-1]]


# ----------------------------------------------------------------------
# checkpoints with pending timers
# ----------------------------------------------------------------------

def _reference():
    sim = build(_timer_graph(), seed=3)
    sim._queue = RecordingQueue(sim._queue, [])
    result = sim.run()
    return sim._queue.trace, sim.stat_values(), result


def test_sequential_snapshot_with_pending_timers_resumes_exactly(tmp_path):
    trace, stats, cold = _reference()
    sim = build(_timer_graph(), seed=3)
    sim.run(max_time=_CUT_PS, finalize=False)
    assert _PENDING <= _timers(sim._queue.snapshot_records())
    resumed = restore(snapshot(sim, tmp_path / "timers"))
    assert _PENDING <= _timers(resumed._queue.snapshot_records())
    resumed._queue = RecordingQueue(resumed._queue, [])
    result = resumed.run()
    suffix = [entry for entry in trace if entry[0] > _CUT_PS]
    assert suffix
    assert resumed._queue.trace == suffix
    assert resumed.stat_values() == stats
    assert (result.reason, result.end_time) == (cold.reason, cold.end_time)


def test_two_rank_snapshots_with_pending_timers_resume_exactly(tmp_path):
    reference = build_parallel(_timer_graph(), 2, seed=3)
    reference.run()
    stats = reference.stat_values()
    for backend in ("serial", "processes"):
        psim = build_parallel(_timer_graph(), 2, seed=3, backend=backend)
        assert psim.cross_link_count > 0
        root = tmp_path / backend
        psim.run(checkpoint_every=_CUT_PS, checkpoint_dir=str(root))
        assert psim.stat_values() == stats, backend
        mid = psim.checkpoints_written[0]
        assert snapshot_info(mid)["sim_time_ps"] < 2 * _CUT_PS
        resumed = restore(mid, backend=backend)
        pending = set()
        for rank in range(2):
            pending |= _timers(resumed.rank_sim(rank)._queue
                               .snapshot_records())
        assert _PENDING <= pending, backend
        try:
            resumed.run()
            assert resumed.stat_values() == stats, backend
        finally:
            resumed.close()


# ----------------------------------------------------------------------
# trampoline-era snapshots
# ----------------------------------------------------------------------

#: A shard naming the timer trampoline, which ``repro-ckpt/1`` snapshots
#: may hold and the engine no longer defines.
_TRAMPOLINE_SHARD = b"crepro.core.simulation\n_invoke_callback\n."


def test_trampoline_era_snapshot_is_refused(tmp_path):
    """Refused by its schema before the shard is unpickled: one
    CheckpointError naming both schemas, never an AttributeError."""
    with pytest.raises(AttributeError, match="_invoke_callback"):
        pickle.loads(_TRAMPOLINE_SHARD)
    sim = build(_timer_graph(), seed=3)
    sim.run(max_time=_CUT_PS, finalize=False)
    path = snapshot(sim, tmp_path / "trampoline-era")
    stamp_schema(path, "repro-ckpt/1", shard=_TRAMPOLINE_SHARD)
    with pytest.raises(CheckpointError, match=OLD_SCHEMA_REFUSED):
        restore(path)


def test_job_payload_survives_as_the_timer_event(tmp_path):
    sim = build(_timer_graph(), seed=3)
    sim.run(max_time=_CUT_PS, finalize=False)
    resumed = restore(snapshot(sim, tmp_path / "jobs"))
    jobs = [r[4] for r in resumed._queue.snapshot_records()
            if getattr(r[3], "__name__", "") == "_complete"]
    assert jobs and all(isinstance(job, Job) for job in jobs)
