"""Tests for the cluster workload family and the subcomponent-slot layer.

Covers the slot mechanics end to end (registry resolution, choices and
base-class validation at graph build, scoped sub-params, statistics
registered through the parent), the scheduling pipeline itself
(conservation, rejection, policy ablation, determinism), checkpointing
an in-flight backfill queue, a burst on the wire and the generator-backed
job stream, the SWF-style trace reader, each policy's ``pick`` against
its old body, and the bursty ≥1M-event heap stress demanded by the
workload's scale.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Job, JobSource, NodePool, Scheduler
from repro.cluster import node as node_module
from repro.cluster.scheduler import EASYBackfillPolicy, FCFSPolicy
from repro.config import ConfigGraph, build
from repro.config.graph import ConfigError
from repro.core import SubComponent, sweep_axes
from repro.core.eventqueue import HeapEventQueue


def cluster_graph(policy="cluster.FCFS", jobs=300, nodes=16, *,
                  mode="poisson", mean_interarrival="2ms",
                  mean_runtime="40ms", extra_sched=None,
                  source_extra=None) -> ConfigGraph:
    g = ConfigGraph("test-cluster")
    g.component("src", "cluster.JobSource",
                {"jobs": jobs, "mode": mode,
                 "mean_interarrival": mean_interarrival,
                 "mean_runtime": mean_runtime, "max_nodes": 8,
                 "window": 4, **(source_extra or {})})
    g.component("sched", "cluster.Scheduler",
                {"nodes": nodes, "policy": policy, **(extra_sched or {})})
    g.component("pool", "cluster.NodePool", {"nodes": nodes})
    g.component("slo", "cluster.SLOStats", {"capacity": nodes})
    g.link("src", "out", "sched", "submit", latency="10ns")
    g.link("sched", "pool", "pool", "sched", latency="10ns")
    g.link("sched", "report", "slo", "report", latency="10ns")
    return g


class TestSlotMechanics:
    def test_slot_resolves_registered_type_from_params(self):
        sim = build(cluster_graph("cluster.EASYBackfill"), seed=3)
        sched = sim.component("sched")
        assert isinstance(sched.policy, EASYBackfillPolicy)
        assert isinstance(sched.policy, SubComponent)
        assert sched.policy.parent is sched
        assert sched.policy.name == "policy"

    def test_slot_default_used_when_param_absent(self):
        from repro.core import Params, Simulation

        sim = Simulation(seed=1)
        sched = Scheduler(sim, "s", Params({"nodes": 4}))
        assert isinstance(sched.policy, FCFSPolicy)

    def test_sub_statistics_register_on_parent(self):
        sim = build(cluster_graph("cluster.EASYBackfill"), seed=3)
        sched = sim.component("sched")
        registered = sched.stats.all()
        assert registered["policy.scheduled"] is sched.policy.s_scheduled
        assert registered["policy.backfilled"] is sched.policy.s_backfilled
        sim.run()
        # Slot stats surface through the ordinary engine rollup.
        values = sim.stat_values()
        assert "sched.policy.scheduled" in values
        assert values["sched.policy.scheduled"] > 0

    def test_scoped_slot_params_reach_the_subcomponent(self):
        sim = build(cluster_graph("cluster.EASYBackfill",
                                  extra_sched={"policy.scan_limit": 5}),
                    seed=3)
        assert sim.component("sched").policy.scan_limit == 5

    def test_unknown_slot_type_is_build_time_config_error(self):
        with pytest.raises(ConfigError, match="unknown subcomponent type"):
            build(cluster_graph("cluster.NoSuchPolicy"), seed=3)

    def test_component_type_in_slot_rejected(self):
        # A Component is not a SubComponent: the slot's base check fires.
        with pytest.raises(ConfigError):
            build(cluster_graph("cluster.JobSource"), seed=3)

    def test_slot_choices_enforced(self):
        # Registered subcomponent of the right base but outside choices.
        from repro.core.registry import register

        @register("testlib.RoguePolicy")
        class RoguePolicy(FCFSPolicy):
            pass

        with pytest.raises(ConfigError, match="not one of"):
            build(cluster_graph("testlib.RoguePolicy"), seed=3)

    def test_subcomponent_rng_is_stable_per_slot(self):
        sim = build(cluster_graph(), seed=3)
        sim2 = build(cluster_graph(), seed=3)
        a = sim.component("sched").policy.rng.integers(0, 1 << 30, 4)
        b = sim2.component("sched").policy.rng.integers(0, 1 << 30, 4)
        assert list(a) == list(b)

    def test_telemetry_gauges_include_slot_state(self):
        sim = build(cluster_graph("cluster.EASYBackfill"), seed=3)
        gauges = sim.component("sched").telemetry_gauges()
        assert "policy._shadow_ps" in gauges


class TestSweepAxes:
    def test_scheduler_policy_axis_from_slot_choices(self):
        axes = sweep_axes(Scheduler)
        assert axes["policy"] == ("cluster.FCFS", "cluster.EASYBackfill",
                                  "cluster.Priority")

    def test_param_choices_become_axes(self):
        axes = sweep_axes(JobSource)
        assert axes["mode"] == ("poisson", "burst", "trace")

    def test_params_without_choices_are_not_axes(self):
        assert "jobs" not in sweep_axes(JobSource)
        assert "nodes" not in sweep_axes(Scheduler)


class TestClusterPipeline:
    def test_every_submitted_job_completes_and_reports(self):
        sim = build(cluster_graph(jobs=200), seed=7, validate_events=True)
        result = sim.run()
        assert result.reason == "exit"
        v = sim.stat_values()
        assert v["src.emitted"] == 200
        assert v["sched.submitted"] == 200
        assert v["sched.completed"] == 200
        assert v["slo.jobs"] == 200
        # all nodes returned, nothing left allocated
        sched = sim.component("sched")
        assert sched._free == sched.nodes and not sched._running

    def test_scheduler_without_a_report_port_runs_to_exit(self):
        g = ConfigGraph("no-report")
        g.component("src", "cluster.JobSource", {"jobs": 120, "window": 4})
        g.component("sched", "cluster.Scheduler",
                    {"nodes": 16, "policy": "cluster.EASYBackfill"})
        g.component("pool", "cluster.NodePool", {"nodes": 16})
        g.link("src", "out", "sched", "submit", latency="10ns")
        g.link("sched", "pool", "pool", "sched", latency="10ns")
        sim = build(g, seed=7)
        assert "report" not in sim.component("sched")._ports
        assert sim.run().reason == "exit"
        assert sim.stat_values()["sched.completed"] == 120

    def test_too_wide_jobs_rejected_not_wedged(self):
        # 8-node-wide jobs against a 4-node machine must be dropped
        # without stalling the exit protocol.
        sim = build(cluster_graph(jobs=120, nodes=4), seed=7)
        result = sim.run()
        assert result.reason == "exit"
        v = sim.stat_values()
        assert v["sched.rejected"] > 0
        assert v["sched.submitted"] + v["sched.rejected"] == 120
        assert v["sched.completed"] == v["sched.submitted"]

    def test_backfill_strictly_beats_fcfs_utilization(self):
        def util(policy):
            sim = build(cluster_graph(policy, jobs=400), seed=7)
            sim.run()
            return sim.component("slo").manifest_summary()

        fcfs, easy = util("cluster.FCFS"), util("cluster.EASYBackfill")
        assert easy["utilization"] > fcfs["utilization"]
        assert easy["jobs"] == fcfs["jobs"] == 400
        assert easy["makespan_s"] <= fcfs["makespan_s"]

    def test_same_seed_same_stats(self):
        runs = []
        for _ in range(2):
            sim = build(cluster_graph("cluster.EASYBackfill", jobs=150),
                        seed=11)
            sim.run()
            runs.append(sim.stat_values())
        assert runs[0] == runs[1]

    def test_burst_mode_floods_same_timestamp(self):
        sim = build(cluster_graph(jobs=128, mode="burst",
                                  source_extra={"burst_size": 32,
                                                "burst_gap": "100ms"}),
                    seed=7)
        result = sim.run()
        assert result.reason == "exit"
        assert sim.stat_values()["slo.jobs"] == 128

    def test_torus_placement_records_span(self):
        sim = build(cluster_graph(jobs=150), seed=7)
        sim.run()
        v = sim.stat_values()
        assert v["pool.energy_j"] > 0
        pool = sim.component("pool")
        assert pool.s_span.count > 0
        assert pool.s_span.maximum <= sum(pool._dims)

    def test_manifest_carries_slo_summary(self):
        from repro.obs import build_manifest

        g = cluster_graph(jobs=100)
        sim = build(g, seed=7)
        result = sim.run()
        manifest = build_manifest(sim, result, graph=g)
        slo = manifest["summary"]["slo"]
        assert slo["jobs"] == 100
        assert 0 < slo["utilization"] <= 1
        assert slo["p95_bounded_slowdown"] >= 1

    def test_slo_gauges_are_derived_on_read(self):
        """``SLOStats`` keeps no per-report gauge state: makespan and
        utilization are derived from its statistics when sampled, with
        the values the per-report update wrote, and read 0 before the
        first job (where the accumulators still hold +-inf)."""
        sim = build(cluster_graph(jobs=120), seed=7)
        slo = sim.component("slo")
        assert slo.telemetry_gauges() == {"_utilization": 0.0,
                                          "_makespan_ps": 0.0}
        assert not {"_utilization", "_makespan_ps"} & \
            slo.capture_state().keys()
        for cut in ("50ms", "150ms", "400ms"):
            sim.run(max_time=cut, finalize=False)
            assert slo.s_jobs.count > 0
            span = slo.s_end.maximum - slo.s_submit.minimum
            assert slo.telemetry_gauges() == {
                "_utilization": slo.s_busy.count / (16 * span),
                "_makespan_ps": float(int(span))}


class TestClusterCheckpoint:
    def test_snapshot_mid_backfill_restores_bit_identical(self, tmp_path):
        from repro.ckpt import restore, snapshot

        def make():
            return cluster_graph("cluster.EASYBackfill", jobs=250)

        cold = build(make(), seed=7)
        cold_result = cold.run()
        cold_stats = cold.stat_values()

        warm = build(make(), seed=7)
        warm.run(max_time=cold_result.end_time // 2, finalize=False)
        sched = warm.component("sched")
        # The snapshot genuinely lands mid-backfill: pending queue and
        # in-flight jobs both non-empty.
        assert sched._queue or sched._running
        path = snapshot(warm, tmp_path / "mid-backfill")
        resumed = restore(path)
        # Restored slot holds a fresh, equivalent subcomponent.
        rsched = resumed.component("sched")
        assert isinstance(rsched.policy, EASYBackfillPolicy)
        assert rsched.policy.parent is rsched
        result = resumed.run()
        assert resumed.stat_values() == cold_stats
        assert result.end_time == cold_result.end_time

    def test_checkpoint_size_independent_of_trace_length(self, tmp_path):
        """Generator-backed arrival state: a 100x longer trace must not
        grow the snapshot (the stream is replayed, not stored)."""
        from repro.ckpt import snapshot

        sizes = {}
        for jobs in (1_000, 100_000):
            sim = build(cluster_graph(jobs=jobs), seed=7)
            sim.run(max_time=100_000_000, finalize=False)  # 100us warmup
            path = snapshot(sim, tmp_path / f"snap-{jobs}")
            sizes[jobs] = sum(f.stat().st_size
                              for f in path.rglob("*") if f.is_file())
            sim.finish()
        assert sizes[100_000] < sizes[1_000] * 1.5

    def test_restored_source_continues_exact_stream(self, tmp_path):
        from repro.ckpt import restore, snapshot

        cold = build(cluster_graph(jobs=120), seed=13)
        cold.run()
        cold_emitted = cold.stat_values()["src.emitted"]

        warm = build(cluster_graph(jobs=120), seed=13)
        warm.run(max_time=50_000_000_000, finalize=False)
        resumed = restore(snapshot(warm, tmp_path / "src-snap"))
        resumed.run()
        assert resumed.stat_values()["src.emitted"] == cold_emitted

    @pytest.mark.parametrize("captured, restored", [(1, 1), (2, 2), (2, 1),
                                                    (1, 2)],
                             ids=["exact-seq", "exact-2rank", "2to1", "1to2"])
    def test_every_restore_fires_the_policy_hook_first(
            self, tmp_path, monkeypatch, captured, restored):
        """Exact and re-partitioned restores alike fire the policy
        subcomponent's ``on_restore`` once, before the scheduler's."""
        from repro.ckpt import restore, snapshot, snapshot_parallel
        from repro.cluster.scheduler import SchedPolicy
        from repro.config import build_parallel

        graph = cluster_graph("cluster.EASYBackfill", jobs=120)
        if captured == 1:
            warm = build(graph, seed=7)
            warm.run(max_time=50_000_000_000, finalize=False)
            path = snapshot(warm, tmp_path / "snap")
        else:
            warm = build_parallel(graph, 2, seed=7)
            warm.run(max_time=50_000_000_000)
            path = snapshot_parallel(warm, tmp_path / "snap")
            warm.close()
        calls = []
        monkeypatch.setattr(SchedPolicy, "on_restore",
                            lambda self: calls.append(("policy", self.name)))
        monkeypatch.setattr(Scheduler, "on_restore",
                            lambda self: calls.append(("sched", self.name)))
        resumed = restore(path, ranks=restored)
        assert calls == [("policy", "policy"), ("sched", "sched")]
        if restored > 1:
            resumed.close()

    @pytest.mark.parametrize("mode", ["sequential", "processes"])
    @pytest.mark.parametrize("policy", ["cluster.FCFS",
                                        "cluster.EASYBackfill",
                                        "cluster.Priority"])
    def test_snapshot_mid_burst_restores_bit_identical(self, tmp_path,
                                                       policy, mode):
        """A snapshot taken while a whole burst is on the wire — its
        arrivals share one delivery time — with a backed-up queue and
        running jobs resumes to the uninterrupted run's statistics."""
        from repro.ckpt import restore, snapshot, snapshot_parallel
        from repro.cluster import JobArrival
        from repro.config import build_parallel

        def make():
            return cluster_graph(policy, jobs=400, mode="burst")

        cold = build(make(), seed=7)
        cold_result = cold.run()
        cold_stats = cold.stat_values()

        # Bursts land every 100ms from 100ms on; the source emits the
        # fourth one at 400ms and its arrivals cross a 10ns link.
        cut = 400_000_000_000 + 5_000
        warm = build(make(), seed=7)
        warm.run(max_time=cut, finalize=False)
        sched = warm.component("sched")
        assert sched._queue and sched._running
        arrivals = [record.time
                    for record in warm._queue.snapshot_records()
                    if isinstance(record.event, JobArrival)]
        assert len(arrivals) >= 2 and len(set(arrivals)) == 1

        if mode == "sequential":
            path = snapshot(warm, tmp_path / "mid-burst")
        else:
            warm.finish()
            warm = build_parallel(make(), 2, seed=7, backend=mode)
            try:
                warm.run(max_time=cut)
                path = snapshot_parallel(warm, tmp_path / "mid-burst")
            finally:
                warm.close()
        resumed = restore(path)
        try:
            result = resumed.run()
            assert resumed.stat_values() == cold_stats
            assert result.end_time == cold_result.end_time
        finally:
            if mode != "sequential":
                resumed.close()


class TestTraceReader:
    SWF = """\
; SWF-ish header comment
# another comment
1 0    0 120 2  -1 -1 2 200 -1
2 5    0  60 1  -1 -1 1 100 -1
3 12   0 240 4  -1 -1 4 300 -1
4 30   0  30 1  -1 -1 1  -1 -1
"""

    def test_swf_trace_drives_the_pipeline(self, tmp_path):
        trace = tmp_path / "tiny.swf"
        trace.write_text(self.SWF, encoding="utf-8")
        g = cluster_graph(mode="trace",
                          source_extra={"trace": str(trace),
                                        "trace_unit": "1ms", "jobs": 0})
        sim = build(g, seed=7)
        result = sim.run()
        assert result.reason == "exit"
        v = sim.stat_values()
        assert v["src.emitted"] == 4
        assert v["slo.jobs"] == 4
        # submit gaps respect the trace: last submit at 30 trace-seconds
        slo = sim.component("slo")
        assert slo.s_submit.maximum == 30 * 1_000_000_000  # 30 x 1ms

    def test_trace_job_cap(self, tmp_path):
        trace = tmp_path / "tiny.swf"
        trace.write_text(self.SWF, encoding="utf-8")
        g = cluster_graph(mode="trace",
                          source_extra={"trace": str(trace),
                                        "trace_unit": "1ms", "jobs": 2})
        sim = build(g, seed=7)
        sim.run()
        assert sim.stat_values()["src.emitted"] == 2


def _reference_hops(a, b, dims):
    """Torus hop distance, as NodePool computed it before memoizing."""
    hops = 0
    for x, y, size in zip(a, b, dims):
        d = abs(x - y)
        hops += min(d, size - d)
    return hops


def _reference_unflatten(index, dims):
    coords = []
    for size in reversed(dims):
        coords.append(index % size)
        index //= size
    return tuple(reversed(coords))


def _reference_place(free, want, dims):
    """Old ``NodePool._place``: re-derive every free node's distance."""
    if want >= len(free):
        chosen = free[:want]
    else:
        seed = _reference_unflatten(free[0], dims)
        chosen = sorted(
            free, key=lambda n: (_reference_hops(
                _reference_unflatten(n, dims), seed, dims), n))[:want]
    taken = set(chosen)
    return tuple(chosen), [n for n in free if n not in taken]


def _reference_span(alloc, dims):
    """Old ``NodePool._span``: every pair of the allocation, re-derived."""
    if len(alloc) < 2:
        return 0
    coords = [_reference_unflatten(n, dims) for n in alloc]
    return max(_reference_hops(a, b, dims)
               for i, a in enumerate(coords) for b in coords[i + 1:])


@st.composite
def torus_pools(draw):
    """A torus pool, a sorted free set and a run of launch widths."""
    x = draw(st.integers(1, 9))
    y = draw(st.integers(1, 9))
    nodes = x * y
    free = sorted(draw(st.sets(st.integers(0, nodes - 1), min_size=1)))
    widths = draw(st.lists(st.integers(1, nodes), min_size=1, max_size=6))
    small_memo = draw(st.booleans())
    return x, nodes, free, widths, small_memo


class TestPlacementGeometry:
    """The memoized placement equals the formulas it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(torus_pools())
    def test_place_and_span_match_the_old_formulas(self, case):
        from repro.core import Params, Simulation

        x, nodes, free, widths, small_memo = case
        saved = node_module._HOP_CACHE_CELLS
        # A memo smaller than two rows starts over on nearly every miss.
        node_module._HOP_CACHE_CELLS = nodes if small_memo else saved
        try:
            pool = NodePool(Simulation(seed=1), "pool",
                            Params({"nodes": nodes, "torus_x": x}))
            dims = pool._dims
            assert dims == (x, nodes // x)
            pool._free = list(free)
            expected_free = list(free)
            allocs = []
            for want in widths:
                if want > len(expected_free):
                    break
                alloc, expected_free = _reference_place(
                    expected_free, want, dims)
                assert pool._place(want) == alloc
                assert pool._free == expected_free
                assert pool._span(alloc) == _reference_span(alloc, dims)
                allocs.append(alloc)
            # Again, in reverse node order, from a warm memo.
            for alloc in allocs:
                backwards = tuple(reversed(alloc))
                assert pool._span(backwards) == _reference_span(backwards, dims)
                assert pool._span(alloc) == _reference_span(alloc, dims)
        finally:
            node_module._HOP_CACHE_CELLS = saved

    def test_memoized_geometry_is_not_checkpointed(self):
        sim = build(cluster_graph(jobs=40), seed=7)
        sim.run()
        pool = sim.component("pool")
        assert pool._hop_rows, "placement never consulted the memo"
        state = pool.capture_state()
        assert "_coords" not in state and "_hop_rows" not in state


class _ReferenceCounter:
    def __init__(self):
        self.count = 0

    def add(self, n=1):
        self.count += n


class _ReferencePolicy:
    """Stands in for ``self`` in the old ``pick`` bodies below."""

    def __init__(self, scan_limit):
        self.scan_limit = scan_limit
        self._shadow_ps = 0
        self.s_scheduled = _ReferenceCounter()
        self.s_head_blocked = _ReferenceCounter()
        self.s_backfilled = _ReferenceCounter()
        self.s_jumped = _ReferenceCounter()


def _reference_fcfs_pick(self, queue, free, now, running):
    """Old ``FCFSPolicy.pick``."""
    picked = []
    for job in queue:
        if job.nodes > free:
            self.s_head_blocked.add()
            break
        picked.append(job)
        free -= job.nodes
    self.s_scheduled.add(len(picked))
    return picked


def _reference_easy_pick(self, queue, free, now, running):
    """Old ``EASYBackfillPolicy.pick``: concatenated releases through
    ``sorted``, the scan over a slice of the queue."""
    picked = []
    i = 0
    while i < len(queue) and queue[i].nodes <= free:
        job = queue[i]
        picked.append(job)
        free -= job.nodes
        i += 1
    self.s_scheduled.add(len(picked))
    if i >= len(queue):
        self._shadow_ps = 0
        return picked
    head = queue[i]
    releases = sorted(
        [(end, n) for end, n in running.values()]
        + [(now + j.estimate_ps, j.nodes) for j in picked])
    avail = free
    shadow = None
    extra = 0
    for end, n in releases:
        avail += n
        if avail >= head.nodes:
            shadow = end
            extra = avail - head.nodes
            break
    if shadow is None:
        self._shadow_ps = 0
        return picked
    self._shadow_ps = shadow
    scanned = 0
    for job in queue[i + 1:]:
        if scanned >= self.scan_limit or free <= 0:
            break
        scanned += 1
        if job.nodes > free:
            continue
        ends_before_shadow = now + job.estimate_ps <= shadow
        if ends_before_shadow or job.nodes <= extra:
            picked.append(job)
            free -= job.nodes
            if not ends_before_shadow:
                extra -= job.nodes
            self.s_backfilled.add()
    return picked


def _reference_priority_pick(self, queue, free, now, running):
    """Old ``PriorityPolicy.pick`` (its ``jumped`` count was wrong)."""
    window = queue[:self.scan_limit]
    order = sorted(window,
                   key=lambda j: (-j.priority, j.submit_ps, j.job_id))
    picked = []
    for job in order:
        if job.nodes <= free:
            if job is not window[0]:
                self.s_jumped.add()
            picked.append(job)
            free -= job.nodes
    self.s_scheduled.add(len(picked))
    return picked


REFERENCE_PICKS = {
    "cluster.FCFS": (_reference_fcfs_pick, ("scheduled", "head_blocked")),
    "cluster.EASYBackfill": (_reference_easy_pick,
                             ("scheduled", "backfilled")),
    "cluster.Priority": (_reference_priority_pick, ("scheduled",)),
}


def make_policy(policy, scan_limit=None):
    """A fresh policy subcomponent, loaded through a scheduler's slot."""
    from repro.core import Params, Simulation

    params = {"nodes": 16, "policy": policy}
    if scan_limit is not None:
        params["policy.scan_limit"] = scan_limit
    return Scheduler(Simulation(seed=1), "sched", Params(params)).policy


@st.composite
def pick_passes(draw):
    """One scheduling pass's inputs: a queue (heads may be wider than
    the machine ever gets), free nodes, ``now``, a running set whose
    estimated ends may already have passed, and a ``scan_limit`` that
    often cuts the queue short."""
    # Narrow time ranges: a backfill candidate often ends exactly at
    # the shadow time.
    n = draw(st.integers(0, 24))
    widths = st.integers(1, 4) | st.integers(5, 24)
    jobs = [Job(draw(st.integers(1, 8)), draw(st.integers(0, 4)),
                draw(widths), 1, draw(st.integers(1, 40)),
                priority=draw(st.integers(0, 3)))
            for _ in range(n)]
    free = draw(st.integers(0, 16))
    now = draw(st.integers(0, 20))
    running = {job_id: (draw(st.integers(0, 60)), draw(st.integers(1, 8)))
               for job_id in draw(st.sets(st.integers(100, 140),
                                          max_size=10))}
    scan_limit = draw(st.one_of(st.integers(0, 6), st.just(1024)))
    return jobs, free, now, running, scan_limit


class TestPickMatchesTheOldBodies:
    """Every policy's ``pick`` launches what its old body launched."""

    @settings(max_examples=300, deadline=None)
    @given(pick_passes(), st.sampled_from(sorted(REFERENCE_PICKS)))
    def test_same_jobs_shadow_and_counters(self, case, policy):
        jobs, free, now, running, scan_limit = case
        reference, counters = REFERENCE_PICKS[policy]
        old = _ReferencePolicy(scan_limit)
        new = make_policy(policy, None if policy == "cluster.FCFS"
                          else scan_limit)
        queue = list(jobs)
        expected = reference(old, list(jobs), free, now, dict(running))
        got = new.pick(queue, free, now, running)
        assert [id(j) for j in got] == [id(j) for j in expected]
        assert [id(j) for j in queue] == [id(j) for j in jobs]
        assert getattr(new, "_shadow_ps", 0) == old._shadow_ps
        for name in counters:
            assert (getattr(new, f"s_{name}").count
                    == getattr(old, f"s_{name}").count), name


class TestPriorityJumped:
    """``jumped`` counts launches made while an earlier arrival in the
    window was still waiting."""

    def test_in_order_launches_jump_nothing(self):
        policy = make_policy("cluster.Priority")
        queue = [Job(k, k, 1, 10, 10, priority=5) for k in (1, 2, 3)]
        assert policy.pick(queue, 8, 0, {}) == queue
        assert policy.s_jumped.count == 0

    def test_one_launch_ahead_of_a_waiting_arrival(self):
        policy = make_policy("cluster.Priority")
        early, urgent, *rest = [Job(1, 0, 2, 10, 10),
                                Job(2, 1, 2, 10, 10, priority=9),
                                Job(3, 2, 1, 10, 10), Job(4, 3, 1, 10, 10)]
        picked = policy.pick([early, urgent, *rest], 8, 0, {})
        assert picked == [urgent, early, *rest]
        assert policy.s_jumped.count == 1

    def test_launches_behind_an_unlaunched_head_all_jump(self):
        policy = make_policy("cluster.Priority")
        queue = [Job(1, 0, 8, 10, 10), Job(2, 1, 2, 10, 10, priority=9),
                 Job(3, 2, 1, 10, 10)]
        assert policy.pick(queue, 4, 0, {}) == queue[1:]
        assert policy.s_jumped.count == 2


class TestArrivalStress:
    """Satellite: >=1M queued arrival events through the heap path."""

    def test_million_event_burst_waves_stay_bounded_and_ordered(self):
        queue = HeapEventQueue()
        total = 1_000_000
        wave = 50_000  # live queue depth per wave (bursty flood shape)
        pushed = popped = 0
        t = 0
        last = (-1, -1, -1)
        while popped < total:
            while pushed < total and pushed - popped < wave:
                # bursts of 64 share a timestamp, like burst arrivals
                t += 1 if pushed % 64 == 0 else 0
                queue.push(t, pushed % 3, None, None)
                pushed += 1
            record = queue.pop()
            key = (record.time, record.priority, record.seq)
            assert key > last, f"pop order regressed: {key} after {last}"
            last = key
            popped += 1
            assert len(queue) < wave
        assert len(queue) == 0
        assert queue.seq == total
