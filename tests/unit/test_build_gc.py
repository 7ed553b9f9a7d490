"""The build path and CPython's cyclic garbage collector.

``config.build`` and ``config.build_parallel`` pause the collector
while they construct and wire components, so a large machine pays one
young collection instead of one per few hundred allocations.  These
tests pin the three promises that come with the pause: every build
path (``ckpt.restore`` included) leaves the collector as the caller had
it, also when a constructor raises; a 10 000-component build triggers
at most two collections; and a dropped machine is still reclaimed.
They also pin how many objects a ``bench.Ticker``-shaped component
leaves for the collector to track, which is what the young collection
after the build walks.

It also pins that a restored component keeps CPython's inline attribute
values (3.11 and later): ``Component.restore_state`` applies a snapshot
with ``setattr``, so neither ``ckpt.restore`` nor the processes
backend's end-of-run re-homing of worker ranks materialises an instance
dict.
"""

from __future__ import annotations

import gc
import sys
import weakref

import pytest

from repro.ckpt import restore, snapshot
from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, Params, Simulation, param, register, stat


@register("testlib.GcTicker")
class GcTicker(Component):
    """``bench.Ticker``'s construction shape: two int parameters, one
    counter, one 1 GHz clock per component."""

    lcg_seed = param(1, doc="initial LCG state")
    ticks = param(3, doc="ticks before the clock unregisters")

    s_final = stat.counter("final_state", doc="LCG state after the last tick")

    #: set by a test to make every constructor raise
    fail_construction = False

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        if self.fail_construction:
            raise RuntimeError(f"{name}: constructor failed")
        self.x = int(self.lcg_seed)
        self.last = int(self.ticks)
        self.register_clock("1GHz", self.on_tick)

    def on_tick(self, cycle):
        self.x = (self.x * 1103515245 + 12345) & 0x7FFFFFFF
        return cycle >= self.last

    def on_finish(self):
        self.s_final.add(self.x)


def ticker_graph(count: int) -> ConfigGraph:
    graph = ConfigGraph("gc-tickers")
    for i in range(count):
        graph.component(f"t{i}", "testlib.GcTicker", {"lcg_seed": i + 1})
    return graph


@pytest.fixture
def snapshot_path(tmp_path):
    sim = build(ticker_graph(4), seed=3)
    sim.run(max_time="2ns", finalize=False)
    return snapshot(sim, tmp_path / "snap")


BUILD_PATHS = {
    "build": lambda snap: build(ticker_graph(8), seed=3),
    "build_parallel": lambda snap: build_parallel(ticker_graph(8), 2, seed=3),
    "ckpt.restore": lambda snap: restore(snap),
}


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector_on(request):
    """Run the test with the collector on or off; restore it after."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorState:
    @pytest.mark.parametrize("path", sorted(BUILD_PATHS))
    def test_build_path_leaves_the_collector_as_found(
            self, path, collector_on, snapshot_path):
        BUILD_PATHS[path](snapshot_path)
        assert gc.isenabled() is collector_on

    @pytest.mark.parametrize("path", sorted(BUILD_PATHS))
    def test_raising_constructor_leaves_the_collector_as_found(
            self, path, collector_on, snapshot_path, monkeypatch):
        monkeypatch.setattr(GcTicker, "fail_construction", True)
        with pytest.raises(RuntimeError, match="constructor failed"):
            BUILD_PATHS[path](snapshot_path)
        assert gc.isenabled() is collector_on


class TestCollectionsPerBuild:
    def test_a_10k_component_build_triggers_at_most_two_collections(self):
        graph = ticker_graph(10_000)
        assert gc.isenabled()
        generations = []

        def count(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            sim = build(graph, seed=1)
        finally:
            gc.callbacks.remove(count)
        assert len(sim.components) == 10_000
        # Unpaused, this build runs about 130 young, 11 middle and one
        # full collection.
        assert len(generations) <= 2, generations

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 each instance also tracks its "
                               "own __dict__")
    def test_a_ticker_build_tracks_six_objects_per_component(self):
        """What the young collection after every paused build walks:
        the instance, its Params, StatisticGroup, Counter and Clock, and
        the bound tick handler.  The consumed-key record of Params is a
        dict of strings, which the collector does not track, and the
        StatisticGroup is its own dict.  The bound holds where instances
        keep inline attribute values (CPython 3.11 and later)."""
        build(ticker_graph(10), seed=1)  # class-level caches, once
        graph = ticker_graph(1_000)
        gc.collect()
        before = len(gc.get_objects())
        sim = build(graph, seed=1)
        added = len(gc.get_objects()) - before
        assert len(sim.components) == 1_000
        # about 25 more belong to the machine (simulation, queue, arbiter)
        assert added <= 6 * 1_000 + 100, added / 1_000

    def test_a_ticker_construction_runs_nine_python_frames(self):
        """Python frames entered by one warm ``GcTicker`` construction,
        counted with ``sys.setprofile`` (C calls are not ``call``
        events).  Registering the clock enters
        ``Simulation.register_clock`` and ``Clock.__init__`` only: the
        frequency is a cache hit and the chain is already armed.  The
        counter is registered inside ``_declare``, which also fetches
        each declared parameter itself and enters one converter frame
        to parse it.  Before the parameter fetch was inlined a
        construction entered 11 frames, and before the clock and the
        counter were, 18."""
        sim = Simulation(seed=1)
        for i in range(3):  # arbiter, class caches, frequency cache
            GcTicker(sim, f"warm{i}", Params({"lcg_seed": i + 1}))
        params = Params({"lcg_seed": 7})
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        collecting = gc.isenabled()
        gc.disable()  # a collection would run other modules' callbacks
        sys.setprofile(profile)
        try:
            GcTicker(sim, "probe", params)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        assert sorted(calls) == sorted([
            "__init__",             # GcTicker
            "__init__",             # Component
            "_declare",             # compiled per class
            "_as_int",              # lcg_seed
            "_as_int",              # ticks
            "register_clock",       # Component
            "register_clock",       # Simulation
            "__init__",             # Clock, joins the arbiter
            "_register_component",
        ]), calls

    @pytest.mark.parametrize("run", [False, True], ids=["built", "run"])
    def test_a_dropped_machine_is_reclaimed(self, run):
        sim = build(ticker_graph(200), seed=1)
        if run:
            sim.run()
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None


def holds_instance_dict(component) -> bool:
    """Whether ``component`` holds a materialised instance dict.

    Reading ``component.__dict__`` would itself materialise one, so the
    probe looks at what the collector sees: inline attribute values are
    traversed one by one, a materialised dict as one dict holding the
    attribute names."""
    return any(isinstance(ref, dict) and {"name", "sim"} <= ref.keys()
               for ref in gc.get_referents(component))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="inline attribute values are CPython 3.11+")
class TestInlineAttributes:
    def test_a_built_component_holds_no_instance_dict(self):
        """The probe's control: a freshly built component has none,
        and reading ``__dict__`` makes one."""
        comp = build(ticker_graph(2), seed=3).components["t0"]
        assert not holds_instance_dict(comp)
        assert comp.__dict__
        assert holds_instance_dict(comp)

    def test_restored_components_hold_no_instance_dict(self, snapshot_path):
        sim = restore(snapshot_path)
        assert sim.components
        assert [name for name, comp in sim.components.items()
                if holds_instance_dict(comp)] == []
        sim.run()
        assert sim.components["t0"].s_final.value() > 0

    def test_a_restored_slot_owner_holds_no_instance_dict(self, tmp_path):
        """The restore walks slot subcomponents (reference table, restore
        hooks) through ``getattr``, not the instance dict."""
        graph = ConfigGraph("gc-cluster")
        graph.component("src", "cluster.JobSource",
                        {"jobs": 50, "mean_runtime": "20ms", "max_nodes": 4,
                         "window": 8})
        graph.component("sched", "cluster.Scheduler",
                        {"nodes": 8, "policy": "cluster.EASYBackfill"})
        graph.component("pool", "cluster.NodePool", {"nodes": 8})
        graph.link("src", "out", "sched", "submit", latency="10ns")
        graph.link("sched", "pool", "pool", "sched", latency="10ns")
        sim = build(graph, seed=3)
        sim.run(max_time="100ms", finalize=False)
        sched = restore(snapshot(sim, tmp_path / "snap")).components["sched"]
        assert type(sched)._slot_specs and sched.policy is not None
        assert not holds_instance_dict(sched)

    def test_rehomed_worker_components_hold_no_instance_dict(self):
        """The processes backend re-homes every worker rank into the
        parent through ``restore_state`` when a run ends."""
        psim = build_parallel(ticker_graph(8), 2, seed=3,
                              backend="processes")
        psim.run()
        rehomed = psim.rank_sim(1).components
        assert rehomed
        assert [name for name, comp in rehomed.items()
                if holds_instance_dict(comp)] == []
