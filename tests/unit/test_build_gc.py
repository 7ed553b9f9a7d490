"""The build path and CPython's cyclic garbage collector.

``config.build`` and ``config.build_parallel`` pause the collector
while they construct and wire components, so a large machine pays one
young collection instead of one per few hundred allocations.  These
tests pin the three promises that come with the pause: every build
path (``ckpt.restore`` included) leaves the collector as the caller had
it, also when a constructor raises; a 10 000-component build triggers
at most two collections; and a dropped machine is still reclaimed.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.ckpt import restore, snapshot
from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, param, register, stat


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

    @pytest.mark.parametrize("run", [False, True], ids=["built", "run"])
    def test_a_dropped_machine_is_reclaimed(self, run):
        sim = build(ticker_graph(200), seed=1)
        if run:
            sim.run()
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None
