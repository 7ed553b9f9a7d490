"""The five benchmark workloads.

Each workload turns a seed into inputs and drives the simulator through
public functions only.  The measuring code (``measure.py``) sees one
interface:

* ``declare()`` — the machine description(s), a list of ConfigGraphs;
* ``build(graphs)`` — a ready-to-run simulator (``setup_s`` times
  ``declare`` + ``build``);
* ``run(handle)`` — the timed run call, returning the engine's result;
* ``outcome(handle, raw)`` — untimed: harvest statistics into an
  :class:`Outcome` that the checks compare with goldens;
* ``close(handle)`` — release worker processes / temp dirs.

Sizes are fixed constants, never derived from the host, so numbers stay
comparable between machines and commits.  Why each workload and size
was chosen is recorded in README.md and in BENCHMARK.json's ``why``.
"""

import dataclasses
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List

from repro import dse
from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, param, stat
from repro.core.registry import register
from repro.miniapps import app_runtime_stats, build_app_machine

_LCG_A = 1103515245
_LCG_C = 12345
_LCG_MASK = 0x7FFFFFFF


@register("bench.Ticker")
class Ticker(Component):
    """Clocked component with a near-empty tick handler.

    One LCG step per tick: just enough model state that a wrong,
    skipped or doubled tick changes the final statistic, while host time
    stays in the engine's clock dispatch.
    """

    lcg_seed = param(1, doc="initial LCG state")
    ticks = param(100, doc="ticks before the clock unregisters")

    s_final = stat.counter("final_state", doc="LCG state after the last tick")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.x = int(self.lcg_seed)
        self.last = int(self.ticks)
        self.register_clock("1GHz", self.on_tick)

    def on_tick(self, cycle):
        # Literal constants: a global lookup would be a tenth of the tick.
        self.x = (self.x * 1103515245 + 12345) & 0x7FFFFFFF
        return cycle >= self.last

    def on_finish(self):
        self.s_final.add(self.x)


@dataclasses.dataclass
class Outcome:
    """What one run call produced: stop reason, counts, named results."""

    reason: str
    events: int  #: engine-counted events (0 where the API hides them)
    end_time_ps: int
    results: Dict[str, Any]  #: named model results, compared to goldens
    #: per-layer counts and shares only this workload's run reports
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: raw wall seconds measured inside the run call, by layer
    seconds: Dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    """Base: a serial machine built with ``config.build`` and run once."""

    name = ""
    expected_reason = "exit"
    ops_per_repeat = 1
    #: processes ``run`` keeps busy; its timing brackets load as many CPUs
    run_lanes = 1

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def declare(self) -> List[ConfigGraph]:
        raise NotImplementedError

    def build(self, graphs):
        return build(graphs[0], seed=self.seed, queue="heap")

    def run(self, sim):
        return sim.run()

    def outcome(self, sim, raw) -> Outcome:
        return Outcome(raw.reason, raw.events_executed, raw.end_time,
                       self.results(sim))

    def results(self, sim) -> Dict[str, Any]:
        """Named model results of a finished run (not the whole stat dict,
        so a PR that adds a statistic does not break the goldens)."""
        raise NotImplementedError

    def close(self, handle) -> None:
        pass

    def invariant_errors(self, outcome: Outcome) -> List[str]:
        """Seed-independent checks (the only model check on unpinned seeds)."""
        return []

    def failed_ops(self, results: Dict[str, Any],
                   reference: Dict[str, Any]) -> int:
        """How many of this repeat's ops differ from ``reference`` results."""
        return 0 if results == reference else self.ops_per_repeat

    def layer_probe(self, tracer, outcome: Outcome) -> Dict[str, float]:
        """Extra per-layer numbers only this workload can measure (traced)."""
        return {}


class FabricClocked(Workload):
    name = "fabric_clocked"
    expected_reason = "exhausted"
    COMPONENTS = 10_000
    TICKS = 100

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.lcg_seeds = [rng.getrandbits(31) for _ in range(self.COMPONENTS)]
        # Reference computed here, without the simulator.
        total = 0
        for x in self.lcg_seeds:
            for _ in range(self.TICKS):
                x = (x * _LCG_A + _LCG_C) & _LCG_MASK
            total += x
        self.expected_sum = total

    def declare(self):
        graph = ConfigGraph("fabric-clocked")
        for i, lcg_seed in enumerate(self.lcg_seeds):
            graph.component(f"t{i}", "bench.Ticker",
                            {"lcg_seed": lcg_seed, "ticks": self.TICKS})
        return [graph]

    def results(self, sim):
        values = sim.stat_values()
        return {"final_state_sum": int(sum(
            values[f"t{i}.final_state"] for i in range(self.COMPONENTS)))}

    def invariant_errors(self, outcome):
        got = outcome.results["final_state_sum"]
        if got != self.expected_sum:
            return [f"final_state_sum {got} != reference {self.expected_sum}"]
        return []


class TorusHpccg(Workload):
    name = "torus_hpccg"
    RANKS = 64
    ITERATIONS = 8

    def declare(self):
        return [build_app_machine("miniapps.HPCCG", self.RANKS,
                                  iterations=self.ITERATIONS,
                                  name="torus-hpccg")]

    def results(self, sim):
        return app_runtime_stats(sim, self.RANKS)


class TorusHpccg2Rank(TorusHpccg):
    name = "torus_hpccg_2rank"
    ITERATIONS = 2
    run_lanes = 2

    def build(self, graphs):
        return build_parallel(graphs[0], 2, strategy="bfs", seed=self.seed,
                              queue="heap", backend="processes",
                              transport="shm", sync="adaptive")

    def outcome(self, psim, r):
        ranks_wall = 2 * r.wall_seconds
        layers = {
            "core.sync.epochs": r.epochs,
            "core.sync.remote_events": r.remote_events,
            "core.shm.exchange_bytes": r.exchange_bytes,
            "core.sync.lookahead_utilization": r.lookahead_utilization,
            "core.backends.exec_share": 100 * r.exec_seconds / ranks_wall,
            "core.backends.barrier_wait_share":
                100 * r.barrier_wait_seconds / ranks_wall,
            "core.sync.exchange_share": 100 * r.exchange_seconds / ranks_wall,
        }
        seconds = {
            "core.backends.exec_s": r.exec_seconds,
            "core.backends.barrier_wait_s": r.barrier_wait_seconds,
            "core.sync.exchange_s": r.exchange_seconds,
        }
        return Outcome(r.reason, r.events_executed, r.end_time,
                       self.results(psim), layers, seconds)

    def close(self, psim):
        psim.close()


class ClusterBackfill(Workload):
    name = "cluster_backfill"
    JOBS = 4_000
    NODES = 32

    def declare(self):
        g = ConfigGraph("cluster-backfill")
        g.component("src", "cluster.JobSource",
                    {"jobs": self.JOBS, "mean_runtime": "20ms",
                     "max_nodes": 8, "window": 32, "mode": "burst",
                     "burst_size": 64, "burst_gap": "180ms"})
        g.component("sched", "cluster.Scheduler",
                    {"nodes": self.NODES, "policy": "cluster.EASYBackfill"})
        g.component("pool", "cluster.NodePool", {"nodes": self.NODES})
        g.component("slo", "cluster.SLOStats", {"capacity": self.NODES})
        g.link("src", "out", "sched", "submit", latency="10ns")
        g.link("sched", "pool", "pool", "sched", latency="10ns")
        g.link("sched", "report", "slo", "report", latency="10ns")
        return [g]

    def results(self, sim):
        out = dict(sim.component("slo").manifest_summary())
        out["backfilled"] = sim.stat_values()["sched.policy.backfilled"]
        return out

    def invariant_errors(self, outcome):
        if outcome.results["jobs"] != self.JOBS:
            return [f"{outcome.results['jobs']} jobs reported, "
                    f"{self.JOBS} submitted"]
        return []


class SweepGrid(Workload):
    """The paper's design-space grid, cold into an empty cache then cached.

    ``dse.sweep`` builds its machines inside pool workers, so ``setup_s``
    here times the same 24 declarations + ``config.build`` calls made
    directly; the handle that ``run`` uses is only the fresh cache dir.
    """

    name = "sweep_grid"
    expected_reason = "swept"
    POINT_KWARGS = {"instructions": 30_000_000, "n_cores": 4}
    KEYS = [(wl, w, t) for wl in dse.PAPER_WORKLOADS
            for w in dse.PAPER_WIDTHS for t in dse.PAPER_TECHNOLOGIES]
    ops_per_repeat = len(KEYS)
    run_lanes = 2

    def declare(self):
        return [dse.design_point_graph(wl, issue_width=w, technology=t,
                                       **self.POINT_KWARGS)
                for wl, w, t in self.KEYS]

    def build(self, graphs):
        for graph in graphs:
            build(graph, seed=self.seed)
        return tempfile.mkdtemp(prefix="sweep-cache-", dir=self.work_dir)

    def _sweep(self, cache_dir):
        return dse.sweep(backend="processes", jobs=2, cache_dir=cache_dir,
                         seed=self.seed, **self.POINT_KWARGS)

    def run(self, cache_dir):
        t0 = time.perf_counter()
        cold = self._sweep(cache_dir)
        t1 = time.perf_counter()
        stamps = {e.name: e.stat().st_mtime_ns for e in os.scandir(cache_dir)}
        cached = self._sweep(cache_dir)
        t2 = time.perf_counter()
        # A miss re-simulates and rewrites its file; a hit leaves it alone.
        hits = sum(1 for e in os.scandir(cache_dir)
                   if stamps.get(e.name) == e.stat().st_mtime_ns)
        return cold, cached, t1 - t0, t2 - t1, hits

    def outcome(self, cache_dir, raw):
        cold, cached, cold_s, cached_s, hits = raw
        results = {}
        for key in self.KEYS:
            point = dataclasses.asdict(cold.points[key])
            same = point == dataclasses.asdict(cached.points[key])
            results["/".join(map(str, key))] = point if same else "cold!=cached"
        layers = {"dse.points": len(cold.points), "dse.cache_hits": hits,
                  "dse.cached_over_cold": cached_s / cold_s}
        seconds = {"dse.cold_s": cold_s, "dse.cached_s": cached_s}
        end = sum(p.runtime_ps for p in cold.points.values())
        return Outcome("swept", 0, end, results, layers, seconds)

    def close(self, cache_dir):
        shutil.rmtree(cache_dir, ignore_errors=True)

    def invariant_errors(self, outcome):
        hits = outcome.layers["dse.cache_hits"]
        if hits != len(self.KEYS):
            return [f"cached sweep hit {hits} of {len(self.KEYS)} points"]
        return []

    def failed_ops(self, results, reference):
        return sum(1 for key, point in results.items()
                   if point != reference.get(key))

    def layer_probe(self, tracer, outcome):
        """Useful work over attempts: the grid's serial simulation time
        against what two pool workers spent on the cold sweep."""

        def serial_points():
            for wl, w, t in self.KEYS:
                dse.run_design_point(wl, issue_width=w, technology=t,
                                     seed=self.seed, **self.POINT_KWARGS)

        tracer.timed("dse.serial_points", serial_points)
        serial = tracer.times["dse.serial_points"]
        run = tracer.times["workload.run"]
        cold_s = outcome.seconds["dse.cold_s"] * run.calibrated / run.raw
        return {"dse.pool_efficiency": serial.calibrated / (2 * cold_s)}


WORKLOADS = {cls.name: cls for cls in (
    FabricClocked, TorusHpccg, TorusHpccg2Rank, ClusterBackfill, SweepGrid)}
