"""Design-space exploration driver (the paper's §5.2.1 use case).

The headline demonstration of SST is sweeping architectural parameters
— memory technology x processor issue width — against miniapp
workloads, and folding performance, power and cost into one comparison
(Figs. 10-12).  This module packages that flow as a library API:

    point = run_design_point("hpccg", issue_width=4, technology="GDDR5")
    grid  = sweep(["hpccg", "lulesh"], widths=[1, 2, 4, 8],
                  technologies=["DDR2-800", "DDR3-1066", "GDDR5"])

Every point is an actual discrete-event simulation (MixCore blocks
against a NodeMemory channel model), evaluated through the McPAT-lite
and wafer-cost models into a :class:`~repro.power.energy.DesignPoint`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .config import ConfigGraph, build
from .core import units
from .core.backends import BACKENDS
from .core.simulation import SimulationError
from .core.units import SimTime
from .power import CorePowerParams, DesignPoint, WaferParams, evaluate_design_point

#: The sweep axes of the paper's study.
PAPER_TECHNOLOGIES = ("DDR2-800", "DDR3-1066", "GDDR5")
PAPER_WIDTHS = (1, 2, 4, 8)
PAPER_WORKLOADS = ("hpccg", "lulesh")


def design_point_graph(workload: str, *, issue_width: int, technology: str,
                       instructions: int, n_cores: int = 1,
                       clock: str = "2GHz", channels: int = 1) -> ConfigGraph:
    """Declare the design-point machine: ``n_cores`` MixCores sharing one
    NodeMemory of the given technology."""
    graph = ConfigGraph(f"dse-{workload}-w{issue_width}-{technology}")
    graph.component("mem", "memory.NodeMemory",
                    {"technology": technology, "channels": channels,
                     "n_ports": n_cores})
    for i in range(n_cores):
        graph.component(f"core{i}", "processor.MixCore",
                        {"workload": workload, "instructions": instructions,
                         "issue_width": issue_width, "clock": clock})
        graph.link(f"core{i}", "mem", "mem", f"core{i}", latency="1ns")
    return graph


def _warm_snapshot_path(warm_dir: Union[str, Path], graph: ConfigGraph,
                        seed: int, warm_ps: SimTime) -> Path:
    """Per-point warm-start snapshot location.

    Keyed by the config-graph hash, the seed and the warm prefix
    length — the inputs that determine the simulated-time prefix
    bit-exactly — so distinct design points never share a snapshot —
    and by :data:`repro.ckpt.SNAPSHOT_SCHEMA`, so a changed graph or a
    snapshot format bump invalidates the warm cache automatically.
    """
    from .ckpt import SNAPSHOT_SCHEMA
    from .obs.manifest import graph_hash

    key = f"{SNAPSHOT_SCHEMA}/{graph_hash(graph)}/{seed}/{warm_ps}"
    tag = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
    return Path(warm_dir) / f"warm-{tag}"


def run_design_point(workload: str, *, issue_width: int = 2,
                     technology: str = "DDR3-1333",
                     instructions: int = 2_000_000, n_cores: int = 1,
                     clock: str = "2GHz", channels: int = 1,
                     memory_gb: float = 4.0, seed: int = 1,
                     core_params: CorePowerParams = CorePowerParams(),
                     wafer: WaferParams = WaferParams(),
                     warm_start: Optional[Union[str, int]] = None,
                     warm_dir: Optional[Union[str, Path]] = None) -> DesignPoint:
    """Simulate one (workload x width x memory) configuration.

    Returns a :class:`DesignPoint` carrying runtime, power and cost.

    With ``warm_start`` (a simulated-time prefix, e.g. ``"5us"``) the
    evaluation resumes from a `repro.ckpt` snapshot of that prefix in
    ``warm_dir`` when one exists; otherwise it simulates the prefix,
    snapshots it for next time, and continues.  Either way the executed
    event sequence — and therefore the returned :class:`DesignPoint` —
    is identical to a cold evaluation: exact-mode restores are
    bit-identical and the prefix segmentation is invisible to models.
    """
    graph = design_point_graph(workload, issue_width=issue_width,
                               technology=technology,
                               instructions=instructions, n_cores=n_cores,
                               clock=clock, channels=channels)
    sim = None
    result = None
    if warm_start is not None:
        if warm_dir is None:
            raise ValueError("warm_start requires warm_dir")
        warm_ps = units.parse_time(warm_start, default_unit="ps")
        wpath = _warm_snapshot_path(warm_dir, graph, seed, warm_ps)
        if (wpath / "MANIFEST.json").is_file():
            from .ckpt import restore

            sim = restore(wpath)
        else:
            sim = build(graph, seed=seed)
            prefix = sim.run(max_time=warm_ps, finalize=False)
            if prefix.reason == "max_time":
                from .ckpt import snapshot

                snapshot(sim, wpath)
            else:
                # The whole run fit inside the warm prefix: nothing to
                # warm-start from, the prefix result is the result.
                sim.finish()
                result = prefix
    if sim is None:
        sim = build(graph, seed=seed)
    if result is None:
        result = sim.run()
    if result.reason != "exit":
        raise RuntimeError(
            f"design point did not complete: {result.reason} "
            f"({workload}, w{issue_width}, {technology})"
        )
    values = sim.stat_values()
    runtime_ps = int(max(values[f"core{i}.runtime_ps"]
                         for i in range(n_cores)))
    total_instructions = int(sum(values[f"core{i}.instructions"]
                                 for i in range(n_cores)))
    mem = sim.component("mem")
    freq_hz = sim.component("core0").config.freq_hz
    return evaluate_design_point(
        f"{workload}/w{issue_width}/{technology}",
        issue_width=issue_width,
        freq_hz=freq_hz,
        memory_technology=technology,
        runtime_ps=runtime_ps,
        instructions=total_instructions,
        dram=mem.dram,
        memory_gb=memory_gb,
        core_params=core_params,
        wafer=wafer,
        n_cores=n_cores,
    )


@dataclass
class SweepResult:
    """Outcome grid of a full design-space sweep."""

    points: Dict[Tuple[str, int, str], DesignPoint] = field(default_factory=dict)

    def point(self, workload: str, width: int, technology: str) -> DesignPoint:
        return self.points[(workload, width, technology)]

    def best(self, metric: str, workload: Optional[str] = None) -> DesignPoint:
        """Highest-scoring point by DesignPoint attribute name."""
        candidates = [
            p for (wl, _w, _t), p in self.points.items()
            if workload is None or wl == workload
        ]
        if not candidates:
            raise ValueError("no points match")
        return max(candidates, key=lambda p: getattr(p, metric))

    def speedup(self, workload: str, width: int, technology: str,
                baseline_technology: str) -> float:
        """runtime(baseline) / runtime(tech) - 1, the Fig. 10 quantity."""
        here = self.point(workload, width, technology)
        base = self.point(workload, width, baseline_technology)
        return base.runtime_ps / here.runtime_ps - 1.0


#: defaults mirrored from run_design_point, used to normalise cache keys
_GRAPH_DEFAULTS = {"instructions": 2_000_000, "n_cores": 1,
                   "clock": "2GHz", "channels": 1}


def _point_cache_key(workload: str, width: int, technology: str,
                     point_kwargs: Dict) -> str:
    """Stable cache key for one design point.

    The graph part is the config-graph hash (component types, params,
    links — anything that changes the simulated machine changes the
    key); the eval part covers inputs that affect the outcome without
    appearing in the graph: the seed and the power/cost model
    parameters.
    """
    from .obs.manifest import graph_hash

    graph_args = {k: point_kwargs.get(k, d) for k, d in _GRAPH_DEFAULTS.items()}
    graph = design_point_graph(workload, issue_width=width,
                               technology=technology, **graph_args)
    eval_part = {
        "seed": point_kwargs.get("seed", 1),
        "memory_gb": point_kwargs.get("memory_gb", 4.0),
        "core_params": dataclasses.asdict(
            point_kwargs.get("core_params", CorePowerParams())),
        "wafer": dataclasses.asdict(
            point_kwargs.get("wafer", WaferParams())),
    }
    blob = json.dumps({"graph": graph_hash(graph), "eval": eval_part},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _sweep_eval(spec) -> DesignPoint:
    """Evaluate one sweep point (module-level so it pickles for the
    processes pool).

    ``spec`` is ``(workload, width, technology, point_kwargs)`` plus an
    optional fifth element ``(live_path, slot_index)`` marking this
    point's slot in a fleet live segment (:mod:`repro.obs.live.sweep`).
    """
    workload, width, technology, point_kwargs = spec[:4]
    live = None
    start_mono = 0.0
    if len(spec) > 4 and spec[4] is not None:
        live_path, slot = spec[4]
        try:
            from .obs.live.sweep import SweepLive

            live = SweepLive.open(live_path)
            start_mono = live.mark_running(slot)
        except Exception:  # fleet status must never fail an evaluation
            live = None
    try:
        point = run_design_point(workload, issue_width=width,
                                 technology=technology, **point_kwargs)
    except BaseException:
        if live is not None:
            live.mark_done(slot, start_mono, failed=True)
        raise
    if live is not None:
        live.mark_done(slot, start_mono)
    return point


def _evaluate(specs: List[Tuple], backend: str,
              jobs: Optional[int]) -> List[DesignPoint]:
    """``[_sweep_eval(s) for s in specs]``, in this process (``serial``)
    or on a fork pool of ``jobs`` workers (``processes``; default: the
    usable CPU count).  Specs and points must pickle for the pool."""
    if backend == "serial":
        return [_sweep_eval(spec) for spec in specs]
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        raise SimulationError(
            "the 'processes' job pool requires the fork start method"
        )
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            jobs = os.cpu_count() or 1
    pool = mp.get_context("fork").Pool(processes=jobs)
    try:
        return pool.map(_sweep_eval, specs)
    finally:
        pool.close()
        pool.join()


def sweep(workloads: Sequence[str] = PAPER_WORKLOADS,
          widths: Sequence[int] = PAPER_WIDTHS,
          technologies: Sequence[str] = PAPER_TECHNOLOGIES,
          *, backend: str = "serial", jobs: Optional[int] = None,
          cache_dir: Optional[Union[str, Path]] = None,
          warm_start: Optional[Union[str, int]] = None,
          warm_dir: Optional[Union[str, Path]] = None,
          live_path: Optional[Union[str, Path]] = None,
          **point_kwargs) -> SweepResult:
    """Run the full cartesian design-space sweep.

    Points are independent simulations: ``backend`` selects where they
    run (``serial`` in this process, ``processes`` on a fork pool, the
    one that leaves the GIL) and ``jobs`` bounds the pool's width
    (default: usable CPU count).  Both are validated before any cache
    lookup, so a fully cached sweep rejects what a cold one rejects.

    ``cache_dir`` enables per-point result caching keyed by the
    config-graph hash plus the non-graph evaluation inputs (seed,
    memory size, power/cost parameters): cached points are loaded
    instead of re-simulated, freshly evaluated points are written back.
    Cache files are read and written only in the calling process.

    ``warm_start`` (a simulated-time prefix) warm-starts every point
    from a per-point `repro.ckpt` prefix snapshot under ``warm_dir``
    (defaults to ``cache_dir``): the first sweep simulates and
    snapshots each prefix, subsequent sweeps restore instead of
    re-simulating it.  Results are identical to a cold sweep — the
    result cache key deliberately ignores warm-start settings.

    ``live_path`` creates a fleet live segment with one slot per design
    point (:mod:`repro.obs.live.sweep`): pool workers mark their points
    running/done in flight, so ``obs top`` and ``sweep
    --serve-metrics`` can show fleet-wide completion and ETA.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown job-pool backend {backend!r}; options: "
            f"{sorted(BACKENDS)}"
        )
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if warm_start is not None:
        warm_root = warm_dir if warm_dir is not None else cache_dir
        if warm_root is None:
            raise ValueError("warm_start requires warm_dir (or cache_dir)")
        point_kwargs = {**point_kwargs, "warm_start": warm_start,
                        "warm_dir": str(warm_root)}
    keys = [(wl, w, t) for wl in workloads for w in widths
            for t in technologies]
    fleet = None
    slot_of: Dict[Tuple[str, int, str], int] = {}
    if live_path is not None:
        from .obs.live.sweep import SweepLive

        fleet = SweepLive.create(live_path, len(keys))
        slot_of = {key: i for i, key in enumerate(keys)}
    result = SweepResult()
    todo: List[Tuple[str, int, str]] = []
    cache = Path(cache_dir) if cache_dir is not None else None
    cache_keys: Dict[Tuple[str, int, str], str] = {}
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
        for key in keys:
            ck = _point_cache_key(*key, point_kwargs)
            cache_keys[key] = ck
            path = cache / f"{ck}.json"
            if path.exists():
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    result.points[key] = DesignPoint(**data)
                    if fleet is not None:
                        # Cache hits are done before the pool starts.
                        from .obs.live.sweep import POINT_DONE
                        fleet.mark(slot_of[key], POINT_DONE)
                    continue
                except (ValueError, TypeError):
                    pass  # corrupt or stale entry: fall through, re-evaluate
            todo.append(key)
    else:
        todo = list(keys)
    try:
        if todo:
            specs = []
            for key in todo:
                spec = key + (point_kwargs,)
                if fleet is not None:
                    spec = spec + ((str(live_path), slot_of[key]),)
                specs.append(spec)
            for key, point in zip(todo, _evaluate(specs, backend, jobs)):
                result.points[key] = point
                if cache is not None:
                    path = cache / f"{cache_keys[key]}.json"
                    path.write_text(
                        json.dumps(dataclasses.asdict(point), indent=2,
                                   sort_keys=True),
                        encoding="utf-8",
                    )
    finally:
        if fleet is not None:
            fleet.close()
    # Restore the declared grid order (cache hits landed first).
    result.points = {key: result.points[key] for key in keys}
    return result
