"""Run telemetry: a JSONL metrics stream plus a final run manifest.

The :class:`TelemetryRecorder` attaches to a sequential
:class:`~repro.core.simulation.Simulation` (via the engine heartbeat
hook) or a :class:`~repro.core.parallel.ParallelSimulation` (via the
epoch observer) and appends one JSON object per line while the run is
in flight:

* ``{"kind": "run_start", ...}``   — once, at attach;
* ``{"kind": "sample", ...}``      — periodic engine samples
  (sequential runs: every N executed events);
* ``{"kind": "epoch", ...}``       — per conservative-sync epoch
  (parallel runs: window, per-rank events, barrier wait, exchange);
* ``{"kind": "run_end", ...}``     — once, from :meth:`finalize`.

``finalize`` additionally builds the run manifest
(:mod:`repro.obs.manifest`) and writes it next to the stream, giving
every run a machine-readable perf record.

On a parallel run the rank-local records go to per-rank shards next
to a metrics *path* (:mod:`repro.obs.rank_stream`), on every backend;
a recorder without one records the parent stream only.
"""

from __future__ import annotations

import json
import time as _wall_time
from pathlib import Path
from typing import IO, Any, Dict, Optional, Union

from ..core.parallel import EpochInfo, ParallelSimulation
from ..core.simulation import Simulation
from .manifest import build_manifest, write_manifest

#: bump when a stream field changes meaning.
METRICS_SCHEMA = "repro-metrics/1"


class TelemetryRecorder:
    """Record a JSONL metrics stream and a run manifest for one run.

    Parameters
    ----------
    metrics_path:
        Where the JSONL stream goes (path or open text stream); ``None``
        keeps samples in memory only (``records``).  Only a path gets
        per-rank shards on a parallel run.
    manifest_path:
        Where :meth:`finalize` writes the manifest JSON.  Defaults to
        ``<metrics_path>.manifest.json`` when a metrics *path* was
        given; ``None`` otherwise (the manifest dict is still returned).
    sample_every_events:
        Sequential runs: engine heartbeat period in executed events.
    """

    def __init__(self, metrics_path: Union[str, Path, IO[str], None] = None,
                 manifest_path: Union[str, Path, None] = None, *,
                 sample_every_events: int = 5_000):
        self.sample_every_events = sample_every_events
        self.records = []  # in-memory copy when no sink was given
        self.manifest: Optional[Dict[str, Any]] = None
        self._owns_sink = False
        self._sink: Optional[IO[str]] = None
        self._path: Optional[Path] = None
        if isinstance(metrics_path, (str, Path)):
            path = Path(metrics_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(path, "w", encoding="utf-8")
            self._owns_sink = True
            self._path = path
            if manifest_path is None:
                manifest_path = path.with_name(path.name + ".manifest.json")
        elif metrics_path is not None:
            self._sink = metrics_path
        self.manifest_path = Path(manifest_path) if manifest_path is not None else None
        self._target: Union[Simulation, ParallelSimulation, None] = None
        self._plan = None
        self._t0 = 0.0
        self._last_wall = 0.0
        self._last_events = 0
        self._last_sim: int = 0

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------
    def attach(self, target: Union[Simulation, ParallelSimulation]) -> "TelemetryRecorder":
        """Start observing ``target``; emits the ``run_start`` record."""
        if self._target is not None:
            raise RuntimeError("TelemetryRecorder is already attached")
        self._target = target
        self._t0 = _wall_time.perf_counter()
        self._last_wall = 0.0
        record: Dict[str, Any] = {
            "kind": "run_start",
            "schema": METRICS_SCHEMA,
            "mono_s": self._t0,
            "created_unix": _wall_time.time(),
        }
        if isinstance(target, ParallelSimulation):
            target.add_epoch_observer(self._on_epoch)
            record["mode"] = "parallel"
            record["ranks"] = target.num_ranks
            record["backend"] = target.backend
            record["sync"] = target.sync_strategy.describe()
            # Join the rank plan so every rank writes its shard next to
            # the stream.
            from .rank_stream import ensure_rank_plan
            self._plan = ensure_rank_plan(target)
            if self._path is not None:
                self._plan.metrics_base = self._path
            self._plan.heartbeat_every = self.sample_every_events
        else:
            target.add_heartbeat(self._on_heartbeat,
                                 every_events=self.sample_every_events)
            record["mode"] = "sequential"
            record["ranks"] = 1
            record["backend"] = "serial"
        self._emit(record)
        return self

    def detach(self) -> None:
        target = self._target
        self._target = None
        if isinstance(target, ParallelSimulation):
            target.remove_epoch_observer(self._on_epoch)
        elif isinstance(target, Simulation):
            target.remove_heartbeat(self._on_heartbeat)
        self._plan = None

    # ------------------------------------------------------------------
    # stream records
    # ------------------------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        if self._sink is not None:
            self._sink.write(json.dumps(record) + "\n")
            self._sink.flush()
        else:
            self.records.append(record)

    def emit_record(self, record: Dict[str, Any]) -> None:
        """Append an externally produced record to this stream.

        The stall watchdog (:mod:`repro.obs.live.watchdog`) writes its
        ``stall`` records here, so they land in order with the parent's
        own samples.
        """
        self._emit(record)

    def _on_heartbeat(self, sim: Simulation) -> None:
        wall = _wall_time.perf_counter() - self._t0
        events = sim.events_executed
        d_wall = wall - self._last_wall
        d_events = events - self._last_events
        d_sim = sim.now - self._last_sim
        record: Dict[str, Any] = {
            "kind": "sample",
            "wall_s": wall,
            "sim_ps": sim.now,
            "events": events,
            "pending": sim.pending_events,
            "events_per_s": d_events / d_wall if d_wall > 0 else 0.0,
            "sim_ps_per_s": d_sim / d_wall if d_wall > 0 else 0.0,
        }
        # Declared-state gauges (``state(..., gauge=True)``) ride along
        # on every sample, keyed ``<component>.<attribute>``.
        gauges: Dict[str, float] = {}
        for comp in sim._components.values():
            for attr, value in comp.telemetry_gauges().items():
                gauges[f"{comp.name}.{attr}"] = value
        if gauges:
            record["gauges"] = gauges
        self._emit(record)
        self._last_wall = wall
        self._last_events = events
        self._last_sim = sim.now

    def _on_epoch(self, info: EpochInfo) -> None:
        wall = _wall_time.perf_counter() - self._t0
        self._emit({
            "kind": "epoch",
            "wall_s": wall,
            "mono_s": self._t0 + wall,
            "epoch": info.index,
            "window_ps": [info.window_start, info.window_end],
            "sim_ps": info.now,
            "events": info.events_total,
            "exchanged": info.exchanged_events,
            "exchange_bytes": info.exchange_bytes,
            "exchange_s": info.exchange_seconds,
            "epoch_wall_s": info.wall_seconds,
            "per_rank_events": info.per_rank_events,
            "per_rank_wall_s": info.per_rank_wall,
            "per_rank_barrier_wait_s": info.per_rank_barrier_wait,
        })

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self, result, *, graph=None,
                 invocation: Optional[Dict[str, Any]] = None,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Emit the ``run_end`` record, write the manifest, detach.

        Returns the manifest dict (also stored as ``self.manifest``).
        """
        target = self._target
        if target is None:
            raise RuntimeError("TelemetryRecorder is not attached")
        manifest = build_manifest(target, result, graph=graph,
                                  invocation=invocation, extra=extra,
                                  telemetry=self._telemetry_info(target))
        self._emit({
            "kind": "run_end",
            "wall_s": _wall_time.perf_counter() - self._t0,
            "run": result.as_dict(),
        })
        self.detach()
        if self.manifest_path is not None:
            write_manifest(manifest, self.manifest_path)
        if self._sink is not None and self._owns_sink:
            self._sink.close()
            self._sink = None
        self.manifest = manifest
        return manifest

    def _telemetry_info(self, target) -> Dict[str, Any]:
        """The manifest's ``telemetry`` section: where the stream went,
        which backend produced it, and any per-rank shard inventory."""
        info: Dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "metrics": str(self._path) if self._path is not None else None,
            "backend": (target.backend
                        if isinstance(target, ParallelSimulation) else "serial"),
            "ranks": (target.num_ranks
                      if isinstance(target, ParallelSimulation) else 1),
        }
        if self._plan is not None:
            shards = [p for p in self._plan.shard_paths(info["ranks"])
                      if Path(p).exists()]
            info["rank_shards"] = shards
            if self._plan.rank_reports:
                info["rank_records"] = {
                    str(rank): report for rank, report in
                    sorted(self._plan.rank_reports.items())
                }
            if self._plan.live_path is not None:
                info["live_segment"] = self._plan.live_path
        live = getattr(target, "live", None)
        if live is not None and "live_segment" not in info:
            info["live_segment"] = str(live.path)
        return info

    def __enter__(self) -> "TelemetryRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._target is not None:
            self.detach()
        if self._sink is not None and self._owns_sink:
            self._sink.close()
            self._sink = None
