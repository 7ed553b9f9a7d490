"""Per-rank telemetry streams for the processes execution backend.

The parent process of a ``--backend processes`` run cannot observe
per-event activity inside the forked rank workers: observer closures
inherited at fork would record into worker memory that dies with the
worker.  This module is the bridge:

* :class:`RankStreamPlan` — the parent-side registry.  Instruments that
  know how to survive the process boundary (telemetry recorder, handler
  profiler, Chrome trace exporter) register themselves here via
  :func:`ensure_rank_plan`; the plan rides the fork into every worker.
* :class:`RankRecorder` — the rank-side re-attachment.  Created by the
  backend's ``RankRunner`` wherever the rank runs (rank 0 in the
  parent, the others in their forked workers) after the parent-bound
  observers are stripped, it writes one JSONL shard per rank
  (``<metrics>.rank<k>``).  The shard is the only way a rank's records
  leave the rank, so rank records need a metrics path: without one a
  rank keeps only what harvests home with the final statistics payload
  (span-profile buckets and rank counters).

Shard record kinds (schema ``repro-rank-stream/1``, one JSON object per
line): ``rank_start``, ``rank_epoch`` (one per conservative-sync epoch
window executed on the rank), ``rank_sample`` (heartbeat-driven engine
samples), ``span`` (per-handler wall-time rows, only when a Chrome
trace exporter asked for them), ``rank_end``.  All wall-clock fields
named ``mono_s`` are raw ``time.perf_counter()`` readings —
CLOCK_MONOTONIC on Linux, comparable across the rank processes of one
run — which is what lets :mod:`repro.obs.merge` line the per-rank
streams up on a single timeline.
"""

from __future__ import annotations

import json
import os
import time as _wall_time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from .profiler import attribute_event

if TYPE_CHECKING:  # pragma: no cover
    from ..core.parallel import ParallelSimulation

#: bump when a shard record field changes meaning.
RANK_STREAM_SCHEMA = "repro-rank-stream/1"

#: worker profile bucket: (component, handler, event_type) -> [count, timed, wall]
RankBuckets = Dict[Tuple[str, str, str], List[float]]

#: hard cap on span rows per rank shard; overflow is counted
#: (``obs.rank_dropped``), not kept.
SPAN_LIMIT = 200_000


def rank_shard_path(metrics_base: Union[str, Path], rank: int) -> Path:
    """The JSONL shard path for ``rank``: ``<metrics>.rank<k>``."""
    base = Path(metrics_base)
    return base.with_name(f"{base.name}.rank{rank}")


def ensure_rank_plan(psim: "ParallelSimulation") -> "RankStreamPlan":
    """The plan attached to ``psim``, creating an empty one if needed."""
    plan = getattr(psim, "rank_plan", None)
    if plan is None:
        plan = RankStreamPlan()
        psim.rank_plan = plan
    return plan


class RankStreamPlan:
    """What each forked rank worker should re-attach, and where results go.

    Parent-side instruments register their needs before the run; the
    plan is inherited at fork, each worker builds a
    :class:`RankRecorder` from it, and the parent folds what comes back
    at finalize (profile buckets, rank summaries) into the registered
    instruments.
    """

    def __init__(self) -> None:
        #: metrics path of the owning TelemetryRecorder; shards land at
        #: ``<metrics_base>.rank<k>``.  None = no shard files.
        self.metrics_base: Optional[Path] = None
        #: events between rank_sample heartbeat records inside a worker.
        self.heartbeat_every: int = 5_000
        #: write per-handler span rows into the shards (set while a
        #: ChromeTraceExporter is attached).
        self.span_records: bool = False
        #: accumulate (component, handler, event type) wall-time buckets
        #: worker-side and merge them into registered profilers.
        self.profile: bool = False
        # --- live plane (repro.obs.live) ------------------------------
        #: live segment path; workers re-open it by path (the mmap file
        #: survives the fork) and own their rank slot.  None = no live
        #: publishing inside workers.
        self.live_path: Optional[str] = None
        #: worker-side sampler republish period (seconds).
        self.live_interval_s: float = 0.25
        #: when set, workers register the SIGUSR1 faulthandler stack-dump
        #: handler into ``<live_dump_base>.stack.rank<k>`` at startup so
        #: the stall watchdog can extract stacks from hung workers.
        self.live_dump_base: Optional[str] = None
        # --- causal tracing (repro.obs.causal) ------------------------
        #: when set, each worker attaches a CausalTracer writing
        #: ``<causal_base>.causal.rank<k>``.  None = no capture.
        self.causal_base: Optional[str] = None
        self._profilers: List[Any] = []
        #: per-rank summaries harvested at finalize: rank -> dict.
        self.rank_reports: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # parent-side registration (instruments call these)
    # ------------------------------------------------------------------
    def register_profiler(self, profiler: Any) -> None:
        if profiler not in self._profilers:
            self._profilers.append(profiler)
        self.profile = True

    def unregister_profiler(self, profiler: Any) -> None:
        if profiler in self._profilers:
            self._profilers.remove(profiler)
        self.profile = bool(self._profilers)

    # ------------------------------------------------------------------
    # state the backend inspects
    # ------------------------------------------------------------------
    @property
    def has_record_sink(self) -> bool:
        """Do rank records have a shard to go to?"""
        return self.metrics_base is not None

    @property
    def active(self) -> bool:
        """Anything at all for a worker to re-attach?"""
        return (self.has_record_sink or self.profile
                or self.live_path is not None
                or self.causal_base is not None)

    def shard_paths(self, num_ranks: int) -> List[str]:
        """Expected shard paths for a ``num_ranks`` run ([] without a
        metrics path)."""
        if self.metrics_base is None:
            return []
        return [str(rank_shard_path(self.metrics_base, r))
                for r in range(num_ranks)]

    # ------------------------------------------------------------------
    # hooks the processes backend drives (duck-typed from core)
    # ------------------------------------------------------------------
    def worker_recorder(self, psim: "ParallelSimulation",
                        rank: int) -> Optional["RankRecorder"]:
        """Build the rank-local recorder where ``rank`` runs."""
        if not self.active:
            return None
        return RankRecorder(self, psim, rank)

    def absorb(self, rank: int, payload: Optional[Dict[str, Any]]) -> None:
        """Fold one worker's harvested observability payload back in."""
        if not payload:
            return
        buckets = payload.pop("profile", None)
        if buckets:
            for profiler in self._profilers:
                profiler.absorb_remote_buckets(rank, buckets)
        self.rank_reports[rank] = payload


class RankRecorder:
    """Rank-side recorder: the rank-local half of the plan.

    Lives wherever the rank runs — rank 0's in the parent, every other
    rank's inside its forked worker.  Opens its own shard
    file (never the parent's sink), attaches its own span/heartbeat
    observers to the rank's :class:`Simulation`, records every
    :class:`RankStep` it executes, and packages the harvest for the
    ``finish`` payload.
    """

    def __init__(self, plan: RankStreamPlan, psim: "ParallelSimulation",
                 rank: int):
        self.plan = plan
        self.rank = rank
        self.sim = psim._sims[rank]
        self.shard_path: Optional[str] = None
        self._sink = None
        self._epoch = 0
        self._span_rows_written = 0
        if plan.metrics_base is not None:
            path = rank_shard_path(plan.metrics_base, rank)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(path, "w", encoding="utf-8")
            self.shard_path = str(path)
        # Rank-local counters registered in the rank's engine stats;
        # they ride home with the rank's state at finalize and merge
        # across ranks through the ordinary sync_stats() machinery.
        stats = self.sim.engine_stats
        self._c_records = stats.counter("obs.rank_records")
        self._c_samples = stats.counter("obs.rank_samples")
        self._c_spans = stats.counter("obs.rank_spans")
        self._c_dropped = stats.counter("obs.rank_dropped")
        self._t0 = _wall_time.perf_counter()
        self._emit({
            "kind": "rank_start",
            "schema": RANK_STREAM_SCHEMA,
            "rank": rank,
            "ranks": psim.num_ranks,
            "backend": "processes",
            "pid": os.getpid(),
            "mono_s": self._t0,
            "created_unix": _wall_time.time(),
        })
        self._buckets: Optional[RankBuckets] = {} if plan.profile else None
        self._record_spans = plan.span_records and self._has_sink
        if self._buckets is not None or self._record_spans:
            self.sim.add_span_observer(self._on_span)
        if plan.heartbeat_every >= 1 and self._has_sink:
            self.sim.add_heartbeat(self._on_heartbeat,
                                   every_events=plan.heartbeat_every)
        # Live plane: re-open the segment the parent created (by path —
        # the mmap file survives the fork) and own this rank's slot.
        # Kernel-boundary state flips come free via sim._live_publisher;
        # the sampler keeps the slot moving mid-window.  Failures
        # degrade to a rank without live metrics, never a dead worker.
        self._live = None
        self._live_sampler = None
        if plan.live_path is not None:
            try:
                from .live.publish import SlotSampler
                from .live.segment import LiveSegment, RankSlotWriter

                self._live_segment = LiveSegment.open(plan.live_path)
                self._live = RankSlotWriter(self._live_segment, rank,
                                            self.sim)
                self.sim._live_publisher = self._live
                self._live.publish()
                self._live_sampler = SlotSampler([self._live],
                                                 plan.live_interval_s)
            except Exception:  # pragma: no cover - defensive
                self._live = None
                self._live_sampler = None
        # Causal tracing: this worker owns its rank's causal shard.
        # The tracer splices into the rank sim's queue + instrumented
        # dispatch; failures degrade to a rank without causal capture.
        self._causal = None
        if plan.causal_base is not None:
            try:
                from .causal import CausalTracer

                self._causal = CausalTracer(self.sim, plan.causal_base,
                                            psim=psim)
            except Exception:  # pragma: no cover - defensive
                self._causal = None

    @property
    def _has_sink(self) -> bool:
        return self._sink is not None

    # ------------------------------------------------------------------
    # record routing
    # ------------------------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        if self._sink is not None:
            self._sink.write(json.dumps(record) + "\n")
            self._c_records.add()

    # ------------------------------------------------------------------
    # observers (attached to the rank's simulation)
    # ------------------------------------------------------------------
    def _on_span(self, time: int, handler: Any, event: Any,
                 wall_seconds: float) -> None:
        component, label = attribute_event(handler, event)
        event_type = type(event).__name__ if event is not None else "-"
        if self._buckets is not None:
            key = (component, label, event_type)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = [0, 0, 0.0]
                self._buckets[key] = bucket
            bucket[0] += 1
            bucket[1] += 1
            bucket[2] += wall_seconds
        if self._record_spans:
            if self._span_rows_written >= SPAN_LIMIT:
                self._c_dropped.add()
                return
            self._span_rows_written += 1
            self._c_spans.add()
            end = _wall_time.perf_counter()
            self._emit({
                "kind": "span",
                "rank": self.rank,
                "mono_s": end - wall_seconds,
                "dur_us": wall_seconds * 1e6,
                "component": component,
                "handler": label,
                "event": event_type,
                "sim_ps": time,
            })

    def _on_heartbeat(self, sim: Any) -> None:
        self._c_samples.add()
        self._emit({
            "kind": "rank_sample",
            "rank": self.rank,
            "mono_s": _wall_time.perf_counter(),
            "sim_ps": sim.now,
            "events": sim.events_executed,
            "queued": sim.pending_events,
        })

    # ------------------------------------------------------------------
    # hooks the worker loop drives
    # ------------------------------------------------------------------
    def on_step(self, step: Any, epoch_end: int) -> None:
        """Record one executed epoch window."""
        from ..core.backends import outbox_count

        end = _wall_time.perf_counter()
        self._emit({
            "kind": "rank_epoch",
            "rank": self.rank,
            "epoch": self._epoch,
            "mono_s": end - step.wall_seconds,
            "wall_s": step.wall_seconds,
            "events": step.events,
            "sent": outbox_count(step.outbox),
            "window_end_ps": epoch_end,
            "sim_ps": step.now,
        })
        self._epoch += 1
        if self._live is not None:
            try:
                self._live.record_step(step.wall_seconds)
                self._live.publish()
            except Exception:  # pragma: no cover - defensive
                self._live = None
        if self._sink is not None:
            self._sink.flush()
        if self._causal is not None:
            try:
                self._causal.flush()
            except Exception:  # pragma: no cover - defensive
                self._causal = None

    def finish(self) -> Dict[str, Any]:
        """Close the shard and package the harvest for the parent."""
        if self._live_sampler is not None:
            try:
                self._live_sampler.stop()
            except Exception:  # pragma: no cover - defensive
                pass
            self._live_sampler = None
        if self._live is not None:
            try:
                if getattr(self.sim, "_live_publisher", None) is self._live:
                    self.sim._live_publisher = None
                self._live.close()
            except Exception:  # pragma: no cover - defensive
                pass
            self._live = None
        self._emit({
            "kind": "rank_end",
            "rank": self.rank,
            "mono_s": _wall_time.perf_counter(),
            "events": self.sim.events_executed,
            "epochs": self._epoch,
            "records": self._c_records.count,
        })
        if self._causal is not None:
            try:
                self._causal.close()
            except Exception:  # pragma: no cover - defensive
                pass
        payload: Dict[str, Any] = {
            "rank": self.rank,
            "shard": self.shard_path,
            "causal_shard": (str(self._causal.path)
                             if self._causal is not None else None),
            "epochs": self._epoch,
            "records": self._c_records.count,
            "samples": self._c_samples.count,
            "spans": self._c_spans.count,
            "dropped": self._c_dropped.count,
        }
        if self._buckets:
            payload["profile"] = self._buckets
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        return payload
