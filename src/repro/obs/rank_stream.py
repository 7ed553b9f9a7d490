"""Per-rank telemetry streams for a parallel run, on every backend.

Every execution backend steps each rank through a ``RankRunner``,
which detaches the per-event observers of the rank's simulation; an
instrument reaches a parallel run's ranks only through the rank plan.
This module is that plan and its rank-side half:

* :class:`RankStreamPlan` — the parent-side registry.  Instruments
  (telemetry recorder, handler profiler, Chrome trace exporter, causal
  capture, live metrics) register their needs here via
  :func:`ensure_rank_plan`; under the processes backend the plan rides
  the fork into every worker.
* :class:`RankRecorder` — the rank-side re-attachment.  Created by the
  ``RankRunner`` wherever the rank runs (in the calling process for the
  serial backend and rank 0, in its forked worker otherwise), it writes
  one JSONL shard per rank (``<metrics>.rank<k>``) when the plan has a
  metrics path, and brings home, in the ``finish`` harvest, what the
  registered instruments fold in: span-profile buckets, every record it
  emitted for a Chrome trace exporter (spans capped at
  :data:`SPAN_LIMIT`), rank counters.

Shard record kinds (schema ``repro-rank-stream/1``, one JSON object per
line): ``rank_start``, ``rank_epoch`` (one per conservative-sync epoch
window executed on the rank), ``rank_sample`` (heartbeat-driven engine
samples), ``span`` (per-handler wall-time records, built by
:func:`span_record`, only when a Chrome trace exporter asked for them),
``rank_end``.  All wall-clock fields
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

from .profiler import attribute_event, bucket_observer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.parallel import ParallelSimulation

#: bump when a shard record field changes meaning.
RANK_STREAM_SCHEMA = "repro-rank-stream/1"

#: rank profile bucket: (component, handler, event_type) -> [count, wall]
RankBuckets = Dict[Tuple[str, str, str], List[float]]

#: hard cap on span records per rank, on every run shape; overflow is
#: counted (``obs.rank_dropped``), not kept.
SPAN_LIMIT = 200_000


def span_record(rank: int, time: int, handler: Any, event: Any,
                wall_s: float) -> Dict[str, Any]:
    """The ``span`` record of one handler invocation that just ended
    (a span observer's arguments, stamped with the rank)."""
    component, label = attribute_event(handler)
    return {
        "kind": "span",
        "rank": rank,
        "mono_s": _wall_time.perf_counter() - wall_s,
        "dur_us": wall_s * 1e6,
        "component": component,
        "handler": label,
        "event": type(event).__name__ if event is not None else "-",
        "sim_ps": time,
    }


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
    """What each rank should re-attach, and where results go.

    Parent-side instruments register their needs before the run; each
    rank's runner builds a :class:`RankRecorder` from the plan where the
    rank runs (a forked worker inherits the plan), and the parent folds
    what comes back at finalize (profile buckets, rank records, rank
    summaries) into the registered instruments.
    """

    def __init__(self) -> None:
        #: metrics path of the owning TelemetryRecorder; shards land at
        #: ``<metrics_base>.rank<k>``.  None = no shard files.
        self.metrics_base: Optional[Path] = None
        #: events between rank_sample heartbeat records on a rank.
        self.heartbeat_every: int = 5_000
        # --- live plane (repro.obs.live) ------------------------------
        #: live segment path; each rank's recorder re-opens it by path
        #: (the mmap file survives a fork) and owns its rank slot.
        #: None = no live publishing on the ranks.
        self.live_path: Optional[str] = None
        #: rank-side sampler republish period (seconds).
        self.live_interval_s: float = 0.25
        #: when set, workers register the SIGUSR1 faulthandler stack-dump
        #: handler into ``<live_dump_base>.stack.rank<k>`` at startup so
        #: the stall watchdog can extract stacks from hung workers.
        self.live_dump_base: Optional[str] = None
        # --- causal tracing (repro.obs.causal) ------------------------
        #: when set, each rank's recorder attaches a CausalTracer
        #: writing ``<causal_base>.causal.rank<k>``.  None = no capture.
        self.causal_base: Optional[str] = None
        self._profilers: List[Any] = []
        self._exporters: List[Any] = []
        #: per-rank summaries harvested at finalize: rank -> dict.
        self.rank_reports: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # parent-side registration (instruments call these)
    # ------------------------------------------------------------------
    def register_profiler(self, profiler: Any) -> None:
        """Accumulate span-profile buckets on every rank and hand them
        to ``profiler.absorb_remote_buckets`` at finalize."""
        if profiler not in self._profilers:
            self._profilers.append(profiler)

    def unregister_profiler(self, profiler: Any) -> None:
        if profiler in self._profilers:
            self._profilers.remove(profiler)

    def register_span_exporter(self, exporter: Any) -> None:
        """Record spans on every rank, keep every record each rank
        emits (the records its shard gets, when there is a metrics path)
        and hand them to ``exporter.absorb_rank_records`` at finalize."""
        if exporter not in self._exporters:
            self._exporters.append(exporter)

    def unregister_span_exporter(self, exporter: Any) -> None:
        if exporter in self._exporters:
            self._exporters.remove(exporter)

    # ------------------------------------------------------------------
    # state the recorders and instruments inspect
    # ------------------------------------------------------------------
    @property
    def profile(self) -> bool:
        """Accumulate (component, handler, event type) buckets?"""
        return bool(self._profilers)

    @property
    def span_records(self) -> bool:
        """Record and keep span records (a trace exporter is attached)?"""
        return bool(self._exporters)

    @property
    def active(self) -> bool:
        """Anything at all for a rank to re-attach?"""
        return (self.metrics_base is not None or self.profile
                or self.span_records or self.live_path is not None
                or self.causal_base is not None)

    def shard_paths(self, num_ranks: int) -> List[str]:
        """Expected shard paths for a ``num_ranks`` run ([] without a
        metrics path)."""
        if self.metrics_base is None:
            return []
        return [str(rank_shard_path(self.metrics_base, r))
                for r in range(num_ranks)]

    # ------------------------------------------------------------------
    # hooks the backends drive (duck-typed from core)
    # ------------------------------------------------------------------
    def worker_recorder(self, psim: "ParallelSimulation",
                        rank: int) -> Optional["RankRecorder"]:
        """Build the rank-local recorder where ``rank`` runs."""
        if not self.active:
            return None
        return RankRecorder(self, psim, rank)

    def absorb(self, rank: int, payload: Optional[Dict[str, Any]]) -> None:
        """Fold one rank's harvested observability payload back in."""
        if not payload:
            return
        buckets = payload.pop("profile", None)
        if buckets:
            for profiler in self._profilers:
                profiler.absorb_remote_buckets(rank, buckets)
        trace = payload.pop("trace_records", None)
        if trace is not None:
            for exporter in self._exporters:
                exporter.absorb_rank_records(rank, *trace)
        self.rank_reports[rank] = payload


class RankRecorder:
    """Rank-side recorder: the rank-local half of the plan.

    Lives wherever the rank runs — in the calling process for the
    serial backend and rank 0, inside its forked worker otherwise.
    Opens its own shard file (never the parent's sink), attaches its own
    span/heartbeat observers to the rank's :class:`Simulation`, records
    every :class:`RankStep` it executes, and packages the harvest for
    the ``finish`` payload.
    """

    def __init__(self, plan: RankStreamPlan, psim: "ParallelSimulation",
                 rank: int):
        self.plan = plan
        self.rank = rank
        self.sim = psim._sims[rank]
        self.shard_path: Optional[str] = None
        self._sink = None
        self._epoch = 0
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
        # The cap counts this recorder's own spans: the counters above
        # live in engine_stats, which carry over between runs and restores.
        self._spans = self._dropped = 0
        #: every record emitted, kept for the trace exporters
        self._kept: Optional[List[Dict[str, Any]]] = (
            [] if plan.span_records else None)
        self._t0 = _wall_time.perf_counter()
        self._emit({
            "kind": "rank_start",
            "schema": RANK_STREAM_SCHEMA,
            "rank": rank,
            "ranks": psim.num_ranks,
            "backend": psim.backend,
            "pid": os.getpid(),
            "mono_s": self._t0,
            "created_unix": _wall_time.time(),
        })
        self._buckets: Optional[RankBuckets] = None
        if plan.profile:
            self._buckets = {}
            self.sim.add_span_observer(bucket_observer(self._buckets))
        if plan.span_records:
            self.sim.add_span_observer(self._on_span)
        if plan.heartbeat_every >= 1 and self._sink is not None:
            self.sim.add_heartbeat(self._on_heartbeat,
                                   every_events=plan.heartbeat_every)
        # Live plane: re-open the segment the parent created (by path —
        # the mmap file survives a fork) and own this rank's slot.  The
        # runner flips it running/waiting around each kernel window;
        # the sampler keeps it moving mid-window.  Failures degrade to a
        # rank without live metrics, never a dead rank.
        self._live = None
        self._live_segment = None
        self._live_sampler = None
        if plan.live_path is not None:
            try:
                from .live.publish import SlotSampler
                from .live.segment import LiveSegment, RankSlotWriter

                self._live_segment = LiveSegment.open(plan.live_path)
                self._live = RankSlotWriter(self._live_segment, rank,
                                            self.sim)
                self._live_sampler = SlotSampler(self._live,
                                                 plan.live_interval_s)
            except Exception:  # pragma: no cover - defensive
                self._live = None
                self._live_sampler = None
        # Causal tracing: this recorder owns its rank's causal shard.
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

    # ------------------------------------------------------------------
    # record routing
    # ------------------------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        if self._kept is not None:
            self._kept.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record) + "\n")
            self._c_records.add()

    # ------------------------------------------------------------------
    # observers (attached to the rank's simulation)
    # ------------------------------------------------------------------
    def _on_span(self, time: int, handler: Any, event: Any,
                 wall_seconds: float) -> None:
        if self._spans >= SPAN_LIMIT:
            self._dropped += 1
            self._c_dropped.add()
            return
        self._spans += 1
        self._c_spans.add()
        self._emit(span_record(self.rank, time, handler, event,
                               wall_seconds))

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
    # hooks the rank runner drives
    # ------------------------------------------------------------------
    def on_step_start(self) -> None:
        """A kernel window is about to run."""
        if self._live is not None:
            self._live.on_kernel_enter()

    def on_step(self, step: Any, epoch_end: int) -> None:
        """Record one executed epoch window."""
        from ..core.backends import outbox_count

        self._emit({
            "kind": "rank_epoch",
            "rank": self.rank,
            "epoch": self._epoch,
            "mono_s": _wall_time.perf_counter() - step.wall_seconds,
            "wall_s": step.wall_seconds,
            "events": step.events,
            "sent": outbox_count(step.outbox),
            "window_end_ps": epoch_end,
            "sim_ps": step.now,
        })
        self._epoch += 1
        if self._live is not None:
            self._live.record_step(step.wall_seconds)
            self._live.on_kernel_exit()
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
            self._live.close()
            self._live = None
            self._live_segment.close()
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
        if self._kept is not None:
            payload["trace_records"] = (self._kept, self._dropped)
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        return payload
