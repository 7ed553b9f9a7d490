"""repro.obs — the observability layer over the PDES engine.

Cross-cutting instrumentation for the simulator itself (as opposed to
the *simulated machine*, which the statistics system covers):

* :class:`TelemetryRecorder` — JSONL metrics stream + run-manifest JSON
  for every :meth:`Simulation.run` / :meth:`ParallelSimulation.run`;
* :class:`HandlerProfiler` — per component/handler/event-type wall-time
  attribution with a sorted "hot components" report;
* :class:`ChromeTraceExporter` (:mod:`repro.obs.merge`) — handler spans
  and rank epochs as a Perfetto-loadable ``trace.json``: ``obs merge``'s
  rank lanes over the records the run kept in memory;
* :class:`ProgressReporter` — periodic events/sec, sim-rate and ETA
  lines for long runs;
* :func:`build_manifest` / :func:`graph_hash` / :func:`write_manifest`
  — the machine-readable run manifest;
* :class:`RankStreamPlan` / :class:`RankRecorder`
  (:mod:`repro.obs.rank_stream`) — the one way an instrument reaches a
  parallel run's ranks, on every execution backend: each rank records
  where it runs (one JSONL shard per rank, ``<metrics>.rank<k>``) and
  hands profile buckets and its records home at the end of the run;
* :func:`merge_trace` / :func:`merge_to_file` (:mod:`repro.obs.merge`)
  — stitch per-rank streams into one Perfetto trace with one lane per
  rank plus a sync lane;
* :func:`analyze` (:mod:`repro.obs.imbalance`) — post-hoc sync/load
  diagnostics: straggler attribution, busy-vs-barrier wall time,
  events-per-rank skew (``python -m repro obs imbalance``);
* :class:`CausalCapture` / :class:`CriticalPath`
  (:mod:`repro.obs.causal`, :mod:`repro.obs.critpath`) — opt-in event
  provenance capture and the backward critical-path walk with
  component-class latency attribution and the cross-rank cut-edge
  report (``run --trace-causal``, ``python -m repro obs critpath``);
* :mod:`repro.obs.live` — the *live* plane: per-rank metrics published
  into a shared-memory segment while the run is in flight, an
  OpenMetrics/JSON HTTP endpoint (``run --serve-metrics``), the
  ``obs top`` console view and the stall watchdog.

Everything attaches through the engine's observer dispatch
(:meth:`Simulation.add_trace_observer` / ``add_span_observer`` /
``add_heartbeat`` and :meth:`ParallelSimulation.add_epoch_observer`),
which costs a single ``is None`` check per event when nothing is
installed.  Each instrument has two attachments: a :class:`Simulation`
directly, a :class:`ParallelSimulation` through its epoch observer and
the rank plan (``psim.rank_plan``) — never through the rank
simulations, whose per-event observers every backend detaches for a
run (:class:`RankObservabilityWarning`).  See ``docs/OBSERVABILITY.md``
for the schemas and usage.
"""

from ..core.backends import RankObservabilityWarning
from .causal import (CAUSAL_SCHEMA, CausalCapture, CausalTracer,
                     causal_shard_path, find_causal_shards)
from .critpath import (CausalAnalysisError, CausalGraph, CriticalPath,
                       critical_path, cut_edge_report, load_causal)
from .critpath import analyze as analyze_critical_path
from .format import fmt_age, fmt_count, fmt_duration, fmt_rate
from .imbalance import ImbalanceReport, RankSummary, analyze
from .live import (LiveMetrics, LiveSegment, LiveView, MetricsRegistry,
                   MetricsServer, StallWatchdog, default_segment_path,
                   resolve_segment, run_top)
from .manifest import (MANIFEST_SCHEMA, build_manifest, environment_info,
                       graph_hash, write_manifest)
from .merge import (ChromeTraceExporter, RunArtifacts, build_trace_dict,
                    find_rank_shards, flow_pair, merge_to_file, merge_trace)
from .profiler import HandlerProfiler, ProfileRow, attribute_event
from .progress import ProgressReporter
from .rank_stream import (RANK_STREAM_SCHEMA, RankRecorder, RankStreamPlan,
                          ensure_rank_plan, rank_shard_path)
from .telemetry import METRICS_SCHEMA, TelemetryRecorder

__all__ = [
    "CAUSAL_SCHEMA",
    "CausalAnalysisError",
    "CausalCapture",
    "CausalGraph",
    "CausalTracer",
    "ChromeTraceExporter",
    "CriticalPath",
    "HandlerProfiler",
    "ImbalanceReport",
    "LiveMetrics",
    "LiveSegment",
    "LiveView",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "MetricsServer",
    "ProfileRow",
    "ProgressReporter",
    "RANK_STREAM_SCHEMA",
    "RankObservabilityWarning",
    "RankRecorder",
    "RankStreamPlan",
    "RankSummary",
    "RunArtifacts",
    "StallWatchdog",
    "TelemetryRecorder",
    "analyze",
    "analyze_critical_path",
    "attribute_event",
    "build_manifest",
    "build_trace_dict",
    "causal_shard_path",
    "critical_path",
    "cut_edge_report",
    "default_segment_path",
    "ensure_rank_plan",
    "environment_info",
    "find_causal_shards",
    "find_rank_shards",
    "flow_pair",
    "load_causal",
    "fmt_age",
    "fmt_count",
    "fmt_duration",
    "fmt_rate",
    "graph_hash",
    "merge_to_file",
    "merge_trace",
    "rank_shard_path",
    "resolve_segment",
    "run_top",
    "write_manifest",
]
