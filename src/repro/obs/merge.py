"""Cross-rank trace merge: per-rank telemetry shards → one Perfetto trace.

A parallel run with ``--metrics out.jsonl`` leaves behind the parent
stream plus one rank-local shard per rank (``out.jsonl.rank<k>``,
written by :mod:`repro.obs.rank_stream` on every backend).  Each
stream is self-consistent but none shows the whole run.  This module
stitches them into a single Chrome Trace Event file:

* **one lane (pid) per rank** — epoch-execution spans from the rank's
  own ``rank_epoch`` records (true worker-side wall windows, not the
  parent's estimate), per-component handler spans when the run recorded
  them, and a ``queued``/``events`` counter track from the heartbeat
  samples;
* **one sync lane** (pid = number of ranks) — the parent's view of the
  run: conservative-sync epoch windows (labelled with the simulated-time
  window and lookahead), the cross-rank exchange preceding each window,
  and per-rank barrier waits in the span args.

All rank streams stamp wall-clock fields with raw ``perf_counter``
readings (``mono_s``) — CLOCK_MONOTONIC is system-wide on Linux, so the
streams share a timebase; the merge subtracts the minimum ``mono_s``
seen anywhere so the merged trace starts at t=0.

A rank whose shard is missing still gets a lane: it is synthesized from
the parent's ``per_rank_wall_s`` when no rank-local epoch records exist.

The same lane builder serves a live run: :class:`ChromeTraceExporter`
(``run --trace-chrome``) collects the same ``span``/``rank_epoch``
records in memory — from the span observer of a sequential run, from
each rank's recorder on a parallel one — and writes ``merge_trace`` over
them, so a run's trace and its ``obs merge`` rank lanes are one view of
one record stream.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_left
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.parallel import ParallelSimulation
from ..core.simulation import Simulation
from .rank_stream import SPAN_LIMIT, ensure_rank_plan, span_record


def build_trace_dict(events: List[Dict[str, Any]], *,
                     exporter: str = "repro.obs.merge",
                     extra: Union[Dict[str, Any], None] = None) -> Dict[str, Any]:
    """Wrap trace events in the Trace Event JSON envelope."""
    other = {"exporter": exporter, "dropped_events": 0, **(extra or {})}
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


#: trace events serialised per write by :func:`_write_trace`
_WRITE_BATCH = 4096


def _write_trace(trace: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write :func:`build_trace_dict`'s ``trace`` as ``json.dumps(trace)``
    plus a newline, a batch of events at a time, so the whole JSON text
    is never in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events = trace["traceEvents"]
    rest = json.dumps({k: v for k, v in trace.items() if k != "traceEvents"})
    with path.open("w", encoding="utf-8") as out:
        out.write('{"traceEvents": [')
        for start in range(0, len(events), _WRITE_BATCH):
            batch = json.dumps(events[start:start + _WRITE_BATCH])[1:-1]
            out.write(", " + batch if start else batch)
        out.write("], " + rest[1:] + "\n")
    return path


def flow_pair(*, flow_id: int, name: str, cat: str,
              src: Tuple[int, int, float],
              dest: Tuple[int, int, float]) -> List[Dict[str, Any]]:
    """One Perfetto flow arrow as its ("s", "f") trace-event pair.

    ``src``/``dest`` are ``(pid, tid, ts_us)`` triples; the timestamps
    must fall inside enclosing "X" slices on those lanes for the UI to
    bind the arrow (``obs merge --flows`` draws cross-rank causal edges).
    """
    src_pid, src_tid, src_ts = src
    dest_pid, dest_tid, dest_ts = dest
    return [
        {"ph": "s", "id": flow_id, "name": name, "cat": cat,
         "ts": src_ts, "pid": src_pid, "tid": src_tid},
        {"ph": "f", "bp": "e", "id": flow_id, "name": name, "cat": cat,
         "ts": dest_ts, "pid": dest_pid, "tid": dest_tid},
    ]


def load_stream(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load one JSONL telemetry stream, skipping unparseable lines."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def find_rank_shards(metrics_path: Union[str, Path]) -> Dict[int, Path]:
    """Per-rank shard files next to a metrics stream, keyed by rank."""
    base = Path(metrics_path)
    shards: Dict[int, Path] = {}
    for candidate in sorted(base.parent.glob(base.name + ".rank*")):
        suffix = candidate.name[len(base.name) + len(".rank"):]
        try:
            rank = int(suffix)
        except ValueError:
            continue
        shards[rank] = candidate
    return shards


class RunArtifacts:
    """Everything one run left on disk, loaded and split by origin.

    ``main`` is the parent stream (``run_start``/``sample``/``epoch``/
    ``run_end``); ``rank_records`` maps each rank to the records of its
    shard file.  :meth:`from_records` builds the in-memory equivalent of
    a run that left no files.
    """

    def __init__(self, metrics_path: Union[str, Path]):
        self.metrics_path = Path(metrics_path)
        if not self.metrics_path.exists():
            raise FileNotFoundError(f"metrics stream not found: {metrics_path}")
        self.main: List[Dict[str, Any]] = load_stream(self.metrics_path)
        self.shards = find_rank_shards(self.metrics_path)
        self.rank_records: Dict[int, List[Dict[str, Any]]] = {
            rank: load_stream(shard) for rank, shard in self.shards.items()}
        # Degraded-run detection: a run that wrote rank shards should
        # have a complete one (ending in rank_end) for every rank named
        # by run_start.  A crashed or still-running rank leaves a
        # missing or truncated shard; merge the rest and say so once,
        # instead of failing (or silently lying about) the whole merge.
        self.missing_ranks: List[int] = []
        self.truncated_ranks: List[int] = []
        if self.rank_records:
            expected = int(self.run_start.get("ranks", 0) or 0)
            for rank in range(expected):
                records = self.rank_records.get(rank)
                if not records:
                    self.missing_ranks.append(rank)
                elif not any(r.get("kind") == "rank_end" for r in records):
                    self.truncated_ranks.append(rank)
        if self.missing_ranks or self.truncated_ranks:
            parts = []
            if self.missing_ranks:
                parts.append("missing rank shard(s): "
                             + ", ".join(map(str, self.missing_ranks)))
            if self.truncated_ranks:
                parts.append("truncated rank shard(s) (no rank_end): "
                             + ", ".join(map(str, self.truncated_ranks)))
            warnings.warn(
                f"obs merge: {'; '.join(parts)} — merging the remaining "
                "ranks; affected lanes are marked in the trace",
                RuntimeWarning, stacklevel=2)

    @classmethod
    def from_records(cls, rank_records: Dict[int, List[Dict[str, Any]]]
                     ) -> "RunArtifacts":
        """Artifacts of rank records held in memory: no parent stream,
        no shard files, and so nothing to warn about."""
        artifacts = cls.__new__(cls)
        artifacts.metrics_path = None
        artifacts.main = []
        artifacts.shards = {}
        artifacts.rank_records = rank_records
        artifacts.missing_ranks = []
        artifacts.truncated_ranks = []
        return artifacts

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def run_start(self) -> Dict[str, Any]:
        for record in self.main:
            if record.get("kind") == "run_start":
                return record
        return {}

    @property
    def run_end(self) -> Optional[Dict[str, Any]]:
        for record in self.main:
            if record.get("kind") == "run_end":
                return record
        return None

    @property
    def epochs(self) -> List[Dict[str, Any]]:
        return [r for r in self.main if r.get("kind") == "epoch"]

    @property
    def num_ranks(self) -> int:
        start = self.run_start
        ranks = int(start.get("ranks", 0) or 0)
        if self.rank_records:
            ranks = max(ranks, max(self.rank_records) + 1)
        for epoch in self.epochs[:1]:
            ranks = max(ranks, len(epoch.get("per_rank_events") or []))
        return max(ranks, 1)

    @property
    def backend(self) -> str:
        return str(self.run_start.get("backend", "unknown"))

    @property
    def sync_info(self) -> Dict[str, Any]:
        info = self.run_start.get("sync")
        return dict(info) if isinstance(info, dict) else {}

    def time_zero(self) -> float:
        """Earliest monotonic stamp anywhere — the merged trace's t=0."""
        lowest: Optional[float] = None
        for records in [self.main, *self.rank_records.values()]:
            for record in records:
                mono = record.get("mono_s")
                if mono is None:
                    continue
                mono = float(mono)
                # rank_epoch/epoch stamps are window *starts* already;
                # span stamps are starts too, so min() is correct.
                if lowest is None or mono < lowest:
                    lowest = mono
        return lowest if lowest is not None else 0.0


def merge_trace(artifacts: RunArtifacts, *,
                flows: bool = False) -> Dict[str, Any]:
    """Build the merged Trace Event dict: rank lanes plus a sync lane.

    With ``flows`` enabled, cross-rank causal edges captured by
    ``--trace-causal`` (see :mod:`repro.obs.causal`) are rendered as
    Perfetto flow arrows between the rank epoch lanes.
    """
    num_ranks = artifacts.num_ranks
    t0 = artifacts.time_zero()
    events: List[Dict[str, Any]] = []
    tids: Dict[Tuple[int, str], int] = {}
    named: set = set()

    def us(mono: float) -> float:
        return (float(mono) - t0) * 1e6

    def tid(pid: int, label: str, pid_name: str) -> int:
        key = (pid, label)
        slot = tids.get(key)
        if slot is None:
            slot = len(tids) + 1
            tids[key] = slot
            if pid not in named:
                named.add(pid)
                events.append({"ph": "M", "name": "process_name",
                               "pid": pid, "tid": 0,
                               "args": {"name": pid_name}})
            events.append({"ph": "M", "name": "thread_name",
                           "pid": pid, "tid": slot,
                           "args": {"name": label}})
        return slot

    # ------------------------------------------------------------ ranks
    ranks_with_epochs: set = set()
    for rank in sorted(artifacts.rank_records):
        lane = f"rank {rank}"
        for record in artifacts.rank_records[rank]:
            kind = record.get("kind")
            if kind == "rank_epoch":
                ranks_with_epochs.add(rank)
                events.append({
                    "ph": "X",
                    "name": f"epoch {record.get('epoch')}",
                    "cat": "epoch",
                    "ts": us(record["mono_s"]),
                    "dur": float(record.get("wall_s", 0.0)) * 1e6,
                    "pid": rank,
                    "tid": tid(rank, "[engine] epochs", lane),
                    "args": {"events": record.get("events"),
                             "sent": record.get("sent"),
                             "window_end_ps": record.get("window_end_ps"),
                             "sim_ps": record.get("sim_ps")},
                })
            elif kind == "span":
                component = record.get("component", "<unknown>")
                events.append({
                    "ph": "X",
                    "name": f"{component}.{record.get('handler', '?')}",
                    "cat": record.get("event", "-"),
                    "ts": us(record["mono_s"]),
                    "dur": float(record.get("dur_us", 0.0)),
                    "pid": rank,
                    "tid": tid(rank, component, lane),
                    "args": {"sim_ps": record.get("sim_ps")},
                })
            elif kind == "rank_sample":
                tid(rank, "[engine] epochs", lane)  # ensure pid named
                events.append({
                    "ph": "C",
                    "name": "engine",
                    "ts": us(record["mono_s"]),
                    "pid": rank,
                    "tid": 0,
                    "args": {"queued": record.get("queued", 0)},
                })

    # Ranks with no rank-local epoch records (a missing shard):
    # synthesize their epoch lane from the parent's per-rank walls so
    # every rank still gets a lane.
    parent_epochs = artifacts.epochs
    for rank in range(num_ranks):
        if rank in ranks_with_epochs:
            continue
        lane = f"rank {rank}"
        for epoch in parent_epochs:
            mono = epoch.get("mono_s")
            walls = epoch.get("per_rank_wall_s") or []
            if mono is None or rank >= len(walls):
                continue
            window = epoch.get("window_ps") or [None, None]
            epoch_wall = float(epoch.get("epoch_wall_s", 0.0))
            events.append({
                "ph": "X",
                "name": f"epoch {epoch.get('epoch')}",
                "cat": "epoch",
                "ts": us(float(mono) - epoch_wall),
                "dur": float(walls[rank]) * 1e6,
                "pid": rank,
                "tid": tid(rank, "[engine] epochs (parent view)", lane),
                "args": {
                    "events": (epoch.get("per_rank_events") or [None] * num_ranks)[rank],
                    "window_ps": window,
                    "synthesized": True,
                },
            })

    # ------------------------------------------------------------- sync
    sync_pid = num_ranks
    sync_info = artifacts.sync_info
    lookahead = sync_info.get("lookahead_ps")
    strategy = sync_info.get("strategy", "sync")
    for epoch in parent_epochs:
        mono = epoch.get("mono_s")
        if mono is None:
            continue
        epoch_wall = float(epoch.get("epoch_wall_s", 0.0))
        exchange_s = float(epoch.get("exchange_s", 0.0))
        window = epoch.get("window_ps") or [None, None]
        start = float(mono) - epoch_wall
        barriers = epoch.get("per_rank_barrier_wait_s") or []
        events.append({
            "ph": "X",
            "name": f"epoch {epoch.get('epoch')} "
                    f"[{window[0]}-{window[1]}ps]",
            "cat": "sync",
            "ts": us(start),
            "dur": epoch_wall * 1e6,
            "pid": sync_pid,
            "tid": tid(sync_pid, f"[{strategy}] epoch windows", "sync"),
            "args": {
                "window_ps": window,
                "lookahead_ps": lookahead,
                "events": epoch.get("events"),
                "exchanged": epoch.get("exchanged"),
                "per_rank_barrier_wait_s": barriers,
                "max_barrier_wait_s": max(barriers) if barriers else 0.0,
            },
        })
        if exchange_s > 0.0:
            events.append({
                "ph": "X",
                "name": f"exchange ({epoch.get('exchanged', 0)} events)",
                "cat": "sync",
                "ts": us(start - exchange_s),
                "dur": exchange_s * 1e6,
                "pid": sync_pid,
                "tid": tid(sync_pid, "[sync] exchange", "sync"),
                "args": {"exchanged": epoch.get("exchanged")},
            })

    # Mark degraded lanes (missing/truncated shards) so the gap is
    # visible in the trace itself, not only in the merge warning.
    for label, ranks in (("shard missing", artifacts.missing_ranks),
                         ("shard truncated", artifacts.truncated_ranks)):
        for rank in ranks:
            events.append({
                "ph": "I", "s": "p",
                "name": f"rank {rank} {label} — lane incomplete",
                "cat": "merge",
                "ts": 0.0,
                "pid": rank,
                "tid": tid(rank, "[engine] epochs", f"rank {rank}"),
            })

    extra: Dict[str, Any] = {
        "metrics": (str(artifacts.metrics_path)
                    if artifacts.metrics_path is not None else None),
        "backend": artifacts.backend,
        "ranks": num_ranks,
        "rank_shards": {str(r): str(p)
                        for r, p in sorted(artifacts.shards.items())},
        "sync": sync_info,
    }
    if artifacts.missing_ranks:
        extra["missing_rank_shards"] = list(artifacts.missing_ranks)
    if artifacts.truncated_ranks:
        extra["truncated_rank_shards"] = list(artifacts.truncated_ranks)
    if flows:
        flow_events, flow_note = _causal_flows(artifacts, us, tid)
        events.extend(flow_events)
        extra["causal_flows"] = flow_note

    events.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0.0)))
    return build_trace_dict(events, exporter="repro.obs.merge", extra=extra)


#: flow arrows kept in a merged trace before truncation
_FLOW_LIMIT = 2000


def _causal_flows(artifacts: RunArtifacts, us, tid) -> Tuple[List[Dict[str, Any]],
                                                             Dict[str, Any]]:
    """Cross-rank causal edges as Perfetto flow ("s"/"f") event pairs.

    Each stitched send→recv edge becomes an arrow between the sender's
    and receiver's *epoch* slices: a rank's ``rank_epoch`` records map
    simulated time (``window_end_ps``) onto the wall-clock span of the
    epoch that executed it, and the arrow endpoints are pinned inside
    those spans so Perfetto binds them.  Ranks without ``rank_epoch``
    records (a missing shard) have no wall-clock anchor and contribute
    no arrows.
    """
    from .causal import find_causal_shards

    note: Dict[str, Any] = {"flows": 0}
    if not find_causal_shards(artifacts.metrics_path):
        note["note"] = ("no causal shards next to the metrics stream "
                        "(run with --trace-causal)")
        return [], note
    from .critpath import load_causal

    graph = load_causal(artifacts.metrics_path)

    # Per-rank epoch windows: sorted (window_end_ps, ts_us, dur_us).
    windows: Dict[int, Tuple[List[int], List[Tuple[float, float]]]] = {}
    for rank, records in artifacts.rank_records.items():
        ends: List[int] = []
        spans: List[Tuple[float, float]] = []
        for record in records:
            if record.get("kind") != "rank_epoch":
                continue
            end_ps = record.get("window_end_ps")
            mono = record.get("mono_s")
            if end_ps is None or mono is None:
                continue
            ends.append(int(end_ps))
            spans.append((us(mono), float(record.get("wall_s", 0.0)) * 1e6))
        if ends:
            windows[rank] = (ends, spans)

    def anchor(rank: int, sim_ps: int) -> Optional[float]:
        """A wall-clock ts inside the epoch slice that ran ``sim_ps``."""
        mapped = windows.get(rank)
        if mapped is None:
            return None
        ends, spans = mapped
        index = bisect_left(ends, sim_ps)
        if index >= len(ends):
            index = len(ends) - 1
        start, dur = spans[index]
        return start + dur * 0.5

    events: List[Dict[str, Any]] = []
    emitted = dropped = unanchored = 0
    for (dest_rank, seq), (link_id, send_seq) in sorted(graph.recvs.items()):
        link = graph.links.get(link_id)
        dest_node = graph.nodes.get((dest_rank, seq))
        if link is None or dest_node is None:
            continue
        src_rank = (link["rank_a"] if dest_rank == link["rank_b"]
                    else link["rank_b"])
        send = graph.sends.get((src_rank, send_seq))
        deliver_ps = dest_node[0]
        if send is not None and send[0] is not None \
                and (src_rank, send[0]) in graph.nodes:
            send_ps = graph.nodes[(src_rank, send[0])][0]
        else:
            send_ps = max(0, deliver_ps - int(link.get("latency_ps") or 0))
        src_ts = anchor(src_rank, send_ps)
        dest_ts = anchor(dest_rank, deliver_ps)
        if src_ts is None or dest_ts is None:
            unanchored += 1
            continue
        if emitted >= _FLOW_LIMIT:
            dropped += 1
            continue
        emitted += 1
        events.extend(flow_pair(
            flow_id=emitted,
            name=str(link.get("name", f"link{link_id}")),
            cat="causal",
            src=(src_rank, tid(src_rank, "[engine] epochs",
                               f"rank {src_rank}"), src_ts),
            dest=(dest_rank, tid(dest_rank, "[engine] epochs",
                                 f"rank {dest_rank}"),
                  max(dest_ts, src_ts)),
        ))
    note["flows"] = emitted
    if dropped:
        note["dropped"] = dropped
        note["note"] = f"flow arrows capped at {_FLOW_LIMIT}"
    if unanchored:
        note["unanchored"] = unanchored
    return events, note


def merge_to_file(artifacts: RunArtifacts,
                  out_path: Union[str, Path, None] = None, *,
                  flows: bool = False) -> Path:
    """Merge a loaded run's streams and write ``<metrics>.trace.json``."""
    if out_path is None:
        out_path = f"{artifacts.metrics_path}.trace.json"
    return _write_trace(merge_trace(artifacts, flows=flows), out_path)


class ChromeTraceExporter:
    """Collect a run's trace records and write them as a ``trace.json``.

    Open the file at https://ui.perfetto.dev (or ``chrome://tracing``):
    one process per rank (0 for a sequential run), one lane per
    simulated component with a span per handler invocation (``dur`` =
    measured wall time), and on a parallel run an ``[engine] epochs``
    lane with a span per rank epoch.  The lanes are :func:`merge_trace`'s
    over the records held in memory; time zero is the earliest record.

    On a :class:`Simulation` the exporter's span observer builds the
    ``span`` records; on a :class:`ParallelSimulation` it registers on
    the rank plan, and each rank's recorder sends home every record it
    emitted at the end of the run, on every backend.  Either way each
    rank keeps at most :data:`~repro.obs.rank_stream.SPAN_LIMIT` spans
    in a run;
    ``dropped_events`` counts the rest.  ``path`` is the output file for
    :meth:`close` (``None`` keeps the records in memory; use
    :meth:`trace_dict`).
    """

    def __init__(self, path: Union[str, Path, None] = None):
        self.path = Path(path) if path is not None else None
        #: rank -> the rank's records, in emission order
        self.records: Dict[int, List[Dict[str, Any]]] = {}
        self.dropped_events = 0
        self._sim: Union[Simulation, None] = None
        self._plan = None

    def attach(self, target: Union[Simulation, ParallelSimulation]) -> "ChromeTraceExporter":
        if isinstance(target, ParallelSimulation):
            self._plan = ensure_rank_plan(target)
            self._plan.register_span_exporter(self)
        else:
            self._sim = target
            target.add_span_observer(self._on_span)
        return self

    def detach(self) -> None:
        if self._sim is not None:
            self._sim.remove_span_observer(self._on_span)
            self._sim = None
        if self._plan is not None:
            self._plan.unregister_span_exporter(self)
            self._plan = None

    def _on_span(self, time, handler, event, wall_seconds) -> None:
        rank = self._sim.rank
        spans = self.records.setdefault(rank, [])
        if len(spans) >= SPAN_LIMIT:
            self.dropped_events += 1
            return
        spans.append(span_record(rank, time, handler, event, wall_seconds))

    def absorb_rank_records(self, rank: int, records: List[Dict[str, Any]],
                            dropped: int) -> None:
        """Take one rank's records, harvested at the end of a parallel
        run; ``dropped`` counts the rank's spans over its cap."""
        self.records.setdefault(rank, []).extend(records)
        self.dropped_events += dropped

    def trace_dict(self) -> Dict[str, Any]:
        trace = merge_trace(RunArtifacts.from_records(self.records))
        trace["otherData"]["dropped_events"] = self.dropped_events
        return trace

    def close(self) -> Union[Path, None]:
        """Detach, write ``trace.json`` and release the records;
        returns the path written."""
        self.detach()
        if self.path is None:
            return None
        trace = self.trace_dict()
        self.records = {}  # the events replace them; let them go
        return _write_trace(trace, self.path)

    def __enter__(self) -> "ChromeTraceExporter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
