"""Chrome trace-event exporter (Perfetto / chrome://tracing loadable).

Converts handler-execution spans and conservative-sync epochs into the
Trace Event JSON format: open the resulting ``trace.json`` at
https://ui.perfetto.dev (or ``chrome://tracing``) and scrub through the
run on a wall-clock timeline.

Mapping:

* **process (pid)** — parallel rank (0 for sequential runs);
* **thread (tid)**  — the simulated component the handler belongs to
  (one swim-lane per component), plus an ``[engine] epochs`` lane per
  rank for epoch windows;
* **complete events (ph "X")** — one span per handler invocation
  (``dur`` = measured wall time) and one per rank-epoch execution;
* **metadata (ph "M")** — process/thread naming.

Timestamps are wall-clock microseconds since the exporter attached.
Under the ``serial`` parallel backend rank epochs execute one after
another in the calling thread; their spans reflect that (they do not
overlap), which is itself a useful visual of the backend.
"""

from __future__ import annotations

import json
import time as _wall_time
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from ..core.parallel import EpochInfo, ParallelSimulation
from ..core.simulation import Simulation
from .profiler import attribute_event


def build_trace_dict(events: List[Dict[str, Any]], *,
                     dropped_events: int = 0,
                     exporter: str = "repro.obs.chrome_trace",
                     extra: Union[Dict[str, Any], None] = None) -> Dict[str, Any]:
    """Wrap trace events in the Trace Event JSON envelope.

    Shared by the live :class:`ChromeTraceExporter` and the post-hoc
    cross-rank merge (:mod:`repro.obs.merge`), so both produce files the
    Perfetto UI loads identically.
    """
    other: Dict[str, Any] = {
        "exporter": exporter,
        "dropped_events": dropped_events,
    }
    if extra:
        other.update(extra)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def flow_pair(*, flow_id: int, name: str, cat: str,
              src: Tuple[int, int, float],
              dest: Tuple[int, int, float]) -> List[Dict[str, Any]]:
    """One Perfetto flow arrow as its ("s", "f") trace-event pair.

    ``src``/``dest`` are ``(pid, tid, ts_us)`` triples; the timestamps
    must fall inside enclosing "X" slices on those lanes for the UI to
    bind the arrow.  Used by :mod:`repro.obs.merge` to draw cross-rank
    causal edges (``obs merge --flows``).
    """
    src_pid, src_tid, src_ts = src
    dest_pid, dest_tid, dest_ts = dest
    return [
        {"ph": "s", "id": flow_id, "name": name, "cat": cat,
         "ts": src_ts, "pid": src_pid, "tid": src_tid},
        {"ph": "f", "bp": "e", "id": flow_id, "name": name, "cat": cat,
         "ts": dest_ts, "pid": dest_pid, "tid": dest_tid},
    ]


class ChromeTraceExporter:
    """Collect handler/epoch spans and write a ``trace.json``.

    Parameters
    ----------
    path:
        Output file for :meth:`close` (``None`` keeps events in memory;
        use :meth:`trace_dict`).
    max_events:
        Hard cap on collected span events — busy simulations produce
        millions of spans and the JSON grows linearly.  Once hit, new
        spans are dropped and ``dropped_events`` counts them.

    On a processes-backend run handler spans are recorded rank-locally
    into the telemetry shards (a metrics path is needed) and reach a
    trace through ``python -m repro obs merge``; this exporter itself
    keeps only the parent's epoch lanes.
    """

    def __init__(self, path: Union[str, Path, None] = None, *,
                 max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.path = Path(path) if path is not None else None
        self.max_events = max_events
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        self._span_count = 0  # "X" records only; metadata is uncapped
        self._t0 = _wall_time.perf_counter()
        self._observers: List[Tuple[Simulation, Any]] = []
        self._epoch_target: Union[ParallelSimulation, None] = None
        self._plan = None
        self._tids: Dict[Tuple[int, str], int] = {}
        self._named_pids: set = set()

    # ------------------------------------------------------------------
    # attach
    # ------------------------------------------------------------------
    def attach(self, target: Union[Simulation, ParallelSimulation]) -> "ChromeTraceExporter":
        self._t0 = _wall_time.perf_counter()
        if isinstance(target, ParallelSimulation):
            self._epoch_target = target
            target.add_epoch_observer(self._on_epoch)
            sims = [target.rank_sim(r) for r in range(target.num_ranks)]
            # Under the processes backend the in-process span observers
            # below never fire in the parent; ask the rank plan to write
            # span records into the rank shards instead.
            from .rank_stream import ensure_rank_plan
            self._plan = ensure_rank_plan(target)
            self._plan.span_records = True
        else:
            sims = [target]
        for sim in sims:
            fn = self._make_span_observer(sim.rank)
            # Rank-local coverage exists only when the plan has a record
            # sink — checked at fork time by the processes backend.
            fn.__rank_local__ = "span"
            self._observers.append((sim, fn))
            sim.add_span_observer(fn)
        return self

    def detach(self) -> None:
        for sim, fn in self._observers:
            sim.remove_span_observer(fn)
        self._observers = []
        if self._epoch_target is not None:
            self._epoch_target.remove_epoch_observer(self._on_epoch)
            self._epoch_target = None
        if self._plan is not None:
            self._plan.span_records = False
            self._plan = None

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _tid(self, pid: int, label: str) -> int:
        key = (pid, label)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            if pid not in self._named_pids:
                self._named_pids.add(pid)
                self.events.append({
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"rank {pid}"},
                })
            self.events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
        return tid

    def _make_span_observer(self, rank: int):
        perf = _wall_time.perf_counter

        def observe(time, handler, event, wall_seconds) -> None:
            if self._span_count >= self.max_events:
                self.dropped_events += 1
                return
            self._span_count += 1
            component, label = attribute_event(handler, event)
            event_type = type(event).__name__ if event is not None else "-"
            end_us = (perf() - self._t0) * 1e6
            dur_us = wall_seconds * 1e6
            self.events.append({
                "ph": "X",
                "name": f"{component}.{label}",
                "cat": event_type,
                "ts": end_us - dur_us,
                "dur": dur_us,
                "pid": rank,
                "tid": self._tid(rank, component),
                "args": {"sim_ps": time, "event": event_type},
            })

        return observe

    def _on_epoch(self, info: EpochInfo) -> None:
        now_us = (_wall_time.perf_counter() - self._t0) * 1e6
        batch_start = now_us - info.wall_seconds * 1e6
        offset = 0.0
        serial = (self._epoch_target is not None
                  and self._epoch_target.backend == "serial")
        for rank, wall in enumerate(info.per_rank_wall):
            if self._span_count >= self.max_events:
                self.dropped_events += 1
                continue
            self._span_count += 1
            self.events.append({
                "ph": "X",
                "name": f"epoch {info.index} [{info.window_start}-{info.window_end}ps]",
                "cat": "epoch",
                "ts": batch_start + offset,
                "dur": wall * 1e6,
                "pid": rank,
                "tid": self._tid(rank, "[engine] epochs"),
                "args": {
                    "events": info.per_rank_events[rank],
                    "exchanged": info.exchanged_events,
                    "barrier_wait_s": info.per_rank_barrier_wait[rank],
                },
            })
            if serial:
                offset += wall * 1e6

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def trace_dict(self) -> Dict[str, Any]:
        return build_trace_dict(list(self.events),
                                dropped_events=self.dropped_events)

    def close(self) -> Union[Path, None]:
        """Detach and write ``trace.json``; returns the path written."""
        self.detach()
        if self.path is None:
            return None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.trace_dict()) + "\n",
                             encoding="utf-8")
        return self.path

    def __enter__(self) -> "ChromeTraceExporter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
