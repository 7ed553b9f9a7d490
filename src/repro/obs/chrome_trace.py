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

Timestamps are wall-clock microseconds since the exporter attached.  A
parallel run's handler and epoch spans are recorded where each rank
runs (by the rank plan's recorder) and stamped there, so they show
what each backend did: under ``serial`` the ranks' epochs follow one
another, under ``processes`` they overlap.
"""

from __future__ import annotations

import json
import time as _wall_time
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from ..core.parallel import ParallelSimulation
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

    On a :class:`ParallelSimulation` the exporter registers on the rank
    plan: each rank records its span and epoch rows where it runs (at
    most :data:`~repro.obs.rank_stream.SPAN_LIMIT` spans per rank) and
    they arrive here at the end of the run, on every backend.
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
        self._sim: Union[Simulation, None] = None
        self._plan = None
        self._tids: Dict[Tuple[int, str], int] = {}
        self._named_pids: set = set()

    # ------------------------------------------------------------------
    # attach
    # ------------------------------------------------------------------
    def attach(self, target: Union[Simulation, ParallelSimulation]) -> "ChromeTraceExporter":
        self._t0 = _wall_time.perf_counter()
        if isinstance(target, ParallelSimulation):
            from .rank_stream import ensure_rank_plan
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

    def _add(self, pid: int, lane: str, start_s: float, wall_s: float,
             **fields: Any) -> None:
        """One "X" span on ``lane`` of ``pid`` (``start_s`` is a raw
        ``perf_counter`` reading)."""
        if self._span_count >= self.max_events:
            self.dropped_events += 1
            return
        self._span_count += 1
        self.events.append({
            "ph": "X", **fields,
            "ts": (start_s - self._t0) * 1e6,
            "dur": wall_s * 1e6,
            "pid": pid,
            "tid": self._tid(pid, lane),
        })

    def _on_span(self, time, handler, event, wall_seconds) -> None:
        component, label = attribute_event(handler)
        event_type = type(event).__name__ if event is not None else "-"
        self._add_handler_span(self._sim.rank, _wall_time.perf_counter()
                               - wall_seconds, wall_seconds, component,
                               label, event_type, time)

    def _add_handler_span(self, rank: int, start_s: float, wall_s: float,
                          component: str, label: str, event_type: str,
                          time: int) -> None:
        self._add(rank, component, start_s, wall_s,
                  name=f"{component}.{label}", cat=event_type,
                  args={"sim_ps": time, "event": event_type})

    def absorb_rank_rows(self, rank: int, spans: List[tuple],
                         epochs: List[tuple], dropped: int) -> None:
        """Add one rank's span and epoch rows, harvested at the end of
        a parallel run (see :class:`~repro.obs.rank_stream.RankRecorder`);
        ``dropped`` counts the rank's spans over its cap."""
        for index, (start, wall, events, sent, window_end, now) in \
                enumerate(epochs):
            self._add(rank, "[engine] epochs", start, wall,
                      name=f"epoch {index}", cat="epoch",
                      args={"events": events, "sent": sent,
                            "window_end_ps": window_end, "sim_ps": now})
        for row in spans:
            self._add_handler_span(rank, *row)
        self.dropped_events += dropped

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
