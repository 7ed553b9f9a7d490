"""Fleet-wide live status for ``dse.sweep``: one slot per design point.

A sweep evaluates independent design points on a job pool; this module
gives the fleet the same live plane a single run gets.  The parent
creates a ``KIND_SWEEP`` segment with one fixed slot per point; each
pool worker (same process for the serial pool, forked process for
the processes pool — every slot still has exactly one writer, the
worker evaluating that point) marks its slot *running* at pickup and
*done*/*failed* with the evaluation wall time at completion.  Readers
— the ``--serve-metrics`` endpoint and ``obs top`` — derive completed
counts, completion rate and the fleet ETA.
"""

from __future__ import annotations

import os
import struct
import time as _wall_time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .segment import _HEADER_SIZE, KIND_SWEEP, LiveSegment, LiveView

POINT_PENDING = 0
POINT_RUNNING = 1
POINT_DONE = 2
POINT_FAILED = 3

_POINT_BODY_FMT = "<2Q2d"  # pid, state, start_mono, wall_s
POINT_SLOT_SIZE = 48

#: per-process cache of opened sweep segments (forked pool workers open
#: the file once, then mark every point they evaluate through it).
_OPEN: Dict[str, "SweepLive"] = {}


class SweepLive:
    """Writer-side handle on a sweep fleet segment."""

    def __init__(self, segment: LiveSegment):
        self.segment = segment
        self.path = segment.path

    @classmethod
    def create(cls, path: Union[str, Path], total_points: int) -> "SweepLive":
        return cls(LiveSegment.create(
            Path(path), kind=KIND_SWEEP, slots=total_points,
            slot_size=POINT_SLOT_SIZE, run_size=0, backend="jobpool",
            mode="sweep"))

    @classmethod
    def open(cls, path: Union[str, Path]) -> "SweepLive":
        """Per-process cached open (workers mark many points)."""
        key = str(path)
        live = _OPEN.get(key)
        if live is None or os.getpid() != live._pid:
            live = cls(LiveSegment.open(path))
            live._pid = os.getpid()
            _OPEN[key] = live
        return live

    _pid = 0

    def mark(self, index: int, state: int, *, start_mono: float = 0.0,
             wall_s: float = 0.0) -> None:
        try:
            self.segment.write_slot(index, _POINT_BODY_FMT, os.getpid(),
                                    state, start_mono, wall_s)
        except (IndexError, ValueError, struct.error):
            pass  # fleet status must never fail an evaluation

    def mark_running(self, index: int) -> float:
        start = _wall_time.perf_counter()
        self.mark(index, POINT_RUNNING, start_mono=start)
        return start

    def mark_done(self, index: int, start_mono: float,
                  failed: bool = False) -> None:
        self.mark(index, POINT_FAILED if failed else POINT_DONE,
                  start_mono=start_mono,
                  wall_s=_wall_time.perf_counter() - start_mono)

    def close(self) -> None:
        self.segment.close()


def read_points(view: LiveView) -> List[Optional[Dict[str, Any]]]:
    points = []
    for i in range(view.header["slots"]):
        off = _HEADER_SIZE + i * view.header["slot_size"]
        body = view._read_slot(off, _POINT_BODY_FMT)
        if body is None:
            points.append(None)
            continue
        pid, state, start_mono, wall_s = body
        points.append({"index": i, "pid": pid, "state": state,
                       "start_mono": start_mono, "wall_s": wall_s})
    return points


def sweep_status(snapshot_or_view: Any) -> Dict[str, Any]:
    """Fleet status: counts, completion rate and ETA.

    Accepts a :class:`LiveView` or a dict snapshot carrying ``view``.
    """
    view = snapshot_or_view
    if isinstance(snapshot_or_view, dict):
        view = LiveView(snapshot_or_view["path"])
        try:
            return sweep_status(view)
        finally:
            view.close()
    points = [p for p in read_points(view) if p is not None]
    total = view.header["slots"]
    done = [p for p in points if p["state"] == POINT_DONE]
    failed = [p for p in points if p["state"] == POINT_FAILED]
    running = [p for p in points if p["state"] == POINT_RUNNING]
    status: Dict[str, Any] = {
        "total": total,
        "completed": len(done),
        "failed": len(failed),
        "running": len(running),
        "pending": total - len(done) - len(failed) - len(running),
        "point_seconds_sum": sum(p["wall_s"] for p in done),
    }
    starts = [p["start_mono"] for p in points if p["start_mono"] > 0]
    finished = len(done) + len(failed)
    if starts and finished:
        elapsed = max(0.0, _wall_time.perf_counter() - min(starts))
        if elapsed > 0:
            rate = finished / elapsed
            status["rate_per_s"] = rate
            remaining = total - finished
            status["eta_s"] = remaining / rate if rate > 0 else None
    return status


def render_sweep_openmetrics(view: LiveView) -> str:
    status = sweep_status(view)
    lines = [
        "# TYPE repro_sweep_points gauge",
        "# HELP repro_sweep_points Design points by state",
    ]
    for state in ("pending", "running", "completed", "failed"):
        lines.append(f'repro_sweep_points{{state="{state}"}} {status[state]}')
    lines += [
        "# TYPE repro_sweep_point_seconds summary",
        "# HELP repro_sweep_point_seconds Per-point evaluation wall time",
        f"repro_sweep_point_seconds_sum {status['point_seconds_sum']!r}",
        f"repro_sweep_point_seconds_count {status['completed']}",
    ]
    if status.get("eta_s") is not None:
        lines += [
            "# TYPE repro_sweep_eta_seconds gauge",
            "# HELP repro_sweep_eta_seconds Estimated seconds to completion",
            f"repro_sweep_eta_seconds {status['eta_s']!r}",
        ]
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def make_sweep_render(path: Union[str, Path],
                      keys: Optional[List[Tuple[str, int, str]]] = None):
    """Renderer for :class:`~repro.obs.live.server.MetricsServer`.

    ``keys`` (the sweep's point grid, in slot order) enriches the JSON
    status with named in-flight points.
    """
    path = Path(path)

    def render() -> Tuple[Dict[str, Any], str]:
        from .segment import SegmentError

        try:
            view = LiveView(path)
        except SegmentError as exc:
            return ({"state": "pending", "detail": str(exc)}, "# EOF\n")
        try:
            status = sweep_status(view)
            text = render_sweep_openmetrics(view)
            if keys:
                points = read_points(view)
                status["in_flight"] = [
                    "/".join(str(part) for part in keys[p["index"]])
                    for p in points
                    if p is not None and p["state"] == POINT_RUNNING
                    and p["index"] < len(keys)
                ]
        finally:
            view.close()
        return status, text

    return render
