"""Progress/heartbeat reporting for long simulation runs.

A :class:`ProgressReporter` prints a periodic one-line status while a
run is in flight — events executed, current sim time, engine
throughput, sim-time rate and (when a ``max_time`` budget is known) an
ETA — so a multi-minute design-space point is no longer a silent
process.  Sequential runs feed it through the engine heartbeat hook;
parallel runs through the epoch observer.
"""

from __future__ import annotations

import sys
import time as _wall_time
from typing import IO, Any, Optional, Union

from ..core import units
from ..core.parallel import EpochInfo, ParallelSimulation
from ..core.simulation import Simulation
from .format import fmt_count, fmt_duration, fmt_rate


class ProgressReporter:
    """Emit periodic progress lines for a running simulation.

    Parameters
    ----------
    stream:
        Where lines go (default ``sys.stderr``).
    interval_s:
        Minimum wall-clock spacing between lines.
    max_time:
        The run's simulated-time budget (same forms ``run()`` accepts);
        enables the ETA estimate.
    every_events:
        Sequential runs: heartbeat stride in executed events (the
        wall-clock throttle still applies on top).
    """

    def __init__(self, *, stream: Optional[IO[str]] = None,
                 interval_s: float = 2.0,
                 max_time: Union[str, int, None] = None,
                 every_events: int = 5_000):
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self.limit_ps: Optional[int] = (
            units.parse_time(max_time, default_unit="ps")
            if max_time is not None else None
        )
        self.every_events = every_events
        self.lines_emitted = 0
        self._target: Union[Simulation, ParallelSimulation, None] = None
        self._t0 = 0.0
        self._last_emit = 0.0
        self._last_events = 0
        self._last_sim = 0
        self._events_seen = 0

    def attach(self, target: Union[Simulation, ParallelSimulation]) -> "ProgressReporter":
        if self._target is not None:
            raise RuntimeError("ProgressReporter is already attached")
        self._target = target
        self._t0 = _wall_time.perf_counter()
        self._last_emit = 0.0
        if isinstance(target, ParallelSimulation):
            target.add_epoch_observer(self._on_epoch)
        else:
            target.add_heartbeat(self._on_heartbeat,
                                 every_events=self.every_events)
        return self

    def detach(self) -> None:
        target = self._target
        self._target = None
        if isinstance(target, ParallelSimulation):
            target.remove_epoch_observer(self._on_epoch)
        elif isinstance(target, Simulation):
            target.remove_heartbeat(self._on_heartbeat)
        if target is not None:
            wall = _wall_time.perf_counter() - self._t0
            # ParallelSimulation carries no cumulative counter; fall
            # back to the last epoch total the observer saw.
            events = getattr(target, "events_executed", self._events_seen)
            mean = events / wall if wall > 0 else 0.0
            print(f"[progress] done: {fmt_count(events)} events in "
                  f"{fmt_duration(wall)} ({fmt_rate(mean)} mean)",
                  file=self.stream, flush=True)
            self.lines_emitted += 1

    # ------------------------------------------------------------------
    def _on_heartbeat(self, sim: Simulation) -> None:
        self._maybe_emit(sim.events_executed, sim.now, extra="")

    def _on_epoch(self, info: EpochInfo) -> None:
        self._maybe_emit(info.events_total, info.now,
                         extra=f" | epoch {info.index}")

    def _maybe_emit(self, events: int, sim_ps: int, *, extra: str) -> None:
        self._events_seen = events
        wall = _wall_time.perf_counter() - self._t0
        if wall - self._last_emit < self.interval_s:
            return
        d_wall = wall - self._last_emit
        rate = (events - self._last_events) / d_wall if d_wall > 0 else 0.0
        sim_rate = (sim_ps - self._last_sim) / d_wall if d_wall > 0 else 0.0
        line = (f"[progress] {fmt_count(events)} events | "
                f"sim {units.format_time(sim_ps)} | "
                f"{fmt_count(rate)} ev/s | "
                f"sim-rate {units.format_time(int(sim_rate))}/s{extra}")
        if self.limit_ps is not None:
            # A window that executed nothing (warm-up, an idle epoch, a
            # zero-length wall delta) has no sim-rate to extrapolate
            # from; show a placeholder rather than dividing by zero.
            remaining = max(0, self.limit_ps - sim_ps)
            if sim_rate > 0:
                line += f" | ETA {remaining / sim_rate:.0f}s"
            else:
                line += " | ETA --"
        print(line, file=self.stream, flush=True)
        self.lines_emitted += 1
        self._last_emit = wall
        self._last_events = events
        self._last_sim = sim_ps

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()
