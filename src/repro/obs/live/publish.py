"""Publishing engine state into a live segment while a run is in flight.

:class:`LiveMetrics` is the attach-side instrument (the live sibling of
:class:`~repro.obs.telemetry.TelemetryRecorder`): it creates the
segment, has every rank publish its own slot wherever the rank kernel
actually executes, and keeps the run slot fresh.  The publishing
points are chosen so the bare-mode hot path stays untouched — nothing
here adds a per-event observer:

* **kernel boundaries** — a rank's state flips to *running* when a
  kernel window starts and to *waiting* when it ends: for a sequential
  run through the simulation's ``_live_publisher`` slot (checked once
  per :func:`~repro.core.kernel.kernel_run`), for a parallel rank
  through its runner's recorder;
* **epoch hook** — a parallel run's epoch observer republishes the run
  slot;
* **sampler thread** — a daemon thread republishing a rank slot every
  ``interval_s`` seconds, which is what keeps event counts and queue
  depths moving *mid-window* (and what lets the watchdog see a hung
  handler: the sampler keeps stamping the slot while the event count
  stops advancing).

On a parallel run, on every backend, the parent owns only the run slot:
each rank's recorder re-opens the segment by path where the rank runs
(in the calling process for the serial backend and rank 0, in its
forked worker otherwise) and owns its rank slot (wired through
:class:`~repro.obs.rank_stream.RankStreamPlan`).
"""

from __future__ import annotations

import threading
import time as _wall_time
from pathlib import Path
from typing import Any, List, Optional, Union

from .segment import (KIND_RUN, RANK_SLOT_SIZE, STATE_DONE, STATE_RUNNING,
                      LiveSegment, RankSlotWriter, run_slot_size)


class SlotSampler:
    """Daemon thread republishing one rank slot periodically."""

    def __init__(self, publisher: RankSlotWriter, interval_s: float,
                 extra_tick: Optional[Any] = None):
        self._publisher = publisher
        self._interval = max(0.02, interval_s)
        self._extra_tick = extra_tick
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-live-sampler", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:  # never let sampling kill anything
                self._publisher.publish()
                if self._extra_tick is not None:
                    self._extra_tick()
            except Exception:
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class LiveMetrics:
    """Publish one run's engine state into a live segment.

    Parameters
    ----------
    path:
        Segment file location (``default_segment_path(metrics)`` is the
        CLI convention: ``<metrics>.live``).
    interval_s:
        Sampler republish period of each rank slot.
    watchdog_dumps:
        Ask processes-backend workers to register the SIGUSR1
        ``faulthandler`` stack-dump handler at startup, so a watchdog
        can extract a stack from a hung worker
        (:mod:`repro.obs.live.watchdog`).
    limit_ps:
        The run's simulated-time budget, published into the run slot so
        readers can compute an ETA.
    """

    def __init__(self, path: Union[str, Path], *, interval_s: float = 0.25,
                 watchdog_dumps: bool = False, limit_ps: int = 0):
        self.path = Path(path)
        self.interval_s = interval_s
        self.watchdog_dumps = watchdog_dumps
        self.limit_ps = limit_ps
        self.segment: Optional[LiveSegment] = None
        self._target: Optional[Any] = None
        self._parallel = False
        self._publisher: Optional[RankSlotWriter] = None
        self._sampler: Optional[SlotSampler] = None
        self._run_mutex = threading.Lock()
        self._start_mono = 0.0
        self._exchanged = 0
        self._exchange_s = 0.0
        self._exec_s = 0.0
        self._exchange_bytes = 0
        self._window_ps = 0          # last epoch's window width
        self._window_total = 0       # cumulative window width (util denom)
        self._first_window: Optional[int] = None
        self._barrier: List[float] = []
        self._run_state = STATE_RUNNING
        self._reason = ""
        self._epoch = 0
        self._events = 0
        self._now_ps = 0

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------
    def attach(self, target: Any) -> "LiveMetrics":
        """Create the segment and start publishing for ``target``
        (a :class:`Simulation` or :class:`ParallelSimulation`)."""
        from ...core.parallel import ParallelSimulation

        if self._target is not None:
            raise RuntimeError("LiveMetrics is already attached")
        self._target = target
        self._parallel = isinstance(target, ParallelSimulation)
        num_ranks = target.num_ranks if self._parallel else 1
        backend = target.backend if self._parallel else "serial"
        self._barrier = [0.0] * num_ranks
        self._start_mono = _wall_time.perf_counter()
        self.segment = LiveSegment.create(
            self.path, kind=KIND_RUN, slots=num_ranks,
            slot_size=RANK_SLOT_SIZE, run_size=run_slot_size(num_ranks),
            backend=backend,
            mode="parallel" if self._parallel else "sequential",
            limit_ps=self.limit_ps)
        if self._parallel:
            target.add_epoch_observer(self._on_epoch)
            target.live = self
            from ..rank_stream import ensure_rank_plan

            plan = ensure_rank_plan(target)
            plan.live_path = str(self.path)
            plan.live_interval_s = self.interval_s
            if self.watchdog_dumps:
                plan.live_dump_base = str(self.path)
            # Each rank's RankRecorder opens the segment by path and
            # owns its slot (via the plan fields set above).
        else:
            self._publisher = RankSlotWriter(self.segment, 0, target)
            target._live_publisher = self._publisher
            self._sampler = SlotSampler(self._publisher, self.interval_s,
                                        extra_tick=self._sequential_tick)
        self._publish_run()
        return self

    def detach(self) -> None:
        target, self._target = self._target, None
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        if target is not None:
            if self._parallel:
                target.remove_epoch_observer(self._on_epoch)
                if getattr(target, "live", None) is self:
                    target.live = None
            elif target._live_publisher is self._publisher:
                target._live_publisher = None
        if self._publisher is not None:
            self._publisher.close()
            self._publisher = None
        if self.segment is not None:
            self.segment.close()
            self.segment = None

    def finalize(self, result: Any = None) -> None:
        """Publish the terminal run state and release the segment.

        The segment *file* stays on disk with the final counters, so
        ``obs top`` and post-mortems can still read where the run ended.
        """
        if result is not None:
            self._reason = getattr(result, "reason", "") or ""
            self._events = getattr(result, "events_executed", self._events)
        self._run_state = STATE_DONE
        if not self._parallel and self._target is not None:
            self._events = self._target.events_executed
            self._now_ps = self._target.now
        if self.segment is not None:
            self._publish_run()
        self.detach()

    # ------------------------------------------------------------------
    # publish points
    # ------------------------------------------------------------------
    def _on_epoch(self, info: Any) -> None:
        self._epoch = info.index + 1
        self._events = info.events_total
        self._now_ps = info.now
        self._exchanged += info.exchanged_events
        self._exchange_s += info.exchange_seconds
        self._exec_s += sum(info.per_rank_wall)
        self._exchange_bytes += getattr(info, "exchange_bytes", 0)
        width = info.window_end - info.window_start + 1
        self._window_ps = width
        self._window_total += width
        if self._first_window is None:
            self._first_window = info.window_start
        for rank, wait in enumerate(info.per_rank_barrier_wait):
            if rank < len(self._barrier):
                self._barrier[rank] += wait
        self._publish_run()

    def _sequential_tick(self) -> None:
        """Sampler extra tick for sequential runs: refresh the run slot."""
        sim = self._target
        if sim is None:
            return
        self._events = sim.events_executed
        self._now_ps = sim.now
        self._publish_run()

    def on_run_end(self, reason: str) -> None:
        """Epoch-loop exit hook (:meth:`ParallelSimulation.run`): record
        the stop reason even if the caller never calls finalize."""
        self._reason = reason or ""
        self._publish_run()

    def _publish_run(self) -> None:
        segment = self.segment
        if segment is None:
            return
        util = 0.0
        if self._window_total and self._first_window is not None:
            span = self._now_ps - self._first_window + 1
            util = min(1.0, span / self._window_total)
        with self._run_mutex:
            try:
                segment.write_run(
                    state=self._run_state, epoch=self._epoch,
                    events=self._events, exchanged=self._exchanged,
                    now_ps=self._now_ps, limit_ps=self.limit_ps,
                    window_ps=self._window_ps,
                    exchange_bytes=self._exchange_bytes,
                    lookahead_util=util,
                    mono_s=_wall_time.perf_counter(),
                    unix_s=_wall_time.time(),
                    start_mono=self._start_mono,
                    exchange_s=self._exchange_s, exec_s=self._exec_s,
                    reason=self._reason, barrier_s=self._barrier)
            except (ValueError, IndexError):  # segment already closed
                pass

    def __enter__(self) -> "LiveMetrics":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._target is not None:
            self.detach()
