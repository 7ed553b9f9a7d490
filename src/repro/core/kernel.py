"""Layer 1: the kernel event loop.

Every execution path in the engine — ``Simulation.run`` for sequential
runs, ``Simulation.run_step`` for a conservative-sync epoch window, and
the per-rank workers of the execution backends
(:mod:`repro.core.backends`) — drives the *same* pop/dispatch loop
defined here.  The loop itself is policy-free: limits, the exit
protocol, observability dispatch and the final statistics harvest are
threaded in through a :class:`RunContext`, so the sequential engine,
the threaded epoch step and a forked per-rank worker all execute
events identically.

Layering (see docs/ARCHITECTURE.md):

* **kernel** (this module) — pop the next raw ``(time, priority, seq,
  handler, event)`` entry through the queue's ``pop_entry`` accessor,
  advance ``now``, dispatch bare or through the compiled observability
  slot.
* **SyncStrategy** (:mod:`repro.core.sync`) — decides *how far* each
  rank may run (epoch windows, lookahead, cross-rank exchange).
* **ExecutionBackend** (:mod:`repro.core.backends`) — decides *where*
  each rank's kernel loop executes (inline or a forked process).

Checkpoint contract (:mod:`repro.ckpt`): snapshots are only taken
*between* kernel invocations — at conservative-sync epoch boundaries
for parallel runs, between ``max_time``-bounded segments for
sequential ones — never from inside a loop body.  Two loop-level facts
make restored runs bit-identical: (1) the dispatch mode (bare vs
instrumented) is recomputed at every entry from ``sim._instr``, so a
restore never has to persist it — re-attaching the same observers
before resuming reproduces it; (2) the total event
order is ``(time, priority, seq)`` and the queue's ``seq`` counter is
part of the snapshot, so records pushed after a restore tie-break
exactly as they would have in the uninterrupted run.
"""

from __future__ import annotations

import time as _wall_time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

from . import units
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .simulation import RunResult, Simulation


@dataclass
class RunContext:
    """Everything one kernel-loop invocation needs, in one place.

    Threads run identity (seed, queue kind, rank), limits, the exit
    protocol and the post-run statistics harvest uniformly through the
    sequential engine, the per-rank epoch step and the process-backend
    workers, so none of them grow private variations of the loop.
    """

    #: base seed of the owning simulation (component streams key off it)
    seed: int = 1
    #: pending-event-set implementation name ("heap" / "binned")
    queue_kind: str = "heap"
    rank: int = 0
    num_ranks: int = 1
    #: inclusive simulated-time limit in ps (events *at* the limit run)
    limit: Optional[SimTime] = None
    max_events: Optional[int] = None
    #: disable the primary-component exit protocol (drain mode)
    ignore_exit: bool = False
    #: call ``sim.finish()`` when the loop ends on a terminal reason
    finalize: bool = True
    #: optional stats harvest hook, called with the simulation after a
    #: finalized run — the process backend ships its result across the
    #: rank boundary, the sequential engine ignores it.
    harvest: Optional[Callable[["Simulation"], Any]] = None

    @classmethod
    def for_sim(cls, sim: "Simulation", *,
                max_time: Optional[Union[str, int]] = None,
                max_events: Optional[int] = None,
                ignore_exit: bool = False,
                finalize: bool = True,
                harvest: Optional[Callable[["Simulation"], Any]] = None,
                ) -> "RunContext":
        """Build the context for a run of ``sim``, parsing ``max_time``."""
        limit = (units.parse_time(max_time, default_unit="ps")
                 if max_time is not None else None)
        return cls(seed=sim.seed, queue_kind=sim.queue_kind, rank=sim.rank,
                   num_ranks=sim.num_ranks, limit=limit,
                   max_events=max_events, ignore_exit=ignore_exit,
                   finalize=finalize, harvest=harvest)


def kernel_run(sim: "Simulation", ctx: RunContext) -> "RunResult":
    """Run ``sim``'s queue to exhaustion, exit, or a context limit.

    This is the full-service loop behind :meth:`Simulation.run`; the
    stop reason is one of ``exhausted``, ``exit``, ``max_time``,
    ``max_events`` or ``stopped``.

    The dispatch mode is precomputed at entry (hot-path contract): with
    no observers installed the loop runs *bare* — hoisted queue
    bindings, each raw entry unpacked into locals, no per-event
    attribute probing.  Observers attached mid-run from inside a
    handler therefore take effect at the next ``run()``/``run_step()``
    call in bare mode; removing the last observer mid-run is honoured
    immediately (the instrumented loop re-probes and falls through to
    the bare loop).  The instrumented loop hands the entry tuple to the
    compiled ``sim._instr`` closure; entries are immutable, so
    observers may keep what they are given (docs/PERFORMANCE.md).

    Causal tracing (:mod:`repro.obs.causal`) rides the same switch: an
    attached tracer forces ``sim._instr`` non-None, and the compiled
    ``_instr`` closure notes each entry and arms/clears the tracer's
    cause cell around dispatch.  The bare loop is never touched —
    ``--trace-causal`` off means zero added cost here.
    """
    from .simulation import RunResult, SimulationError

    if sim._running:
        raise SimulationError("run() re-entered")
    if not sim._setup_done:
        sim.setup()
    limit = ctx.limit
    sim._running = True
    sim._stop_requested = False
    reason = None
    start_wall = _wall_time.perf_counter()
    start_events = sim._events_executed
    # Hoisted loop state: queue methods, limits, and the precomputed
    # dispatch conditions (exit protocol on/off, events budget).
    queue = sim._queue
    peek = queue.peek_time
    pop_entry = queue.pop_entry
    check_exit = not ctx.ignore_exit and bool(sim._primary_components)
    # Records budget (max_events counts popped records, as before);
    # float("inf") turns "no budget" into a single cheap comparison.
    budget = ctx.max_events if ctx.max_events is not None else float("inf")
    records = 0
    # Live-plane boundary marks (repro.obs.live): per-invocation, never
    # per-event, so bare-mode dispatch cost is unchanged.
    live = sim._live_publisher
    if live is not None:
        live.on_kernel_enter()
    try:
        while reason is None:
            if sim._instr is not None:
                # ---------------- instrumented loop -----------------
                # Per-event _instr probe (observers may detach mid-run),
                # records counted on sim directly.
                while True:
                    instr = sim._instr
                    if instr is None:
                        break  # last observer detached: go bare
                    next_time = peek()
                    if next_time is None:
                        reason = "exhausted"
                        break
                    if limit is not None and next_time > limit:
                        reason = "max_time"
                        sim.now = limit
                        break
                    entry = pop_entry()
                    sim.now = next_time
                    sim.last_event_time = next_time
                    # Counted before dispatch so heartbeat/telemetry
                    # callbacks observe the event that triggered them.
                    sim._events_executed += 1
                    records += 1
                    instr(entry)
                    if sim._stop_requested:
                        reason = "stopped"
                        break
                    if check_exit and sim._primaries_pending == 0:
                        reason = "exit"
                        break
                    if records >= budget:
                        reason = "max_events"
                        break
            elif limit is None:
                # ---------------- bare loop, no time limit ----------
                executed = 0
                try:
                    while True:
                        try:
                            now, _prio, _seq, handler, event = pop_entry()
                        except IndexError:
                            reason = "exhausted"
                            break
                        sim.now = now
                        sim.last_event_time = now
                        executed += 1
                        if handler is not None:
                            handler(event)
                        if sim._stop_requested:
                            reason = "stopped"
                            break
                        if check_exit and sim._primaries_pending == 0:
                            reason = "exit"
                            break
                        if executed + records >= budget:
                            reason = "max_events"
                            break
                finally:
                    records += executed
                    sim._events_executed += executed
            else:
                # ---------------- bare loop, time limit -------------
                executed = 0
                try:
                    while True:
                        next_time = peek()
                        if next_time is None:
                            reason = "exhausted"
                            break
                        if next_time > limit:
                            reason = "max_time"
                            sim.now = limit
                            break
                        _t, _prio, _seq, handler, event = pop_entry()
                        sim.now = next_time
                        sim.last_event_time = next_time
                        executed += 1
                        if handler is not None:
                            handler(event)
                        if sim._stop_requested:
                            reason = "stopped"
                            break
                        if check_exit and sim._primaries_pending == 0:
                            reason = "exit"
                            break
                        if executed + records >= budget:
                            reason = "max_events"
                            break
                finally:
                    records += executed
                    sim._events_executed += executed
    finally:
        sim._running = False
        if live is not None:
            live.on_kernel_exit()
    wall = _wall_time.perf_counter() - start_wall
    if ctx.finalize and reason in ("exhausted", "exit", "stopped", "max_time"):
        sim.finish()
        if ctx.harvest is not None:
            ctx.harvest(sim)
    return RunResult(
        reason=reason,
        end_time=sim.now,
        events_executed=sim._events_executed - start_events,
        wall_seconds=wall,
    )


def kernel_step(sim: "Simulation", until: SimTime) -> int:
    """Execute all events with ``time <= until`` (one epoch window).

    The epoch-window variant of the kernel loop behind
    :meth:`Simulation.run_step` and every execution backend's per-rank
    step.  Does not honour max_time or the exit protocol — the sync
    strategy coordinates those globally.  Returns the number of events
    executed; afterwards ``sim.now == max(until, last event time)``.
    """
    queue = sim._queue
    peek = queue.peek_time
    pop_entry = queue.pop_entry
    start_executed = sim._events_executed
    live = sim._live_publisher
    if live is not None:
        live.on_kernel_enter()
    if sim._instr is not None:
        # Instrumented window: per-event probe (observers may detach
        # mid-window).
        while True:
            next_time = peek()
            if next_time is None or next_time > until:
                break
            entry = pop_entry()
            sim.now = next_time
            sim.last_event_time = next_time
            sim._events_executed += 1
            instr = sim._instr
            if instr is not None:
                instr(entry)
            else:
                handler = entry[3]
                if handler is not None:
                    handler(entry[4])
    else:
        # Bare window: hoisted bindings, raw entries unpacked.
        count = 0
        try:
            while True:
                next_time = peek()
                if next_time is None or next_time > until:
                    break
                _t, _prio, _seq, handler, event = pop_entry()
                sim.now = next_time
                sim.last_event_time = next_time
                count += 1
                if handler is not None:
                    handler(event)
        finally:
            sim._events_executed += count
    if sim.now < until:
        sim.now = until
    if live is not None:
        # No finally: if a handler raised, the rank dies RUNNING and the
        # watchdog's publish-age signal picks it up.
        live.on_kernel_exit()
    return sim._events_executed - start_executed


def harvest_stats(sim: "Simulation") -> Dict[str, Dict[str, Any]]:
    """Per-component statistic objects, keyed ``component -> stat name``.

    The uniform stats-harvest shape carried by :class:`RunContext` and
    shipped across the rank boundary by the process backend (statistic
    collectors are plain slotted objects, so they pickle cleanly).
    """
    return {name: dict(comp.stats.all())
            for name, comp in sim._components.items()}


def harvest_engine_stats(sim: "Simulation") -> Dict[str, Any]:
    """Engine-level statistics (``sync.*``, ``obs.*``) in harvest shape.

    The engine-stats companion to :func:`harvest_stats`: a flat
    ``name -> Statistic`` dict of ``sim.engine_stats``.  The process
    backend ships this across the rank boundary so worker-registered
    collectors (e.g. the rank-local telemetry counters) survive the
    worker's death; parent-side the adoption is *additive only* — names
    the parent already tracks (the ``sync.*`` metrics it maintains
    itself) are never overwritten by the worker's stale copies.
    """
    return dict(sim.engine_stats.all())
