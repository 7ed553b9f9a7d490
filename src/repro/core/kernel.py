"""Layer 1: the kernel event loop.

Every execution path in the engine — ``Simulation.run`` for sequential
runs (with or without ``max_time``), ``Simulation.run_step`` for a
conservative-sync epoch window, and through it every execution
backend's per-rank step (:mod:`repro.core.backends`) — drives the
*same* two loop bodies in :func:`dispatch`: one bare, one instrumented.
The loops are policy-free: the time limit, the event budget and which
stop conditions apply are arguments, so the sequential engine, the
epoch step and a forked per-rank worker all execute events identically.

Layering (see docs/ARCHITECTURE.md):

* **kernel** (this module) — pop the next raw ``(time, priority, seq,
  handler, event)`` entry through the queue's ``pop_entry`` accessor,
  advance ``now``, dispatch bare or through the compiled observability
  slot.
* **ConservativeSync** (:mod:`repro.core.sync`) — decides *how far* each
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
exactly as they would have in the uninterrupted run.  The one entry a
loop pops past its limit goes back unchanged (same tuple, same seq), so
segment boundaries leave the pop order untouched.
"""

from __future__ import annotations

import time as _wall_time
from typing import TYPE_CHECKING, Optional, Union

from . import units
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .simulation import RunResult, Simulation

#: "No limit" for a time limit or an event budget: above every SimTime
#: and count a run can reach, and an int, so the per-event tests stay
#: int comparisons.
NO_LIMIT = 1 << 64


def kernel_run(sim: "Simulation", *,
               max_time: Optional[Union[str, int]] = None,
               max_events: Optional[int] = None,
               ignore_exit: bool = False,
               finalize: bool = True) -> "RunResult":
    """Run ``sim``'s queue to exhaustion, exit, or a limit.

    This is the full-service entry behind :meth:`Simulation.run`:
    ``max_time`` is inclusive (events *at* the limit run, then ``now``
    parks at it), ``max_events`` counts popped entries, ``ignore_exit``
    disables the primary-component exit protocol, and ``finalize``
    calls ``sim.finish()`` unless the event budget stopped the run.
    The stop reason is one of ``exhausted``, ``exit``, ``max_time``,
    ``max_events`` or ``stopped``; ``exit`` before any event when no
    primary is pending once setup has run (an engine that exited).
    """
    from .simulation import RunResult, SimulationError

    if sim._running:
        raise SimulationError("run() re-entered")
    if not sim._setup_done:
        sim.setup()
    limit = (units.parse_time(max_time, default_unit="ps")
             if max_time is not None else NO_LIMIT)
    budget = max_events if max_events is not None else NO_LIMIT
    check_exit = not ignore_exit and bool(sim._primary_components)
    sim._running = True
    sim._stop_requested = False
    start_wall = _wall_time.perf_counter()
    start_events = sim._events_executed
    # Live-plane boundary marks (repro.obs.live): per-invocation, never
    # per-event, so bare-mode dispatch cost is unchanged.
    live = sim._live_publisher
    if live is not None:
        live.on_kernel_enter()
    try:
        reason = ("exit" if check_exit and sim._primaries_pending == 0
                  else dispatch(sim, limit, budget, True, check_exit))
    finally:
        sim._running = False
        if live is not None:
            live.on_kernel_exit()
    wall = _wall_time.perf_counter() - start_wall
    if finalize and reason != "max_events":
        sim.finish()
    return RunResult(
        reason=reason,
        end_time=sim.now,
        events_executed=sim._events_executed - start_events,
        wall_seconds=wall,
    )


def dispatch(sim: "Simulation", limit: SimTime, budget: int,
             check_stop: bool, check_exit: bool) -> str:
    """Execute ``sim``'s entries up to ``limit`` (inclusive).

    Returns why it stopped: ``exhausted`` (queue empty), ``max_time``
    (the next entry is past ``limit``; it goes back unchanged and
    ``now`` parks at ``limit``), ``max_events`` (``budget`` entries
    popped), ``stopped`` (:meth:`Simulation.end_simulation`, honoured
    only with ``check_stop``) or ``exit`` (no primary component pending,
    only with ``check_exit``).  Pass :data:`NO_LIMIT` for no limit or
    no budget.

    The dispatch mode is chosen at entry (hot-path contract): with no
    observers installed the loop runs *bare* — hoisted queue bindings,
    each raw entry unpacked into locals, no per-event attribute probing
    and no Python-level call but the handler's.  The limit test follows
    the pop, so "no limit" is one int comparison.  Observers attached
    mid-run from inside a handler therefore take effect at the next
    ``run()``/``run_step()`` call in bare mode; removing the last
    observer mid-run is honoured immediately (the instrumented loop
    re-probes and falls through to the bare loop).  The instrumented
    loop hands the entry tuple to the compiled ``sim._instr`` closure;
    entries are immutable, so observers may keep what they are given
    (docs/PERFORMANCE.md).

    Causal tracing (:mod:`repro.obs.causal`) rides the same switch: an
    attached tracer forces ``sim._instr`` non-None, and the compiled
    ``_instr`` closure notes each entry and arms/clears the tracer's
    cause cell around dispatch.  The bare loop is never touched —
    ``--trace-causal`` off means zero added cost here.
    """
    queue = sim._queue
    pop_entry = queue.pop_entry
    unpop = queue.unpop
    reason = None
    popped = 0
    while reason is None:
        if sim._instr is not None:
            # ---------------- instrumented loop -----------------
            # Per-event _instr probe (observers may detach mid-run),
            # events counted on sim before dispatch so heartbeat and
            # telemetry callbacks observe the event that triggered them.
            while True:
                instr = sim._instr
                if instr is None:
                    break  # last observer detached: go bare
                try:
                    entry = pop_entry()
                except IndexError:
                    reason = "exhausted"
                    break
                now = entry[0]
                if now > limit:
                    unpop(entry)
                    sim.now = limit
                    reason = "max_time"
                    break
                sim.now = now
                sim.last_event_time = now
                sim._events_executed += 1
                popped += 1
                instr(entry)
                if sim._stop_requested and check_stop:
                    reason = "stopped"
                    break
                if check_exit and sim._primaries_pending == 0:
                    reason = "exit"
                    break
                if popped >= budget:
                    reason = "max_events"
                    break
        else:
            # ---------------- bare loop -------------------------
            executed = 0
            remaining = budget - popped
            try:
                while True:
                    try:
                        entry = pop_entry()
                    except IndexError:
                        reason = "exhausted"
                        break
                    now, _prio, _seq, handler, event = entry
                    if now > limit:
                        unpop(entry)
                        sim.now = limit
                        reason = "max_time"
                        break
                    sim.now = now
                    sim.last_event_time = now
                    executed += 1
                    if handler is not None:
                        handler(event)
                    if sim._stop_requested and check_stop:
                        reason = "stopped"
                        break
                    if check_exit and sim._primaries_pending == 0:
                        reason = "exit"
                        break
                    if executed >= remaining:
                        reason = "max_events"
                        break
            finally:
                popped += executed
                sim._events_executed += executed
    return reason
