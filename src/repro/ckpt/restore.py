"""Restoring snapshots: exact resume, re-partitioned resume, replay.

Two restore modes, chosen from the snapshot's layout versus the target:

**Exact** — the target has the same rank layout as the capture (always
true for sequential snapshots restored sequentially; for parallel
snapshots, when the rank count matches — the component→rank assignment
recorded in the manifest is re-pinned, so even a different partition
strategy rebuilds the captured layout).  Queue records, sequence
counters, clock/arbiter chains and RNG streams are adopted verbatim and
the resumed run is **bit-identical** to the uninterrupted one: same
``(time, priority, seq)`` event order, same statistics.  The execution
*backend* is free — a snapshot taken under ``processes`` restores under
``serial`` and vice versa, because rank state is backend-independent by
construction.

**Re-partition** — the rank count changed (including parallel → 1).
Component state, statistics, pending events and cross-rank sends are
re-homed onto the new layout; clock tick chains are re-armed rather
than restored (their queue records are partition-local), and each new
rank's queue is rebuilt by a deterministic merge sort.  The resumed run
is *stats-equivalent* (models see the same events at the same times)
but not bit-identical — sequence numbers and engine counters restart.

Also here: :func:`checkpointed_run`, the sequential engine's segmented
run loop behind ``Simulation.run(checkpoint_every=...)``, and
:func:`replay`, the restore-and-trace debugging helper.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core import units
from ..core.clock import _ArbiterTickEvent, _ClockTickEvent
from ..core.component import Component
from ..core.event import CallbackEvent
from ..core.kernel import kernel_run
from ..core.link import Port
from ..core.parallel import ParallelSimulation
from ..core.simulation import RunResult, Simulation, SimulationError
from ..core.statistics import adopt_state
from .snapshot import load_manifest, read_shard, snapshot
from .state import (CheckpointError, is_dropped, load_refs, merge_id_sources,
                    recompute_exit_state, restore_sim_state)

_TICK_EVENTS = (_ClockTickEvent, _ArbiterTickEvent)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def restore(path: Union[str, Path], *,
            backend: Optional[str] = None,
            ranks: Optional[int] = None,
            verbose: bool = False,
            assignment: Optional[Dict[str, int]] = None,
            ) -> Union[Simulation, ParallelSimulation]:
    """Rebuild a runnable engine from a snapshot directory.

    Returns a :class:`Simulation` (``ranks=1`` and a sequential
    snapshot, or any snapshot re-partitioned down to one rank) or a
    :class:`ParallelSimulation` otherwise.  ``backend``/``ranks``
    default to the values recorded in the manifest; changing
    the backend keeps the resume bit-identical, changing the rank count
    switches to the stats-equivalent re-partition mode (see module
    docstring).  The result's ``checkpoint_lineage`` records where it
    came from and flows into run manifests (:mod:`repro.obs.manifest`).

    ``assignment`` — an explicit component→rank map (e.g. the output of
    ``python -m repro obs partition-advise``) — forces the re-partition
    path with every listed component pinned, even at the snapshot's own
    rank count: the feedback loop's "resume under the advised layout"
    step.  Unlisted components are placed by the partitioner.
    """
    root = Path(path)
    manifest = load_manifest(root)
    graph = _rebuild_graph(manifest)
    if assignment:
        bad = [n for n, r in assignment.items() if not isinstance(r, int) or r < 0]
        if bad:
            raise CheckpointError(
                f"assignment pins non-rank values for: {sorted(bad)[:5]}")
        target_ranks = ranks if ranks is not None else \
            max(max(assignment.values()) + 1, 1)
        if max(assignment.values(), default=0) >= target_ranks:
            raise CheckpointError(
                f"assignment pins rank "
                f"{max(assignment.values())} >= ranks {target_ranks}")
        return _restore_repartition(root, manifest, graph, target_ranks,
                                    backend=backend,
                                    verbose=verbose, assignment=assignment)
    target_ranks = ranks if ranks is not None else manifest["num_ranks"]
    if target_ranks < 1:
        raise CheckpointError(f"ranks must be >= 1, got {target_ranks}")
    if manifest["mode"] == "sequential" and target_ranks == 1:
        return _restore_sequential(root, manifest, graph, verbose=verbose)
    if manifest["mode"] == "parallel" and target_ranks == manifest["num_ranks"]:
        return _restore_parallel_exact(root, manifest, graph, backend=backend,
                                       verbose=verbose)
    return _restore_repartition(root, manifest, graph, target_ranks,
                                backend=backend, verbose=verbose)


def _rebuild_graph(manifest: Dict[str, Any]):
    """The original ConfigGraph, rebuilt and identity-checked."""
    from ..config.serialize import from_dict
    from ..obs.manifest import graph_hash

    graph = from_dict(manifest["graph"])
    rebuilt_hash = graph_hash(graph)
    if rebuilt_hash != manifest["graph_hash"]:
        raise CheckpointError(
            f"snapshot graph hash mismatch: manifest says "
            f"{manifest['graph_hash']}, rebuilt graph hashes to "
            f"{rebuilt_hash} — the snapshot was tampered with or written "
            f"by an incompatible config serializer"
        )
    return graph


def _shard_states(root: Path, manifest: Dict[str, Any]) -> List[Dict[str, Any]]:
    states = []
    for entry in manifest["shards"]:
        states.append(read_shard(root / entry["file"], expect=entry))
    return states


def _lineage(root: Path, manifest: Dict[str, Any], restored_ranks: int,
             mode: str) -> Dict[str, Any]:
    return {
        "snapshot": str(root),
        "schema": manifest["schema"],
        "graph_hash": manifest["graph_hash"],
        "sim_time_ps": manifest["sim_time_ps"],
        "snapshot_ranks": manifest["num_ranks"],
        "restored_ranks": restored_ranks,
        "mode": mode,
        "sequence": manifest.get("sequence"),
        "parent": manifest.get("lineage"),
    }


# ----------------------------------------------------------------------
# exact restores
# ----------------------------------------------------------------------

def _restore_sequential(root: Path, manifest: Dict[str, Any], graph, *,
                        verbose: bool) -> Simulation:
    from ..config.builder import build

    sim = build(graph, seed=manifest["seed"], verbose=verbose,
                clock_arbiter=manifest["clock_arbiter"])
    sim.setup()
    meta = restore_sim_state(sim, _shard_states(root, manifest)[0])
    merge_id_sources([meta])
    sim.checkpoint_lineage = _lineage(root, manifest, 1, "exact")
    return sim


def _restore_parallel_exact(root: Path, manifest: Dict[str, Any], graph, *,
                            backend: Optional[str],
                            verbose: bool) -> ParallelSimulation:
    from ..config.builder import build_parallel
    from ..config.serialize import from_dict

    # Re-pin every component to its captured rank so the rebuilt layout
    # matches the shards regardless of the partition strategy.
    pinned_dict = copy.deepcopy(manifest["graph"])
    assignment = manifest["assignment"]
    for comp in pinned_dict["components"]:
        comp["rank"] = assignment[comp["name"]]
    pinned = from_dict(pinned_dict)
    psim = build_parallel(
        pinned, manifest["num_ranks"],
        strategy=manifest["partition_strategy"] or "linear",
        seed=manifest["seed"],
        backend=backend or manifest["backend"] or "serial",
        verbose=verbose, clock_arbiter=manifest["clock_arbiter"])
    # Future snapshots of the restored engine must hash to the same
    # graph, so carry the *original* (unpinned) graph forward.
    psim.config_graph = graph
    psim.setup()
    # Setup-time cross-rank sends belong to the captured past: the
    # snapshot's pending set is the complete in-flight truth.
    for by_dest in psim._outboxes:
        for bucket in by_dest:
            bucket.clear()
    metas = []
    for rank, state in enumerate(_shard_states(root, manifest)):
        meta = restore_sim_state(psim._sims[rank], state)
        if meta["rank"] != rank:
            raise CheckpointError(
                f"shard {rank} carries state for rank {meta['rank']}")
        psim._send_seq[rank][0] = meta["send_seq"] or 0
        metas.append(meta)
    merge_id_sources(metas)
    pstate = read_shard(root / manifest["parallel_file"]["file"],
                        expect=manifest["parallel_file"])
    # Engine-stat authority split (processes backend): the shard's
    # engine stats are worker-side — obs.* live, sync.* stale — while
    # the parent's sync.* counters are the live authority.  Shards were
    # applied above; the parent copies override name by name here.
    for sim, remote_stats in zip(psim._sims, pstate["engine_stats"]):
        group = sim.engine_stats.all()
        for name, remote in remote_stats.items():
            local = group.get(name)
            if local is None:
                sim.engine_stats._register(name, remote)
            else:
                adopt_state(local, remote)
    psim.total_epochs = pstate["engine"]["total_epochs"]
    psim.total_remote_events = pstate["engine"]["total_remote_events"]
    _deliver_pending(psim._sims, load_refs(pstate["pending_blob"], psim._sims))
    psim.checkpoint_lineage = _lineage(root, manifest, psim.num_ranks, "exact")
    return psim


def _deliver_pending(sims: List[Simulation], pending: List[Tuple]) -> None:
    """Pre-deliver captured cross-rank sends into destination queues.

    At an epoch boundary the pending set is exactly what the next
    epoch's exchange would deliver, and that delivery is the *first*
    push into each destination queue of the resumed run.  Pushing here,
    per destination in the exchange sort order ``(time, priority,
    link_id, send_seq)``, therefore assigns the same sequence numbers
    the uninterrupted run would have — the resume stays bit-identical.
    """
    comps: Dict[str, Component] = {}
    for sim in sims:
        comps.update(sim._components)
    by_rank: Dict[int, List[Tuple]] = {}
    for (time, priority, link_id, comp_name, port_name, send_seq,
         event) in pending:
        comp = comps.get(comp_name)
        if comp is None:
            raise CheckpointError(
                f"pending cross-rank event targets unknown component "
                f"{comp_name!r}")
        port = comp.port(port_name)
        by_rank.setdefault(comp.sim.rank, []).append(
            (time, priority, link_id, send_seq, port, event))
    for rank in sorted(by_rank):
        entries = by_rank[rank]
        entries.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
        queue = entries[0][4].component.sim._queue
        for (time, priority, _link, _seq, port, event) in entries:
            queue.push(time, priority, port.deliver, event)


# ----------------------------------------------------------------------
# re-partitioned restore
# ----------------------------------------------------------------------

def _restore_repartition(root: Path, manifest: Dict[str, Any], graph,
                         target_ranks: int, *, backend: Optional[str],
                         verbose: bool,
                         assignment: Optional[Dict[str, int]] = None,
                         ) -> Union[Simulation, ParallelSimulation]:
    """Restore onto a different rank count (stats-equivalent mode).

    Rank-local identity — queue sequence numbers, clock tick chains,
    engine counters, cross-rank send sequences — does not survive, so
    it is rebuilt: tick chains are re-armed from restored clock state,
    each new rank's queue comes from a deterministic merge sort of the
    surviving records, and engine statistics restart from zero.  Model
    state, component statistics and every in-flight model event carry
    over, so the completed run's component statistics match.
    """
    from ..config.builder import build, build_parallel
    from ..config.serialize import from_dict

    stripped_dict = copy.deepcopy(manifest["graph"])
    known = {comp["name"] for comp in stripped_dict["components"]}
    if assignment:
        unknown = sorted(set(assignment) - known)
        if unknown:
            raise CheckpointError(
                f"assignment pins unknown component(s): {unknown[:5]}")
    for comp in stripped_dict["components"]:
        comp["rank"] = (assignment or {}).get(comp["name"])
    stripped = from_dict(stripped_dict)
    psim: Optional[ParallelSimulation] = None
    if target_ranks == 1:
        sim = build(stripped, seed=manifest["seed"],
                    verbose=verbose, clock_arbiter=manifest["clock_arbiter"])
        sims = [sim]
        sim.setup()
        container: Union[Simulation, ParallelSimulation] = sim
    else:
        psim = build_parallel(
            stripped, target_ranks,
            strategy=manifest["partition_strategy"] or "linear",
            seed=manifest["seed"],
            backend=backend or manifest["backend"] or "serial",
            verbose=verbose, clock_arbiter=manifest["clock_arbiter"])
        sims = psim._sims
        psim.setup()
        for by_dest in psim._outboxes:
            for bucket in by_dest:
                bucket.clear()
        container = psim
    container.config_graph = graph

    states = _shard_states(root, manifest)
    metas = [state["meta"] for state in states]
    global_now = max(meta["now"] for meta in metas)
    last_event = max(meta["last_event_time"] for meta in metas)

    comps: Dict[str, Component] = {}
    for sim in sims:
        comps.update(sim._components)

    # Surviving queue records, tagged for the deterministic merge:
    # (time, priority, phase, tiebreak1, tiebreak2, handler, event)
    # where phase 0 = shard-resident record (tiebreak = capture rank,
    # capture seq) and phase 1 = pending cross-rank send (tiebreak =
    # link id, send seq).  Tick-chain records are partition-local and
    # dropped — chains are re-armed from clock state below.
    merged: Dict[int, List[Tuple]] = {rank: [] for rank in range(len(sims))}
    clock_pool = _clock_pool(sims)
    for state in states:
        meta = state["meta"]
        linked = load_refs(state["linked"], sims)
        for comp_name, stats in meta["stats"].items():
            comp = comps.get(comp_name)
            if comp is None:
                raise CheckpointError(
                    f"snapshot carries component {comp_name!r} which the "
                    f"rebuilt simulation does not have")
            group = comp.stats.all()
            for stat_name, remote in stats.items():
                local = group.get(stat_name)
                if local is None:
                    comp.stats._register(stat_name, remote)
                else:
                    adopt_state(local, remote)
        for comp_name, comp_state in linked["components"].items():
            comps[comp_name].restore_state(comp_state)
        for cstate in meta["clocks"]:
            _take_clock(clock_pool, cstate).restore_state(cstate)
        for (time, priority, seq, handler, event) in linked["records"]:
            if isinstance(event, _TICK_EVENTS):
                continue
            if is_dropped(handler) or is_dropped(event):
                continue
            home = _home_sim(handler, event, sims)
            merged[home.rank].append(
                (time, priority, 0, meta["rank"], seq, handler, event))
    merge_id_sources(metas)
    # All shards applied — fire the lifecycle hook once per component,
    # in each rank's registration order (matching the exact path).
    for sim in sims:
        for comp in sim._components.values():
            comp.on_restore()

    if manifest.get("parallel_file"):
        pstate = read_shard(root / manifest["parallel_file"]["file"],
                            expect=manifest["parallel_file"])
        for (time, priority, link_id, comp_name, port_name, send_seq,
             event) in load_refs(pstate["pending_blob"], sims):
            comp = comps.get(comp_name)
            if comp is None:
                raise CheckpointError(
                    f"pending cross-rank event targets unknown component "
                    f"{comp_name!r}")
            port = comp.port(port_name)
            merged[comp.sim.rank].append(
                (time, priority, 1, link_id, send_seq, port.deliver, event))

    for sim in sims:
        entries = merged[sim.rank]
        entries.sort(key=lambda e: e[:5])
        records = [(t, p, i, handler, event)
                   for i, (t, p, _ph, _t1, _t2, handler, event)
                   in enumerate(entries)]
        sim._queue.restore_records(records, len(records))
        sim.now = global_now
        sim.last_event_time = last_event
        # Fresh rank identity: event counters and engine stats restart
        # (the resume is stats-equivalent on *component* statistics).
        sim._events_executed = 0
        for arbiter in sim._arbiters.values():
            arbiter._generation = 0
            arbiter._scheduled_time = None
            arbiter._dispatching = False
            arbiter._resched_hint = None
        for clock in sim._clocks:
            if not clock.active:
                continue
            if clock._next_tick <= global_now:
                raise CheckpointError(
                    f"clock {clock.name!r} is due at {clock._next_tick} "
                    f"<= snapshot time {global_now}; the snapshot was not "
                    f"taken at a quiescent boundary")
            if clock._arbiter is not None:
                clock._arbiter._ensure_scheduled(clock._next_tick)
            else:
                sim._push(clock._next_tick, clock.priority, clock._tick,
                          _ClockTickEvent(clock._generation))
        recompute_exit_state(sim)
        sim._stop_requested = False

    container.checkpoint_lineage = _lineage(root, manifest, target_ranks,
                                            "repartition")
    return container


def _clock_pool(sims: List[Simulation]) -> Dict[str, List]:
    """Rebuilt clocks grouped by name, in (rank, registration) order."""
    pool: Dict[str, List] = {}
    for sim in sims:
        for clock in sim._clocks:
            pool.setdefault(clock.name, []).append(clock)
    return pool


def _take_clock(pool: Dict[str, List], cstate: Dict[str, Any]):
    """Consume the next rebuilt clock matching a captured clock state."""
    bucket = pool.get(cstate["name"])
    if not bucket:
        raise CheckpointError(
            f"snapshot captured clock {cstate['name']!r} which the rebuilt "
            f"simulation did not register (or registered fewer of)")
    return bucket.pop(0)


def _home_sim(handler: Any, event: Any, sims: List[Simulation]) -> Simulation:
    """Which rebuilt rank a surviving queue record belongs to."""
    owner = getattr(handler, "__self__", None)
    if owner is None and isinstance(event, CallbackEvent):
        owner = getattr(event.callback, "__self__", None)
    if owner is not None:
        if isinstance(owner, Port):
            return owner.component.sim
        sim = getattr(owner, "sim", None)
        if isinstance(sim, Simulation):
            return sim
    return sims[0]


# ----------------------------------------------------------------------
# segmented sequential run (Simulation.run(checkpoint_every=...))
# ----------------------------------------------------------------------

def checkpointed_run(sim: Simulation,
                     checkpoint_every: Union[str, int],
                     checkpoint_dir: Optional[str], *,
                     max_time: Optional[Union[str, int]] = None,
                     max_events: Optional[int] = None,
                     finalize: bool = True,
                     ignore_exit: bool = False) -> RunResult:
    """Run ``sim`` writing a snapshot at every simulated-time interval.

    Segments the run into ``max_time``-bounded kernel invocations at
    the interval marks and snapshots between them — the sequential
    engine's quiescent points.  The segmentation is invisible to the
    models: ``max_time`` is inclusive and the kernel parks ``now`` at
    the mark, so the executed event sequence (and every ``(time,
    priority, seq)`` trace) is identical to a single unsegmented run.
    """
    if checkpoint_dir is None:
        raise SimulationError("checkpoint_every requires checkpoint_dir")
    interval = units.parse_time(checkpoint_every, default_unit="ps")
    if interval <= 0:
        raise SimulationError("checkpoint_every must be positive")
    limit = (units.parse_time(max_time, default_unit="ps")
             if max_time is not None else None)
    if not sim._setup_done:
        sim.setup()
    # First mark strictly after the current high-water mark, so a
    # restored run doesn't immediately re-snapshot its own origin.
    next_mark = (sim.now // interval + 1) * interval
    seq = len(sim.checkpoints_written)
    remaining = max_events
    total_events = 0
    total_wall = 0.0
    while True:
        stop_at_mark = limit is None or next_mark < limit
        target = next_mark if stop_at_mark else limit
        result = kernel_run(sim, max_time=target, max_events=remaining,
                            ignore_exit=ignore_exit, finalize=False)
        total_events += result.events_executed
        total_wall += result.wall_seconds
        if remaining is not None:
            remaining -= result.events_executed
        if result.reason == "max_time" and stop_at_mark:
            path = snapshot(sim, f"{checkpoint_dir}/ckpt-{seq:04d}")
            sim.checkpoints_written.append(str(path))
            seq += 1
            next_mark += interval
            continue
        reason = result.reason
        break
    if finalize and reason in ("exhausted", "exit", "stopped", "max_time"):
        sim.finish()
    return RunResult(reason=reason, end_time=sim.now,
                     events_executed=total_events, wall_seconds=total_wall)


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------

def _describe_handler(handler: Any) -> str:
    owner = getattr(handler, "__self__", None)
    name = getattr(handler, "__name__", None) or type(handler).__name__
    if owner is not None:
        owner_name = getattr(owner, "name", None)
        if isinstance(owner, Port):
            owner_name = owner.full_name()
        if owner_name:
            return f"{owner_name}.{name}"
        return f"{type(owner).__name__}.{name}"
    return name


def replay(path: Union[str, Path], *,
           max_time: Optional[Union[str, int]] = None,
           max_events: Optional[int] = None,
           observer: Optional[Callable] = None,
           ) -> Tuple[Simulation, RunResult, List[Tuple]]:
    """Restore a snapshot and re-run it with per-event tracing.

    The debugging workflow for "it crashed at t=X": restore the last
    snapshot before X and replay toward it, collecting every dispatched
    event as ``(time_ps, handler_label, event_type)``.  Parallel
    snapshots are re-partitioned onto one rank so the trace is a single
    deterministic stream.  ``observer(time, handler, event)`` is called
    per event when given, in addition to the collected trace.  Returns
    ``(sim, result, trace)``.
    """
    root = Path(path)
    manifest = load_manifest(root)
    graph = _rebuild_graph(manifest)
    if manifest["mode"] == "sequential":
        sim = _restore_sequential(root, manifest, graph, verbose=False)
    else:
        target = _restore_repartition(root, manifest, graph, 1,
                                      backend=None, verbose=False)
        assert isinstance(target, Simulation)
        sim = target
    trace: List[Tuple] = []

    def _collect(time, handler, event) -> None:
        trace.append((time, _describe_handler(handler), type(event).__name__))
        if observer is not None:
            observer(time, handler, event)

    sim.set_trace(_collect)
    try:
        result = sim.run(max_time=max_time, max_events=max_events)
    finally:
        sim.set_trace(None)
    return sim, result, trace
