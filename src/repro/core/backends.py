"""Layer 3: execution backends — where each rank's kernel loop runs.

An :class:`ExecutionBackend` executes one conservative-sync epoch on
every rank of a :class:`~repro.core.parallel.ParallelSimulation` and
reports a :class:`RankStep` per rank.  Two substrates are provided:

* :class:`SerialBackend`    — ranks step one after another in the
  calling thread.  Zero concurrency, 100% determinism; the reference
  backend used by the equivalence tests.
* :class:`ProcessesBackend` — true multi-process PDES: rank 0 runs in
  the calling process and ranks 1..N-1 in one forked worker each, so
  N ranks are N processes.  Workers exchange epoch frames
  (:func:`encode_step`) with the parent over shared-memory rings
  (:mod:`repro.core.shm`); pipes carry only control commands.  This is
  the backend that leaves the GIL.  Requirements and caveats:

  - the ``fork`` start method (Linux/macOS); workers inherit the fully
    wired per-rank simulations, so nothing but events and statistics
    ever crosses the process boundary;
  - events sent over cross-rank links must be picklable (slotted
    payload-only events are; events carrying live object references
    are not, and raise a descriptive error);
  - every rank, rank 0 included, runs through one :class:`RankRunner`:
    per-event observers (trace/span/heartbeat) are detached for the
    run, and observability comes from the rank-local plan
    (``psim.rank_plan``, duck-typed — see :mod:`repro.obs.rank_stream`)
    whose lightweight recorder writes per-rank JSONL shards or ships
    bounded record batches back inside the step frames; profiler
    buckets plus rank counters harvest back at ``finalize()``.
    Observers no plan entry covers raise a one-time
    :class:`RankObservabilityWarning` instead of being silently
    dropped.  Parent-side epoch observers — telemetry, progress,
    Chrome trace epoch lanes — keep working regardless;
  - parent-side component *objects* of worker ranks are not
    synchronized back, but their registered statistics are (adopted in
    ``finalize()``), so ``stat_values()`` equivalence holds across all
    backends.

The same substrate names power :class:`JobPool`, the coarse-grained
variant used by :func:`repro.dse.sweep` to evaluate independent design
points in parallel.
"""

from __future__ import annotations

import os
import pickle
import struct
import time as _wall_time
import warnings
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from .event import decode_entries, encode_entries
from .kernel import harvest_engine_stats, harvest_stats
from .shm import ShmExchange
from .simulation import SimulationError
from .statistics import adopt_state
from .sync import OutboxEntry
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .parallel import ParallelSimulation
    from .simulation import Simulation


class RankObservabilityWarning(UserWarning):
    """A per-event observer was detached for a processes-backend run.

    Raised (once per unique observer set) by :class:`ProcessesBackend`
    when a rank simulation carries trace/span/heartbeat observers that
    no rank-local plan covers: their sinks live in the parent process,
    so inside a forked worker they would silently record into memory
    that dies with the worker, and rank 0 — though it runs in the
    parent — is detached the same way so every rank is observed alike.
    Attach through ``repro.obs`` (profiler,
    telemetry with a metrics path) to get rank-local re-attachment, and
    use ``python -m repro obs merge`` on the per-rank shards for the
    merged post-hoc view.
    """


def _describe_observer(fn: Any) -> str:
    """Human-readable identity of an observer callback for warnings."""
    qual = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{getattr(fn, '__name__', qual)}"
    return qual or repr(fn)


@dataclass
class RankStep:
    """What one rank reports after executing one epoch window."""

    wall_seconds: float
    events: int
    #: cross-rank sends made during this window (undelivered), batched
    #: per destination rank: ``outbox[dest_rank] -> [OutboxEntry, ...]``.
    #: Empty list when the rank sent nothing this window.
    outbox: List[List[OutboxEntry]]
    #: earliest event still queued on this rank, or None when drained
    next_time: Optional[SimTime]
    #: primary components on this rank still holding the run open
    primaries_pending: int
    last_event_time: SimTime
    now: SimTime
    #: bounded batch of rank-local telemetry records riding the step
    #: frame (processes backend, shard-less mode); drained by the
    #: parent before the step reaches the sync strategy.
    obs_records: Optional[List[Dict[str, Any]]] = None


# ----------------------------------------------------------------------
# epoch frames — what the processes backend moves through the rings
# ----------------------------------------------------------------------

_U32 = struct.Struct("<I")
#: delivery-frame header: the inclusive end of the window to execute
_EPOCH_END = struct.Struct("<q")
#: step-frame header: wall_s, events, next_time (-1 = drained),
#: primaries_pending, last_event_time, now, has_obs
_STEP_META = struct.Struct("<dqqqqqB")


def encode_deliveries(epoch_end: SimTime,
                      entries: List[OutboxEntry]) -> bytes:
    """Parent -> worker frame: the window end plus this epoch's
    exchanged entries for the rank."""
    return _EPOCH_END.pack(epoch_end) + encode_entries(entries)


def decode_deliveries(frame: bytes) -> Tuple[SimTime, List[OutboxEntry]]:
    (epoch_end,) = _EPOCH_END.unpack_from(frame)
    entries, _ = decode_entries(frame, _EPOCH_END.size)
    return epoch_end, entries


def encode_step(result: RankStep) -> bytes:
    """Worker -> parent frame: struct-packed step metadata, the outbox
    as one entry batch (flattened across destinations — entries carry
    their dest rank), and an optional pickled batch of rank-local
    telemetry records."""
    flat = [entry for bucket in result.outbox for entry in bucket]
    next_time = -1 if result.next_time is None else result.next_time
    has_obs = bool(result.obs_records)
    frame = _STEP_META.pack(result.wall_seconds, result.events, next_time,
                            result.primaries_pending, result.last_event_time,
                            result.now, has_obs) + encode_entries(flat)
    if has_obs:
        obs_blob = pickle.dumps(result.obs_records, pickle.HIGHEST_PROTOCOL)
        frame += _U32.pack(len(obs_blob)) + obs_blob
    return frame


def decode_step(frame: bytes, num_ranks: int) -> RankStep:
    """Inverse of :func:`encode_step`; rebuilds the per-destination
    outbox buckets (entry order within each destination is preserved —
    the flatten walked destinations in order)."""
    (wall, events, next_time, primaries, last_event, now,
     has_obs) = _STEP_META.unpack_from(frame)
    entries, offset = decode_entries(frame, _STEP_META.size)
    outbox: List[List[OutboxEntry]] = []
    if entries:
        outbox = [[] for _ in range(num_ranks)]
        for entry in entries:
            outbox[entry[3]].append(entry)
    obs_records = None
    if has_obs:
        (obs_len,) = _U32.unpack_from(frame, offset)
        offset += 4
        obs_records = pickle.loads(frame[offset:offset + obs_len])
    return RankStep(wall_seconds=wall, events=events, outbox=outbox,
                    next_time=None if next_time < 0 else next_time,
                    primaries_pending=primaries, last_event_time=last_event,
                    now=now, obs_records=obs_records)


def outbox_count(outbox: List[List[OutboxEntry]]) -> int:
    """Total entries across a per-destination outbox (0 for empty)."""
    if not outbox:
        return 0
    return sum(len(bucket) for bucket in outbox)


def drain_outbox(psim: "ParallelSimulation", rank: int) -> List[List[OutboxEntry]]:
    """Snapshot-and-clear ``rank``'s per-destination outbox.

    Returns the per-destination nested lists when anything was sent this
    window, or ``[]`` (falsy) when the rank was silent.  Buckets are
    cleared in place — the sender closures hold references to them.
    """
    by_dest = psim._outboxes[rank]
    if not any(by_dest):
        return []
    drained = [list(bucket) for bucket in by_dest]
    for bucket in by_dest:
        bucket.clear()
    return drained


def deliver_cross_rank(psim: "ParallelSimulation", rank: int,
                       entries: Sequence[OutboxEntry]) -> None:
    """Push exchanged entries into ``rank``'s queue, in the given order.

    Entries arrive pre-sorted on the global deterministic key (see
    :meth:`~repro.core.sync.ConservativeSync.exchange`); the local queue
    assigns fresh sequence numbers in that order, which keeps
    tie-breaking backend independent.  Destination ports are resolved
    from the link id, so this works identically in-process and inside a
    forked worker (which inherited the same cross-link table).
    """
    sim = psim._sims[rank]
    queue = sim._queue
    cross = psim._cross_links
    causal = sim._causal
    if causal is None:
        for when, priority, link_id, dest_rank, _seq, event in entries:
            link = cross[link_id]
            port = link.port_b if dest_rank == link.rank_b else link.port_a
            queue.push(when, priority, port.deliver, event)
        return
    # Causal tracing (repro.obs.causal): record each arrival's local
    # node id against its (link, send_seq) identity so the analyzer can
    # stitch the cross-rank edge back to the sender's cause node.
    for when, priority, link_id, dest_rank, send_seq, event in entries:
        link = cross[link_id]
        port = link.port_b if dest_rank == link.rank_b else link.port_a
        seq = queue.push(when, priority, port.deliver, event)
        causal.on_cross_recv(seq, link_id, send_seq, when, priority)


def _write_rank_shard(psim: "ParallelSimulation", rank: int,
                      shard_path: str) -> Dict[str, Any]:
    """Capture ``rank``'s live engine state into a checkpoint shard —
    called in whichever process owns the live rank."""
    from ..ckpt.state import capture_sim_state
    from ..ckpt.snapshot import write_shard

    state = capture_sim_state(psim._sims[rank],
                              send_seq=psim._send_seq[rank][0])
    meta = write_shard(shard_path, state)
    meta["now"] = state["meta"]["now"]
    return meta


def _timed_step(sim: "Simulation", epoch_end: SimTime) -> RankStep:
    """Run one rank's kernel window and package the result.

    Wall time is measured inside the worker so concurrent backends see
    true per-rank durations; the outbox is drained by the caller (it
    lives on the ParallelSimulation, per source rank).
    """
    perf = _wall_time.perf_counter
    t0 = perf()
    events = sim.run_step(epoch_end)
    wall = perf() - t0
    return RankStep(wall_seconds=wall, events=events, outbox=[],
                    next_time=sim.next_event_time(),
                    primaries_pending=sim.primaries_pending,
                    last_event_time=sim.last_event_time, now=sim.now)


class ExecutionBackend:
    """Interface: execute epoch windows for every rank of a parallel run."""

    name = "base"

    #: bytes moved by the most recent :meth:`step`'s exchange (epoch
    #: frames, both directions); 0 for in-process backends, surfaced per
    #: epoch through :class:`~repro.core.parallel.EpochInfo`.
    last_exchange_bytes: int = 0

    def __init__(self, psim: "ParallelSimulation"):
        self.psim = psim

    def start(self) -> None:
        """Acquire execution resources (pools, workers).  Idempotent."""

    def initial_next_times(self) -> List[Optional[SimTime]]:
        """Per-rank earliest queued event before the first epoch."""
        return [sim.next_event_time() for sim in self.psim._sims]

    def step(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        """Deliver this epoch's exchanged events, run every rank through
        ``epoch_end`` (inclusive), and report per-rank results."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Synchronize any out-of-process rank state back to the parent.

        Called once after a run's epoch loop completes normally; a
        no-op for in-process backends."""

    def snapshot_rank(self, rank: int, shard_path: str) -> Dict[str, Any]:
        """Write ``rank``'s engine state as a checkpoint shard file.

        Called by :func:`repro.ckpt.snapshot_parallel` at an epoch
        boundary (outboxes drained into the sync strategy, no rank
        mid-window), which is the only point where per-rank state is
        globally consistent.  The state must be captured *where the
        live rank lives*: in-process backends capture directly, the
        processes backend delegates to the worker that owns the rank.
        Returns the shard metadata dict (``sha256``, ``size``) recorded
        in the snapshot manifest.
        """
        return _write_rank_shard(self.psim, rank, shard_path)

    def close(self) -> None:
        """Release execution resources.  Safe to call repeatedly."""


class SerialBackend(ExecutionBackend):
    """Ranks step one after another in the calling thread (reference)."""

    name = "serial"

    def step(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        psim = self.psim
        for rank, entries in enumerate(deliveries):
            if entries:
                deliver_cross_rank(psim, rank, entries)
        steps = []
        for rank, sim in enumerate(psim._sims):
            result = _timed_step(sim, epoch_end)
            result.outbox = drain_outbox(psim, rank)
            steps.append(result)
        return steps


def _send_msg(conn, msg: Any) -> None:
    """One pickled control message per pipe write (highest pickle
    protocol), as a single ``send_bytes`` of one pre-pickled buffer
    rather than leaving framing and (older-protocol) pickling to
    ``Connection.send``."""
    conn.send_bytes(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))


def _recv_msg(conn) -> Any:
    return pickle.loads(conn.recv_bytes())


#: what pickling a frame raises for an event that cannot cross ranks
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


def _not_serializable(where: str, exc: BaseException) -> SimulationError:
    return SimulationError(
        f"{where}: a cross-rank event is not serializable (events "
        f"crossing ranks under the processes backend must be "
        f"picklable): {exc}")


class RankRunner:
    """One rank's side of a processes-backend run, wherever it executes.

    Forked workers drive a runner from their command loop; the parent
    drives rank 0's directly.  Either way the rank is observed the same
    way: the per-event observers attached to its simulation are
    detached for the run (the parent warned about any the rank plan
    does not cover) and the plan's rank-local recorder is attached in
    their place.  :meth:`close` puts the original observers back — it
    matters only in the parent, a worker simply exits.
    """

    def __init__(self, psim: "ParallelSimulation", rank: int):
        self.psim = psim
        self.rank = rank
        self.sim = sim = psim._sims[rank]
        self._detached = (sim._trace_fn, sim._trace_observers,
                          sim._span_observers, sim._heartbeats)
        sim._trace_fn = None
        sim._trace_observers = []
        sim._span_observers = []
        sim._heartbeats = {}
        sim._rebuild_instr()
        # Re-attach the rank-local recorder the plan describes (JSONL
        # shard or step-frame batches, span buckets, heartbeats, live
        # slot, causal shard).  Observability must never kill a rank:
        # creation failures degrade to a bare rank.
        self.recorder = None
        plan = getattr(psim, "rank_plan", None)
        if plan is not None:
            try:
                self.recorder = plan.worker_recorder(psim, rank)
            except Exception:  # pragma: no cover - defensive
                import sys
                import traceback

                print(f"repro: rank {rank} telemetry recorder failed to "
                      f"start; continuing without it:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)

    def step(self, epoch_end: SimTime,
             entries: Sequence[OutboxEntry]) -> RankStep:
        """One epoch: deliver, run the kernel window, drain the outbox."""
        deliver_cross_rank(self.psim, self.rank, entries)
        result = _timed_step(self.sim, epoch_end)
        result.outbox = drain_outbox(self.psim, self.rank)
        if self.recorder is not None:
            try:
                self.recorder.on_step(result, epoch_end)
            except Exception:  # pragma: no cover - defensive
                self.recorder = None
        return result

    def finish(self) -> Optional[Dict[str, Any]]:
        """Run the rank's finish hooks with its live state, then close
        the recorder; returns the recorder's harvest for the plan."""
        self.sim.finish()
        return self._finish_recorder()

    def _finish_recorder(self) -> Optional[Dict[str, Any]]:
        recorder, self.recorder = self.recorder, None
        if recorder is None:
            return None
        try:
            return recorder.finish()
        except Exception:  # pragma: no cover - defensive
            return None

    def close(self) -> None:
        """Close the recorder (if a failed run never finished it) and
        restore the observers detached at construction."""
        self._finish_recorder()
        sim = self.sim
        (sim._trace_fn, sim._trace_observers, sim._span_observers,
         sim._heartbeats) = self._detached
        sim._rebuild_instr()


def _harvest(runner: RankRunner) -> Dict[str, Any]:
    """A worker's ``finish`` reply: everything the parent adopts."""
    obs = runner.finish()
    sim = runner.sim
    return {
        "stats": harvest_stats(sim),
        "engine_stats": harvest_engine_stats(sim),
        "obs": obs,
        "events_executed": sim._events_executed,
        "now": sim.now,
        "last_event_time": sim.last_event_time,
        "primaries_pending": sim.primaries_pending,
    }


class ProcessesBackend(ExecutionBackend):
    """Rank 0 in the parent, one forked worker per other rank, epoch
    frames through shared memory.

    The parent process runs the sync policy, the epoch loop and rank
    0's kernel windows; each worker owns one rank's :class:`Simulation`
    (inherited fully wired via fork) and runs its kernel windows on
    command.  An epoch posts every worker its delivery frame, runs rank
    0 inline while the workers run, then collects their step frames —
    so a 2-rank run is two processes, both busy.  Only epoch frames
    (:func:`encode_deliveries` down, :func:`encode_step` up) and the
    final statistics harvest cross the process boundary.

    Two planes, one job each:

    * **data** — epoch frames stream through per-rank shared-memory
      rings, announced by a one-byte doorbell pipe; waiting sides block
      (:mod:`repro.core.shm`);
    * **control** — snapshots, the final harvest, shutdown and errors
      are pickled messages on one pipe per worker.
    """

    name = "processes"

    def __init__(self, psim: "ParallelSimulation"):
        super().__init__(psim)
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise SimulationError(
                "the 'processes' backend requires the fork start method "
                "(Linux/macOS); use backend='serial' here"
            )
        self._ctx = mp.get_context("fork")
        #: worker ranks (1..N-1) -> process / parent end of its pipe
        self._procs: Dict[int, Any] = {}
        self._conns: Dict[int, Any] = {}
        #: rank 0, run in this process
        self._local: Optional[RankRunner] = None
        self._exchange: Optional[ShmExchange] = None

    def start(self) -> None:
        if self._local is not None:
            return
        self._warn_uncovered_observers()
        # Created before the fork so every worker inherits the mapped
        # segment and bells — nothing is re-attached by name.
        self._exchange = ShmExchange(self.psim.num_ranks)
        # Fork AFTER setup(): workers inherit wired graphs, queued
        # setup events and registered primaries.  The parent keeps the
        # setup-time outbox entries (workers clear their copies).
        for rank in range(1, self.psim.num_ranks):
            parent_conn, child_conn = self._ctx.Pipe()
            # The worker closes every parent-side end it inherits, so
            # the parent going away reads as EOF in the worker.
            parent_ends = [*self._conns.values(), parent_conn]
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self.psim, rank, child_conn, self._exchange,
                      parent_ends),
                name=f"repro-rank{rank}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs[rank] = proc
            self._conns[rank] = parent_conn
        # After the forks: rank 0's recorder may start threads.
        self._local = RankRunner(self.psim, 0)

    def _warn_uncovered_observers(self) -> None:
        """Satellite guard: detaching an observer must not be silent.

        Every rank runner strips the per-event observers of its rank.
        Observers attached through ``repro.obs`` carry a
        ``__rank_local__`` marker ("profile" re-attaches always; "span"
        re-attaches when the rank plan has a record sink) and keep
        working rank-locally; anything else is about to lose its data,
        so name it in a structured one-time warning.
        """
        plan = getattr(self.psim, "rank_plan", None)
        span_sink = bool(plan is not None
                         and getattr(plan, "has_record_sink", False))
        doomed: List[str] = []
        for rank, sim in enumerate(self.psim._sims):
            candidates: List[Any] = []
            if sim._trace_fn is not None:
                candidates.append(sim._trace_fn)
            candidates.extend(sim._trace_observers)
            candidates.extend(sim._span_observers)
            candidates.extend(sim._heartbeats)
            for fn in candidates:
                marker = getattr(fn, "__rank_local__", None)
                if marker == "profile" or (marker == "span" and span_sink):
                    continue
                doomed.append(f"rank {rank}: {_describe_observer(fn)}")
        if doomed:
            warnings.warn(
                "processes backend: detaching per-event observers that "
                "cannot be re-attached rank-locally — "
                + "; ".join(sorted(set(doomed)))
                + ".  Their sinks live in the parent process and would "
                "record into memory that dies with the workers.  Attach "
                "a TelemetryRecorder with a metrics path to capture "
                "per-rank JSONL shards instead, then merge post-hoc "
                "with 'python -m repro obs merge <metrics.jsonl>'.",
                RankObservabilityWarning,
                stacklevel=3,
            )

    def step(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        num_ranks = self.psim.num_ranks
        # Encode every frame before posting any: an event that cannot
        # be pickled fails the epoch before a worker has started it.
        frames = {}
        for rank in self._conns:
            try:
                frames[rank] = encode_deliveries(epoch_end, deliveries[rank])
            except _PICKLE_ERRORS as exc:
                raise _not_serializable(f"delivery to rank {rank}",
                                        exc) from None
        for rank, frame in frames.items():
            self._post(rank, frame)
        steps = [self._local.step(epoch_end, deliveries[0])]
        moved = sum(len(frame) for frame in frames.values())
        for rank in range(1, num_ranks):
            frame = self._collect(rank)
            moved += len(frame)
            steps.append(decode_step(frame, num_ranks))
        plan = getattr(self.psim, "rank_plan", None)
        if plan is not None:
            # Bounded rank-local record batches ride the steps
            # (shard-less mode); hand them to the plan before the sync
            # strategy ever sees the steps.
            for rank, step in enumerate(steps):
                if step.obs_records:
                    plan.deliver(rank, step.obs_records)
                    step.obs_records = None
        self.last_exchange_bytes = moved
        return steps

    # The parent's half of the data plane (the worker's half is
    # next_command/run_step in _worker_main).
    def _post(self, rank: int, frame: bytes) -> None:
        self._exchange.post(rank, frame,
                            alive_check=self._procs[rank].is_alive)

    def _collect(self, rank: int) -> bytes:
        frame = self._exchange.collect(
            rank, alive_check=self._procs[rank].is_alive)
        if frame is not None:
            return frame
        # the worker flagged a failure: its exception is waiting on the
        # pipe, and _recv raises it
        return self._recv(rank)

    def finalize(self) -> None:
        """Finish every rank and adopt worker results into the parent.

        Rank 0 finishes in place.  Workers run ``finish()`` (so
        component finish hooks see their true final state) and ship
        their statistic collectors back; the parent copies collector
        state into its own objects in place, so existing references
        (``component.stats``, merged harvests) observe the worker's
        results.  Component attributes other than statistics are *not*
        synchronized — use stats, that's what they are for.
        """
        if self._local is None:
            return
        for conn in self._conns.values():
            _send_msg(conn, ("finish",))
        plan = getattr(self.psim, "rank_plan", None)
        for rank in range(self.psim.num_ranks):
            if rank == 0:
                obs = self._local.finish()
            else:
                obs = self._adopt(rank, self._recv(rank))
            if plan is not None:
                plan.absorb(rank, obs)

    def _adopt(self, rank: int,
               payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Copy worker ``rank``'s harvest into the parent's simulation;
        returns its observability payload."""
        sim = self.psim._sims[rank]
        sim.now = payload["now"]
        sim.last_event_time = payload["last_event_time"]
        sim._events_executed = payload["events_executed"]
        sim._primaries_pending = payload["primaries_pending"]
        # comp.finish() already ran worker-side with live state;
        # running it again on the stale parent copy would corrupt
        # the adopted statistics.
        sim._finished = True
        for comp_name, stats in payload["stats"].items():
            group = sim._components[comp_name].stats.all()
            for stat_name, remote in stats.items():
                _adopt_stat(group[stat_name], remote)
        # Engine stats are adopted *additively only*: names the
        # parent already tracks (sync.* — maintained parent-side
        # during the epoch loop) keep their live values; names only
        # the worker registered (obs.* rank-telemetry counters) are
        # adopted wholesale so harvest_stats-style merging sees
        # them.  _register returns the existing collector untouched
        # when the name is taken, which is exactly that rule.
        for name, remote in (payload.get("engine_stats") or {}).items():
            sim.engine_stats._register(name, remote)
        return payload.get("obs")

    def snapshot_rank(self, rank: int, shard_path: str) -> Dict[str, Any]:
        """Write ``rank``'s shard where the rank lives.

        Rank 0 is captured in this process.  The parent's other rank
        simulations are stale copies (frozen at fork time); their live
        state is in the workers, so those shards are captured and
        written worker-side and only the checksum metadata crosses the
        pipe.
        """
        if rank == 0:
            return super().snapshot_rank(rank, shard_path)
        _send_msg(self._conns[rank], ("snapshot", shard_path))
        return self._recv(rank)

    def worker_pid(self, rank: int) -> Optional[int]:
        """The pid of the process that runs ``rank`` (this process for
        rank 0; None for a worker not forked yet)."""
        if rank == 0:
            return os.getpid()
        proc = self._procs.get(rank)
        return proc.pid if proc is not None else None

    def request_stack_dump(self, rank: int, dump_path: str, *,
                           timeout_s: float = 2.0) -> Optional[str]:
        """Extract a stack dump from the process that runs ``rank``.

        Rank 0 dumps this process directly.  A worker is signalled with
        SIGUSR1, which only works when the run's plan carried
        ``live_dump_base`` (the worker registered the faulthandler
        signal at startup — see
        :func:`repro.obs.live.watchdog.enable_stack_dump_signal`).  The
        pipe command channel is deliberately not used: a wedged worker
        never returns to the command loop, while the signal path dumps
        from any state.
        """
        from ..obs.live.watchdog import request_stack_dump

        pid = self.worker_pid(rank)
        if pid is None:
            return None
        return request_stack_dump(pid, dump_path, timeout_s=timeout_s)

    def _recv(self, rank: int):
        """The payload of ``rank``'s next pipe reply; re-raises the
        worker's exception when the reply is an error."""
        try:
            status, payload = _recv_msg(self._conns[rank])
        except (EOFError, OSError) as exc:
            raise SimulationError(
                f"rank {rank} worker process died unexpectedly"
            ) from exc
        if status == "error":
            raise payload
        return payload

    def close(self) -> None:
        if self._local is not None:
            self._local.close()
            self._local = None
        for conn in self._conns.values():
            try:
                _send_msg(conn, ("close",))
            except (OSError, ValueError, BrokenPipeError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs.values():
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
        self._procs = {}
        self._conns = {}
        if self._exchange is not None:
            self._exchange.close(unlink=True)
            self._exchange = None


def _adopt_stat(local, remote) -> None:
    """Copy a worker statistic's state into the parent's collector.

    In-place state copy (not object replacement) so references held by
    the parent component — ``self.received`` and friends — observe the
    adopted values too.  Delegates to
    :func:`repro.core.statistics.adopt_state`, the same primitive the
    checkpoint layer uses to adopt snapshot statistics.
    """
    try:
        adopt_state(local, remote)
    except TypeError as exc:
        raise SimulationError(str(exc)) from None


def _worker_main(psim: "ParallelSimulation", rank: int, conn,
                 exchange: ShmExchange, parent_ends: Sequence[Any]) -> None:
    """Worker command loop for one rank (runs in a forked child).

    ``exchange`` is the :class:`~repro.core.shm.ShmExchange` inherited
    through fork: epoch frames arrive and leave through its rings (see
    ``next_command`` / ``run_step``), control commands on ``conn``.
    Everything else a rank does is the :class:`RankRunner`'s.  The
    worker exits on ``close`` or as soon as its pipe reads EOF (the
    parent closed its end or is gone).
    """
    import select
    import traceback

    # Keep only this worker's end of its pipe: with the parent's copies
    # closed here, the parent going away reads as EOF, not a silent hang.
    for end in parent_ends:
        end.close()
    # Setup-time sends were captured by the parent at fork; drop the
    # inherited copies so they are not delivered twice.
    for by_dest in psim._outboxes:
        for bucket in by_dest:
            bucket.clear()
    # Watchdog stack dumps: register SIGUSR1 -> faulthandler so the
    # parent can extract this worker's stack even while it is wedged
    # inside a handler.
    dump_base = getattr(getattr(psim, "rank_plan", None),
                        "live_dump_base", None)
    if dump_base:
        try:
            from ..obs.live.watchdog import enable_stack_dump_signal
            enable_stack_dump_signal(f"{dump_base}.stack.rank{rank}")
        except Exception:  # pragma: no cover - defensive
            pass
    runner = RankRunner(psim, rank)

    def send_error(exc: BaseException) -> None:
        try:
            _send_msg(conn, ("error", exc))
        except Exception:  # unpicklable exception: ship the traceback text
            _send_msg(conn, ("error", SimulationError(
                f"rank {rank} worker failed:\n{traceback.format_exc()}"
            )))

    def run_step(frame: bytes) -> None:
        """One epoch: delivery frame in, step frame out.

        Any failure takes the one error path: the exception goes to the
        parent on the pipe, and an empty up-ring frame releases the
        parent's ``collect``."""
        try:
            epoch_end, entries = decode_deliveries(frame)
            result = runner.step(epoch_end, entries)
            try:
                reply = encode_step(result)
            except _PICKLE_ERRORS as exc:
                raise _not_serializable(f"rank {rank}", exc) from None
        except Exception as exc:
            send_error(exc)
            exchange.fail(rank)
            return
        exchange.complete(rank, reply)

    def next_command() -> tuple:
        """Block until the parent's next command: sleep in ``select`` on
        the control pipe and the doorbell; a rung bell is an epoch, read
        off the down ring."""
        ready, _, _ = select.select([conn, exchange.bell(rank)], [], [])
        if conn in ready:
            return _recv_msg(conn)
        return ("step", exchange.read_deliveries(rank))

    try:
        while True:
            msg = next_command()
            cmd = msg[0]
            if cmd == "close":
                return
            if cmd == "step":
                run_step(msg[1])
                continue
            try:
                if cmd == "snapshot":
                    reply = _write_rank_shard(psim, rank, msg[1])
                else:  # "finish"
                    reply = _harvest(runner)
                _send_msg(conn, ("ok", reply))
            except Exception as exc:
                send_error(exc)
    except (EOFError, OSError):
        return  # the parent is gone: nobody to report to
    finally:
        exchange.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


#: Registry used by ParallelSimulation(backend="...") and the CLI.
BACKENDS: Dict[str, Callable[["ParallelSimulation"], ExecutionBackend]] = {
    "serial": SerialBackend,
    "processes": ProcessesBackend,
}


def make_backend(name: str, psim: "ParallelSimulation") -> ExecutionBackend:
    """Instantiate an execution backend by name."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; options: {sorted(BACKENDS)}"
        ) from None
    return factory(psim)


# ----------------------------------------------------------------------
# Coarse-grained job pools (the dse.sweep substrate)
# ----------------------------------------------------------------------

def default_jobs() -> int:
    """Usable CPU count (affinity-aware), >= 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class JobPool:
    """Evaluate independent jobs on one of the engine's substrates.

    The coarse-grained sibling of :class:`ExecutionBackend`: where a
    backend parallelises ranks *within* one simulation, a job pool
    parallelises *whole simulations* (design-space sweep points).  The
    substrate names match (``serial`` / ``processes``), and
    ``processes`` is again the one that leaves the GIL.
    """

    name = "base"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """``[fn(x) for x in items]`` on this pool's substrate, in order."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialJobPool(JobPool):
    name = "serial"

    def map(self, fn, items):
        return [fn(item) for item in items]


class ProcessesJobPool(JobPool):
    """Fork-based process pool; jobs and results must be picklable."""

    name = "processes"

    def __init__(self, jobs: int):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise SimulationError(
                "the 'processes' job pool requires the fork start method"
            )
        self._pool = mp.get_context("fork").Pool(processes=jobs)

    def map(self, fn, items):
        return self._pool.map(fn, list(items))

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def make_job_pool(backend: str = "serial",
                  jobs: Optional[int] = None) -> JobPool:
    """Instantiate a job pool by substrate name.

    ``jobs`` defaults to the usable CPU count; the serial pool ignores
    it.  One job per design point is the intended granularity.
    """
    jobs = jobs if jobs is not None else default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if backend == "serial":
        return SerialJobPool()
    if backend == "processes":
        return ProcessesJobPool(jobs)
    raise ValueError(
        f"unknown job-pool backend {backend!r}; options: "
        f"{sorted(BACKENDS)}"
    )
