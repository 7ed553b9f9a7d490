"""Layer 3: execution backends — where each rank's kernel loop runs.

An :class:`ExecutionBackend` executes one conservative-sync epoch on
every rank of a :class:`~repro.core.parallel.ParallelSimulation` as a
:meth:`~ExecutionBackend.post` / :meth:`~ExecutionBackend.collect`
pair — post starts the ranks that run elsewhere, collect runs the rest
and reports a :class:`RankStep` per rank — so the epoch loop can do
its own bookkeeping while other processes run.  Two substrates are
provided:

* :class:`SerialBackend`    — ranks step one after another in the
  calling thread.  Zero concurrency, 100% determinism; the reference
  backend used by the equivalence tests.
* :class:`ProcessesBackend` — true multi-process PDES: rank 0 runs in
  the calling process and ranks 1..N-1 in one forked worker each, so
  N ranks are N processes.  Workers exchange epoch frames
  (:func:`encode_step`) with the parent over one pipe per rank and
  direction (:mod:`repro.core.exchange`); one more pipe per worker
  carries the control commands.  This is
  the backend that leaves the GIL.  Requirements and caveats:

  - the ``fork`` start method (Linux/macOS); workers inherit the fully
    wired per-rank simulations, so only events cross the process
    boundary during a run;
  - events sent over cross-rank links must be picklable (slotted
    payload-only events are; events carrying live object references
    are not, and raise a descriptive error).  Events of the slotted
    classes that exist when the workers fork travel as a class index
    and their slot values (:class:`~repro.core.event.EventTable`);
  - when a run ends — completion or a ``max_time``/``max_epochs``
    stop — ``finalize()`` re-homes every worker rank's full state
    (queue, clocks, component attributes, statistics) into the parent
    through the checkpoint protocol, so the parent then holds what the
    serial backend would: the run can resume, be snapshotted, or be
    inspected through its component objects.

Both backends step every rank through one :class:`RankRunner`, so a
rank is observed one way wherever it runs: the per-event observers
(trace/span/heartbeat) attached to a rank simulation are detached for
the run and named in a one-time :class:`RankObservabilityWarning`, and
the rank-local recorder of the run's plan (``psim.rank_plan``,
duck-typed — see :mod:`repro.obs.rank_stream`) is attached in their
place.  It writes the rank's JSONL shard (the only way a rank's records
leave the rank — step frames carry no telemetry) and hands its harvest
(profile buckets, span rows) to the plan at ``finalize()``.
Parent-side epoch observers — telemetry, progress, the live run slot —
see every epoch regardless.
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

from .event import (PRIORITY_EVENT, EventTable, IdSource, decode_entries,
                    encode_entries)
from .exchange import PipeExchange
from .simulation import SimulationError
from .sync import OutboxEntry
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .parallel import ParallelSimulation
    from .simulation import Simulation


class RankObservabilityWarning(UserWarning):
    """A per-event observer was detached from a rank of a parallel run.

    Raised once per run by every backend when a rank simulation carries
    trace/span/heartbeat observers: each rank is observed only through
    the rank plan, wherever it runs (in a forked worker an observer's
    sink would record into memory that dies with the worker, and the
    in-process ranks are detached the same way so every rank is observed
    alike).  Attach ``repro.obs`` instruments to the
    :class:`~repro.core.parallel.ParallelSimulation` instead, and use
    ``python -m repro obs merge`` on the per-rank shards for the merged
    post-hoc view.
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


# ----------------------------------------------------------------------
# epoch frames — what the processes backend moves through the pipes
# ----------------------------------------------------------------------

#: delivery-frame header: the inclusive end of the window to execute
_EPOCH_END = struct.Struct("<q")
#: step-frame header: wall_s, events, next_time (-1 = drained),
#: primaries_pending, last_event_time, now
_STEP_META = struct.Struct("<dqqqqq")


def encode_deliveries(epoch_end: SimTime, entries: List[OutboxEntry],
                      table: EventTable) -> bytes:
    """Parent -> worker frame: the window end plus this epoch's
    exchanged entries for the rank."""
    return _EPOCH_END.pack(epoch_end) + encode_entries(entries, table)


def decode_deliveries(frame: bytes,
                      table: EventTable) -> Tuple[SimTime, List[OutboxEntry]]:
    (epoch_end,) = _EPOCH_END.unpack_from(frame)
    entries, _ = decode_entries(frame, _EPOCH_END.size, table)
    return epoch_end, entries


def encode_step(result: RankStep, table: EventTable) -> bytes:
    """Worker -> parent frame: struct-packed step metadata, then the
    outbox as one entry batch (flattened across destinations — entries
    carry their dest rank)."""
    flat = [entry for bucket in result.outbox for entry in bucket]
    next_time = -1 if result.next_time is None else result.next_time
    return _STEP_META.pack(result.wall_seconds, result.events, next_time,
                           result.primaries_pending, result.last_event_time,
                           result.now) + encode_entries(flat, table)


def decode_step(frame: bytes, num_ranks: int,
                table: EventTable) -> RankStep:
    """Inverse of :func:`encode_step`; rebuilds the per-destination
    outbox buckets (entry order within each destination is preserved —
    the flatten walked destinations in order)."""
    (wall, events, next_time, primaries, last_event,
     now) = _STEP_META.unpack_from(frame)
    entries, _ = decode_entries(frame, _STEP_META.size, table)
    outbox: List[List[OutboxEntry]] = []
    if entries:
        outbox = [[] for _ in range(num_ranks)]
        for entry in entries:
            outbox[entry[2]].append(entry)
    # positional: a keyword call costs about 1 us more, on the
    # parent's side of every epoch's round trip
    return RankStep(wall, events, outbox,
                    None if next_time < 0 else next_time, primaries,
                    last_event, now)


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
    forked worker (which inherited the same cross-link table).  Each
    entry carries the destination port's handler and priority
    ``PRIORITY_EVENT``, as a local send's does.
    """
    sim = psim._sims[rank]
    queue = sim._queue
    cross = psim._cross_links
    causal = sim._causal
    if causal is None:
        for when, link_id, dest_rank, _seq, event in entries:
            link = cross[link_id]
            port = link.port_b if dest_rank == link.rank_b else link.port_a
            queue.push(when, PRIORITY_EVENT, port.handler, event)
        return
    # Causal tracing (repro.obs.causal): record each arrival's local
    # node id against its (link, send_seq) identity so the analyzer can
    # stitch the cross-rank edge back to the sender's cause node.
    for when, link_id, dest_rank, send_seq, event in entries:
        link = cross[link_id]
        port = link.port_b if dest_rank == link.rank_b else link.port_a
        seq = queue.push(when, PRIORITY_EVENT, port.handler, event)
        causal.on_cross_recv(seq, link_id, send_seq, when)


def _timed_step(sim: "Simulation", epoch_end: SimTime) -> RankStep:
    """Run one rank's kernel window and package the result.

    Wall time is measured where the rank runs so concurrent backends
    see true per-rank durations; the outbox is drained by the caller
    (it lives on the ParallelSimulation, per source rank).
    """
    perf = _wall_time.perf_counter
    t0 = perf()
    events = sim.run_step(epoch_end)
    wall = perf() - t0
    return RankStep(wall, events, [], sim.next_event_time(),
                    sim.primaries_pending, sim.last_event_time, sim.now)


def _warn_detached_observers(psim: "ParallelSimulation") -> None:
    """Detaching an observer must not be silent.

    Every rank runner strips the per-event observers of its rank, and
    ``repro.obs`` instruments reach a parallel run's ranks only through
    the rank plan, so whatever is attached here is about to lose its
    data: name it in a structured one-time warning.
    """
    doomed = {f"rank {rank}: {_describe_observer(fn)}"
              for rank, sim in enumerate(psim._sims)
              for fn in (*sim._trace_observers, *sim._span_observers,
                         *sim._heartbeats)}
    if doomed:
        warnings.warn(
            f"{psim.backend} backend: detaching per-event observers from "
            "rank simulations — " + "; ".join(sorted(doomed))
            + ".  A parallel run's ranks are observed only through the "
            "rank plan.  Attach repro.obs instruments to the "
            "ParallelSimulation instead — a TelemetryRecorder with a "
            "metrics path captures per-rank JSONL shards, merged "
            "post-hoc with 'python -m repro obs merge <metrics.jsonl>'.",
            RankObservabilityWarning,
            stacklevel=3,
        )


class ExecutionBackend:
    """Interface: execute epoch windows for every rank of a parallel run."""

    name = "base"

    #: bytes moved by the most recent epoch's exchange (epoch frames,
    #: both directions, counted at :meth:`collect`); 0 for in-process
    #: backends, surfaced per epoch through
    #: :class:`~repro.core.parallel.EpochInfo`.
    last_exchange_bytes: int = 0

    def __init__(self, psim: "ParallelSimulation"):
        self.psim = psim

    def start(self) -> None:
        """Acquire execution resources (pools, workers).  Idempotent."""

    def initial_next_times(self) -> List[Optional[SimTime]]:
        """Per-rank earliest queued event before the first epoch."""
        return [sim.next_event_time() for sim in self.psim._sims]

    def post(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> None:
        """Start the epoch on every rank that runs outside the calling
        thread: hand it its exchanged events and the window end
        ``epoch_end`` (inclusive).  Returns without waiting; the caller
        may do its own bookkeeping before :meth:`collect`."""

    def collect(self, epoch_end: SimTime,
                deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        """Finish the epoch :meth:`post` started, with the same
        arguments: deliver and run the ranks that run in the calling
        thread, wait for the others, and report one result per rank."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Hand every rank's observability harvest to the rank plan and
        synchronize any out-of-process rank state back to the parent.

        Called once after a run's epoch loop completes normally."""

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
        from ..ckpt.snapshot import write_rank_shard

        return write_rank_shard(self.psim, rank, shard_path)

    def close(self) -> None:
        """Release execution resources.  Safe to call repeatedly."""


class SerialBackend(ExecutionBackend):
    """Ranks step one after another in the calling thread (reference)."""

    name = "serial"
    #: one runner per rank while a run is in flight
    _runners: Sequence["RankRunner"] = ()

    def start(self) -> None:
        if self._runners:
            return
        _warn_detached_observers(self.psim)
        self._runners = [RankRunner(self.psim, rank)
                         for rank in range(self.psim.num_ranks)]

    def collect(self, epoch_end: SimTime,
                deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        return [runner.step(epoch_end, entries)
                for runner, entries in zip(self._runners, deliveries)]

    def finalize(self) -> None:
        plan = self.psim.rank_plan
        for runner in self._runners:
            obs = runner.finish()
            if plan is not None:
                plan.absorb(runner.rank, obs)

    def close(self) -> None:
        for runner in self._runners:
            runner.close()
        self._runners = ()


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
    """One rank's side of a parallel run, wherever it executes.

    The serial backend drives one runner per rank in the calling
    thread; the processes backend drives rank 0's in the parent and
    every other rank's from its forked worker's command loop.  Either
    way the rank is observed the same way: the per-event observers
    attached to its simulation are detached for the run (the backend
    warned about them) and the plan's rank-local recorder is attached in
    their place.  :meth:`close` puts the original observers back — it
    matters only in the parent, a worker simply exits.
    """

    def __init__(self, psim: "ParallelSimulation", rank: int):
        self.psim = psim
        self.rank = rank
        self.sim = sim = psim._sims[rank]
        self._detached = (sim._trace_observers, sim._span_observers,
                          sim._heartbeats)
        sim._trace_observers = []
        sim._span_observers = []
        sim._heartbeats = {}
        sim._rebuild_instr()
        # Re-attach the rank-local recorder the plan describes (JSONL
        # shard, span buckets and rows, heartbeats, live slot, causal
        # shard).  Observability must never kill a rank: creation
        # failures degrade to a bare rank.
        self.recorder = None
        plan = psim.rank_plan
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
        """One epoch: deliver, run the kernel window, drain the outbox.

        The recorder brackets the window (its live slot reads *running*
        inside it, *waiting* outside)."""
        if entries:
            deliver_cross_rank(self.psim, self.rank, entries)
        recorder = self.recorder
        if recorder is not None:
            recorder.on_step_start()
        result = _timed_step(self.sim, epoch_end)
        result.outbox = drain_outbox(self.psim, self.rank)
        if recorder is not None:
            try:
                recorder.on_step(result, epoch_end)
            except Exception:  # pragma: no cover - defensive
                self.recorder = None
        return result

    def finish(self) -> Optional[Dict[str, Any]]:
        """Close the recorder (which also unwraps a causal queue proxy);
        returns the recorder's harvest for the plan."""
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
        self.finish()
        sim = self.sim
        (sim._trace_observers, sim._span_observers,
         sim._heartbeats) = self._detached
        sim._rebuild_instr()


class ProcessesBackend(ExecutionBackend):
    """Rank 0 in the parent, one forked worker per other rank, epoch
    frames through pipes.

    The parent process runs the sync policy, the epoch loop and rank
    0's kernel windows; each worker owns one rank's :class:`Simulation`
    (inherited fully wired via fork) and runs its kernel windows on
    command.  :meth:`post` writes every worker its delivery frame;
    :meth:`collect` runs rank 0 inline while the workers run, then
    reads their step frames — so a 2-rank run is two processes, both
    busy, and the parent's own bookkeeping between the two calls runs
    while the workers do.  Only epoch frames
    (:func:`encode_deliveries` down, :func:`encode_step` up), snapshot
    metadata and each worker rank's final state cross the process
    boundary.

    Two planes, one job each:

    * **data** — epoch frames, length-prefixed, through one
      non-blocking pipe per rank and direction; a waiting side polls
      briefly, then blocks (:mod:`repro.core.exchange`);
    * **control** — pickled messages on one pipe per worker: the
      commands ``snapshot`` and ``finish`` down, their replies and a
      failed step's error up.  A worker ends right after its
      ``finish`` reply, or when its control pipe reads EOF (a run that
      failed mid-epoch, or a parent that is gone); :meth:`close` only
      closes the parent's ends and joins.
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
        self._exchange: Optional[PipeExchange] = None
        #: the entry codec's class table, shared with every worker
        self._table: Optional[EventTable] = None
        #: bytes of the delivery frames the last post() wrote
        self._posted_bytes = 0

    def start(self) -> None:
        if self._local is not None:
            return
        _warn_detached_observers(self.psim)
        # Created before the fork so every worker inherits the pipes
        # and the same event class indices.
        self._exchange = PipeExchange(self.psim.num_ranks)
        self._table = EventTable.capture()
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
                      self._table, parent_ends),
                name=f"repro-rank{rank}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs[rank] = proc
            self._conns[rank] = parent_conn
        # After the forks: rank 0's recorder may start threads.
        self._local = RankRunner(self.psim, 0)

    def post(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> None:
        table = self._table
        # Encode every frame before posting any: an event that cannot
        # be pickled fails the epoch before a worker has started it.
        frames = {}
        for rank in self._conns:
            try:
                frames[rank] = encode_deliveries(epoch_end, deliveries[rank],
                                                 table)
            except _PICKLE_ERRORS as exc:
                raise _not_serializable(f"delivery to rank {rank}",
                                        exc) from None
        moved = 0
        for rank, frame in frames.items():
            self._post(rank, frame)
            moved += len(frame)
        self._posted_bytes = moved

    def collect(self, epoch_end: SimTime,
                deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        num_ranks = self.psim.num_ranks
        table = self._table
        steps = [self._local.step(epoch_end, deliveries[0])]
        moved = self._posted_bytes
        for rank in range(1, num_ranks):
            frame = self._collect(rank)
            moved += len(frame)
            steps.append(decode_step(frame, num_ranks, table))
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
        """Re-home every worker rank's state into the parent.

        Each worker closes its recorder and replies with its rank's full
        state (:func:`repro.ckpt.state.capture_rank_state`); the parent
        applies it to its stale fork-time copy of the rank with
        :func:`repro.ckpt.state.restore_rank_state`, the same path an
        exact checkpoint restore takes.  The parent's live ``sync.*``
        engine stats are kept.  Finish hooks are not run here: the
        parent runs every rank's, as the serial backend does.
        """
        from ..ckpt.state import restore_rank_state

        if self._local is None:
            return
        for conn in self._conns.values():
            _send_msg(conn, ("finish",))
        plan = self.psim.rank_plan
        for rank in range(self.psim.num_ranks):
            if rank == 0:
                obs = self._local.finish()
            else:
                reply = self._recv(rank)
                obs = reply["obs"]
                meta = restore_rank_state(self.psim, rank, reply["state"])
                # ranks in separate processes advanced the same global
                # id counters independently: keep the maximum
                IdSource.restore_all(meta["id_sources"], merge_max=True)
            if plan is not None:
                plan.absorb(rank, obs)

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
        """Close the parent's pipe ends and reap the workers.

        A worker ends on its own right after its ``finish`` reply, so
        after a finished run its teardown overlaps the parent's
        re-homing; any other worker reads EOF on its control pipe here
        and ends.
        """
        if self._local is not None:
            self._local.close()
            self._local = None
        for conn in self._conns.values():
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
            self._exchange.close()
            self._exchange = None


def _worker_main(psim: "ParallelSimulation", rank: int, conn,
                 exchange: PipeExchange, table: EventTable,
                 parent_ends: Sequence[Any]) -> None:
    """Worker command loop for one rank (runs in a forked child).

    ``exchange`` is the :class:`~repro.core.exchange.PipeExchange`
    inherited through fork: epoch frames arrive and leave through its
    pipes (see ``next_command`` / ``run_step``), control commands on
    ``conn``; ``table`` is the parent's entry-codec class table.
    Everything else a rank does is the :class:`RankRunner`'s.  The
    worker exits right after it sends its ``finish`` reply, or as soon
    as its control pipe reads EOF (the parent closed its end or is
    gone).
    """
    import traceback

    from ..ckpt.snapshot import write_rank_shard
    from ..ckpt.state import capture_rank_state

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
    dump_base = getattr(psim.rank_plan, "live_dump_base", None)
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
        parent on the control pipe, and an empty up frame releases the
        parent's ``collect``."""
        try:
            epoch_end, entries = decode_deliveries(frame, table)
            result = runner.step(epoch_end, entries)
            try:
                reply = encode_step(result, table)
            except _PICKLE_ERRORS as exc:
                raise _not_serializable(f"rank {rank}", exc) from None
        except Exception as exc:
            send_error(exc)
            exchange.fail(rank)
            return
        exchange.complete(rank, reply)

    def next_command() -> tuple:
        """Wait for the parent's next command on the control pipe and
        the down pipe (polling briefly, then blocking); a readable down
        pipe is an epoch's delivery frame."""
        ready = exchange.wait((conn, exchange.down_fd(rank)))
        if conn in ready:
            return _recv_msg(conn)
        return ("step", exchange.read_deliveries(rank))

    try:
        while True:
            msg = next_command()
            cmd = msg[0]
            if cmd == "step":
                run_step(msg[1])
                continue
            try:
                if cmd == "snapshot":
                    reply = write_rank_shard(psim, rank, msg[1])
                else:  # "finish": close the recorder, then capture
                    reply = {"obs": runner.finish(),
                             "state": capture_rank_state(psim, rank)}
                _send_msg(conn, ("ok", reply))
            except Exception as exc:
                send_error(exc)
            if cmd == "finish":
                return  # the rank now lives in the parent
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

