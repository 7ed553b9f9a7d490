"""Conservative parallel discrete-event engine.

SST runs one MPI rank per partition of the component graph and uses a
conservative, barrier-synchronised protocol: because components interact
only over links with latency >= L_min (the smallest latency of any link
that crosses a rank boundary), every rank may safely simulate
``lookahead = L_min`` past the globally earliest pending event before
exchanging cross-rank events and re-synchronising.

PySST reproduces that protocol faithfully, split across three explicit
layers (see docs/ARCHITECTURE.md):

* the **kernel loop** (:mod:`repro.core.kernel`) executes one rank's
  events inside a window;
* the **sync policy** (:mod:`repro.core.sync`) computes epoch windows
  and orders the cross-rank exchange deterministically;
* the **execution backend** (:mod:`repro.core.backends`) decides where
  the per-rank kernels run: ``serial`` (reference, calling thread) or
  ``processes`` (rank 0 in the calling process, forked workers for the
  other ranks, exchanging epoch frames over shared-memory rings — true
  multi-core scaling).

:class:`ParallelSimulation` composes the three: it owns the per-rank
:class:`Simulation` objects and the cross-rank link table, drives the
epoch loop, and folds per-rank results into engine statistics and
epoch observers.  The per-rank sub-simulations are ordinary
:class:`Simulation` objects; cross-rank links are ordinary
:class:`Link` objects whose endpoints are re-targeted at rank outboxes.
"""

from __future__ import annotations

import time as _wall_time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import units
from .backends import (BACKENDS, ExecutionBackend, RankStep, make_backend,
                       outbox_count)
from .component import Component
from .event import Event
from .link import Link, LinkError, Port
from .simulation import Simulation, SimulationError
from .sync import ConservativeSync
from .units import SimTime

_INF = float("inf")


@dataclass
class ParallelRunResult:
    """Outcome of a :meth:`ParallelSimulation.run` call."""

    reason: str  #: "exhausted" | "exit" | "max_time"
    end_time: SimTime
    events_executed: int
    epochs: int
    remote_events: int  #: events exchanged across rank boundaries
    lookahead: SimTime
    wall_seconds: float
    per_rank_events: List[int] = field(default_factory=list)
    #: wall time spent executing rank epoch windows, summed over ranks
    exec_seconds: float = 0.0
    #: wall time ranks spent waiting at the epoch barrier (sum over
    #: ranks of slowest-rank-time minus own time, per epoch)
    barrier_wait_seconds: float = 0.0
    #: wall time spent sorting/delivering cross-rank events
    exchange_seconds: float = 0.0
    #: per-rank cumulative barrier-wait seconds
    per_rank_barrier_wait: List[float] = field(default_factory=list)
    #: fraction of the granted epoch windows (sum of per-epoch widths)
    #: the run actually advanced through — low values mean the sync
    #: windows are forcing many near-empty epochs
    lookahead_utilization: float = 0.0
    #: epoch-frame bytes moved by the cross-rank exchange
    #: (both directions; 0 for in-process backends)
    exchange_bytes: int = 0
    #: events executed per wall-clock second (engine throughput)
    events_per_second: float = field(init=False)

    def __post_init__(self) -> None:
        self.events_per_second = (
            self.events_executed / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (embedded in run manifests)."""
        return {
            "reason": self.reason,
            "end_time_ps": self.end_time,
            "events_executed": self.events_executed,
            "epochs": self.epochs,
            "remote_events": self.remote_events,
            "lookahead_ps": self.lookahead,
            "wall_seconds": self.wall_seconds,
            "events_per_second": self.events_per_second,
            "per_rank_events": list(self.per_rank_events),
            "exec_seconds": self.exec_seconds,
            "barrier_wait_seconds": self.barrier_wait_seconds,
            "exchange_seconds": self.exchange_seconds,
            "per_rank_barrier_wait": list(self.per_rank_barrier_wait),
            "lookahead_utilization": self.lookahead_utilization,
            "exchange_bytes": self.exchange_bytes,
        }


@dataclass
class EpochInfo:
    """One conservative-sync epoch, as seen by epoch observers.

    Passed to callbacks registered via
    :meth:`ParallelSimulation.add_epoch_observer` — the parallel-engine
    analogue of the sequential heartbeat hook (telemetry, progress and
    trace exporters attach here).
    """

    index: int  #: epoch number within this run (0-based)
    window_start: SimTime  #: global earliest pending event this epoch
    window_end: SimTime  #: inclusive end of the safe window
    exchanged_events: int  #: cross-rank events delivered before the epoch
    exchange_seconds: float
    wall_seconds: float  #: wall time of the whole epoch execution phase
    per_rank_events: List[int]
    per_rank_wall: List[float]
    per_rank_barrier_wait: List[float]
    events_total: int  #: cumulative events executed so far in this run
    now: SimTime  #: engine sim-time high-water mark after the epoch
    #: epoch-frame bytes this epoch's exchange moved (both
    #: directions; 0 for in-process backends)
    exchange_bytes: int = 0

    @property
    def window_width(self) -> SimTime:
        """Simulated width of this epoch's safe window (ps, inclusive)."""
        return self.window_end - self.window_start + 1


class _CrossRankLink:
    """Bookkeeping for one link whose endpoints live on different ranks."""

    __slots__ = ("link_id", "name", "latency", "port_a", "port_b",
                 "rank_a", "rank_b")

    def __init__(self, link_id: int, name: str, latency: SimTime,
                 port_a: Port, rank_a: int, port_b: Port, rank_b: int):
        self.link_id = link_id
        self.name = name
        self.latency = latency
        self.port_a = port_a
        self.port_b = port_b
        self.rank_a = rank_a
        self.rank_b = rank_b


class ParallelSimulation:
    """A multi-rank conservative PDES composed of per-rank Simulations.

    Usage mirrors :class:`Simulation` but components are created against
    a specific rank::

        psim = ParallelSimulation(num_ranks=4, seed=3)
        a = Producer(psim.rank_sim(0), "a", params)
        b = Consumer(psim.rank_sim(3), "b", params)
        psim.connect(a, "out", b, "in", latency="50ns")
        result = psim.run(max_time="1ms")
    """

    def __init__(self, num_ranks: int, *, seed: int = 1,
                 backend: str = "serial", verbose: bool = False,
                 clock_arbiter: bool = True):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; options: {sorted(BACKENDS)}"
            )
        self.num_ranks = num_ranks
        self.backend = backend
        self.seed = seed
        #: partitioner strategy label; set by config.build_parallel for
        #: run manifests, None for hand-built graphs.
        self.partition_strategy: Optional[str] = None
        # Every rank shares the base seed (component streams key off it,
        # which is what makes sequential/parallel statistics identical)
        # but receives a distinct engine-level stream via seed-sequence
        # spawn — see Simulation.engine_rng.
        rank_seeds = np.random.SeedSequence(seed).spawn(num_ranks)
        self._sims = [
            Simulation(seed=seed, rank=r, num_ranks=num_ranks,
                       rank_seed=int(rank_seeds[r].generate_state(1)[0]),
                       verbose=verbose, clock_arbiter=clock_arbiter)
            for r in range(num_ranks)
        ]
        # Per-rank conservative-sync metrics, kept in each rank's
        # engine-level StatisticGroup so ParallelSimulation.sync_stats()
        # can fold them together with Statistic.merge().
        self._sync_stats = []
        for sim in self._sims:
            es = sim.engine_stats
            self._sync_stats.append({
                "epochs": es.counter("sync.epochs"),
                "epoch_events": es.accumulator("sync.epoch_events"),
                "exec_s": es.accumulator("sync.exec_s"),
                "barrier_wait_s": es.accumulator("sync.barrier_wait_s"),
                "remote_sends": es.counter("sync.remote_sends"),
            })
        self._epoch_observers: List[Callable[[EpochInfo], None]] = []
        # outboxes[src_rank][dest_rank] = list of (time, priority, link_id,
        # dest_rank, send_seq, event) — batched per destination so each
        # epoch flushes one batch per receiving rank (one frame under
        # the processes backend) instead of per-event sends.
        self._outboxes: List[List[List[Tuple[SimTime, int, int, int, int, Event]]]] = [
            [[] for _ in range(num_ranks)] for _ in range(num_ranks)
        ]
        # One mutable cell per source rank so sender closures bump the
        # shared per-rank sequence without attribute traffic on self.
        self._send_seq: List[List[int]] = [[0] for _ in range(num_ranks)]
        self._cross_links: Dict[int, _CrossRankLink] = {}
        self._next_link_id = 0
        #: epoch-window / exchange policy (layer 2)
        self._sync = ConservativeSync()
        #: execution substrate (layer 3); created per run(), closed in
        #: its finally block so failed runs never leak pools/workers.
        self._backend: Optional[ExecutionBackend] = None
        #: rank-local observability plan (duck-typed; in practice a
        #: :class:`repro.obs.rank_stream.RankStreamPlan`).  Instruments
        #: that know how to survive the process boundary register here;
        #: the processes backend re-attaches a rank-local recorder from
        #: it wherever each rank runs and harvests results back at
        #: finalize.  None = nothing to re-attach (per-event observers
        #: are then detached with a RankObservabilityWarning).
        self.rank_plan: Optional[Any] = None
        #: live-plane handle (duck-typed; in practice a
        #: :class:`repro.obs.live.LiveMetrics`).  Set by attach(); run()
        #: notifies it once with the stop reason so the run slot is
        #: marked done even before finalize tears the plane down.
        self.live: Optional[Any] = None
        self._setup_done = False
        #: set when a processes-backend run stopped on a limit: the
        #: worker queues died with the workers, so resuming is invalid.
        self._unresumable: Optional[str] = None
        # counters for ENG-2
        self.total_epochs = 0
        self.total_remote_events = 0
        # --- checkpointing (repro.ckpt) -------------------------------
        #: the ConfigGraph this engine was built from (config.build_parallel)
        self.config_graph = None
        #: lineage set by repro.ckpt.restore(); recorded in run manifests
        self.checkpoint_lineage: Optional[Dict[str, Any]] = None
        #: snapshot directories written by run(checkpoint_every=...)
        self.checkpoints_written: List[str] = []

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    def rank_sim(self, rank: int) -> Simulation:
        """The per-rank :class:`Simulation` components are created against."""
        return self._sims[rank]

    def rank_of(self, component: Component) -> int:
        return component.sim.rank

    def connect(self, comp_a: Component, port_a: str, comp_b: Component,
                port_b: str, *, latency: Union[str, int] = "1ps",
                name: Optional[str] = None) -> None:
        """Wire two components; cross-rank links are proxied automatically."""
        rank_a = self.rank_of(comp_a)
        rank_b = self.rank_of(comp_b)
        lat = units.parse_time(latency, default_unit="ps")
        if rank_a == rank_b:
            self._sims[rank_a].connect(comp_a, port_a, comp_b, port_b,
                                       latency=lat, name=name)
            return
        pa = comp_a.port(port_a)
        pb = comp_b.port(port_b)
        if pa.connected or pb.connected:
            raise LinkError(
                f"port already connected: {pa.full_name()} / {pb.full_name()}"
            )
        link_name = name or f"{pa.full_name()}--{pb.full_name()}"
        link = Link.connect(link_name, lat, pa, pb,
                            self._sims[rank_a], self._sims[rank_b])
        link_id = self._next_link_id
        self._next_link_id += 1
        cross = _CrossRankLink(link_id, link_name, lat, pa, rank_a, pb, rank_b)
        self._cross_links[link_id] = cross
        # Retarget each endpoint at its rank's outbox.
        end_a, end_b = link.endpoints
        end_a.set_remote(self._make_remote_sender(rank_a, rank_b, link_id))
        end_b.set_remote(self._make_remote_sender(rank_b, rank_a, link_id))
        self._sync.note_cross_link(lat, rank_a, rank_b)

    def _make_remote_sender(self, src_rank: int, dest_rank: int, link_id: int):
        # Hot path: capture the destination bucket's append and the
        # source rank's sequence cell directly — the closure touches no
        # attributes of self per send.
        append = self._outboxes[src_rank][dest_rank].append
        seq_cell = self._send_seq[src_rank]

        def sender(when: SimTime, priority: int, event: Event) -> None:
            seq = seq_cell[0]
            seq_cell[0] = seq + 1
            append((when, priority, link_id, dest_rank, seq, event))

        return sender

    @property
    def lookahead(self) -> SimTime:
        """Conservative sync window: min latency among cross-rank links.

        With no cross-rank links the ranks are independent and the
        window is unbounded (represented as a large constant).
        Delegates to the sync strategy, which owns the bound.
        """
        return self._sync.lookahead

    @property
    def sync_strategy(self) -> ConservativeSync:
        """The epoch-window/exchange policy object (layer 2)."""
        return self._sync

    @property
    def cross_link_count(self) -> int:
        return len(self._cross_links)

    def cross_endpoints(self, rank: int):
        """Yield ``(link_id, cross_link, endpoint)`` for ``rank``'s side
        of every cross-rank link.

        The endpoint is the :class:`~repro.core.link.LinkEndpoint` whose
        ``send()`` has been retargeted at this rank's outbox
        (:meth:`_make_remote_sender`).  Observability instruments — the
        causal tracer (:mod:`repro.obs.causal`) interposes on outbound
        sends here — should wrap via ``endpoint.set_remote`` and restore
        the original sender on detach.
        """
        for link_id, cross in self._cross_links.items():
            for end_rank, port in ((cross.rank_a, cross.port_a),
                                   (cross.rank_b, cross.port_b)):
                if end_rank == rank:
                    yield link_id, cross, port.endpoint

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self) -> None:
        if self._setup_done:
            return
        self._setup_done = True
        for sim in self._sims:
            sim.setup()

    def finish(self) -> None:
        for sim in self._sims:
            sim.finish()

    # ------------------------------------------------------------------
    # epoch machinery
    # ------------------------------------------------------------------
    def _drain_outboxes(self) -> None:
        """Hand undelivered outbox entries (setup-time sends) to the
        sync strategy, recording per-rank remote-send statistics."""
        for rank, by_dest in enumerate(self._outboxes):
            total = 0
            for bucket in by_dest:
                if bucket:
                    total += len(bucket)
                    self._sync.add_pending(list(bucket))
                    bucket.clear()
            if total:
                self._sync_stats[rank]["remote_sends"].add(total)

    def _primaries_exist(self) -> bool:
        return any(sim._primary_components for sim in self._sims)

    def _primaries_pending(self) -> int:
        return sum(sim.primaries_pending for sim in self._sims)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def add_epoch_observer(self, fn: Callable[[EpochInfo], None]) -> None:
        """Call ``fn(EpochInfo)`` after every conservative-sync epoch.

        The parallel analogue of :meth:`Simulation.add_heartbeat`:
        telemetry recorders, progress reporters and trace exporters
        attach here.  Costs nothing per event, one call per epoch.
        """
        if fn not in self._epoch_observers:
            self._epoch_observers.append(fn)

    def remove_epoch_observer(self, fn: Callable[[EpochInfo], None]) -> None:
        try:
            self._epoch_observers.remove(fn)
        except ValueError:
            pass

    def run(self, max_time: Optional[Union[str, int]] = None,
            max_epochs: Optional[int] = None, *,
            checkpoint_every: Optional[Union[str, int]] = None,
            checkpoint_dir: Optional[str] = None) -> ParallelRunResult:
        """Run the conservative epoch loop to completion or a limit.

        Orchestrates the three layers: the sync strategy computes each
        safe window and orders the exchange, the execution backend runs
        every rank's kernel through the window, and this loop folds the
        per-rank :class:`~repro.core.backends.RankStep` results into
        engine statistics, epoch observers and the final result.  The
        backend is created per run and closed in a ``finally`` block,
        so a model exception mid-epoch can never leak worker processes.

        With ``checkpoint_every`` (simulated-time interval), a
        `repro.ckpt` snapshot is written into ``checkpoint_dir`` at the
        first conservative-sync epoch boundary on or past each interval
        mark — the natural globally consistent point: every rank has
        executed all events in the window and undelivered cross-rank
        sends sit in the sync strategy's pending set.  Works on all
        backends; under ``processes`` each rank worker writes its own
        shard and the parent commits the manifest.
        """
        perf = _wall_time.perf_counter

        if self._unresumable:
            raise SimulationError(
                f"cannot resume a processes-backend run stopped on "
                f"{self._unresumable!r}: per-rank queues died with the "
                f"worker processes.  Run to completion, or use the "
                f"'serial' backend for resumable limited runs."
            )
        if not self._setup_done:
            self.setup()
        limit = units.parse_time(max_time, default_unit="ps") if max_time is not None else None
        ckpt_interval: Optional[SimTime] = None
        ckpt_next: Optional[SimTime] = None
        ckpt_seq = len(self.checkpoints_written)
        if checkpoint_every is not None:
            if checkpoint_dir is None:
                raise SimulationError("checkpoint_every requires checkpoint_dir")
            ckpt_interval = units.parse_time(checkpoint_every, default_unit="ps")
            if ckpt_interval <= 0:
                raise SimulationError("checkpoint_every must be positive")
            # First boundary strictly after the current high-water mark,
            # so a resumed run doesn't immediately re-snapshot.
            start_now = max(sim.now for sim in self._sims)
            ckpt_next = (start_now // ckpt_interval + 1) * ckpt_interval
        sync = self._sync
        lookahead = sync.lookahead
        start_wall = perf()
        start_events = [sim.events_executed for sim in self._sims]
        epochs = 0
        reason = "exhausted"
        exec_seconds = 0.0
        exchange_seconds = 0.0
        barrier_wait_total = 0.0
        per_rank_barrier = [0.0] * self.num_ranks
        first_window: Optional[SimTime] = None
        run_events = 0
        window_total = 0  #: sum of granted epoch window widths (ps)
        exchange_bytes_total = 0
        backend = make_backend(self.backend, self)
        self._backend = backend
        try:
            backend.start()
            # Adopt sends made during setup() (t=0) and refresh the
            # per-rank horizon so the first safe window sees everything.
            self._drain_outboxes()
            sync.next_times = backend.initial_next_times()
            try:
                while True:
                    if max_epochs is not None and epochs >= max_epochs:
                        reason = "max_epochs"
                        break
                    global_min = sync.global_min()
                    if global_min == _INF:
                        reason = "exhausted"
                        break
                    if limit is not None and global_min > limit:
                        reason = "max_time"
                        break
                    if first_window is None:
                        first_window = int(global_min)
                    ex_t0 = perf()
                    deliveries, exchanged = sync.exchange(self.num_ranks)
                    ex_dt = perf() - ex_t0
                    exchange_seconds += ex_dt
                    self.total_remote_events += exchanged
                    epoch_end = sync.window_end(global_min, limit)
                    window_total += epoch_end - int(global_min) + 1
                    ep_t0 = perf()
                    steps = backend.step(epoch_end, deliveries)
                    ep_dt = perf() - ep_t0
                    exec_seconds += ep_dt
                    ep_bytes = backend.last_exchange_bytes
                    exchange_bytes_total += ep_bytes
                    sync.absorb(steps)
                    per_rank_wall = [s.wall_seconds for s in steps]
                    per_rank_ev = [s.events for s in steps]
                    slowest = max(per_rank_wall) if per_rank_wall else 0.0
                    run_events += sum(per_rank_ev)
                    for r, stats in enumerate(self._sync_stats):
                        waited = slowest - per_rank_wall[r]
                        per_rank_barrier[r] += waited
                        barrier_wait_total += waited
                        stats["epochs"].add()
                        stats["epoch_events"].add(per_rank_ev[r])
                        stats["exec_s"].add(per_rank_wall[r])
                        stats["barrier_wait_s"].add(waited)
                        sent = outbox_count(steps[r].outbox)
                        if sent:
                            stats["remote_sends"].add(sent)
                    if self._epoch_observers:
                        info = EpochInfo(
                            index=epochs,
                            window_start=int(global_min),
                            window_end=epoch_end,
                            exchanged_events=exchanged,
                            exchange_seconds=ex_dt,
                            wall_seconds=ep_dt,
                            per_rank_events=per_rank_ev,
                            per_rank_wall=per_rank_wall,
                            per_rank_barrier_wait=[slowest - w for w in per_rank_wall],
                            events_total=run_events,
                            now=max(s.now for s in steps),
                            exchange_bytes=ep_bytes,
                        )
                        for fn in self._epoch_observers:
                            fn(info)
                    if ckpt_next is not None and epoch_end >= ckpt_next:
                        from ..ckpt import snapshot_parallel

                        path = snapshot_parallel(
                            self, f"{checkpoint_dir}/ckpt-{ckpt_seq:04d}",
                            backend=backend)
                        self.checkpoints_written.append(str(path))
                        ckpt_seq += 1
                        while ckpt_next <= epoch_end:
                            ckpt_next += ckpt_interval
                    epochs += 1
                    if (self._primaries_exist()
                            and sum(s.primaries_pending for s in steps) == 0):
                        reason = "exit"
                        break
            finally:
                self.total_epochs += epochs
            # Success path: pull out-of-process rank state (statistics,
            # clocks, event counts) back into the parent simulations.
            backend.finalize()
            if backend.name == "processes" and reason in ("max_time", "max_epochs"):
                self._unresumable = reason
        finally:
            # Never leak the execution substrate, even when a model
            # exception unwinds the epoch loop mid-run.
            self.close()
        # Report the time of the last real event; align rank clocks to it.
        end_time = max(sim.last_event_time for sim in self._sims)
        for sim in self._sims:
            if sim.now < end_time:
                sim.now = end_time
        self.finish()
        if self.live is not None:
            try:
                self.live.on_run_end(reason)
            except Exception:  # live plane must never fail a run
                pass
        wall = perf() - start_wall
        per_rank = [
            sim.events_executed - s0 for sim, s0 in zip(self._sims, start_events)
        ]
        utilization = 0.0
        if epochs and window_total and first_window is not None:
            span = max(0, end_time - first_window) + 1
            utilization = min(1.0, span / window_total)
        return ParallelRunResult(
            reason=reason,
            end_time=end_time,
            events_executed=sum(per_rank),
            epochs=epochs,
            remote_events=self.total_remote_events,
            lookahead=lookahead,
            wall_seconds=wall,
            per_rank_events=per_rank,
            exec_seconds=exec_seconds,
            barrier_wait_seconds=barrier_wait_total,
            exchange_seconds=exchange_seconds,
            per_rank_barrier_wait=per_rank_barrier,
            lookahead_utilization=utilization,
            exchange_bytes=exchange_bytes_total,
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self, *, include_engine: bool = False) -> Dict[str, Any]:
        """Merged statistics from every rank (component names are unique).

        ``include_engine=True`` folds the merged per-rank sync metrics
        in under ``_engine.<name>`` keys; the default leaves them out so
        component-stat comparisons against a sequential run still hold.
        """
        merged: Dict[str, Any] = {}
        for sim in self._sims:
            for key, stat in sim.stats().items():
                if key in merged:
                    merged[key].merge(stat)
                else:
                    merged[key] = stat
        if include_engine:
            for name, stat in self.sync_stats().items():
                merged[f"_engine.{name}"] = stat
        return merged

    def stat_values(self) -> Dict[str, float]:
        return {key: stat.value() for key, stat in self.stats().items()}

    def sync_stats(self) -> Dict[str, Any]:
        """Conservative-sync metrics merged across ranks.

        Every rank registers the same ``sync.*`` statistic names, so the
        fold uses :meth:`Statistic.merge` on fresh empty copies (the
        per-rank collectors are left untouched and re-mergeable).
        """
        merged: Dict[str, Any] = {}
        for sim in self._sims:
            for name, stat in sim.engine_stats.all().items():
                if name not in merged:
                    merged[name] = stat.copy_empty()
                merged[name].merge(stat)
        return merged

    def sync_stat_values(self) -> Dict[str, float]:
        return {key: stat.value() for key, stat in self.sync_stats().items()}

    def close(self) -> None:
        """Release the execution substrate (worker processes)."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "ParallelSimulation":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
