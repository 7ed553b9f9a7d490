"""Layer 2: the synchronization policy of the parallel engine.

:class:`ConservativeSync` is the *policy* half of
:class:`~repro.core.parallel.ParallelSimulation` — it decides when
ranks may run and how far, while an
:class:`~repro.core.backends.ExecutionBackend` decides where the rank
kernels execute.  It is SST's barrier-epoch protocol:

* **lookahead** — the smallest latency of any cross-rank link.  An
  event executed at ``t >= gmin`` cannot affect another rank before
  ``t + lookahead``, so every rank may run through
  ``gmin + lookahead - 1`` without coordination.
* **window** — that bound is the floor.  Each epoch the window widens
  from each rank's *earliest-possible-send bound*: the earliest time
  rank ``r`` could execute anything (its queued ``next_time`` or this
  epoch's earliest delivery to it) plus the smallest latency of any
  cross-rank link ``r`` can send on.  No send can arrive before
  ``min`` of those bounds, so the window runs to ``min(bounds) - 1`` —
  never narrower than ``gmin + lookahead - 1``.
* **exchange** — cross-rank sends accumulate as outbox entries
  ``(time, priority, link_id, dest_rank, send_seq, event)``; before
  each epoch they are sorted on the global deterministic key
  ``(time, priority, link_id, send_seq)`` and split per destination
  rank, so the receiving queue's tie-breaking is independent of rank
  execution order — and therefore of the execution backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from . import units
from .units import SimTime

_INF = float("inf")

#: One cross-rank send in flight:
#: ``(time, priority, link_id, dest_rank, send_seq, event)``.
OutboxEntry = Tuple[SimTime, int, int, int, int, Any]


class ConservativeSync:
    """SST's conservative barrier-epoch protocol as a policy object.

    Owns the lookahead bound, the per-rank earliest-send bounds that
    widen each window, the set of in-flight cross-rank sends, the
    global earliest-work computation and the deterministic exchange
    ordering.  The engine's run loop asks this object for the next
    window and feeds back each epoch's
    :class:`~repro.core.backends.RankStep` results via :meth:`absorb`.

    Widening never changes *what* runs: the exchange key and
    per-destination ordering are fixed, and a pending send collapses
    the bound back to the boundary before its arrival, so a widened
    window only skips exchanges that would have been empty.
    """

    name = "conservative"

    def __init__(self) -> None:
        self._lookahead: Optional[SimTime] = None
        #: per-rank min latency among the rank's *outgoing* cross links
        self._min_out: Dict[int, SimTime] = {}
        #: undelivered cross-rank sends, keyed by destination rank
        #: (setup-time sends land here before the first epoch; epoch
        #: outboxes via absorb()).  Kept per destination so the exchange
        #: sort and the frame writes are one batch per receiving rank.
        self.pending: Dict[int, List[OutboxEntry]] = {}
        #: per-rank earliest queued event, refreshed each epoch.
        self.next_times: List[Optional[SimTime]] = []
        #: per-rank earliest entry time delivered by this epoch's
        #: exchange (next_times is refreshed only at absorb(), so the
        #: deliveries are the one piece of "new earliest work" the
        #: window computation would otherwise miss).
        self._delivered_min: Dict[int, SimTime] = {}
        #: how often / how far the earliest-send bound beat the
        #: lookahead window (ps of extra width), for describe().
        self.windows_widened = 0
        self.widened_ps = 0

    # ------------------------------------------------------------------
    # lookahead
    # ------------------------------------------------------------------
    def note_cross_link(self, latency: SimTime, rank_a: int,
                        rank_b: int) -> None:
        """Observe a new rank-crossing link between two ranks."""
        if self._lookahead is None or latency < self._lookahead:
            self._lookahead = latency
        # Links are bidirectional: either endpoint rank may send on it.
        for rank in (rank_a, rank_b):
            current = self._min_out.get(rank)
            if current is None or latency < current:
                self._min_out[rank] = latency

    @property
    def lookahead(self) -> SimTime:
        """Conservative sync window: min latency among cross-rank links.

        With no cross-rank links the ranks are independent and the
        window is unbounded (represented as a large constant).
        """
        return self._lookahead if self._lookahead is not None else units.PS_PER_SEC

    def describe(self) -> Dict[str, Any]:
        """Self-description embedded in telemetry streams and manifests.

        Post-hoc tools (``python -m repro obs``) read this back from run
        artifacts to label sync lanes and normalize epoch windows, so
        the keys are part of the telemetry schema.
        """
        return {"strategy": self.name, "lookahead_ps": self.lookahead,
                "windows_widened": self.windows_widened,
                "widened_ps": self.widened_ps}

    # ------------------------------------------------------------------
    # epoch-window computation
    # ------------------------------------------------------------------
    def add_pending(self, entries: List[OutboxEntry]) -> None:
        """Queue cross-rank sends awaiting delivery."""
        pending = self.pending
        for entry in entries:
            dest = entry[3]
            bucket = pending.get(dest)
            if bucket is None:
                pending[dest] = [entry]
            else:
                bucket.append(entry)

    def global_min(self) -> float:
        """Earliest pending work anywhere: queued events or undelivered sends."""
        lowest: float = _INF
        for t in self.next_times:
            if t is not None and t < lowest:
                lowest = t
        for bucket in self.pending.values():
            for entry in bucket:
                if entry[0] < lowest:
                    lowest = entry[0]
        return lowest

    def window_end(self, global_min: SimTime,
                   limit: Optional[SimTime]) -> SimTime:
        """Inclusive end of the next safe window.

        ``min over ranks of (t_r + min_out_r) - 1``, where ``t_r`` is the
        earliest time rank ``r`` can execute anything, clamped below by
        ``gmin + lookahead - 1`` (the bound can only be *wider*:
        ``t_r >= gmin`` and ``min_out_r >= lookahead``).  Ranks with no
        outgoing cross-rank links never constrain the window.
        """
        conservative = int(global_min) + self.lookahead - 1
        next_times = self.next_times
        delivered = self._delivered_min
        bound: float = _INF
        for rank, out_latency in self._min_out.items():
            queued = next_times[rank] if rank < len(next_times) else None
            earliest: float = queued if queued is not None else _INF
            arrived = delivered.get(rank)
            if arrived is not None and arrived < earliest:
                earliest = arrived
            if earliest + out_latency < bound:
                bound = earliest + out_latency
        if bound == _INF:
            # No rank can ever send: ranks are (currently) independent,
            # same unbounded-window convention as the no-cross-link case.
            bound = int(global_min) + units.PS_PER_SEC
        end = max(conservative, int(bound) - 1)
        if limit is not None:
            conservative = min(conservative, limit)
            end = min(end, limit)
        if end > conservative:
            self.windows_widened += 1
            self.widened_ps += end - conservative
        return end

    # ------------------------------------------------------------------
    # cross-rank exchange
    # ------------------------------------------------------------------
    def exchange(self, num_ranks: int) -> Tuple[List[List[OutboxEntry]], int]:
        """Deterministically order pending sends, split per destination.

        Entries are sorted on the global ``(time, priority, link_id,
        send_seq)`` key inside each destination list, so the receiving
        queue assigns local sequence numbers in a backend-independent
        order.  Sorting each destination bucket separately is equivalent
        to the historical sort-then-split of one flat list: splitting is
        stable, so the per-destination order of a globally sorted list
        is exactly the bucket sorted on the same key.
        """
        deliveries: List[List[OutboxEntry]] = [[] for _ in range(num_ranks)]
        delivered = self._delivered_min
        delivered.clear()
        if not self.pending:
            return deliveries, 0
        exchanged = 0
        for dest, bucket in self.pending.items():
            bucket.sort(key=lambda e: (e[0], e[1], e[2], e[4]))
            deliveries[dest] = bucket
            exchanged += len(bucket)
            # sorted by (time, ...): the first entry is the earliest
            delivered[dest] = bucket[0][0]
        self.pending = {}
        return deliveries, exchanged

    def absorb(self, steps) -> None:
        """Fold one epoch's per-rank results back into the policy state.

        ``step.outbox`` is per destination rank (see
        :class:`~repro.core.backends.RankStep`); buckets merge into the
        matching pending bucket.
        """
        self.next_times = [step.next_time for step in steps]
        pending = self.pending
        for step in steps:
            outbox = step.outbox
            if not outbox:
                continue
            for dest, entries in enumerate(outbox):
                if not entries:
                    continue
                bucket = pending.get(dest)
                if bucket is None:
                    pending[dest] = list(entries)
                else:
                    bucket.extend(entries)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def export_pending(self, cross_links: Dict[int, Any]) -> List[Tuple]:
        """Undelivered cross-rank sends in a partitioning-portable form.

        `repro.ckpt` snapshots at epoch boundaries (after outboxes were
        absorbed), so ``pending`` is exactly the set of sends the next
        epoch's exchange would deliver.  Link ids are partition-local,
        so each entry also names its target ``(component, port)`` —
        identity that survives restoring onto a different rank count.
        Returns tuples ``(time, priority, link_id, dest_component,
        dest_port, send_seq, event)``.
        """
        exported: List[Tuple] = []
        for dest_rank, bucket in sorted(self.pending.items()):
            for (time, priority, link_id, dest, send_seq, event) in bucket:
                xlink = cross_links[link_id]
                port = xlink.port_b if dest == xlink.rank_b else xlink.port_a
                exported.append((time, priority, link_id,
                                 port.component.name, port.name,
                                 send_seq, event))
        return exported
