"""Causal event tracing: opt-in provenance capture for the engine.

Every dispatched event gets a *node id* ``(rank, seq)`` — the queue's
insertion sequence is already part of the determinism contract (see
``tests/unit/test_determinism.py``), which makes the id stable across
backends.  While a handler runs, every event it schedules is mapped
to the running event's seq in the queue proxy's ``{seq: cause}`` map,
and the entry is popped from the map when the scheduled event
dispatches.  Link sends push onto the heap without going through
``sim._queue``, so the tracer re-targets every local link endpoint
(``set_remote``) at a sender that pushes through the proxy; cross-rank
link sends are recorded with their
``(src_rank, send_seq)`` identity so the receiving rank can stitch the
edge back together at analysis time.  The result is a causality DAG on
disk — per-rank JSONL shards next to the metrics stream — that
:mod:`repro.obs.critpath` walks backward to produce the simulated
critical path.

Capture is **off by default** and rides the *instrumented* dispatch
path (:meth:`Simulation._rebuild_instr`): the bare hot loop is
untouched, and the only hot-path cost when tracing is an interned-table
lookup plus a list append per event (see ``benchmarks/bench_engine_causal.py``,
ENG-6).

Shard layout (schema ``repro-causal/2``), one file per rank at
``<base>.causal.rank<k>``:

* ``causal_start`` — rank identity plus the cross-rank link table.
* ``causal_nodes`` — batched rows ``[seq, time_ps, priority, cause,
  comp, evt]`` (``comp``/``evt`` index the tables in ``causal_end``).
* ``causal_send`` — batched rows ``[cause, link_id, send_seq,
  deliver_ps]`` for cross-rank sends leaving this rank.
* ``causal_recv`` — batched rows ``[seq, link_id, send_seq,
  deliver_ps]`` for cross-rank arrivals (``seq`` is the local node the
  arrival became).  Link events all have priority ``PRIORITY_EVENT``,
  so neither row carries one.
* ``causal_end`` — totals plus the interned ``components``
  (``[name, class]`` pairs) and ``events`` (class names) tables.

Attachment paths:

* a plain :class:`Simulation` — :class:`CausalCapture` wraps it
  directly (rank 0 shard);
* a :class:`ParallelSimulation`, on every backend — the capture request
  travels on the :class:`~repro.obs.rank_stream.RankStreamPlan`
  (``causal_base``) and each rank's
  :class:`~repro.obs.rank_stream.RankRecorder` owns its tracer where
  the rank runs.

Setup-time cross-rank sends (a component's ``setup()`` emitting before
any event has dispatched) are causal *roots*: they happen before the
rank recorders attach, so no send row is written for them — the
receiving rank's join finds nothing and treats the arrival as a root.
The shards, and so the critical paths, are the same on both backends.
"""

from __future__ import annotations

import glob
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.event import PRIORITY_EVENT
from ..core.link import port_of
from ..core.parallel import ParallelSimulation
from ..core.simulation import Simulation
from .profiler import attribute_event

#: schema tag stamped on every causal shard's start record
CAUSAL_SCHEMA = "repro-causal/2"

#: rows buffered before a batch record is written
_FLUSH_ROWS = 4096


def causal_shard_path(base: Union[str, Path], rank: int) -> Path:
    """Per-rank causal shard path: ``<base>.causal.rank<k>``."""
    base = Path(base)
    return base.with_name(f"{base.name}.causal.rank{rank}")


def find_causal_shards(base: Union[str, Path]) -> Dict[int, Path]:
    """All ``<base>.causal.rank*`` shards, keyed by rank."""
    base = Path(base)
    shards: Dict[int, Path] = {}
    for match in glob.glob(str(base.with_name(base.name + ".causal.rank")) + "*"):
        suffix = match.rsplit(".rank", 1)[-1]
        try:
            shards[int(suffix)] = Path(match)
        except ValueError:
            continue
    return shards


class _TracedQueue:
    """Provenance-mapping proxy over the rank's pending-event set.

    The concrete queue uses ``__slots__`` (hot-path layout), so the
    tracer cannot monkeypatch ``push``; instead the tracer swaps
    ``sim._queue`` for this proxy.  ``pop_entry``/``unpop``/``peek_time``
    and the link endpoints' ``push_entry``/``next_seq`` are re-bound
    from the inner queue as instance attributes, so the kernel loops —
    which hoist those callables — pay nothing extra and the inner queue
    stays the one owner of the seq counter; only ``push``
    (schedule-time, not dispatch-time) takes the detour to map the new
    entry's seq to the tracer's one-slot cause cell.  Roots (cause
    ``None``) get no map entry; :meth:`CausalTracer.on_dispatch` pops
    each entry's cause, so a drained run leaves the map empty.
    """

    __slots__ = ("_inner", "_cell", "causes", "pop_entry", "unpop",
                 "peek_time", "push_entry", "next_seq")

    def __init__(self, inner, cell: List[Optional[int]]):
        self._inner = inner
        self._cell = cell
        #: seq of a pending entry -> seq of the event that scheduled it
        self.causes: Dict[int, int] = {}
        self.pop_entry = inner.pop_entry
        self.unpop = inner.unpop
        self.peek_time = inner.peek_time
        self.push_entry = inner.push_entry
        self.next_seq = inner.next_seq

    def push(self, time, priority, handler, event) -> int:
        seq = self._inner.push(time, priority, handler, event)
        cause = self._cell[0]
        if cause is not None:
            self.causes[seq] = cause
        return seq

    def pop(self):
        return self._inner.pop()

    @property
    def seq(self) -> int:
        return self._inner.seq

    def snapshot_records(self):
        return self._inner.snapshot_records()

    def restore_records(self, records, seq) -> None:
        self._inner.restore_records(records, seq)

    def __len__(self) -> int:
        return len(self._inner)

    def __bool__(self) -> bool:
        return len(self._inner) > 0


class CausalTracer:
    """Per-rank capture: node rows, cross-rank send/recv rows, shard IO.

    Duck-typed against :attr:`Simulation._causal` — the instrumented
    dispatcher calls :meth:`on_dispatch` before each handler and resets
    :attr:`cell` after it; :func:`repro.core.backends.deliver_cross_rank`
    calls :meth:`on_cross_recv` for stitched arrivals.
    """

    def __init__(self, sim: Simulation, base: Union[str, Path], *,
                 psim: Optional[ParallelSimulation] = None):
        self.sim = sim
        self.rank = sim.rank
        self.path = causal_shard_path(base, self.rank)
        #: one-slot cell holding the seq of the event being dispatched
        #: (None between events) — read by the queue proxy on every push.
        self.cell: List[Optional[int]] = [None]
        self._nodes: List[list] = []
        self._sends: List[list] = []
        self._recvs: List[list] = []
        self._counts = {"nodes": 0, "sends": 0, "recvs": 0}
        # Interned attribution tables.  The per-dispatch cache is keyed
        # by the id of the handler's port, else of its owner object
        # (bound-method objects are created fresh per push, so their own
        # ids recycle); keys are pinned in _pins so a cached id can never
        # be reused by a new object.
        self._comp_cache: Dict[int, int] = {}
        self._comp_index: Dict[Tuple[str, str], int] = {}
        self._comps: List[Tuple[str, str]] = []
        self._evt_cache: Dict[type, int] = {}
        self._evts: List[str] = []
        self._pins: List[Any] = []
        self._wrapped: List[tuple] = []
        self._closed = False

        links: Dict[str, Dict[str, Any]] = {}
        if psim is not None:
            for link_id, xlink in psim._cross_links.items():
                links[str(link_id)] = {
                    "name": xlink.name,
                    "latency_ps": xlink.latency,
                    "rank_a": xlink.rank_a,
                    "rank_b": xlink.rank_b,
                }
        self._file = open(self.path, "w", encoding="utf-8")
        self._write({
            "schema": CAUSAL_SCHEMA,
            "kind": "causal_start",
            "rank": self.rank,
            "ranks": sim.num_ranks,
            "links": links,
        })

        # Splice into the engine: queue proxy + instrumented dispatch.
        self._inner_queue = sim._queue
        sim._queue = _TracedQueue(self._inner_queue, self.cell)
        self._causes = sim._queue.causes
        sim._causal = self
        sim._rebuild_instr()
        self._wrap_local_endpoints()
        if psim is not None:
            self._wrap_cross_endpoints(psim)

    # -- capture hooks -------------------------------------------------
    def on_dispatch(self, entry) -> None:
        """Record the node for the raw queue ``entry`` and arm the cause
        cell."""
        time, priority, seq, handler, event = entry
        # Attribution: cache by the handler's port or owner object when
        # there is one (a timer's handler is its scheduled callback).
        owner = port_of(handler) or getattr(handler, "__self__", None)
        if owner is not None:
            key = id(owner)
            comp_idx = self._comp_cache.get(key)
            if comp_idx is None:
                comp_idx = self._intern_component(handler)
                self._comp_cache[key] = comp_idx
                self._pins.append(owner)
        else:
            comp_idx = self._intern_component(handler)
        etype = type(event)
        evt_idx = self._evt_cache.get(etype)
        if evt_idx is None:
            evt_idx = len(self._evts)
            self._evts.append(etype.__name__ if event is not None else "-")
            self._evt_cache[etype] = evt_idx
        self._nodes.append([seq, time, priority, self._causes.pop(seq, None),
                            comp_idx, evt_idx])
        self.cell[0] = seq
        if len(self._nodes) >= _FLUSH_ROWS:
            self.flush()

    def on_cross_recv(self, seq: int, link_id: int, send_seq: int,
                      when) -> None:
        """Record a cross-rank arrival that became local node ``seq``."""
        self._recvs.append([seq, link_id, send_seq, when])
        if len(self._recvs) >= _FLUSH_ROWS:
            self.flush()

    def _intern_component(self, handler) -> int:
        name, _label = attribute_event(handler)
        comp = self.sim._components.get(name)
        cls = type(comp).__name__ if comp is not None else name
        key = (name, cls)
        idx = self._comp_index.get(key)
        if idx is None:
            idx = len(self._comps)
            self._comps.append(key)
            self._comp_index[key] = idx
        return idx

    # -- link send capture ---------------------------------------------
    def _wrap_local_endpoints(self) -> None:
        """Re-target this rank's local link endpoints at the queue proxy.

        A bare endpoint pushes onto the heap itself, which the proxy
        would not see; the wrapper pushes the same entry through
        ``proxy.push`` so the new seq maps to the cause cell.
        """
        push = self.sim._queue.push
        for comp in self.sim._components.values():
            for port in comp._ports.values():
                endpoint = port.endpoint
                if endpoint is None or endpoint._remote_send is not None:
                    continue

                def traced(when, event, *, _peer=endpoint.peer_port):
                    push(when, PRIORITY_EVENT, _peer.handler, event)

                endpoint.set_remote(traced)
                self._wrapped.append((endpoint, None))

    def _wrap_cross_endpoints(self, psim: ParallelSimulation) -> None:
        """Interpose on this rank's outbound cross-rank senders.

        The wrapper reads the rank's send-seq cell *before* delegating —
        that is exactly the ``send_seq`` the original sender assigns —
        so the recorded row joins with the receiver's ``causal_recv``.
        """
        rank = self.rank
        seq_cell = psim._send_seq[rank]
        cell = self.cell
        sends = self._sends
        for link_id, _xlink, endpoint in psim.cross_endpoints(rank):
            original = endpoint._remote_send
            if original is None:
                continue

            def traced(when, event, *, _orig=original, _link_id=link_id):
                sends.append([cell[0], _link_id, seq_cell[0], when])
                _orig(when, event)

            endpoint.set_remote(traced)
            self._wrapped.append((endpoint, original))

    # -- shard IO ------------------------------------------------------
    def _write(self, record: Dict[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")

    def flush(self) -> None:
        """Drain buffered rows into batch records on the shard.

        Buffers are cleared *in place* — the endpoint send wrappers hold
        a reference to the send buffer, so rebinding would orphan it.
        """
        for kind, key, rows in (("causal_nodes", "nodes", self._nodes),
                                ("causal_send", "sends", self._sends),
                                ("causal_recv", "recvs", self._recvs)):
            if rows:
                self._write({"kind": kind, "rank": self.rank, "rows": rows})
                self._counts[key] += len(rows)
                del rows[:]
        self._file.flush()

    def close(self) -> None:
        """Finalize the shard and detach from the engine."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        self._write({
            "kind": "causal_end",
            "rank": self.rank,
            "nodes": self._counts["nodes"],
            "sends": self._counts["sends"],
            "recvs": self._counts["recvs"],
            "components": [list(pair) for pair in self._comps],
            "events": list(self._evts),
        })
        self._file.close()
        # Detach: restore the bare queue and dispatch path.
        sim = self.sim
        if getattr(sim._queue, "_inner", None) is self._inner_queue:
            sim._queue = self._inner_queue
        if sim._causal is self:
            sim._causal = None
            sim._rebuild_instr()
        for endpoint, original in self._wrapped:
            endpoint.set_remote(original)
        self._wrapped = []


class CausalCapture:
    """Attach causal tracing to any simulation shape.

    Usage mirrors the other observability instruments::

        capture = CausalCapture(base).attach(target)
        result = target.run(...)
        capture.close()

    ``base`` is typically the metrics path (the shards then sit next to
    the rank-stream shards); any path works.  On a parallel run the
    request rides the rank plan and each rank's recorder writes its own
    shard — :meth:`close` then only clears the plan field.
    """

    def __init__(self, base: Union[str, Path]):
        self.base = Path(base)
        self._tracer: Optional[CausalTracer] = None
        self._plan = None

    def attach(self, target: Union[Simulation, ParallelSimulation]) -> "CausalCapture":
        if isinstance(target, ParallelSimulation):
            from .rank_stream import ensure_rank_plan

            self._plan = ensure_rank_plan(target)
            self._plan.causal_base = str(self.base)
        else:
            self._tracer = CausalTracer(target, self.base)
        return self

    def close(self) -> "CausalCapture":
        if self._tracer is not None:
            self._tracer.close()
            self._tracer = None
        if self._plan is not None:
            self._plan.causal_base = None
            self._plan = None
        return self

    def shard_paths(self) -> List[Path]:
        """The causal shards written for this base (post-run)."""
        return [path for _rank, path in sorted(find_causal_shards(self.base).items())]
