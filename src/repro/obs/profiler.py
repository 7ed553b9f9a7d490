"""Event-loop profiler: where does the wall time of a run go?

:class:`HandlerProfiler` attaches to the engine's span-observer hook
(:meth:`Simulation.add_span_observer`) and attributes the measured
wall-clock duration of every handler invocation to a
``(component, handler, event type)`` triple.  The report answers the
question the end-of-run statistics cannot: which *simulated component*
(and which handler on it) the *simulator* spends its time in — the
"hot components" view that guides both model optimisation and
partitioning choices for parallel runs.

Overhead: two ``perf_counter()`` calls plus one dict update per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

from ..core.clock import Clock
from ..core.link import port_of
from ..core.parallel import ParallelSimulation
from ..core.simulation import Simulation


def attribute_event(handler) -> Tuple[str, str]:
    """Resolve an executed entry's handler to ``(component name, handler
    label)``.

    Port deliveries (the handler bound to the receiving port, or the
    port's no-handler stub) attribute to the receiving component as
    ``port:<name>``, clock ticks to the clock's owner, and scheduled
    timers (whose entry holds the scheduled callback itself) to the
    component whose bound method was scheduled.
    """
    if handler is None:
        return "<engine>", "<none>"
    if type(handler) is Clock:
        # A member tick: the arbiter reports the Clock as the handler.
        # Clock names are "<component>.clock" by convention.
        return handler.name.split(".", 1)[0], f"clock:{handler.name}"
    owner = port_of(handler) or getattr(handler, "__self__", None)
    name = getattr(handler, "__name__", repr(handler))
    if owner is None:
        return "<handler>", name
    type_name = type(owner).__name__
    if type_name == "Port":
        return owner.component.name, f"port:{owner.name}"
    if type_name == "ClockArbiter":
        # Seen only when an arbiter record itself is attributed (the
        # causal tracer's per-record nodes, a raw queue inspection);
        # observers are handed the member clocks instead.
        return "<engine>", f"arbiter:{owner.name}"
    return getattr(owner, "name", type_name), name


@dataclass
class ProfileRow:
    """One aggregated profile bucket."""

    component: str
    handler: str
    event_type: str
    rank: int
    count: int
    wall_seconds: float

    @property
    def mean_us(self) -> float:
        return self.wall_seconds / self.count * 1e6 if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "handler": self.handler,
            "event_type": self.event_type,
            "rank": self.rank,
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "mean_us": self.mean_us,
        }


def bucket_observer(buckets: Dict[Tuple[str, str, str], List[float]]):
    """A span observer that folds every handler invocation into
    ``buckets``: ``(component, handler, event type) -> [count, wall]``."""

    def observe(time, handler, event, wall_seconds) -> None:
        component, label = attribute_event(handler)
        key = (component, label,
               type(event).__name__ if event is not None else "-")
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [1, wall_seconds]
        else:
            bucket[0] += 1
            bucket[1] += wall_seconds

    return observe


class HandlerProfiler:
    """Attribute per-event wall time to components/handlers/event types.

    ``target`` is a :class:`Simulation` (the profiler attaches its span
    observer directly) or a :class:`ParallelSimulation` (it registers on
    the rank plan: every rank accumulates its buckets where it runs and
    they fold in at the end of the run; rows carry the rank index).
    """

    def __init__(self, target: Union[Simulation, ParallelSimulation]):
        self.target = target
        #: rank -> (component, handler, event_type) -> [count, wall]
        self._buckets: Dict[int, Dict[Tuple[str, str, str], List[float]]] = {}
        self._sim = None
        self._observer = None
        self._plan = None
        if isinstance(target, ParallelSimulation):
            from .rank_stream import ensure_rank_plan
            self._plan = ensure_rank_plan(target)
            self._plan.register_profiler(self)
        else:
            self._sim = target
            self._observer = bucket_observer(
                self._buckets.setdefault(target.rank, {}))
            target.add_span_observer(self._observer)

    def detach(self) -> None:
        if self._sim is not None:
            self._sim.remove_span_observer(self._observer)
            self._sim = None
        if self._plan is not None:
            self._plan.unregister_profiler(self)
            self._plan = None

    def absorb_remote_buckets(self, rank: int, buckets: Dict[Tuple[str, str, str],
                                                             List[float]]) -> None:
        """Merge one rank's ``(component, handler, event type)`` buckets,
        harvested at the end of a parallel run, into this profiler."""
        mine = self._buckets.setdefault(rank, {})
        for key, (count, wall) in buckets.items():
            bucket = mine.get(key)
            if bucket is None:
                mine[key] = [count, wall]
            else:
                bucket[0] += count
                bucket[1] += wall

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def rows(self) -> List[ProfileRow]:
        """All buckets, hottest (most wall time) first."""
        rows = [ProfileRow(component=component, handler=label,
                           event_type=event_type, rank=rank,
                           count=int(count), wall_seconds=wall)
                for rank, buckets in self._buckets.items()
                for (component, label, event_type), (count, wall)
                in buckets.items()]
        rows.sort(key=lambda r: r.wall_seconds, reverse=True)
        return rows

    def hot_components(self) -> List[Tuple[str, float, int]]:
        """``(component, wall_seconds, events)`` sorted hottest first."""
        agg: Dict[str, List[float]] = {}
        for row in self.rows():
            entry = agg.setdefault(row.component, [0.0, 0])
            entry[0] += row.wall_seconds
            entry[1] += row.count
        out = [(name, wall, int(count)) for name, (wall, count) in agg.items()]
        out.sort(key=lambda item: item[1], reverse=True)
        return out

    def hottest_component(self) -> str:
        hot = self.hot_components()
        return hot[0][0] if hot else "<idle>"

    def total_seconds(self) -> float:
        return sum(row.wall_seconds for row in self.rows())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_seconds": self.total_seconds(),
            "rows": [row.as_dict() for row in self.rows()],
            "hot_components": [
                {"component": c, "wall_seconds": w, "events": n}
                for c, w, n in self.hot_components()
            ],
        }

    def report(self, top: int = 15) -> str:
        """The sorted "hot components" table, ready to print."""
        rows = self.rows()
        total = sum(r.wall_seconds for r in rows) or 1.0
        lines = [
            f"{'component':<28} {'handler':<22} {'event':<16} "
            f"{'count':>9} {'wall ms':>9} {'mean us':>8} {'%':>6}"
        ]
        lines.append("-" * len(lines[0]))
        for row in rows[:top]:
            lines.append(
                f"{row.component:<28} {row.handler:<22} {row.event_type:<16} "
                f"{row.count:>9} {row.wall_seconds * 1e3:>9.2f} "
                f"{row.mean_us:>8.2f} {row.wall_seconds / total:>6.1%}"
            )
        if len(rows) > top:
            rest = sum(r.wall_seconds for r in rows[top:])
            lines.append(f"... {len(rows) - top} more buckets "
                         f"({rest * 1e3:.2f} ms, {rest / total:.1%})")
        return "\n".join(lines)

    def __enter__(self) -> "HandlerProfiler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()
