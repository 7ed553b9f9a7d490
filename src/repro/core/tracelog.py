"""Event-trace logging (the debug facility).

Attaching an :class:`EventTraceLog` to a simulation records one line per
executed event — timestamp, the component+port (or clock/callback) the
handler belongs to, and the event's type — optionally filtered by
component-name glob.  This is the "what is my model actually doing"
tool (SST's ``--debug`` output plays the same role), and the CLI exposes
it as ``python -m repro run ... --trace events.log``.

The observer costs nothing when not installed: the engine's hot loop
checks a single ``is not None``.
"""

from __future__ import annotations

import fnmatch
import io
from pathlib import Path
from typing import IO, List, Optional, Tuple, Union

from .clock import Clock
from .link import port_of
from .simulation import Simulation
from .units import SimTime


def describe_handler(handler) -> str:
    """Human-readable identity of an event handler.

    A :class:`~repro.core.clock.Clock` — what observers are handed for
    each member tick its arbiter fires — becomes ``clock:<name>``.  A
    handler bound to a port (what a link event's queue entry carries)
    becomes ``component.port``, as does a port's no-handler stub.
    Other bound methods resolve to their owner: a component method
    becomes ``component.method``.
    """
    if handler is None:
        return "<none>"
    if type(handler) is Clock:
        return f"clock:{handler.name}"
    port = port_of(handler)
    if port is not None:
        return port.full_name()
    owner = getattr(handler, "__self__", None)
    name = getattr(handler, "__name__", repr(handler))
    if owner is None:
        return name
    type_name = type(owner).__name__
    if type_name == "Port":
        return owner.full_name()
    if type_name == "ClockArbiter":
        return f"arbiter:{owner.name}"
    owner_name = getattr(owner, "name", type_name)
    return f"{owner_name}.{name}"


class EventTraceLog:
    """A filtering per-event trace writer.

    Parameters
    ----------
    sim:
        The simulation to observe (installs itself via
        ``add_trace_observer``).
    sink:
        A path (opened for writing) or an open text stream.  ``None``
        keeps records in memory only (``records``).
    component_filter:
        Glob matched against the handler description; only matching
        events are recorded.
    max_records:
        Stop recording (but keep counting) beyond this many lines —
        traces of busy simulations get large fast.  ``matched_events``
        keeps counting every filter hit while ``records_written`` stops
        at the cap; a truncated file sink gets a trailing
        ``... truncated (N matched, M recorded)`` marker on detach.
    """

    def __init__(self, sim: Simulation, sink: Union[str, Path, IO[str], None] = None,
                 *, component_filter: str = "*", max_records: int = 1_000_000):
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.sim = sim
        self.component_filter = component_filter
        self.max_records = max_records
        self.records: List[Tuple[SimTime, str, str]] = []
        self.total_events = 0
        #: events that passed the component filter (counted past the cap)
        self.matched_events = 0
        #: records actually written/stored (capped at ``max_records``)
        self.records_written = 0
        self._owns_sink = False
        self._attached = False
        if sink is None:
            self._sink: Optional[IO[str]] = None
        elif isinstance(sink, (str, Path)):
            self._sink = open(sink, "w", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
        sim.add_trace_observer(self._observe)
        self._attached = True

    @property
    def truncated(self) -> bool:
        return self.matched_events > self.records_written

    def _observe(self, time: SimTime, handler, event) -> None:
        self.total_events += 1
        target = describe_handler(handler)
        if not fnmatch.fnmatch(target, self.component_filter):
            return
        self.matched_events += 1
        if self.records_written >= self.max_records:
            return
        self.records_written += 1
        event_name = type(event).__name__ if event is not None else "-"
        if self._sink is not None:
            self._sink.write(f"{time:>14} {target:<40} {event_name}\n")
        else:
            self.records.append((time, target, event_name))

    def detach(self) -> None:
        """Stop observing and flush/close an owned sink."""
        was_attached = self._attached
        if was_attached:
            self.sim.remove_trace_observer(self._observe)
            self._attached = False
        if self._sink is not None:
            if was_attached and self.truncated:
                self._sink.write(
                    f"... truncated ({self.matched_events} matched, "
                    f"{self.records_written} recorded)\n"
                )
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
                self._sink = None

    def __enter__(self) -> "EventTraceLog":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()
