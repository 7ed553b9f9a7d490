"""Links: the only way components communicate.

SST's central architectural invariant — preserved here — is that
components interact *exclusively* by sending events over links, and
every link has a non-zero minimum latency.  Because a component cannot
affect another in less than the link latency, a partition of the
component graph can be simulated conservatively in parallel with a
lookahead equal to the smallest latency of any partition-crossing link
(see :mod:`repro.core.parallel`).

A :class:`Link` joins two :class:`Port` objects.  Components call
``self.send(port_name, event)``; delivery happens at
``now + link.latency + extra_delay`` by invoking the handler the
receiving port had bound when the event was sent.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from .event import PRIORITY_EVENT, Event
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .component import Component
    from .simulation import Simulation


class LinkError(RuntimeError):
    """Misuse of the link/port API (unconnected port, double connect...)."""


class Port:
    """A named attachment point on a component.

    Created lazily by :meth:`Component.port`; joined to a peer by
    :meth:`Simulation.connect`.  An event carries the handler its port
    had bound when the event was *sent*: the queue entry holds that
    handler itself, so a delivery is one call with no port in between.
    Every library model therefore binds its handlers in ``__init__``;
    a port with no handler holds a stub that raises :class:`LinkError`
    naming the port.
    """

    __slots__ = ("component", "name", "endpoint", "handler", "__weakref__")

    def __init__(self, component: "Component", name: str):
        self.component = component
        self.name = name
        self.endpoint: Optional[LinkEndpoint] = None
        #: What an event arriving here runs: the bound handler, or the
        #: stub raising LinkError.  Assign through :meth:`bind`.
        self.handler: Callable[[Event], None] = self._unhandled

    def bind(self, handler: Optional[Callable[[Event], None]]) -> None:
        """Make ``handler`` this port's handler (None: back to the stub).

        Keeps :func:`port_of` current.  A callable already bound to a
        port gets a C-level ``partial`` wrapper of its own, so every
        bound handler maps back to exactly one port.
        """
        old = self.handler
        if id(old) in _BOUND and port_of(old) is self:
            del _BOUND[id(old)]
        if handler is None:
            self.handler = self._unhandled
            return
        if port_of(handler) is not None:
            handler = partial(handler)
        self.handler = handler
        if getattr(handler, "__self__", None) is not self.component:
            key = id(handler)
            _BOUND[key] = weakref.ref(self, partial(_forget, key))

    def _unhandled(self, event: Event) -> None:
        raise LinkError(
            f"event arrived at port {self.full_name()!r} but no handler is registered"
        )

    @property
    def connected(self) -> bool:
        return self.endpoint is not None

    def full_name(self) -> str:
        return f"{self.component.name}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "connected" if self.connected else "unconnected"
        return f"Port({self.full_name()}, {state})"


#: ``id(handler) -> weak reference to its port`` for bound handlers that
#: are not methods of the port's own component: per-index closures
#: (``memory.SharedBus``'s ``cpu<i>``), validation wrappers, partials.
#: A port keeps its handler alive, so the id cannot be reused while the
#: port holds it; an entry leaves when its port rebinds or dies.
_BOUND: "Dict[int, weakref.ref[Port]]" = {}


def _forget(key: int, ref: "weakref.ref[Port]") -> None:
    """Weakref callback: drop ``key`` if it still names the dead port."""
    if _BOUND.get(key) is ref:
        del _BOUND[key]


def port_of(handler: Any) -> Optional[Port]:
    """The port ``handler`` is bound to, or None (a stub, a clock, a
    callback...).

    Queue entries carry bare handlers; labels (``describe_handler``, the
    profiler's ``port:<name>``) and checkpoint rank homing map them back
    through here.  A method of a component is found among that
    component's ports, anything else through ``_BOUND``.
    """
    ports = getattr(getattr(handler, "__self__", None), "_ports", None)
    if ports is not None:
        for port in ports.values():
            if port.handler is handler:
                return port
    ref = _BOUND.get(id(handler))
    port = ref() if ref is not None else None
    return port if port is not None and port.handler is handler else None


class LinkEndpoint:
    """One side of a link: knows how to deliver to the *other* side.

    ``send`` pushes the entry straight onto the owning simulation's
    heap, through the queue's C-level push and sequence source bound
    once here.  When the peer lives on another parallel rank, the
    endpoint is re-targeted by the parallel engine (``set_remote``) and
    sends go to the rank outbox instead.
    """

    __slots__ = ("link", "latency", "local_port", "peer_port", "_sim",
                 "_remote_send", "_push_entry", "_next_seq")

    def __init__(self, link: "Link", local_port: Port, sim: "Simulation"):
        self.link = link
        #: the link's latency, held here so a send reads one slot
        self.latency: SimTime = link.latency
        self.local_port = local_port
        self.peer_port: Optional[Port] = None
        self._sim = sim
        # Callable(time, priority, event) used instead of the local queue
        # when the peer is on a different rank.
        self._remote_send: Optional[Callable[[SimTime, int, Event], None]] = None
        queue = sim._queue
        self._push_entry = queue.push_entry
        self._next_seq = queue.next_seq

    def send(self, event: Event, extra_delay: SimTime = 0,
             priority: int = PRIORITY_EVENT) -> SimTime:
        """Schedule ``event`` for the peer at ``now + latency + extra_delay``.

        Returns the delivery time.
        """
        if extra_delay < 0:
            raise LinkError("extra_delay must be non-negative")
        when = self._sim.now + self.latency + extra_delay
        remote = self._remote_send
        if remote is None:
            # latency >= 1 and extra_delay >= 0 guarantee when > now, so
            # no past-check; the queue keeps sole ownership of the seq.
            self._push_entry((when, priority, self._next_seq(),
                              self.peer_port.handler, event))
        else:
            remote(when, priority, event)
        return when

    def set_remote(self, sender: Optional[Callable[[SimTime, int, Event], None]]) -> None:
        """Re-target sends to ``sender`` (or back to a saved one).

        The parallel engine points cross-rank endpoints at the rank
        outbox; the causal tracer (:mod:`repro.obs.causal`) wraps every
        endpoint's sender to record provenance, restoring the original
        (``None`` for a local endpoint) on detach via this same method.
        """
        self._remote_send = sender


class Link:
    """A bidirectional, latency-bearing connection between two ports."""

    __slots__ = ("name", "latency", "endpoints")

    def __init__(self, name: str, latency: SimTime):
        if latency <= 0:
            raise LinkError(
                f"link {name!r}: latency must be >= 1 ps — zero-latency links break "
                "conservative parallel simulation (DESIGN.md, key invariants)"
            )
        self.name = name
        self.latency = latency
        self.endpoints: list[LinkEndpoint] = []

    @staticmethod
    def connect(name: str, latency: SimTime, port_a: Port, port_b: Port,
                sim_a: "Simulation", sim_b: Optional["Simulation"] = None) -> "Link":
        """Wire two ports together (possibly on different rank simulations)."""
        if port_a.connected:
            raise LinkError(f"port {port_a.full_name()!r} is already connected")
        if port_b.connected:
            raise LinkError(f"port {port_b.full_name()!r} is already connected")
        if port_a is port_b:
            raise LinkError(f"cannot connect port {port_a.full_name()!r} to itself")
        link = Link(name, latency)
        end_a = LinkEndpoint(link, port_a, sim_a)
        end_b = LinkEndpoint(link, port_b, sim_b if sim_b is not None else sim_a)
        end_a.peer_port = port_b
        end_b.peer_port = port_a
        port_a.endpoint = end_a
        port_b.endpoint = end_b
        link.endpoints = [end_a, end_b]
        return link

    @staticmethod
    def self_loop(name: str, latency: SimTime, port: Port, sim: "Simulation") -> "Link":
        """A self-link: events a component sends to itself after a delay.

        SST components use self-links as programmable timers; PySST also
        offers :meth:`Simulation.schedule_callback` for the same job.
        """
        if port.connected:
            raise LinkError(f"port {port.full_name()!r} is already connected")
        link = Link(name, latency)
        end = LinkEndpoint(link, port, sim)
        end.peer_port = port
        port.endpoint = end
        link.endpoints = [end]
        return link

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name!r}, latency={self.latency}ps)"
