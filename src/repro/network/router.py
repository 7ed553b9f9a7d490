"""Message routers for the topologies the config layer generates.

One :class:`Router` class self-configures from the parameters the
topology builders (:mod:`repro.config.topology`) attach: ``kind``
selects the routing function, and the endpoint numbering convention
(endpoint *i* lives at router ``i // locals``, local port
``i % locals``) lets destination coordinates be computed arithmetically
— no routing tables.

Routing functions:

* **torus/mesh** — dimension-ordered; the torus picks the shorter wrap
  direction per dimension (minimal routing).
* **fat tree** — up to a deterministically chosen spine
  (``dest_leaf % spines``), down to the destination leaf.
* **crossbar** — direct output port.

Every kind but dragonfly routes on the destination alone, so
``on_message`` memoizes ``dest -> (out port, is_local, port.send)``
per router (``_routes``; a hop sends through the held ``send``), and
for every kind ``size -> transfer time`` at the router's one link
bandwidth (``_transfer``; ``bytes_time`` is a pure function of size
and bandwidth).  Neither memo is checkpointed: a restored router
refills them from its rebuilt links.

Per output port, messages serialise at ``link_bandwidth`` and pay
``hop_latency`` of pipeline delay (plus the config link's wire
latency).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime, bytes_time
from .message import NetMessage


def unflatten(index: int, dims: Tuple[int, ...]) -> Tuple[int, ...]:
    """Row-major index -> coordinates (last dimension fastest)."""
    coords = []
    for size in reversed(dims):
        coords.append(index % size)
        index //= size
    return tuple(reversed(coords))


def flatten(coords: Tuple[int, ...], dims: Tuple[int, ...]) -> int:
    index = 0
    for c, size in zip(coords, dims):
        index = index * size + c
    return index


def torus_step(here: int, there: int, size: int, wrap: bool) -> int:
    """Direction (-1, 0, +1) of the next minimal hop in one dimension."""
    if here == there:
        return 0
    forward = (there - here) % size
    backward = (here - there) % size
    if not wrap:
        return 1 if there > here else -1
    if forward <= backward:
        return 1
    return -1


@register("network.Router")
class Router(Component):
    """Topology-aware store-and-forward message router.

    Parameters (set by the topology builders): ``kind``
    ("torus"|"mesh"|"crossbar"|"fattree_leaf"|"fattree_spine"),
    ``dims`` ("4x4x4"), ``coords`` ("1,2,0"), ``locals``, ``leaves``,
    ``spines``, ``index``, ``link_bandwidth``, ``hop_latency``
    (default "10ns").

    Statistics: ``forwarded``, ``delivered``, ``bytes``,
    ``queue_wait_ps``.
    """

    # Port families are kind-dependent; all are declared optional and the
    # constructor binds the subset the topology actually uses.
    dim_pos = port("torus/mesh positive-direction neighbours",
                   name="dim<d>_pos", required=False, event=NetMessage)
    dim_neg = port("torus/mesh negative-direction neighbours",
                   name="dim<d>_neg", required=False, event=NetMessage)
    up = port("fat-tree leaf uplinks (one per spine)", name="up<j>",
              required=False, event=NetMessage)
    down = port("fat-tree spine downlinks (one per leaf)", name="down<i>",
                required=False, event=NetMessage)
    l = port("dragonfly intra-group links", name="l<j>",  # noqa: E741
             required=False, event=NetMessage)
    g = port("dragonfly global links", name="g<k>",
             required=False, event=NetMessage)
    local = port("endpoint attach points", name="local<i>",
                 required=False, event=NetMessage)

    _port_free = state(dict, doc="output port -> time it next frees up")
    _routes = state(dict, save=False,
                    doc="dest endpoint -> (out port, is_local, its "
                        "port's send), memoized route() results (not "
                        "dragonfly)")
    _transfer = state(dict, save=False,
                      doc="message size -> serialisation time at "
                          "link_bandwidth, memoized bytes_time()")

    s_forwarded = stat.counter(doc="messages sent to another router")
    s_delivered = stat.counter(doc="messages handed to a local endpoint")
    s_bytes = stat.counter(doc="message bytes through this router")
    s_queue_wait = stat.accumulator("queue_wait_ps",
                                    doc="output-port serialisation wait")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.kind = p.find_str("kind", "crossbar")
        self.locals_per_router = p.find_int("locals", 1)
        self.link_bw = p.find_bandwidth("link_bandwidth", "4.8GB/s")
        self.hop_latency = p.find_time("hop_latency", "10ns")
        # The topology builders hand every router the full shape
        # description; each kind deliberately reads only its slice.
        p.accept("leaves", "spines", "down_locals")

        if self.kind in ("torus", "mesh"):
            self.dims = tuple(int(d) for d in p.find_str("dims").split("x"))
            self.coords = tuple(int(c) for c in p.find_str("coords").split(","))
            if len(self.coords) != len(self.dims):
                raise ValueError(f"{name}: coords/dims rank mismatch")
            self.my_index = flatten(self.coords, self.dims)
            ports = []
            for d, size in enumerate(self.dims):
                if size > 1:
                    ports += [f"dim{d}_pos", f"dim{d}_neg"]
            ports += [f"local{i}" for i in range(self.locals_per_router)]
        elif self.kind in ("fattree_leaf", "fattree_spine"):
            # Both kinds set the same attributes in the same order, so
            # the spines, built after the leaves, share the leaves' key
            # table and keep their attribute values inline.
            leaf = self.kind == "fattree_leaf"
            index = p.find_int("index")
            self.leaf_index = index if leaf else -1
            self.spines = p.find_int("spines")
            # endpoints per leaf: leaves hold them as "locals"; spines
            # learn them from "down_locals" (builder default) or fall
            # back to 1.
            self.leaf_locals = p.find_int("down_locals", 0)
            if leaf:
                ports = [f"up{j}" for j in range(self.spines)]
                ports += [f"local{i}" for i in range(self.locals_per_router)]
            else:
                ports = [f"down{i}" for i in range(p.find_int("leaves"))]
        elif self.kind == "dragonfly":
            self.groups = p.find_int("groups")
            self.routers_per_group = p.find_int("routers_per_group")
            self.global_per_router = p.find_int("global_per_router")
            self.group = p.find_int("group")
            self.index = p.find_int("index")
            #: "minimal" | "valiant" — valiant sends each inter-group
            #: message through a random intermediate group, trading hop
            #: count for load balance on adversarial patterns.
            self.routing = p.find_str("routing", "minimal")
            if self.routing not in ("minimal", "valiant"):
                raise ValueError(f"{name}: unknown routing {self.routing!r}")
            ports = [f"l{j}" for j in range(self.routers_per_group)
                     if j != self.index]
            ports += [f"g{k}" for k in range(self.global_per_router)]
            ports += [f"local{i}" for i in range(self.locals_per_router)]
        elif self.kind == "crossbar":
            ports = [f"local{i}" for i in range(self.locals_per_router)]
        else:
            raise ValueError(f"{name}: unknown router kind {self.kind!r}")

        for port_name in ports:
            self.set_handler(port_name, self.on_message)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, dest_endpoint: int, event: Optional[NetMessage] = None) -> str:
        """Output port name for a destination endpoint index.

        ``event`` carries per-message routing state (Valiant's
        intermediate group) when the topology uses it.
        """
        if self.kind in ("torus", "mesh"):
            dest_router = dest_endpoint // self.locals_per_router
            if dest_router == self.my_index:
                return f"local{dest_endpoint % self.locals_per_router}"
            dest_coords = unflatten(dest_router, self.dims)
            wrap = self.kind == "torus"
            for d, size in enumerate(self.dims):
                step = torus_step(self.coords[d], dest_coords[d], size, wrap)
                if step == 0:
                    continue
                if size == 2:
                    # A 2-wide ring has a single physical link: the builder
                    # wires r(0).pos <-> r(1).neg, so the port to use is
                    # fixed by our own coordinate, not the direction.
                    return f"dim{d}_pos" if self.coords[d] == 0 else f"dim{d}_neg"
                return f"dim{d}_pos" if step > 0 else f"dim{d}_neg"
            raise AssertionError("unreachable: dest_router != my_index")
        if self.kind == "fattree_leaf":
            dest_leaf = dest_endpoint // self.locals_per_router
            if dest_leaf == self.leaf_index:
                return f"local{dest_endpoint % self.locals_per_router}"
            return f"up{dest_leaf % self.spines}"
        if self.kind == "fattree_spine":
            locals_per_leaf = self.leaf_locals or 1
            dest_leaf = dest_endpoint // locals_per_leaf
            return f"down{dest_leaf}"
        if self.kind == "dragonfly":
            return self._route_dragonfly(dest_endpoint, event)
        # crossbar
        return f"local{dest_endpoint}"

    def _route_dragonfly(self, dest_endpoint: int,
                         event: Optional[NetMessage] = None) -> str:
        """Dragonfly routing: minimal, or Valiant via a random group.

        Minimal: (local,) global, (local,) deliver — the global link
        toward an offset-``d`` group hangs off router ``(d-1)//h`` of
        this group (the builder's balanced wiring).

        Valiant: the ingress router draws a random intermediate group
        per message; the message routes minimally to that group first,
        then minimally to its destination — doubling worst-case hops
        but spreading adversarial traffic over all global links.
        """
        a, h, p = (self.routers_per_group, self.global_per_router,
                   self.locals_per_router)
        dest_router_global = dest_endpoint // p
        dest_group, dest_index = divmod(dest_router_global, a)

        if event is not None and self.routing == "valiant" \
                and dest_group != self.group:
            if event.via_group is None and event.hops == 0:
                # Ingress: pick the intermediate group (may be the
                # destination's own group = effectively minimal).
                choices = [g for g in range(self.groups) if g != self.group]
                event.via_group = int(self.rng.integers(0, len(choices)))
                event.via_group = choices[event.via_group]
            if event.via_group is not None and not event.via_done:
                if event.via_group == self.group:
                    event.via_done = True
                else:
                    return self._toward_group(event.via_group)
        elif event is not None and dest_group == self.group:
            event.via_done = True  # arrived via (or never needed) a detour

        if dest_group == self.group:
            if dest_index == self.index:
                return f"local{dest_endpoint % p}"
            return f"l{dest_index}"
        return self._toward_group(dest_group)

    def _toward_group(self, target_group: int) -> str:
        """Minimal next hop toward another group's gateway."""
        h = self.global_per_router
        d = (target_group - self.group) % self.groups
        gateway = (d - 1) // h
        if gateway == self.index:
            return f"g{(d - 1) % h}"
        return f"l{gateway}"

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def on_message(self, event) -> None:
        assert isinstance(event, NetMessage)
        dest = event.dest
        hop = self._routes.get(dest)
        if hop is None:
            out_port = self.route(dest, event)
            # an unconnected port's send is the stub raising LinkError
            hop = (out_port, out_port.startswith("local"),
                   self.port(out_port).send)
            # Dragonfly routing writes per-message state (via_done) and
            # Valiant draws from the RNG, so only the other kinds, whose
            # route depends on the destination alone, are memoized.
            if self.kind != "dragonfly":
                self._routes[dest] = hop
        out_port, is_local, send = hop
        now = self.sim.now
        start = now + self.hop_latency
        free = self._port_free.get(out_port, 0)
        if free > start:
            start = free
        self.s_queue_wait.add(start - now)
        size = event.size
        transfer = self._transfer.get(size)
        if transfer is None:
            transfer = self._transfer[size] = bytes_time(size, self.link_bw)
        done = start + transfer
        self._port_free[out_port] = done
        event.hops += 1
        self.s_bytes.add(size)
        if is_local:
            self.s_delivered.add()
        else:
            self.s_forwarded.add()
        send(event, done - now)
