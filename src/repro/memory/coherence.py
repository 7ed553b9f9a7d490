"""MSI snooping cache coherence.

Multi-core node models need coherent private caches; this module adds
the classic MSI snooping protocol over an atomic broadcast bus:

* :class:`SnoopBus` — the functional protocol core: per-cache MSI state
  machines advanced one bus transaction at a time, with the standard
  transitions (BusRd on read miss, BusRdX on write miss, BusUpgr on
  write-to-Shared), owner flushes, and cache-to-cache transfers.
  Correctness invariants (single writer; no S while M; readers always
  observe the last write) are enforced by assertions and tested with
  property-based access sequences.
* :class:`CoherentCache` / :class:`CoherentBusComponent` — event-driven
  wrappers: cores issue :class:`~repro.memory.events.MemRequest`s to a
  private coherent cache; misses and upgrades arbitrate for the bus
  component, which resolves the protocol atomically and charges
  realistic latencies (bus occupancy + either a cache-to-cache transfer
  or a memory fetch).

Timing fidelity note: the protocol itself is resolved atomically at the
bus (SST's memHierarchy makes the same simplification at its lowest
fidelity level); what the DES adds is arbitration/queueing and the
latency difference between cache-to-cache and memory supplies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime
from .events import MemRequest, MemResponse


class State(enum.Enum):
    """MSI line states."""

    I = "I"  # noqa: E741  (the canonical name)
    S = "S"
    M = "M"


@dataclass
class CoherenceStats:
    bus_transactions: int = 0
    invalidations: int = 0
    writebacks: int = 0  #: M lines flushed to memory on eviction/downgrade
    cache_to_cache: int = 0
    memory_fetches: int = 0
    upgrades: int = 0


@dataclass
class _Line:
    state: State = State.I
    #: version of the data this copy holds (global write counter)
    version: int = 0


class _CacheState:
    """One cache's line states with capacity-based LRU eviction."""

    def __init__(self, capacity_lines: int):
        if capacity_lines < 1:
            raise ValueError("capacity must be >= 1 line")
        self.capacity = capacity_lines
        self.lines: Dict[int, _Line] = {}
        self._lru: List[int] = []  # most recent last

    def get(self, block: int) -> _Line:
        return self.lines.get(block, _Line())

    def touch(self, block: int) -> None:
        if block in self._lru:
            self._lru.remove(block)
        self._lru.append(block)

    def set(self, block: int, state: State, version: int) -> Optional[int]:
        """Install/update a line; returns an evicted block (if any)."""
        evicted = None
        if state is State.I:
            self.lines.pop(block, None)
            if block in self._lru:
                self._lru.remove(block)
            return None
        if block not in self.lines and len(self.lines) >= self.capacity:
            evicted = self._lru.pop(0)
            self.lines.pop(evicted, None)
        self.lines[block] = _Line(state, version)
        self.touch(block)
        return evicted


class SnoopBus:
    """The functional MSI protocol core over an atomic snooping bus.

    ``n_caches`` private caches of ``capacity_lines`` each share one
    bus; ``line_size`` fixes block granularity.  ``read``/``write``
    perform one processor access and return a :class:`AccessOutcome`
    describing what the bus had to do (for the timing layer).
    """

    def __init__(self, n_caches: int, capacity_lines: int = 64,
                 line_size: int = 64):
        if n_caches < 1:
            raise ValueError("need at least one cache")
        self.n_caches = n_caches
        self.line_size = line_size
        self._caches = [_CacheState(capacity_lines) for _ in range(n_caches)]
        #: authoritative data version per block (memory's copy)
        self._memory_version: Dict[int, int] = {}
        #: the latest version ever written per block (ground truth)
        self._latest_version: Dict[int, int] = {}
        self._write_counter = 0
        self.stats = CoherenceStats()

    def _block(self, addr: int) -> int:
        return addr // self.line_size

    # -- invariants ----------------------------------------------------
    def check_invariants(self, block: Optional[int] = None) -> None:
        blocks = ([block] if block is not None else
                  {b for c in self._caches for b in c.lines})
        for blk in blocks:
            states = [c.get(blk).state for c in self._caches]
            modified = states.count(State.M)
            shared = states.count(State.S)
            assert modified <= 1, f"block {blk}: {modified} M copies"
            assert not (modified and shared), \
                f"block {blk}: M coexists with S"

    def _owner(self, block: int) -> Optional[int]:
        for i, cache in enumerate(self._caches):
            if cache.get(block).state is State.M:
                return i
        return None

    def _evict(self, cache_id: int, block: int) -> None:
        """Handle a capacity eviction: M lines write back."""
        line = self._caches[cache_id].get(block)
        if line.state is State.M:
            self._memory_version[block] = line.version
            self.stats.writebacks += 1

    # -- processor-side operations ------------------------------------
    def read(self, cache_id: int, addr: int) -> "AccessOutcome":
        block = self._block(addr)
        cache = self._caches[cache_id]
        line = cache.get(block)
        if line.state in (State.S, State.M):
            cache.touch(block)
            outcome = AccessOutcome(hit=True)
        else:
            # BusRd.
            self.stats.bus_transactions += 1
            owner = self._owner(block)
            if owner is not None:
                # Owner flushes; both end Shared at the owner's version.
                owner_line = self._caches[owner].get(block)
                self._memory_version[block] = owner_line.version
                self._set_with_writeback(owner, block, State.S,
                                         owner_line.version)
                self.stats.cache_to_cache += 1
                version = owner_line.version
                supplied = "cache"
            else:
                self.stats.memory_fetches += 1
                version = self._memory_version.get(block, 0)
                supplied = "memory"
            self._set_with_writeback(cache_id, block, State.S, version)
            outcome = AccessOutcome(hit=False, supplied_by=supplied)
        observed = cache.get(block).version
        expected = self._latest_version.get(block, 0)
        assert observed == expected, \
            f"stale read: block {block} v{observed} != latest v{expected}"
        self.check_invariants(block)
        return outcome

    def write(self, cache_id: int, addr: int) -> "AccessOutcome":
        block = self._block(addr)
        cache = self._caches[cache_id]
        line = cache.get(block)
        self._write_counter += 1
        new_version = self._write_counter
        if line.state is State.M:
            cache.touch(block)
            cache.lines[block].version = new_version
            outcome = AccessOutcome(hit=True)
        elif line.state is State.S:
            # BusUpgr: invalidate every other copy.
            self.stats.bus_transactions += 1
            self.stats.upgrades += 1
            self._invalidate_others(cache_id, block)
            cache.lines[block].state = State.M
            cache.lines[block].version = new_version
            cache.touch(block)
            outcome = AccessOutcome(hit=True, upgraded=True)
        else:
            # BusRdX: fetch exclusive, invalidating everyone.
            self.stats.bus_transactions += 1
            owner = self._owner(block)
            if owner is not None:
                owner_line = self._caches[owner].get(block)
                self._memory_version[block] = owner_line.version
                self.stats.cache_to_cache += 1
                supplied = "cache"
            else:
                self.stats.memory_fetches += 1
                supplied = "memory"
            self._invalidate_others(cache_id, block)
            self._set_with_writeback(cache_id, block, State.M, new_version)
            outcome = AccessOutcome(hit=False, supplied_by=supplied)
        self._latest_version[block] = new_version
        self.check_invariants(block)
        return outcome

    # -- internals ----------------------------------------------------
    def _invalidate_others(self, cache_id: int, block: int) -> None:
        for i, cache in enumerate(self._caches):
            if i == cache_id:
                continue
            if cache.get(block).state is not State.I:
                cache.set(block, State.I, 0)
                self.stats.invalidations += 1

    def _set_with_writeback(self, cache_id: int, block: int, state: State,
                            version: int) -> None:
        """Install a line, writing back any dirty victim it displaces."""
        cache = self._caches[cache_id]
        if state is not State.I and block not in cache.lines \
                and len(cache.lines) >= cache.capacity:
            victim = cache._lru[0]
            victim_line = cache.get(victim)
            if victim_line.state is State.M:
                self._memory_version[victim] = victim_line.version
                self.stats.writebacks += 1
        cache.set(block, state, version)

    # -- introspection ----------------------------------------------------
    def state_of(self, cache_id: int, addr: int) -> State:
        return self._caches[cache_id].get(self._block(addr)).state

    def sharers(self, addr: int) -> List[int]:
        block = self._block(addr)
        return [i for i, c in enumerate(self._caches)
                if c.get(block).state is not State.I]


@dataclass
class AccessOutcome:
    """What one processor access required of the bus."""

    hit: bool
    upgraded: bool = False
    supplied_by: str = ""  #: "cache" | "memory" | "" for hits

    @property
    def used_bus(self) -> bool:
        return (not self.hit) or self.upgraded


# ----------------------------------------------------------------------
# event-driven wrappers
# ----------------------------------------------------------------------

@register("memory.CoherentBus")
class CoherentBusComponent(Component):
    """Snooping bus + memory backend as one component.

    Ports ``cache0`` .. ``cache{n_caches-1}``.  Each attached
    :class:`CoherentCache` forwards its misses/upgrades here; the
    protocol resolves atomically and the response is delayed by bus
    occupancy plus the supply latency (cache-to-cache vs memory).

    Parameters: ``n_caches``, ``capacity_lines`` (per cache),
    ``line_size``, ``bus_time`` (occupancy per transaction),
    ``c2c_latency``, ``memory_latency``.
    """

    cache = port("coherent cache transaction ports", name="cache<i>",
                 event=MemRequest)

    protocol = state(doc="SnoopBus MSI protocol state (all caches)")
    _bus_free = state(0, doc="time the bus next becomes free")

    s_transactions = stat.counter(doc="bus transactions served")
    s_c2c = stat.counter("cache_to_cache",
                         doc="cache-to-cache supplies (mirrored at finish)")
    s_invalidations = stat.counter(doc="invalidations (mirrored at finish)")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.n_caches = p.find_int("n_caches", 2)
        self.protocol = SnoopBus(
            self.n_caches,
            capacity_lines=p.find_int("capacity_lines", 64),
            line_size=p.find_int("line_size", 64),
        )
        self.bus_time = p.find_time("bus_time", "4ns")
        self.c2c_latency = p.find_time("c2c_latency", "15ns")
        self.memory_latency = p.find_time("memory_latency", "60ns")
        for i in range(self.n_caches):
            self.set_handler(f"cache{i}", self._make_handler(i))

    def _make_handler(self, cache_id: int):
        cache_port = self.port(f"cache{cache_id}")

        def handler(event):
            assert isinstance(event, MemRequest)
            if event.is_write:
                outcome = self.protocol.write(cache_id, event.addr)
            else:
                outcome = self.protocol.read(cache_id, event.addr)
            start = max(self.now, self._bus_free)
            self._bus_free = start + self.bus_time
            delay = (start - self.now) + self.bus_time
            if not outcome.hit:
                delay += (self.c2c_latency if outcome.supplied_by == "cache"
                          else self.memory_latency)
            self.s_transactions.add()
            cache_port.send(MemResponse(event, level="bus"), delay)

        return handler

    def on_finish(self) -> None:
        self.s_c2c.add(self.protocol.stats.cache_to_cache
                       - self.s_c2c.count)
        self.s_invalidations.add(self.protocol.stats.invalidations
                                 - self.s_invalidations.count)


@register("memory.CoherentCache")
class CoherentCache(Component):
    """A core's private coherent cache front-end.

    Ports: ``cpu`` (requests from the core) and ``bus`` (to the
    :class:`CoherentBusComponent` port with the matching index).
    Parameters: ``cache_id``, ``hit_latency``.

    The MSI state itself lives in the shared :class:`SnoopBus` (atomic
    protocol resolution); this front-end decides hit-vs-bus by probing
    the protocol state and charges the hit latency locally, so hits
    never occupy the bus.
    """

    cpu = port("core requests", event=MemRequest, handler="on_request")
    bus = port("bus transactions", event=MemResponse,
               handler="on_bus_response")

    _bus_component = state(None, doc="peer CoherentBusComponent "
                                     "(re-resolved by setup)")

    s_hits = stat.counter(doc="local hits (no bus occupancy)")
    s_misses = stat.counter(doc="misses/upgrades sent to the bus")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.cache_id = p.find_int("cache_id")
        self.hit_latency = p.find_time("hit_latency", "2ns")

    def on_setup(self) -> None:
        endpoint = self.port("bus").endpoint
        if endpoint is None or endpoint.peer_port is None:
            raise RuntimeError(f"{self.name}: 'bus' port must be connected")
        peer = endpoint.peer_port.component
        if not isinstance(peer, CoherentBusComponent):
            raise RuntimeError(
                f"{self.name}: 'bus' must connect to a memory.CoherentBus"
            )
        self._bus_component = peer

    def on_request(self, event) -> None:
        assert isinstance(event, MemRequest)
        protocol = self._bus_component.protocol
        state = protocol.state_of(self.cache_id, event.addr)
        local_hit = (state is State.M) or \
                    (state is State.S and not event.is_write)
        if local_hit:
            # Still goes through the protocol to keep LRU/versions exact,
            # but resolves without bus occupancy.
            if event.is_write:
                protocol.write(self.cache_id, event.addr)
            else:
                protocol.read(self.cache_id, event.addr)
            self.s_hits.add()
            self.port("cpu").send(MemResponse(event, level="L1"),
                                  self.hit_latency)
        else:
            self.s_misses.add()
            self.port("bus").send(event, self.hit_latency)

    def on_bus_response(self, event) -> None:
        assert isinstance(event, MemResponse)
        self.port("cpu").send(event)
