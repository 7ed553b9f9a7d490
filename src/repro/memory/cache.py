"""Set-associative cache models.

Two layers, matching the two ways PySST drives memory systems:

* :class:`CacheArray` / :class:`CacheHierarchy` — *functional* models: a
  plain set-associative LRU array advanced one access at a time, with no
  event machinery.  The trace-driven processor models use these inline
  (a pure-Python DES cannot afford one event per L1 access; see the
  repro scoping notes in DESIGN.md), and the cache-hit-rate experiments
  (Fig. 4) read their counters directly.
* :class:`Cache` — a *component* wrapper speaking
  :class:`~repro.memory.events.MemRequest`/``MemResponse`` over ``cpu``
  (upstream) and ``mem`` (downstream) ports, with MSHR-style outstanding
  -miss tracking.  Example machines and integration tests use this.

Both layers share the same replacement logic, so the component is the
functional array plus latency/queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime
from .events import MemRequest, MemResponse


def _check_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")


@dataclass
class CacheStats:
    """Counters of one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheArray:
    """A functional set-associative, write-back/write-allocate LRU cache.

    ``access`` returns ``(hit, writeback_addr)`` where ``writeback_addr``
    is the block address of a dirty victim when the access caused an
    eviction of modified data (None otherwise).

    Each set is a Python list of the block numbers it holds, least
    recently used first; a set starts empty and a miss in a full set
    evicts its head.  Dirty and prefetched state are sets of resident
    block numbers.  Addresses may be numpy integers (trace arrays); every
    address handed back is a plain ``int``.
    """

    def __init__(self, size_bytes: int, line_size: int = 64, ways: int = 8,
                 name: str = "cache"):
        _check_power_of_two(line_size, "line_size")
        _check_power_of_two(ways, "ways")
        if size_bytes < line_size * ways:
            raise ValueError(
                f"{name}: size {size_bytes} too small for "
                f"{ways} ways of {line_size}B lines"
            )
        n_lines = size_bytes // line_size
        if n_lines % ways:
            raise ValueError(f"{name}: size/line_size not divisible by ways")
        self.name = name
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.ways = ways
        self.n_sets = n_lines // ways
        _check_power_of_two(self.n_sets, "number of sets")
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = self.n_sets - 1
        #: per set, its resident blocks, most recently used last
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        #: resident blocks holding modified data
        self._dirty: Set[int] = set()
        #: resident blocks a prefetch filled and no demand access touched
        self._prefetched: Set[int] = set()
        self.stats = CacheStats()

    def block_addr(self, addr: int) -> int:
        return (int(addr) >> self._line_shift) << self._line_shift

    def _fill(self, row: List[int], block: int) -> Optional[int]:
        """Make ``block`` the most recent line of ``row``, evicting the
        least recent one from a full set; returns a dirty victim's
        address."""
        writeback = None
        if len(row) == self.ways:
            victim = row.pop(0)
            self._prefetched.discard(victim)
            if victim in self._dirty:
                self._dirty.remove(victim)
                writeback = victim << self._line_shift
                self.stats.writebacks += 1
        row.append(block)
        return writeback

    def access(self, addr: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """One reference.  Allocates on miss; returns (hit, writeback_addr)."""
        block = int(addr) >> self._line_shift
        row = self._sets[block & self._set_mask]
        stats = self.stats
        stats.accesses += 1
        if block in row:
            if row[-1] != block:
                row.remove(block)
                row.append(block)
            if is_write:
                self._dirty.add(block)
            stats.hits += 1
            return True, None
        stats.misses += 1
        writeback = self._fill(row, block)
        if is_write:
            self._dirty.add(block)
        return False, writeback

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no stats, no LRU update)."""
        block = int(addr) >> self._line_shift
        return block in self._sets[block & self._set_mask]

    def install(self, addr: int, prefetched: bool = True) -> Optional[int]:
        """Fill a line without demand-access accounting (prefetch fill).

        Returns a dirty victim's block address when the fill evicted
        modified data.  No-op if the line is already present.
        """
        block = int(addr) >> self._line_shift
        row = self._sets[block & self._set_mask]
        if block in row:
            return None
        writeback = self._fill(row, block)
        if prefetched:
            self._prefetched.add(block)
        return writeback

    def take_prefetched(self, addr: int) -> bool:
        """True (and clears the flag) if the line was brought in by a
        prefetch and this is its first demand touch."""
        block = int(addr) >> self._line_shift
        if block in self._prefetched:
            self._prefetched.remove(block)
            return True
        return False

    def invalidate(self, addr: int) -> bool:
        """Drop a block if present; returns whether it was present."""
        block = int(addr) >> self._line_shift
        row = self._sets[block & self._set_mask]
        if block not in row:
            return False
        row.remove(block)
        self._dirty.discard(block)
        self._prefetched.discard(block)
        return True

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = len(self._dirty)
        for row in self._sets:
            row.clear()
        self._dirty.clear()
        self._prefetched.clear()
        return dirty

    def reset_stats(self) -> None:
        self.stats = CacheStats()


@dataclass
class LevelSpec:
    """Parameters of one level in a :class:`CacheHierarchy`."""

    name: str
    size_bytes: int
    ways: int
    latency_ps: SimTime  #: hit latency of this level
    line_size: int = 64


class CacheHierarchy:
    """A functional multi-level hierarchy with per-level latency accounting.

    ``access`` walks L1 -> L2 -> ... -> memory; on a miss at level *i* it
    allocates into that level on the way back (inclusive-ish fill: every
    missed level is filled).  Returns ``(latency_ps, level_hit)`` where
    ``level_hit`` is the index of the level that hit (``len(levels)``
    means main memory).

    ``memory_latency_ps`` stands in for the downstream memory; pass a
    callable for a live DRAM model.
    """

    def __init__(self, levels: List[LevelSpec], memory_latency_ps: SimTime = 60_000):
        if not levels:
            raise ValueError("need at least one cache level")
        self.levels = [
            CacheArray(spec.size_bytes, spec.line_size, spec.ways, name=spec.name)
            for spec in levels
        ]
        self.specs = list(levels)
        self.memory_latency_ps = memory_latency_ps
        self.memory_accesses = 0
        self.writeback_traffic_bytes = 0

    def access(self, addr: int, is_write: bool = False) -> Tuple[SimTime, int]:
        latency: SimTime = 0
        for i, (cache, spec) in enumerate(zip(self.levels, self.specs)):
            latency += spec.latency_ps
            hit, writeback = cache.access(addr, is_write if i == 0 else False)
            if writeback is not None:
                self.writeback_traffic_bytes += spec.line_size
            if hit:
                return latency, i
        self.memory_accesses += 1
        latency += self.memory_latency_ps
        return latency, len(self.levels)

    def hit_rates(self) -> Dict[str, float]:
        return {c.name: c.stats.hit_rate for c in self.levels}

    def level(self, name: str) -> CacheArray:
        for cache in self.levels:
            if cache.name == name:
                return cache
        raise KeyError(f"no cache level named {name!r}")

    def reset_stats(self) -> None:
        for cache in self.levels:
            cache.reset_stats()
        self.memory_accesses = 0
        self.writeback_traffic_bytes = 0


@register("memory.Cache")
class Cache(Component):
    """Event-driven cache component.

    Ports: ``cpu`` (upstream requests in / responses out) and ``mem``
    (downstream).  Parameters: ``size`` (e.g. "64KB"), ``ways``,
    ``line_size``, ``hit_latency`` (e.g. "2ns"), ``level`` (label),
    ``mshrs`` (max outstanding misses; further misses queue).
    """

    cpu = port("upstream: receives MemRequest, returns MemResponse",
               event=MemRequest, handler="on_request")
    mem = port("downstream: emits MemRequest, receives MemResponse",
               event=MemResponse, handler="on_response")

    array = state(doc="functional set-associative array (tags/dirty/LRU)")
    _outstanding = state(dict, gauge=True, doc="in-flight misses by req id")
    _blocked = state(list, gauge=True, doc="requests stalled on MSHRs")
    _prefetch_ids = state(set, doc="req ids of in-flight prefetch fills")

    s_hits = stat.counter(doc="demand hits")
    s_misses = stat.counter(doc="demand misses")
    s_writebacks = stat.counter(doc="dirty evictions sent downstream")
    s_queued = stat.counter("mshr_stalls", doc="misses queued behind MSHRs")
    s_prefetches = stat.counter(doc="prefetch fetches issued")
    s_prefetch_hits = stat.counter(doc="first demand touch of a prefetched line")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.level_name = p.find_str("level", "L1")
        self.hit_latency = p.find_time("hit_latency", "2ns")
        self.array = CacheArray(
            p.find_size_bytes("size", "32KB"),
            p.find_int("line_size", 64),
            p.find_int("ways", 8),
            name=self.level_name,
        )
        self.max_mshrs = p.find_int("mshrs", 16)
        #: next-N-line stream prefetcher depth (0 = off): every demand
        #: miss also fetches the following N sequential lines.
        self.prefetch_depth = p.find_int("prefetch", 0)

    def on_request(self, event) -> None:
        assert isinstance(event, MemRequest)
        hit, writeback = self.array.access(event.addr, event.is_write)
        if hit:
            self.s_hits.add()
            if self.array.take_prefetched(event.addr):
                self.s_prefetch_hits.add()
            self.port("cpu").send(MemResponse(event, level=self.level_name),
                                  self.hit_latency)
            return
        self.s_misses.add()
        if writeback is not None:
            self.s_writebacks.add()
            self.port("mem").send(MemRequest(writeback, self.array.line_size,
                                             is_write=True),
                                  self.hit_latency)
        if len(self._outstanding) >= self.max_mshrs:
            self.s_queued.add()
            self._blocked.append(event)
            return
        self._issue_miss(event)
        self._issue_prefetches(event.addr)

    def _issue_miss(self, event: MemRequest) -> None:
        fetch = MemRequest(self.array.block_addr(event.addr),
                           self.array.line_size, is_write=False,
                           req_id=event.req_id)
        self._outstanding[event.req_id] = event
        self.port("mem").send(fetch, self.hit_latency)

    def _issue_prefetches(self, miss_addr: int) -> None:
        """Next-N-line stream prefetch after a demand miss."""
        if not self.prefetch_depth:
            return
        base = self.array.block_addr(miss_addr)
        send = self.port("mem").send
        for k in range(1, self.prefetch_depth + 1):
            target = base + k * self.array.line_size
            if self.array.probe(target):
                continue
            fetch = MemRequest(target, self.array.line_size, is_write=False)
            self._prefetch_ids.add(fetch.req_id)
            self.s_prefetches.add()
            send(fetch, self.hit_latency)

    def on_response(self, event) -> None:
        assert isinstance(event, MemResponse)
        if event.is_write:
            return  # writeback ack; nothing waits on it
        if event.req_id in self._prefetch_ids:
            self._prefetch_ids.discard(event.req_id)
            writeback = self.array.install(event.addr, prefetched=True)
            if writeback is not None:
                self.s_writebacks.add()
                self.port("mem").send(MemRequest(writeback,
                                                 self.array.line_size,
                                                 is_write=True))
            return
        original = self._outstanding.pop(event.req_id, None)
        if original is None:
            return  # e.g. response to an evicted writeback fetch
        self.port("cpu").send(MemResponse(original, level=event.level))
        if self._blocked:
            self._issue_miss(self._blocked.pop(0))
