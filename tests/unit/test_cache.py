"""Tests for cache models: functional arrays, hierarchies, the component."""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core import Params, Simulation
from repro.memory import (Cache, CacheArray, CacheHierarchy, LevelSpec,
                          MemRequest, MemResponse, SimpleMemory)
from repro.memory.cache import CacheStats
from repro.processor import TrafficGenerator


class TestCacheArray:
    def test_cold_miss_then_hit(self):
        c = CacheArray(1024, line_size=64, ways=2)
        hit, wb = c.access(0x100)
        assert not hit and wb is None
        hit, wb = c.access(0x100)
        assert hit

    def test_same_line_different_words_hit(self):
        c = CacheArray(1024, line_size=64, ways=2)
        c.access(0x100)
        hit, _ = c.access(0x13F)  # same 64B line
        assert hit
        hit, _ = c.access(0x140)  # next line
        assert not hit

    def test_lru_eviction_order(self):
        # 2-way, map three lines to the same set; the least recently
        # used one is evicted.
        c = CacheArray(128, line_size=64, ways=2)  # 1 set of 2 ways
        c.access(0x000)
        c.access(0x040)
        c.access(0x000)  # refresh line 0
        c.access(0x080)  # evicts 0x040
        assert c.probe(0x000)
        assert not c.probe(0x040)
        assert c.probe(0x080)

    def test_dirty_writeback_address(self):
        c = CacheArray(128, line_size=64, ways=2)
        c.access(0x000, is_write=True)
        c.access(0x040)
        _, wb = c.access(0x080)  # evicts dirty 0x000
        assert wb == 0x000
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = CacheArray(128, line_size=64, ways=2)
        c.access(0x000)
        c.access(0x040)
        _, wb = c.access(0x080)
        assert wb is None

    def test_write_hit_marks_dirty(self):
        c = CacheArray(128, line_size=64, ways=2)
        c.access(0x000)          # clean fill
        c.access(0x000, True)    # write hit -> dirty
        c.access(0x040)
        _, wb = c.access(0x080)
        assert wb == 0x000

    def test_invalidate(self):
        c = CacheArray(1024, line_size=64, ways=2)
        c.access(0x100)
        assert c.invalidate(0x100)
        assert not c.probe(0x100)
        assert not c.invalidate(0x100)

    def test_flush_counts_dirty(self):
        c = CacheArray(1024, line_size=64, ways=2)
        c.access(0x000, True)
        c.access(0x040, True)
        c.access(0x080, False)
        assert c.flush() == 2
        assert not c.probe(0x000)

    def test_stats_identity(self):
        c = CacheArray(1024, line_size=64, ways=2)
        for addr in (0, 64, 0, 128, 64, 0):
            c.access(addr)
        s = c.stats
        assert s.accesses == 6
        assert s.hits + s.misses == s.accesses
        assert s.hit_rate == s.hits / 6

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheArray(1000, line_size=64, ways=2)  # not power-of-two sets
        with pytest.raises(ValueError):
            CacheArray(1024, line_size=60, ways=2)
        with pytest.raises(ValueError):
            CacheArray(64, line_size=64, ways=2)  # smaller than ways*line

    def test_block_addr(self):
        c = CacheArray(1024, line_size=64, ways=2)
        assert c.block_addr(0x13F) == 0x100
        assert c.block_addr(0x140) == 0x140

    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()),
                    min_size=1, max_size=400))
    @settings(max_examples=60)
    def test_invariants_hold_for_any_stream(self, stream):
        c = CacheArray(4096, line_size=64, ways=4)
        writebacks = 0
        for addr, is_write in stream:
            hit, wb = c.access(addr, is_write)
            if wb is not None:
                writebacks += 1
                assert wb % 64 == 0
            # After any access the line must be resident.
            assert c.probe(addr)
        s = c.stats
        assert s.accesses == len(stream)
        assert s.hits + s.misses == s.accesses
        assert s.writebacks == writebacks
        assert s.writebacks <= s.misses

    @given(st.integers(2, 64))
    @settings(max_examples=20)
    def test_working_set_within_capacity_always_hits(self, n_lines):
        c = CacheArray(64 * 64, line_size=64, ways=64)  # fully associative
        addrs = [i * 64 for i in range(min(n_lines, 64))]
        for a in addrs:
            c.access(a)
        for a in addrs:
            hit, _ = c.access(a)
            assert hit


class TestCacheHierarchy:
    def _hierarchy(self):
        return CacheHierarchy([
            LevelSpec("L1", 1024, ways=2, latency_ps=1000),
            LevelSpec("L2", 8192, ways=4, latency_ps=5000),
        ], memory_latency_ps=50_000)

    def test_miss_all_levels_latency(self):
        h = self._hierarchy()
        latency, level = h.access(0x10000)
        assert level == 2  # memory
        assert latency == 1000 + 5000 + 50_000
        assert h.memory_accesses == 1

    def test_l1_hit_latency(self):
        h = self._hierarchy()
        h.access(0x100)
        latency, level = h.access(0x100)
        assert level == 0
        assert latency == 1000

    def test_l2_hit_after_l1_eviction(self):
        h = self._hierarchy()
        h.access(0x000)
        # Evict 0x000 from tiny L1 by touching conflicting lines.
        for i in range(1, 20):
            h.access(i * 1024)
        latency, level = h.access(0x000)
        assert level in (1, 2)

    def test_hit_rates_reported(self):
        h = self._hierarchy()
        h.access(0)
        h.access(0)
        rates = h.hit_rates()
        assert rates["L1"] == 0.5

    def test_level_lookup(self):
        h = self._hierarchy()
        assert h.level("L2").name == "L2"
        with pytest.raises(KeyError):
            h.level("L9")

    def test_reset_stats(self):
        h = self._hierarchy()
        h.access(0)
        h.reset_stats()
        assert h.levels[0].stats.accesses == 0
        assert h.memory_accesses == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])


class TestCacheComponent:
    def _machine(self, *, requests=50, pattern="stream", cache_size="4KB",
                 footprint="64KB"):
        sim = Simulation(seed=9)
        cpu = TrafficGenerator(sim, "cpu", Params({
            "requests": requests, "pattern": pattern, "footprint": footprint,
            "outstanding": 4, "stride": 64,
        }))
        cache = Cache(sim, "l1", Params({
            "size": cache_size, "ways": 2, "hit_latency": "2ns", "level": "L1",
        }))
        mem = SimpleMemory(sim, "mem", Params({"latency": "60ns"}))
        sim.connect(cpu, "mem", cache, "cpu", latency="1ns")
        sim.connect(cache, "mem", mem, "cpu", latency="2ns")
        return sim, cpu, cache, mem

    def test_all_requests_complete(self):
        sim, cpu, cache, mem = self._machine()
        result = sim.run()
        assert result.reason == "exit"
        assert cpu.s_completed.count == 50

    def test_stream_larger_than_cache_misses(self):
        sim, cpu, cache, mem = self._machine(requests=64, cache_size="1KB",
                                             footprint="64KB")
        sim.run()
        # One pass over 64 distinct lines with a 16-line cache: all miss.
        assert cache.s_misses.count == 64
        assert mem.s_requests.count >= 64

    def test_repeated_stream_hits_when_resident(self):
        # footprint 2KB < cache 4KB: second pass over the lines hits.
        sim, cpu, cache, mem = self._machine(requests=64, cache_size="4KB",
                                             footprint="2KB")
        sim.run()
        assert cache.s_hits.count == 32
        assert cache.s_misses.count == 32

    def test_hit_latency_shorter_than_miss(self):
        sim, cpu, cache, mem = self._machine(requests=64, cache_size="4KB",
                                             footprint="2KB")
        sim.run()
        latencies = cpu.s_latency
        # Mean latency must be far below the 60ns memory when half hit.
        assert latencies.minimum < 10_000
        assert latencies.maximum > 60_000

    def test_writeback_traffic_to_memory(self):
        sim = Simulation(seed=9)
        cpu = TrafficGenerator(sim, "cpu", Params({
            "requests": 64, "pattern": "stream", "footprint": "8KB",
            "outstanding": 1, "stride": 64, "write_fraction": 1.0,
        }))
        cache = Cache(sim, "l1", Params({"size": "1KB", "ways": 2}))
        mem = SimpleMemory(sim, "mem", Params({"latency": "60ns"}))
        sim.connect(cpu, "mem", cache, "cpu", latency="1ns")
        sim.connect(cache, "mem", mem, "cpu", latency="2ns")
        sim.run()
        assert cache.s_writebacks.count > 0
        # memory sees fetches + writebacks
        assert mem.s_requests.count > 64

    def test_mshr_limit_queues(self):
        sim = Simulation(seed=9)
        cpu = TrafficGenerator(sim, "cpu", Params({
            "requests": 32, "pattern": "stream", "footprint": "64KB",
            "outstanding": 16, "stride": 64,
        }))
        cache = Cache(sim, "l1", Params({"size": "1KB", "ways": 2, "mshrs": 2}))
        mem = SimpleMemory(sim, "mem", Params({"latency": "200ns"}))
        sim.connect(cpu, "mem", cache, "cpu", latency="1ns")
        sim.connect(cache, "mem", mem, "cpu", latency="2ns")
        result = sim.run()
        assert result.reason == "exit"
        assert cpu.s_completed.count == 32
        assert cache.s_queued.count > 0


class TestPrefetcher:
    def _machine(self, depth, pattern="stream", requests=256,
                 memory_latency="80ns"):
        from repro.config import ConfigGraph, build

        g = ConfigGraph("pf")
        g.component("cpu", "processor.TrafficGenerator",
                    {"requests": requests, "pattern": pattern, "stride": 64,
                     "footprint": "1MB", "outstanding": 1})
        g.component("l1", "memory.Cache", {"size": "16KB", "ways": 4,
                                           "prefetch": depth})
        g.component("mem", "memory.SimpleMemory",
                    {"latency": memory_latency})
        g.link("cpu", "mem", "l1", "cpu", latency="1ns")
        g.link("l1", "mem", "mem", "cpu", latency="2ns")
        sim = build(g, seed=1)
        result = sim.run()
        assert result.reason == "exit"
        return sim.stat_values()

    def test_disabled_by_default(self):
        values = self._machine(0)
        assert values["l1.prefetches"] == 0
        assert values["l1.prefetch_hits"] == 0

    def test_stream_prefetching_cuts_misses_and_runtime(self):
        base = self._machine(0)
        pf = self._machine(4)
        assert pf["l1.misses"] < base["l1.misses"] / 2
        assert pf["cpu.runtime_ps"] < base["cpu.runtime_ps"] / 2
        assert pf["l1.prefetch_hits"] > 100

    def test_deeper_prefetch_fewer_demand_misses(self):
        shallow = self._machine(2)
        deep = self._machine(8)
        assert deep["l1.misses"] < shallow["l1.misses"]

    def test_every_request_still_completes(self):
        values = self._machine(8)
        assert values["cpu.completed"] == 256

    def test_random_pattern_gains_little(self):
        """Stream prefetching helps random access far less than
        streaming (accuracy, not just coverage)."""
        def speedup(pattern):
            base = self._machine(0, pattern=pattern)
            pf = self._machine(4, pattern=pattern)
            return base["cpu.runtime_ps"] / pf["cpu.runtime_ps"]

        assert speedup("stream") > 1.5 * speedup("random")

    def test_prefetch_traffic_accounted(self):
        values = self._machine(4)
        assert values["l1.prefetches"] > 0
        # Memory saw demand misses + prefetches.
        assert values["mem.requests"] == pytest.approx(
            values["l1.misses"] + values["l1.prefetches"])


class NumpyCacheArray:
    """The numpy form ``CacheArray`` had before it moved to per-set
    lists: tag, dirty, stamp and prefetched arrays of ``(sets, ways)``,
    LRU by the lowest stamp, invalid ways holding tag -1 and stamp 0.
    The reference of the differential property below."""

    def __init__(self, size_bytes, line_size=64, ways=8):
        import numpy as np

        self.np = np
        self.n_sets = size_bytes // line_size // ways
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = self.n_sets - 1
        self._tags = np.full((self.n_sets, ways), -1, dtype=np.int64)
        self._dirty = np.zeros((self.n_sets, ways), dtype=bool)
        self._stamps = np.zeros((self.n_sets, ways), dtype=np.int64)
        self._prefetched = np.zeros((self.n_sets, ways), dtype=bool)
        self._tick = 0
        self.stats = CacheStats()

    def _locate(self, addr):
        block = addr >> self._line_shift
        return block & self._set_mask, block >> (self.n_sets.bit_length() - 1)

    def block_addr(self, addr):
        return (addr >> self._line_shift) << self._line_shift

    def _victim(self, set_idx):
        way = int(self.np.argmin(self._stamps[set_idx]))
        writeback = None
        victim_tag = int(self._tags[set_idx, way])
        if victim_tag != -1 and self._dirty[set_idx, way]:
            victim_block = ((victim_tag << (self.n_sets.bit_length() - 1))
                            | set_idx)
            writeback = victim_block << self._line_shift
            self.stats.writebacks += 1
        return way, writeback

    def _way(self, set_idx, tag):
        hits = self.np.nonzero(self._tags[set_idx] == tag)[0]
        return int(hits[0]) if hits.size else None

    def access(self, addr, is_write=False):
        set_idx, tag = self._locate(addr)
        self._tick += 1
        self.stats.accesses += 1
        way = self._way(set_idx, tag)
        if way is not None:
            self._stamps[set_idx, way] = self._tick
            if is_write:
                self._dirty[set_idx, way] = True
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        way, writeback = self._victim(set_idx)
        self._tags[set_idx, way] = tag
        self._dirty[set_idx, way] = is_write
        self._stamps[set_idx, way] = self._tick
        self._prefetched[set_idx, way] = False
        return False, writeback

    def probe(self, addr):
        set_idx, tag = self._locate(addr)
        return bool((self._tags[set_idx] == tag).any())

    def install(self, addr, prefetched=True):
        set_idx, tag = self._locate(addr)
        if (self._tags[set_idx] == tag).any():
            return None
        self._tick += 1
        way, writeback = self._victim(set_idx)
        self._tags[set_idx, way] = tag
        self._dirty[set_idx, way] = False
        self._stamps[set_idx, way] = self._tick
        self._prefetched[set_idx, way] = prefetched
        return writeback

    def take_prefetched(self, addr):
        set_idx, tag = self._locate(addr)
        way = self._way(set_idx, tag)
        if way is None or not self._prefetched[set_idx, way]:
            return False
        self._prefetched[set_idx, way] = False
        return True

    def invalidate(self, addr):
        set_idx, tag = self._locate(addr)
        way = self._way(set_idx, tag)
        if way is None:
            return False
        self._tags[set_idx, way] = -1
        self._dirty[set_idx, way] = False
        self._stamps[set_idx, way] = 0
        self._prefetched[set_idx, way] = False
        return True

    def flush(self):
        dirty = int(self._dirty.sum())
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._stamps.fill(0)
        self._prefetched.fill(False)
        return dirty


#: drawn uniformly: mostly accesses, prefetch fills often enough to be
#: evicted untouched, a flush rarely enough that sets fill up
_CACHE_OPS = ("access",) * 8 + ("install",) * 3 + ("take_prefetched",) * 3 \
    + ("invalidate", "probe", "block_addr", "flush")


@st.composite
def _cache_trace(draw):
    line_size = draw(st.sampled_from([16, 64]))
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    n_sets = draw(st.sampled_from([1, 2, 4, 16]))
    # a few sets, each with a couple more tags than it has ways, so
    # references collide: hits, misses and evictions of every kind
    sets = st.sampled_from(sorted({0, n_sets // 2, n_sets - 1}))
    tags = st.integers(0, ways + 2)
    offsets = st.integers(0, line_size - 1)
    addrs = st.builds(lambda s, t, o: ((t * n_sets + s) * line_size) + o,
                      sets, tags, offsets)
    write_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(_CACHE_OPS), addrs,
        st.floats(0, 1, exclude_max=True), st.booleans(), st.booleans()),
        min_size=20, max_size=300))
    return line_size, ways, n_sets, write_share, ops


class TestCacheArrayMatchesNumpyForm:
    @given(_cache_trace())
    @settings(max_examples=120, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink])
    def test_every_result_and_counter_matches(self, trace):
        """Every operation returns what the numpy form returns, victims
        and flush counts included, with the same ``CacheStats``; numpy
        integer addresses come back as plain ``int``."""
        import numpy as np

        line_size, ways, n_sets, write_share, ops = trace
        size = line_size * ways * n_sets
        lists = CacheArray(size, line_size=line_size, ways=ways)
        reference = NumpyCacheArray(size, line_size=line_size, ways=ways)
        for op, addr, roll, as_numpy, flag in ops:
            if as_numpy:
                addr = np.int64(addr)  # what a trace array hands in
            if op == "access":
                args = (addr, roll < write_share)
            elif op == "install":
                args = (addr, flag)
            elif op == "flush":
                args = ()
            else:
                args = (addr,)
            got = getattr(lists, op)(*args)
            want = getattr(reference, op)(*args)
            assert got == want, (op, args)
            returned = got[1] if op == "access" else got
            if op in ("access", "install", "block_addr") \
                    and returned is not None:
                assert type(returned) is int, (op, type(returned))
            assert lists.stats == reference.stats
