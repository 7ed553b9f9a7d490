"""Abstract processor-core models.

The GeM5 substitute (see the substitution catalogue in DESIGN.md): an
in-order, multi-issue core whose timing is computed per *block* of
instructions from a statistical workload description, rather than per
instruction.  Per-block stepping keeps event counts tractable for a
pure-Python DES while retaining the effects the paper's SST studies
measure:

* issue-width scaling saturating at the workload's ILP;
* cache-miss latency stalls, overlapped up to the core's MLP;
* DRAM bandwidth as a roofline — a core (or several cores sharing a
  memory) cannot retire bandwidth-bound blocks faster than the memory
  system moves their data.  Contention between cores emerges naturally
  because each block's DRAM traffic serialises through the shared
  :class:`~repro.memory.dram.DRAMModel` channel state.

Two components are registered:

* ``processor.MixCore`` — the block-stepped abstract core, driven by a
  named workload from :mod:`repro.processor.mix`.
* ``processor.TrafficGenerator`` — a simple request-level load/store
  issuer with a bounded outstanding window, for driving event-driven
  cache/bus/memory chains in tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.component import Component, port, stat, state
from ..core.event import Event, IdSource
from ..core.registry import register
from ..core.units import SimTime
from ..memory.dram import DRAMModel, DRAMTech
from ..memory.events import MemRequest, MemResponse
from .mix import WorkloadSpec, workload as lookup_workload


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters of the abstract core."""

    issue_width: int = 2
    freq_hz: float = 2.0e9
    #: memory-level parallelism: how many outstanding long-latency misses
    #: the core overlaps (MSHRs + OoO window effect).
    mlp: float = 4.0
    l1_latency_ps: SimTime = 1_500   # ~3 cycles at 2GHz
    l2_latency_ps: SimTime = 6_000   # ~12 cycles
    l3_latency_ps: SimTime = 18_000  # ~36 cycles

    def __post_init__(self):
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.freq_hz <= 0:
            raise ValueError("freq_hz must be positive")
        if self.mlp < 1:
            raise ValueError("mlp must be >= 1")


@dataclass(frozen=True)
class BlockTiming:
    """Latency decomposition of one instruction block (shared between
    the blocks of one shape, hence immutable)."""

    n_instructions: int
    compute_ps: SimTime        #: issue-limited time (no memory stalls)
    cache_stall_ps: SimTime    #: L2/L3 hit latency exposure
    dram_latency_ps: SimTime   #: DRAM latency exposure (MLP-divided)
    dram_bytes: int            #: demand traffic handed to the memory system
    dram_accesses: int

    @property
    def latency_bound_ps(self) -> SimTime:
        return self.compute_ps + self.cache_stall_ps + self.dram_latency_ps


class CoreTimingModel:
    """Computes per-block timing for (core config x workload) pairs."""

    def __init__(self, config: CoreConfig, spec: WorkloadSpec):
        self.config = config
        self.spec = spec
        #: (n_instructions, id(dram_tech), row-hit rate) -> BlockTiming.
        #: Keyed by the technology's identity: hashing the DRAMTech
        #: dataclass would run its generated ``__hash__`` per block.
        self._blocks: Dict[Tuple[int, int, float], BlockTiming] = {}
        #: every technology keyed above, alive so its id stays unique
        self._techs: List[Optional[DRAMTech]] = []

    def effective_issue(self) -> float:
        """Sustained instructions/cycle: harmonic blend of width and ILP.

        ``1/(1/W + 1/ILP)`` models the dependency stalls that keep wide
        cores from reaching their nominal width — the source of the
        sub-linear width scaling in Fig. 12 (8-wide only ~78% faster
        than 1-wide).
        """
        w = float(self.config.issue_width)
        ilp = self.spec.mix.ilp
        return 1.0 / (1.0 / w + 1.0 / ilp)

    def block(self, n_instructions: int,
              dram_tech: Optional[DRAMTech] = None,
              dram_row_hit_rate: float = 0.6) -> BlockTiming:
        """Timing decomposition for ``n_instructions`` of this workload,
        computed once per distinct argument triple."""
        key = (n_instructions, id(dram_tech), dram_row_hit_rate)
        timing = self._blocks.get(key)
        if timing is None:
            timing = self._blocks[key] = self._block(
                n_instructions, dram_tech, dram_row_hit_rate)
            self._techs.append(dram_tech)
        return timing

    def _block(self, n_instructions: int, dram_tech: Optional[DRAMTech],
               dram_row_hit_rate: float) -> BlockTiming:
        cfg = self.config
        mix = self.spec.mix
        prof = self.spec.memory
        cycle_ps = 1e12 / cfg.freq_hz

        compute_cycles = n_instructions / self.effective_issue()
        compute_ps = int(round(compute_cycles * cycle_ps))

        misses = prof.miss_per_instr(mix.memory_fraction)
        levels = list(misses.keys())
        # An L1 miss pays the L2 latency, an L2 miss the L3 latency...
        next_latency = {
            "L1": cfg.l2_latency_ps,
            "L2": cfg.l3_latency_ps,
        }
        cache_stall = 0.0
        for level in levels:
            lat = next_latency.get(level)
            if lat is not None:
                cache_stall += misses[level] * n_instructions * lat
        cache_stall_ps = int(round(cache_stall / cfg.mlp))

        dram_accesses = int(round(
            prof.dram_accesses_per_instr(mix.memory_fraction) * n_instructions
        ))
        dram_bytes = int(round(prof.dram_bytes_per_instr * n_instructions))
        dram_latency_ps = 0
        if dram_tech is not None and dram_accesses:
            avg = (dram_row_hit_rate * dram_tech.t_cas_ps
                   + (1.0 - dram_row_hit_rate) * dram_tech.row_miss_latency_ps)
            dram_latency_ps = int(round(dram_accesses * avg / cfg.mlp))

        return BlockTiming(
            n_instructions=n_instructions,
            compute_ps=compute_ps,
            cache_stall_ps=cache_stall_ps,
            dram_latency_ps=dram_latency_ps,
            dram_bytes=dram_bytes,
            dram_accesses=dram_accesses,
        )

    def standalone_runtime_ps(self, n_instructions: int, dram: DRAMModel,
                              n_sharers: int = 1,
                              overlap_penalty: float = 0.3) -> SimTime:
        """Runtime estimate without a DES (used by quick sweeps).

        Partial-overlap roofline, matching :class:`MixCore`'s block
        completion rule: ``max(C, M) + k*min(C, M)`` where C is the
        latency-bound (compute + cache stall) time, M the DRAM transfer
        time at this core's bandwidth share, and k the fraction of the
        shorter component that the core fails to hide behind the longer
        (k=0 is a hard roofline, k=1 fully serial).
        """
        timing = self.block(n_instructions, dram.tech)
        bw = dram.peak_bandwidth / n_sharers
        bw_ps = int(round(timing.dram_bytes / bw * 1e12)) if timing.dram_bytes else 0
        c = timing.latency_bound_ps
        return max(c, bw_ps) + int(round(overlap_penalty * min(c, bw_ps)))


class BulkMemRequest(Event):
    """Aggregate DRAM traffic of one instruction block."""

    __slots__ = ("nbytes", "accesses", "req_id")

    # Checkpointable global id stream (repro.ckpt snapshots/restores it).
    _ids = IdSource("processor.bulk_req_id")

    def __init__(self, nbytes: int, accesses: int):
        self.nbytes = nbytes
        self.accesses = accesses
        self.req_id = next(BulkMemRequest._ids)


class BulkMemResponse(Event):
    __slots__ = ("req_id",)

    def __init__(self, req_id: int):
        self.req_id = req_id


@register("processor.MixCore")
class MixCore(Component):
    """Block-stepped abstract core running a statistical workload.

    Ports: ``mem`` — optional link to a bulk-capable memory
    (``memory.NodeMemory``); without it, DRAM traffic is assumed
    unconstrained (latency-only model).

    Parameters: ``workload`` (name in :data:`repro.processor.mix.WORKLOADS`),
    ``instructions`` (total to retire), ``block`` (instructions per DES
    block, default 100k), ``issue_width``, ``clock`` (e.g. "2GHz"),
    ``mlp``.

    Statistics: ``instructions``, ``blocks``, ``compute_ps``,
    ``stall_ps``, ``runtime_ps``.
    """

    mem = port("bulk DRAM traffic to the node memory (optional)",
               required=False, event=BulkMemResponse,
               handler="on_mem_response")

    _retired = state(0, gauge=True, doc="instructions retired so far")
    _block_started = state(0, doc="start time of the in-flight block")
    _pending_compute_done = state(0, doc="latency-bound finish time of "
                                         "the in-flight block")
    _current_block = state(None, doc="BlockTiming of the in-flight block")
    _dram_tech = state(None, doc="DRAMTech of the node memory on the mem "
                                 "port, read at setup")

    s_instructions = stat.counter(doc="instructions retired")
    s_blocks = stat.counter(doc="blocks completed")
    s_compute = stat.counter("compute_ps", doc="issue-limited time")
    s_stall = stat.counter("stall_ps", doc="memory stall exposure")
    s_runtime = stat.counter("runtime_ps", doc="time to retire everything")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        spec_name = p.find_str("workload", "hpccg")
        self.spec = lookup_workload(spec_name)
        self.total_instructions = p.find_int("instructions",
                                             self.spec.instructions_per_iteration)
        self.block_size = p.find_int("block", 100_000)
        self.config = CoreConfig(
            issue_width=p.find_int("issue_width", 2),
            freq_hz=p.find_freq_hz("clock", "2GHz"),
            mlp=p.find_float("mlp", 4.0),
        )
        #: fraction of the shorter of (compute, memory) that is NOT hidden
        #: behind the longer — 0 would be a perfect roofline overlap.
        self.overlap_penalty = p.find_float("overlap_penalty", 0.3)
        self.model = CoreTimingModel(self.config, self.spec)
        self.register_as_primary()

    def on_setup(self) -> None:
        # Read the attached memory's technology before the first block,
        # so that block's DRAM latency does not depend on whether the
        # memory was declared (and set up) before this core.  Without a
        # co-located node memory the core is latency-free on DRAM.
        port = self._ports["mem"]
        peer = port.endpoint.peer_port if port.endpoint is not None else None
        if peer is not None:
            dram = getattr(peer.component, "dram", None)
            if isinstance(dram, DRAMModel):
                self._dram_tech = dram.tech
        self._start_block(self.sim.now)

    # -- block state machine ------------------------------------------------
    # The three handlers below run once per block each, the whole of a
    # design point's run: they read ``sim.now`` once and send through
    # the ``mem`` endpoint rather than the by-name component API.
    def _start_block(self, now: SimTime) -> None:
        remaining = self.total_instructions - self._retired
        if remaining <= 0:
            self.s_runtime.add(now - self.s_runtime.count)
            self.primary_ok_to_end()
            return
        n = min(self.block_size, remaining)
        # DRAM latency exposure is computed by the memory side; locally we
        # account compute + cache stalls.
        timing = self.model.block(n, self._dram_tech)
        self._block_started = now
        self._current_block = timing
        # timing.latency_bound_ps, without the property call
        compute_done_delay = (timing.compute_ps + timing.cache_stall_ps
                              + timing.dram_latency_ps)
        self._pending_compute_done = now + compute_done_delay
        # no endpoint: no node memory, the latency-only timer path
        endpoint = self._ports["mem"].endpoint
        if timing.dram_bytes and endpoint is not None:
            endpoint.send(BulkMemRequest(timing.dram_bytes,
                                         timing.dram_accesses))
        else:
            self.schedule(compute_done_delay, self._finish_block, None)

    def on_mem_response(self, event) -> None:
        assert isinstance(event, BulkMemResponse)
        # Partial overlap: the block ends after the longer of compute and
        # memory, plus a penalty fraction of the shorter one (imperfect
        # compute/memory overlap in an in-order core).
        now = self.sim.now
        started = self._block_started
        compute_elapsed = self._pending_compute_done - started
        memory_elapsed = now - started
        total = max(compute_elapsed, memory_elapsed) + int(round(
            self.overlap_penalty * min(compute_elapsed, memory_elapsed)
        ))
        self.schedule(max(0, started + total - now), self._finish_block, None)

    def _finish_block(self, _payload) -> None:
        now = self.sim.now
        timing = self._current_block
        self._retired += timing.n_instructions
        self.s_instructions.add(timing.n_instructions)
        self.s_blocks.add()
        self.s_compute.add(timing.compute_ps)
        stall = (now - self._block_started) - timing.compute_ps
        self.s_stall.add(max(0, stall))
        self._start_block(now)

    @property
    def retired(self) -> int:
        return self._retired

    def runtime_ps(self) -> SimTime:
        return self.s_runtime.count


@register("processor.TrafficGenerator")
class TrafficGenerator(Component):
    """Request-level load/store issuer with a bounded outstanding window.

    Drives event-driven memory chains (Cache -> Bus -> MainMemory).
    Ports: ``mem``.  Parameters: ``requests`` (count), ``outstanding``
    (window), ``pattern`` ("stream" | "random"), ``footprint``
    (random-pattern address range, e.g. "16MB"), ``stride`` (stream
    pattern), ``write_fraction``, ``size`` (bytes per request), and
    ``base`` (address-space offset, so several generators can work
    disjoint regions).

    Statistics: ``issued``, ``completed``, ``latency_ps`` accumulator,
    ``runtime_ps``.
    """

    mem = port("MemRequest out / MemResponse in",
               event=MemResponse, handler="on_response")

    _issued = state(0, gauge=True, doc="requests issued so far")
    _inflight = state(dict, gauge=True, doc="req id -> issue time")

    s_issued = stat.counter(doc="requests issued")
    s_completed = stat.counter(doc="responses received")
    s_latency = stat.accumulator("latency_ps", doc="request round trip")
    s_runtime = stat.counter("runtime_ps", doc="time to drain everything")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.n_requests = p.find_int("requests", 1000)
        self.window = p.find_int("outstanding", 8)
        self.pattern = p.find_str("pattern", "stream")
        if self.pattern not in ("stream", "random"):
            raise ValueError(f"{name}: unknown pattern {self.pattern!r}")
        self.footprint = p.find_size_bytes("footprint", "16MB")
        self.base = p.find_size_bytes("base", 0)
        self.stride = p.find_int("stride", 64)
        self.write_fraction = p.find_float("write_fraction", 0.0)
        self.req_size = p.find_int("size", 64)
        self.register_as_primary()

    def on_setup(self) -> None:
        for _ in range(min(self.window, self.n_requests)):
            self._issue()

    def _next_addr(self) -> int:
        if self.pattern == "stream":
            return self.base + (self._issued * self.stride) % self.footprint
        return self.base + int(
            self.rng.integers(0, max(self.footprint // 8, 1))) * 8

    def _issue(self) -> None:
        addr = self._next_addr()
        is_write = bool(self.rng.random() < self.write_fraction)
        request = MemRequest(addr, self.req_size, is_write)
        self._inflight[request.req_id] = self.now
        self._issued += 1
        self.s_issued.add()
        self.send("mem", request)

    def on_response(self, event) -> None:
        assert isinstance(event, MemResponse)
        started = self._inflight.pop(event.req_id, None)
        if started is None:
            return
        self.s_completed.add()
        self.s_latency.add(self.now - started)
        if self._issued < self.n_requests:
            self._issue()
        elif not self._inflight:
            self.s_runtime.add(self.now - self.s_runtime.count)
            self.primary_ok_to_end()
