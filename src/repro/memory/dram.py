"""DRAM timing/energy models (the DRAMSim2 substitute).

A :class:`DRAMModel` advances bank/row-buffer/channel state one request
at a time and returns completion timestamps; technology parameter sets
are provided for the memory types the paper's SST study sweeps (§5.2.1:
DDR2, DDR3, GDDR5) and the memory-speed study (Fig. 3: 800/1066/1333
MHz DDR3).

Timing model per request:

* row-buffer hit:   CAS latency
* row-buffer miss:  precharge + activate (tRP + tRCD) + CAS
* data transfer:    size / peak bandwidth, serialised per channel
* bank recovery:    the bank is busy until the transfer completes

Energy model (device-level, DRAMSim-style aggregation):

* activate energy per row miss
* read/write energy per bit transferred
* background (static + refresh) power integrated over the run

Numbers are representative datasheet-scale values; the experiments in
benchmarks/ depend on their *relative* magnitudes (GDDR5 ~6-8x the
bandwidth of DDR3 at ~7x the background power and ~2x the $/GB), which
reproduce the orderings and crossovers in Figs. 10-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime, bytes_time, parse_time
from .events import MemRequest, MemResponse


@dataclass(frozen=True)
class DRAMTech:
    """One memory technology's timing, energy and cost parameters."""

    name: str
    peak_bw_bytes_per_s: float  #: per channel
    t_cas_ps: SimTime
    t_rcd_ps: SimTime
    t_rp_ps: SimTime
    n_banks: int
    row_bytes: int
    activate_energy_pj: float  #: per row activation
    access_energy_pj_per_bit: float  #: dynamic, per bit moved
    background_power_w: float  #: static + refresh, per channel
    cost_per_gb: float  #: $/GB (spot-price-index style)

    @property
    def row_miss_latency_ps(self) -> SimTime:
        return self.t_rp_ps + self.t_rcd_ps + self.t_cas_ps


def _ns(x: float) -> SimTime:
    return int(round(x * 1000))


#: Technology table.  DDR2 = cheap/low-power/antiquated, DDR3 = balanced,
#: GDDR5 = very high bandwidth / high power / expensive (paper §5.2.1).
TECHNOLOGIES: Dict[str, DRAMTech] = {
    "DDR2-800": DRAMTech(
        name="DDR2-800", peak_bw_bytes_per_s=6.4e9,
        t_cas_ps=_ns(15.0), t_rcd_ps=_ns(15.0), t_rp_ps=_ns(15.0),
        n_banks=8, row_bytes=4096,
        activate_energy_pj=3500.0, access_energy_pj_per_bit=42.0,
        background_power_w=0.45, cost_per_gb=8.0,
    ),
    "DDR3-800": DRAMTech(
        name="DDR3-800", peak_bw_bytes_per_s=6.4e9,
        t_cas_ps=_ns(15.0), t_rcd_ps=_ns(15.0), t_rp_ps=_ns(15.0),
        n_banks=8, row_bytes=4096,
        activate_energy_pj=2800.0, access_energy_pj_per_bit=34.0,
        background_power_w=0.50, cost_per_gb=6.0,
    ),
    "DDR3-1066": DRAMTech(
        name="DDR3-1066", peak_bw_bytes_per_s=8.53e9,
        t_cas_ps=_ns(13.1), t_rcd_ps=_ns(13.1), t_rp_ps=_ns(13.1),
        n_banks=8, row_bytes=4096,
        activate_energy_pj=2800.0, access_energy_pj_per_bit=33.0,
        background_power_w=0.55, cost_per_gb=6.0,
    ),
    "DDR3-1333": DRAMTech(
        name="DDR3-1333", peak_bw_bytes_per_s=10.67e9,
        t_cas_ps=_ns(13.5), t_rcd_ps=_ns(13.5), t_rp_ps=_ns(13.5),
        n_banks=8, row_bytes=4096,
        activate_energy_pj=2900.0, access_energy_pj_per_bit=32.0,
        background_power_w=0.60, cost_per_gb=6.0,
    ),
    "DDR3-1600": DRAMTech(
        name="DDR3-1600", peak_bw_bytes_per_s=12.8e9,
        t_cas_ps=_ns(12.5), t_rcd_ps=_ns(12.5), t_rp_ps=_ns(12.5),
        n_banks=8, row_bytes=4096,
        activate_energy_pj=3000.0, access_energy_pj_per_bit=31.0,
        background_power_w=0.65, cost_per_gb=6.5,
    ),
    "GDDR5": DRAMTech(
        name="GDDR5", peak_bw_bytes_per_s=80.0e9,
        t_cas_ps=_ns(12.0), t_rcd_ps=_ns(12.0), t_rp_ps=_ns(12.0),
        n_banks=16, row_bytes=2048,
        activate_energy_pj=2600.0, access_energy_pj_per_bit=28.0,
        background_power_w=4.5, cost_per_gb=12.0,
    ),
}


def tech(name: str) -> DRAMTech:
    try:
        return TECHNOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown memory technology {name!r}; options: {sorted(TECHNOLOGIES)}"
        ) from None


@dataclass
class DRAMStats:
    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bytes_moved: int = 0
    busy_time_ps: SimTime = 0
    dynamic_energy_pj: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.requests if self.requests else 0.0


class DRAMModel:
    """Functional bank/row-buffer/channel timing model for one channel group.

    Requests are presented in non-decreasing arrival time (the usual DES
    discipline); ``request`` returns the completion timestamp.
    """

    def __init__(self, technology: str = "DDR3-1333", channels: int = 1):
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.tech = tech(technology)
        self.channels = channels
        t = self.tech
        total_banks = t.n_banks * channels
        self._open_row = [-1] * total_banks
        self._bank_ready: list = [0] * total_banks
        self._channel_free: list = [0] * channels
        self.stats = DRAMStats()

    @property
    def peak_bandwidth(self) -> float:
        return self.tech.peak_bw_bytes_per_s * self.channels

    def _map(self, addr: int) -> Tuple[int, int, int]:
        """addr -> (channel, global bank index, row)."""
        t = self.tech
        row_global = addr // t.row_bytes
        channel = row_global % self.channels
        bank_local = (row_global // self.channels) % t.n_banks
        row = row_global // (self.channels * t.n_banks)
        return channel, channel * t.n_banks + bank_local, row

    def request(self, now_ps: SimTime, addr: int, size: int = 64,
                is_write: bool = False) -> SimTime:
        """Issue one transaction at ``now_ps``; returns completion time."""
        t = self.tech
        channel, bank, row = self._map(addr)
        # Command issue: the bank accepts a new column command once the
        # previous one's command slot has passed.
        issue = max(now_ps, self._bank_ready[bank])
        transfer = bytes_time(size, t.peak_bw_bytes_per_s)
        if self._open_row[bank] == row:
            self.stats.row_hits += 1
            access = t.t_cas_ps
            # Column commands pipeline at tCCD ~= the burst time; CAS is
            # pure latency, not occupancy.  This is what lets open-row
            # streams run at the channel's peak bandwidth.
            self._bank_ready[bank] = issue + transfer
        else:
            self.stats.row_misses += 1
            access = t.row_miss_latency_ps
            self._open_row[bank] = row
            self.stats.dynamic_energy_pj += t.activate_energy_pj
            # No new column command to this bank until precharge+activate
            # complete.
            self._bank_ready[bank] = issue + t.t_rp_ps + t.t_rcd_ps
        # Data must also win the channel (bandwidth serialisation).
        data_start = max(issue + access, self._channel_free[channel])
        done = data_start + transfer
        self._channel_free[channel] = done
        self.stats.requests += 1
        self.stats.bytes_moved += size
        self.stats.busy_time_ps += done - issue
        self.stats.dynamic_energy_pj += size * 8 * t.access_energy_pj_per_bit
        return done

    def energy_joules(self, elapsed_ps: SimTime) -> float:
        """Total energy over ``elapsed_ps``: dynamic + background."""
        background = self.tech.background_power_w * self.channels * (
            elapsed_ps / 1e12
        )
        return self.stats.dynamic_energy_pj * 1e-12 + background

    def average_power_w(self, elapsed_ps: SimTime) -> float:
        if elapsed_ps <= 0:
            return 0.0
        return self.energy_joules(elapsed_ps) / (elapsed_ps / 1e12)

    def cost_dollars(self, capacity_gb: float) -> float:
        return self.tech.cost_per_gb * capacity_gb

    def achieved_bandwidth(self, elapsed_ps: SimTime) -> float:
        if elapsed_ps <= 0:
            return 0.0
        return self.stats.bytes_moved / (elapsed_ps / 1e12)


@register("memory.MainMemory")
class MainMemory(Component):
    """Event-driven memory endpoint wrapping a :class:`DRAMModel`.

    Port ``cpu``: receives :class:`MemRequest`, responds with
    :class:`MemResponse` at the DRAM-model completion time.

    Parameters: ``technology`` (key of :data:`TECHNOLOGIES`),
    ``channels``, ``capacity`` (for cost accounting, e.g. "16GB"),
    ``controller_latency`` (fixed front-end latency, default "10ns").
    """

    cpu = port("memory requests in / responses out",
               event=MemRequest, handler="on_request")

    model = state(doc="DRAMModel bank/row/channel timing state")

    s_reads = stat.counter(doc="read transactions")
    s_writes = stat.counter(doc="write transactions")
    s_latency = stat.accumulator("latency_ps", doc="request latency")
    s_row_hits = stat.counter(doc="row-buffer hits (mirrored at finish)")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.model = DRAMModel(p.find_str("technology", "DDR3-1333"),
                               channels=p.find_int("channels", 1))
        self.capacity_gb = p.find_size_bytes("capacity", "4GB") / 1024**3
        self.controller_latency = p.find_time("controller_latency", "10ns")

    def on_request(self, event) -> None:
        assert isinstance(event, MemRequest)
        arrival = self.now + self.controller_latency
        done = self.model.request(arrival, event.addr, event.size,
                                  event.is_write)
        (self.s_writes if event.is_write else self.s_reads).add()
        self.s_latency.add(done - self.now)
        self.port("cpu").send(MemResponse(event, level="dram"),
                              max(0, done - self.now))

    def on_finish(self) -> None:
        self.s_row_hits.add(self.model.stats.row_hits - self.s_row_hits.count)


@register("memory.SimpleMemory")
class SimpleMemory(Component):
    """Fixed-latency memory endpoint (for tests and minimal examples)."""

    cpu = port("memory requests in / responses out",
               event=MemRequest, handler="on_request")

    s_requests = stat.counter(doc="requests served")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.latency = self.params.find_time("latency", "60ns")

    def on_request(self, event) -> None:
        assert isinstance(event, MemRequest)
        self.s_requests.add()
        self.port("cpu").send(MemResponse(event, level="memory"),
                              self.latency)
