"""Shared-bandwidth on-node resources.

The cores-per-node studies (Fig. 2) hinge on one mechanism: all cores on
a socket share finite memory bandwidth, so per-core efficiency falls as
cores are added.  Two forms:

* :class:`BandwidthShare` — functional: given per-core demand and a
  shared peak, returns the slowdown each core experiences.  The
  miniapp phase models use this directly.
* :class:`SharedBus` — an event-driven bus component with N upstream
  ports and one downstream port; requests serialise over the bus's
  bandwidth in both directions and responses are steered back to the
  requesting port.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime, bytes_time
from .events import MemRequest, MemResponse


class BandwidthShare:
    """Analytic bandwidth-contention model.

    ``n`` identical clients each demanding ``demand`` bytes/s from a
    shared resource with ``peak`` bytes/s capacity get effective
    bandwidth ``min(demand, peak/n)``; the slowdown of a
    bandwidth-bound phase is ``demand / effective``.
    """

    def __init__(self, peak_bytes_per_s: float):
        if peak_bytes_per_s <= 0:
            raise ValueError("peak bandwidth must be positive")
        self.peak = peak_bytes_per_s

    def effective_bandwidth(self, n_clients: int, demand_bytes_per_s: float) -> float:
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        return min(demand_bytes_per_s, self.peak / n_clients)

    def slowdown(self, n_clients: int, demand_bytes_per_s: float) -> float:
        """Runtime multiplier for a fully bandwidth-bound phase."""
        eff = self.effective_bandwidth(n_clients, demand_bytes_per_s)
        return demand_bytes_per_s / eff

    def phase_time(self, base_time_s: float, bandwidth_fraction: float,
                   n_clients: int, demand_bytes_per_s: float) -> float:
        """Runtime of a phase that is only partially bandwidth-bound.

        ``bandwidth_fraction`` of ``base_time_s`` scales with contention;
        the rest (compute) is unaffected — a simple Amdahl split that
        reproduces the FEA-vs-solver contrast of Figs. 2-3.
        """
        if not 0.0 <= bandwidth_fraction <= 1.0:
            raise ValueError("bandwidth_fraction must be in [0,1]")
        s = self.slowdown(n_clients, demand_bytes_per_s)
        return base_time_s * ((1.0 - bandwidth_fraction) + bandwidth_fraction * s)


@register("memory.SharedBus")
class SharedBus(Component):
    """Bandwidth-limited bus joining N upstream clients to one memory.

    Ports: ``cpu0`` .. ``cpu{n_ports-1}`` upstream, ``mem`` downstream.
    Parameters: ``n_ports``, ``bandwidth`` (e.g. "10.67GB/s"),
    ``arbitration_latency``.

    Requests queue for the bus; each occupies it for
    ``size / bandwidth``.  Responses traverse the bus the same way and
    are steered back to the port the request arrived on (recorded in
    ``src_port``).
    """

    cpu = port("upstream client ports", name="cpu<i>", event=MemRequest)
    mem = port("downstream memory", event=MemResponse, handler="on_response")

    _bus_free = state(0, doc="time the bus next becomes free")
    _route = state(dict, doc="req id -> upstream port index")

    s_transfers = stat.counter(doc="bus occupancies (both directions)")
    s_bus_wait = stat.accumulator("bus_wait_ps", doc="arbitration wait")
    s_bytes = stat.counter(doc="bytes moved over the bus")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.n_ports = p.find_int("n_ports", 2)
        self.bandwidth = p.find_bandwidth("bandwidth", "10.67GB/s")
        self.arb_latency = p.find_time("arbitration_latency", "1ns")
        for i in range(self.n_ports):
            self.set_handler(f"cpu{i}", self._make_upstream_handler(i))

    def _occupy(self, size: int) -> SimTime:
        """Reserve the bus for ``size`` bytes; returns the finish delay."""
        transfer = bytes_time(size, self.bandwidth)
        start = max(self.now + self.arb_latency, self._bus_free)
        self.s_bus_wait.add(start - self.now)
        self._bus_free = start + transfer
        self.s_transfers.add()
        self.s_bytes.add(size)
        return self._bus_free - self.now

    def _make_upstream_handler(self, port_index: int):
        mem_port = self.port("mem")

        def handler(event):
            assert isinstance(event, MemRequest)
            self._route[event.req_id] = port_index
            event.src_port = port_index
            delay = self._occupy(event.size)
            mem_port.send(event, delay)

        return handler

    def on_response(self, event) -> None:
        assert isinstance(event, MemResponse)
        port_index = self._route.pop(event.req_id, event.src_port)
        if port_index is None:
            raise RuntimeError(
                f"{self.name}: response id={event.req_id} has no return route"
            )
        delay = self._occupy(64)  # response carries one line
        self.port(f"cpu{port_index}").send(event, delay)
