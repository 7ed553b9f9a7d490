"""Node-level bulk memory endpoint.

:class:`NodeMemory` is the memory side of the block-stepped abstract
processor model (``processor.MixCore``): cores hand it the *aggregate*
DRAM traffic of an instruction block as a
:class:`~repro.processor.core.BulkMemRequest`, and the transfer is
serialised through the DRAM channel state.  When several cores stream
simultaneously they therefore split the technology's peak bandwidth —
the mechanism behind the memory-technology study (Fig. 10) and the
cores-per-node study (Fig. 2).

Lives in :mod:`repro.memory` (not the processor package) so the
component registry's lazy library loading finds ``memory.NodeMemory``.
The event classes are duck-typed (``nbytes``/``accesses`` attributes)
to avoid a circular import with the processor package.
"""

from __future__ import annotations

from typing import Tuple

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime
from .dram import DRAMModel


@register("memory.NodeMemory")
class NodeMemory(Component):
    """Bulk-traffic memory endpoint shared by the cores of one node.

    Ports ``core0`` .. ``core{n_ports-1}`` receive bulk requests (events
    with ``nbytes``, ``accesses`` and ``req_id`` attributes) and return
    bulk responses when the transfer completes.

    Parameters: ``technology`` (key in
    :data:`repro.memory.dram.TECHNOLOGIES`), ``channels``, ``n_ports``,
    ``row_locality`` (fraction of a bulk transfer that row-hits, for
    energy accounting).
    """

    core = port("bulk requests in / responses out", name="core<i>")

    dram = state(doc="DRAMModel channel/energy bookkeeping")
    _channel_free = state(0, doc="time the bulk channel next frees up")
    _bulk = state(dict, save=False,
                  doc="(nbytes, accesses) -> (transfer time, requests, row "
                      "misses, row hits, energy), memoized per transfer shape")

    s_bytes = stat.counter(doc="bulk bytes transferred")
    s_requests = stat.counter(doc="bulk transfers served")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.dram = DRAMModel(p.find_str("technology", "DDR3-1333"),
                              channels=p.find_int("channels", 1))
        self.n_ports = p.find_int("n_ports", 1)
        self.row_locality = p.find_float("row_locality", 0.6)
        for i in range(self.n_ports):
            self.set_handler(f"core{i}", self._make_handler(i))

    def _make_handler(self, port_index: int):
        from ..processor.core import BulkMemRequest, BulkMemResponse

        # The closure holds its Port: links are wired after this
        # handler is built, and ``core_port.send`` follows the wiring.
        core_port = self.port(f"core{port_index}")
        sim = self.sim

        def handler(event):
            assert isinstance(event, BulkMemRequest)
            now = sim.now
            nbytes = event.nbytes
            done = self.bulk_completion(now, nbytes, event.accesses)
            self.s_bytes.add(nbytes)
            self.s_requests.add()
            core_port.send(BulkMemResponse(event.req_id), max(0, done - now))

        return handler

    def _shape(self, nbytes: int, accesses: int) -> Tuple:
        """What a transfer of this shape costs, whenever it runs:
        ``(transfer_ps, requests, row_misses, row_hits, energy_pj)``."""
        tech = self.dram.tech
        bw = self.dram.peak_bandwidth
        transfer_ps = int(round(nbytes / bw * 1e12)) if nbytes else 0
        requests = max(1, accesses)
        row_misses = int(round(requests * (1.0 - self.row_locality)))
        energy_pj = (row_misses * tech.activate_energy_pj
                     + nbytes * 8 * tech.access_energy_pj_per_bit)
        return (transfer_ps, requests, row_misses, requests - row_misses,
                energy_pj)

    def bulk_completion(self, now_ps: SimTime, nbytes: int,
                        accesses: int) -> SimTime:
        """Serialise a bulk transfer through the channel; returns done time."""
        key = (nbytes, accesses)
        shape = self._bulk.get(key)
        if shape is None:
            shape = self._bulk[key] = self._shape(nbytes, accesses)
        transfer_ps, requests, row_misses, row_hits, energy_pj = shape
        start = max(now_ps, self._channel_free)
        done = start + transfer_ps
        self._channel_free = done
        # Account energy/stats through the underlying model's bookkeeping.
        stats = self.dram.stats
        stats.requests += requests
        stats.row_misses += row_misses
        stats.row_hits += row_hits
        stats.bytes_moved += nbytes
        stats.busy_time_ps += transfer_ps
        stats.dynamic_energy_pj += energy_pj
        return done
