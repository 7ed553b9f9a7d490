"""Network interface with a configurable injection-bandwidth throttle.

The NIC is where the paper's bandwidth-degradation experiment (§4.1,
Fig. 9) lives: Sandia modified Cray XT5 boot firmware to clamp each
compute node's link to full / half / quarter / eighth injection
bandwidth while leaving everything else untouched.  Here the same knob
is the ``injection_bandwidth`` parameter: outgoing messages serialise
through the NIC at that rate before entering the router fabric.

Ports: ``cpu`` (endpoint side) and ``net`` (router local port).
Messages also pay a fixed per-message ``send_overhead`` (software +
DMA setup), which is what makes small-message apps (Charon) latency-
rather than bandwidth-sensitive.
"""

from __future__ import annotations

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime, bytes_time
from .message import NetMessage


@register("network.Nic")
class Nic(Component):
    """Injection-throttled network interface.

    Parameters: ``injection_bandwidth`` (e.g. "3.2GB/s"),
    ``ejection_bandwidth`` (default = injection), ``send_overhead``
    (per message, default "500ns"), ``recv_overhead`` (default "300ns").

    Statistics: ``sent``, ``received``, ``bytes_sent``,
    ``injection_wait_ps`` (time spent queued behind the throttle).
    """

    cpu = port("endpoint side: messages to send in / delivered messages out",
               event=NetMessage, handler="on_send")
    net = port("fabric side: router local port",
               event=NetMessage, handler="on_deliver")

    _tx_free = state(0, doc="time the injection path next frees up")
    _rx_free = state(0, doc="time the ejection path next frees up")
    _tx_time = state(dict, save=False,
                     doc="message size -> injection time, memoized "
                         "bytes_time()")
    _rx_time = state(dict, save=False,
                     doc="message size -> ejection time, memoized "
                         "bytes_time()")

    s_sent = stat.counter(doc="messages injected")
    s_received = stat.counter(doc="messages ejected")
    s_bytes_sent = stat.counter(doc="payload bytes injected")
    s_inj_wait = stat.accumulator("injection_wait_ps",
                                  doc="time queued behind the throttle")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.injection_bw = p.find_bandwidth("injection_bandwidth", "3.2GB/s")
        self.ejection_bw = p.find_bandwidth(
            "ejection_bandwidth", self.injection_bw
        )
        self.send_overhead = p.find_time("send_overhead", "500ns")
        self.recv_overhead = p.find_time("recv_overhead", "300ns")

    def on_send(self, event) -> None:
        """Endpoint handed us a message: throttle, then inject."""
        assert isinstance(event, NetMessage)
        now = self.sim.now
        event.send_time = now
        start = now + self.send_overhead
        if self._tx_free > start:
            start = self._tx_free
        self.s_inj_wait.add(start - now)
        size = event.size
        transfer = self._tx_time.get(size)
        if transfer is None:
            transfer = self._tx_time[size] = bytes_time(size, self.injection_bw)
        self._tx_free = start + transfer
        self.s_sent.add()
        self.s_bytes_sent.add(size)
        self._ports["net"].endpoint.send(event, self._tx_free - now)

    def on_deliver(self, event) -> None:
        """Fabric delivered a message: eject and hand to the endpoint."""
        assert isinstance(event, NetMessage)
        now = self.sim.now
        start = self._rx_free if self._rx_free > now else now
        size = event.size
        transfer = self._rx_time.get(size)
        if transfer is None:
            transfer = self._rx_time[size] = bytes_time(size, self.ejection_bw)
        self._rx_free = start + transfer
        self.s_received.add()
        done = self._rx_free + self.recv_overhead
        self._ports["cpu"].endpoint.send(event, done - now)
