"""Synthetic network traffic endpoints.

Generic message sources/sinks for exercising NIC + router fabrics
without a full miniapp: each :class:`PatternEndpoint` sends ``count``
messages of ``size`` bytes according to a pattern, with a bounded
send window, and measures end-to-end latency on the receive side.

Patterns:

* ``uniform``    — destinations drawn uniformly from all other endpoints;
* ``neighbor``   — fixed partner ``(self + 1) % n`` (ring nearest-neighbour);
* ``bitcomplement`` — partner ``n - 1 - self`` (worst-case torus distance);
* ``hotspot``    — everyone sends to endpoint 0;
* ``shift``      — fixed partner ``(self + shift_amount) % n`` — with
  ``shift_amount`` = endpoints-per-group this is the classic dragonfly
  adversarial pattern (every group hammers one neighbouring group).
"""

from __future__ import annotations

from typing import Optional

from ..core.component import Component, port, stat, state
from ..core.registry import register
from .message import NetMessage

PATTERNS = ("uniform", "neighbor", "bitcomplement", "hotspot", "shift")


@register("network.PatternEndpoint")
class PatternEndpoint(Component):
    """Traffic generator + latency-measuring sink behind one NIC.

    Ports: ``nic``.  Parameters: ``endpoint_id``, ``n_endpoints``,
    ``pattern``, ``count`` (messages to send), ``size`` (bytes),
    ``window`` (max unacked sends in flight; acks are modelled by the
    arrival of our partner's messages in symmetric patterns, so window
    here simply rate-limits via a fixed ``gap`` between sends),
    ``gap`` (inter-send spacing, default "1us").

    Statistics: ``sent``, ``received``, ``latency_ps``, ``hops``.
    """

    nic = port("messages out to / in from the local NIC",
               event=NetMessage, handler="on_message")

    _sent = state(0, gauge=True, doc="emissions so far (including skips)")

    s_sent = stat.counter(doc="messages actually sent")
    s_received = stat.counter(doc="messages received")
    s_latency = stat.accumulator("latency_ps", doc="end-to-end latency")
    s_hops = stat.accumulator(doc="router hops per message")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.endpoint_id = p.find_int("endpoint_id")
        self.n_endpoints = p.find_int("n_endpoints")
        self.pattern = p.find_str("pattern", "uniform")
        if self.pattern not in PATTERNS:
            raise ValueError(f"{name}: unknown pattern {self.pattern!r}")
        self.count = p.find_int("count", 10)
        self.size = p.find_size_bytes("size", "4KB")
        self.gap = p.find_time("gap", "1us")
        self.shift_amount = p.find_int("shift_amount", 1)
        # Receive quota for the exit protocol: the simulation must not end
        # while messages this endpoint is due are still in flight.  -1 =
        # derive from the pattern ("uniform" has no per-endpoint quota and
        # derives to 0, so uniform runs bound completion with max_time or
        # rely on the senders' quotas).
        expected = p.find_int("expected", -1)
        if expected < 0:
            expected = self._auto_expected()
        self.expected = expected
        if self.count > 0 or self.expected > 0:
            self.register_as_primary()

    def on_setup(self) -> None:
        if self.count > 0:
            self.schedule(self.gap, self._emit)

    def _dest(self) -> Optional[int]:
        n = self.n_endpoints
        if n <= 1:
            return None
        if self.pattern == "neighbor":
            return (self.endpoint_id + 1) % n
        if self.pattern == "bitcomplement":
            dest = n - 1 - self.endpoint_id
            return dest if dest != self.endpoint_id else None
        if self.pattern == "hotspot":
            return 0 if self.endpoint_id != 0 else None
        if self.pattern == "shift":
            dest = (self.endpoint_id + self.shift_amount) % n
            return dest if dest != self.endpoint_id else None
        # uniform
        dest = int(self.rng.integers(0, n - 1))
        return dest if dest < self.endpoint_id else dest + 1

    def _auto_expected(self) -> int:
        """Per-pattern receive quota (how many messages are headed here)."""
        n, c = self.n_endpoints, self.count
        if n <= 1:
            return 0
        if self.pattern == "neighbor":
            return c
        if self.pattern == "bitcomplement":
            partner = n - 1 - self.endpoint_id
            return c if partner != self.endpoint_id else 0
        if self.pattern == "hotspot":
            return (n - 1) * c if self.endpoint_id == 0 else 0
        if self.pattern == "shift":
            sender = (self.endpoint_id - self.shift_amount) % n
            return c if sender != self.endpoint_id else 0
        return 0  # uniform: no deterministic per-endpoint quota

    def _check_done(self) -> None:
        if self._sent >= self.count and self.s_received.count >= self.expected:
            self.primary_ok_to_end()

    def _emit(self, _payload=None) -> None:
        dest = self._dest()
        if dest is not None:
            self.port("nic").send(NetMessage(self.endpoint_id, dest,
                                             self.size, tag=self.pattern))
            self.s_sent.add()
        self._sent += 1
        if self._sent < self.count:
            self.schedule(self.gap, self._emit)
        else:
            self._check_done()

    def on_message(self, event) -> None:
        assert isinstance(event, NetMessage)
        if event.dest != self.endpoint_id:
            raise RuntimeError(
                f"{self.name}: misrouted message {event!r} "
                f"(I am endpoint {self.endpoint_id})"
            )
        self.s_received.add()
        self.s_latency.add(self.now - event.send_time)
        self.s_hops.add(event.hops)
        self._check_done()
