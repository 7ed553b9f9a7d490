"""Shared test fixtures: tiny components exercising the engine APIs."""

from __future__ import annotations

import pytest

from repro.core import Component, Event, Params, port, register


class Token(Event):
    """A payload-bearing test event."""

    __slots__ = ("value", "hops")

    def __init__(self, value: int = 0, hops: int = 0):
        self.value = value
        self.hops = hops


@register("testlib.PingPong")
class PingPong(Component):
    """Bounces a token back and forth ``n_round_trips`` times.

    Both sides count received tokens; the side constructed with
    ``initiator=True`` serves and stops the simulation via the primary
    exit protocol once its quota is met.
    """

    io = port("bidirectional token port")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.quota = self.params.find_int("n_round_trips", 10)
        self.initiator = self.params.find_bool("initiator", False)
        self.received = self.stats.counter("received")
        self.latencies = self.stats.accumulator("inter_arrival_ps")
        self._last_arrival = 0
        self.set_handler("io", self.on_token)
        if self.initiator:
            self.register_as_primary()

    def setup(self):
        if self.initiator:
            self.port("io").send(Token(value=1))

    def on_token(self, event):
        assert isinstance(event, Token)
        self.received.add()
        self.latencies.add(self.now - self._last_arrival)
        self._last_arrival = self.now
        if self.initiator and self.received.count >= self.quota:
            self.primary_ok_to_end()
            return
        self.port("io").send(Token(value=event.value + 1, hops=event.hops + 1))


@register("testlib.Clocked")
class Clocked(Component):
    """Counts its own clock ticks; stops after ``n_ticks`` if set."""

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.n_ticks = self.params.find_int("n_ticks", 0)
        self.ticks = self.stats.counter("ticks")
        self.clock = self.register_clock(
            self.params.find_str("clock", "1GHz"), self.on_tick
        )

    def on_tick(self, cycle):
        self.ticks.add()
        if self.n_ticks and cycle >= self.n_ticks:
            return True
        return False


@register("testlib.Sink")
class Sink(Component):
    """Counts everything arriving on its ``in`` port."""

    in_ = port("token sink", name="in", required=False)
    loop = port("self-link endpoint (never sent on)", required=False)

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.received = self.stats.counter("received")
        self.arrival_times = []
        self.set_handler("in", self.on_event)

    def on_event(self, event):
        self.received.add()
        self.arrival_times.append(self.now)


@register("testlib.Source")
class Source(Component):
    """Emits ``count`` tokens on its ``out`` port, one per ``period``."""

    out = port("token source")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.count = self.params.find_int("count", 5)
        self.period = self.params.find_time("period", "1ns")
        self.sent = self.stats.counter("sent")

    def setup(self):
        self.schedule(self.period, self._emit)

    def _emit(self, _payload):
        self.port("out").send(Token(value=self.sent.count))
        self.sent.add()
        if self.sent.count < self.count:
            self.schedule(self.period, self._emit)


@register("testlib.HeldSource")
class HeldSource(Source):
    """A :class:`Source` that holds its ``out`` Port from ``__init__``,
    before any link is wired, and sends through the held Port."""

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.out_port = self.port("out")

    def _emit(self, _payload):
        self.out_port.send(Token(value=self.sent.count))
        self.sent.add()
        if self.sent.count < self.count:
            self.schedule(self.period, self._emit)


@pytest.fixture
def make_pingpong():
    """Factory building a ping-pong pair on a given Simulation-like host."""

    def factory(sim_a, sim_b=None, *, n=10, latency="5ns", connect=None):
        sim_b = sim_b or sim_a
        a = PingPong(sim_a, "ping", Params({"initiator": True, "n_round_trips": n}))
        b = PingPong(sim_b, "pong", Params({}))
        if connect is not None:
            connect(a, "io", b, "io", latency=latency)
        else:
            sim_a.connect(a, "io", b, "io", latency=latency)
        return a, b

    return factory
