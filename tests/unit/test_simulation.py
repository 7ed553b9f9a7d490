"""Unit tests for the sequential engine, clocks, links and components."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (Component, Event, LinkError, Params, Simulation,
                        SimulationError, describe_handler)
from tests.conftest import Clocked, PingPong, Sink, Source, Token


class TestBasicRun:
    def test_empty_simulation_exhausts(self):
        result = Simulation().run()
        assert result.reason == "exhausted"
        assert result.events_executed == 0
        assert result.end_time == 0

    def test_pingpong_runs_to_exit(self, make_pingpong):
        sim = Simulation(seed=1)
        ping, pong = make_pingpong(sim, n=10, latency="5ns")
        result = sim.run()
        assert result.reason == "exit"
        assert ping.received.count == 10
        assert pong.received.count == 10
        # Each one-way trip is 5ns; ping receives its 10th at 20 trips.
        assert result.end_time == 20 * 5000

    def test_max_time_stops_run(self, make_pingpong):
        sim = Simulation()
        make_pingpong(sim, n=10**9, latency="5ns")
        result = sim.run(max_time="100ns")
        assert result.reason == "max_time"
        assert result.end_time == 100_000

    def test_max_time_inclusive(self):
        sim = Simulation()
        sink = Sink(sim, "sink")
        source = Source(sim, "src", Params({"count": 3, "period": "10ns"}))
        sim.connect(source, "out", sink, "in", latency="1ns")
        result = sim.run(max_time="11ns")
        # Token emitted at 10ns arrives at 11ns: inclusive limit runs it.
        assert sink.received.count == 1
        assert result.reason in ("max_time", "exhausted")

    def test_max_events(self, make_pingpong):
        sim = Simulation()
        make_pingpong(sim, n=10**9)
        result = sim.run(max_events=7)
        assert result.reason == "max_events"
        assert result.events_executed == 7

    def test_end_simulation_stops(self):
        sim = Simulation()

        class Stopper(Component):
            def setup(self):
                self.schedule(5000, lambda _: self.sim.end_simulation())

        Stopper(sim, "stopper")
        result = sim.run()
        assert result.reason == "stopped"
        assert result.end_time == 5000

    def test_run_reentry_rejected(self):
        sim = Simulation()

        class Reenter(Component):
            def setup(self):
                self.schedule(1, self._go)

            def _go(self, _):
                self.sim.run()

        Reenter(sim, "re")
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_counted(self, make_pingpong):
        sim = Simulation()
        make_pingpong(sim, n=5)
        result = sim.run()
        assert result.events_executed == 10  # 5 round trips = 10 deliveries
        assert sim.events_executed == 10


class TestSchedulingRules:
    def test_past_scheduling_rejected(self):
        sim = Simulation()

        class BadComp(Component):
            def setup(self):
                self.schedule(100, self._fire)

            def _fire(self, _):
                # Directly poke the engine with a past timestamp.
                self.sim._push(self.sim.now - 50, 50, lambda e: None, None)

        BadComp(sim, "bad")
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulation()
        comp = Component(sim, "c")
        sim.setup()
        with pytest.raises(SimulationError):
            comp.schedule(-1, lambda _: None)

    def test_callback_payload(self):
        sim = Simulation()
        seen = []
        comp = Component(sim, "c")
        sim.setup()
        comp.schedule(10, seen.append, payload="hello")
        sim.run()
        assert seen == ["hello"]

    def test_callbacks_fire_in_time_order(self):
        sim = Simulation()
        comp = Component(sim, "c")
        sim.setup()
        order = []
        comp.schedule(30, lambda _: order.append(30))
        comp.schedule(10, lambda _: order.append(10))
        comp.schedule(20, lambda _: order.append(20))
        sim.run()
        assert order == [10, 20, 30]


class TestLinks:
    def test_send_on_unconnected_port(self):
        sim = Simulation()
        comp = Component(sim, "c")
        sim.setup()
        with pytest.raises(LinkError):
            comp.send("nowhere", Event())

    def test_double_connect_rejected(self):
        sim = Simulation()
        a, b, c = Component(sim, "a"), Component(sim, "b"), Component(sim, "c")
        sim.connect(a, "p", b, "p", latency="1ns")
        with pytest.raises(LinkError):
            sim.connect(a, "p", c, "p", latency="1ns")

    def test_zero_latency_rejected(self):
        sim = Simulation()
        a, b = Component(sim, "a"), Component(sim, "b")
        with pytest.raises(LinkError):
            sim.connect(a, "p", b, "p", latency=0)

    def test_delivery_without_handler_raises(self):
        sim = Simulation()
        a, b = Component(sim, "a"), Component(sim, "b")
        sim.connect(a, "out", b, "in", latency="1ns")
        sim.setup()
        a.send("out", Event())
        with pytest.raises(LinkError):
            sim.run()

    def test_extra_delay_adds_to_latency(self):
        sim = Simulation()
        sink = Sink(sim, "sink")
        src = Component(sim, "src")
        sim.connect(src, "out", sink, "in", latency="10ns")
        sim.setup()
        when = src.port("out").endpoint.send(Event(), extra_delay=5000)
        assert when == 15_000
        sim.run()
        assert sink.arrival_times == [15_000]

    def test_self_link(self):
        sim = Simulation()

        class Echo(Component):
            def __init__(self, sim_, name, params=None):
                super().__init__(sim_, name, params)
                self.times = []
                self.set_handler("loop", self.on_loop)

            def setup(self):
                self.send("loop", Token())

            def on_loop(self, event):
                self.times.append(self.now)
                if len(self.times) < 3:
                    self.send("loop", event)

        echo = Echo(sim, "echo")
        sim.self_link(echo, "loop", latency="7ns")
        sim.run()
        assert echo.times == [7000, 14000, 21000]

    def test_link_latency_query(self):
        sim = Simulation()
        a, b = Component(sim, "a"), Component(sim, "b")
        sim.connect(a, "p", b, "q", latency="42ns")
        assert a.link_latency("p") == 42_000
        assert b.link_latency("q") == 42_000
        with pytest.raises(LinkError):
            a.link_latency("other")


class TestClocks:
    def test_tick_count_and_times(self):
        sim = Simulation()
        comp = Clocked(sim, "c", Params({"clock": "1GHz", "n_ticks": 5}))
        sim.run()
        assert comp.ticks.count == 5
        assert sim.now == 5000  # 5 ticks at 1ns

    def test_handler_true_unregisters(self):
        sim = Simulation()
        comp = Clocked(sim, "c", Params({"clock": "2GHz", "n_ticks": 3}))
        result = sim.run()
        assert result.reason == "exhausted"
        assert comp.ticks.count == 3
        assert not comp.clock.active

    def test_cancel_and_reactivate_alignment(self):
        sim = Simulation()
        ticks = []

        class Gated(Component):
            def setup(self):
                self.clock = self.register_clock("1GHz", self.on_tick)
                self.schedule(2500, lambda _: self.clock.cancel())
                self.schedule(5500, lambda _: self.clock.reactivate())
                self.schedule(8500, lambda _: self.clock.cancel())

            def on_tick(self, cycle):
                ticks.append(self.now)

        Gated(sim, "g")
        sim.run(max_time="10ns")
        # Ticks at 1ns,2ns; cancelled at 2.5ns; resumes aligned: 6,7,8ns.
        assert ticks == [1000, 2000, 6000, 7000, 8000]

    def test_phase_offsets_first_tick(self):
        sim = Simulation()
        times = []

        class Phased(Component):
            def setup(self):
                self.register_clock("1GHz", lambda c: times.append(self.now),
                                    phase=300)

        Phased(sim, "p")
        sim.run(max_events=3)
        assert times == [1300, 2300, 3300]

    def test_two_clocks_interleave_deterministically(self):
        sim = Simulation()
        log = []

        class Dual(Component):
            def setup(self):
                self.register_clock("1GHz", lambda c: (log.append(("a", self.now)), True)[1] and None)
                self.register_clock("2GHz", lambda c: (log.append(("b", self.now)), True)[1] and None)

        Dual(sim, "d")
        sim.run(max_time="2ns")
        assert log == [("b", 500), ("a", 1000), ("b", 1000), ("b", 1500),
                       ("a", 2000), ("b", 2000)]

    @pytest.mark.parametrize("period, phase, field", [
        (0, 0, "period"), (-1000, 0, "period"), (1000, -5, "phase")])
    def test_invalid_clock_rejected_before_any_arbiter(self, period, phase,
                                                       field):
        sim = Simulation()
        with pytest.raises(ValueError, match=f"clock 'bad'.*{field}"):
            sim.register_clock(period, lambda cycle: None, name="bad",
                               phase=phase)
        assert sim._arbiters == {}
        assert sim._clocks == []

    def test_clock_state_ignores_old_generation_key(self):
        """Shards from before the per-clock chain was deleted carry a
        ``generation`` stamp; new captures have none and restores skip it."""
        sim = Simulation()
        clock = sim.register_clock("1GHz", lambda cycle: None, name="c")
        state = clock.capture_state()
        assert "generation" not in state
        clock.restore_state({**state, "cycle": 4, "next_tick": 5000,
                             "generation": 3})
        assert (clock.cycle, clock.next_tick_time) == (4, 5000)


# Every clock boundary is a multiple of 100 ps and every scheduled
# cancel/reactivate lands at 50 mod 100, so no action ever ties with a
# tick and the reference model needs no priorities.
_HORIZON = 6000
_PERIODS = (200, 300, 400, 600)


@st.composite
def _clock_schedules(draw):
    """``(specs, actions)``: per clock ``(period, phase, stop, wake)`` —
    the handler returns True on every ``stop``-th cycle and reactivates
    clock ``wake`` on each tick — plus timed ``(time, clock, op)``.

    A wake target never unregisters itself, so it is inactive at a
    boundary only if a timed cancel made it so: who fires at a boundary
    then does not depend on the order its members fire in."""
    n = draw(st.integers(1, 6))
    wakes = [draw(st.none() | st.integers(0, n - 1)) for _ in range(n)]
    specs = [(draw(st.sampled_from(_PERIODS)),
              draw(st.integers(0, 6)) * 100,
              None if i in wakes else draw(st.sampled_from([None, 1, 2, 3])),
              wakes[i])
             for i in range(n)]
    actions = draw(st.lists(
        st.tuples(st.integers(0, _HORIZON // 100 - 1).map(lambda k: k * 100 + 50),
                  st.integers(0, n - 1),
                  st.sampled_from(["cancel", "reactivate"])),
        max_size=12))
    return specs, sorted(actions)


def _reference(specs, actions):
    """Each clock ticks alone on its aligned boundaries, clocks sharing
    a boundary fire in registration order: ``[(time, cycle, clock)]``."""
    due = [phase + period for period, phase, _stop, _wake in specs]
    cycle = [0] * len(specs)
    active = [True] * len(specs)
    log, pending = [], list(actions)

    def reactivate(i, now):
        if not active[i]:
            active[i] = True
            if due[i] <= now:
                due[i] += ((now - due[i]) // specs[i][0] + 1) * specs[i][0]

    while True:
        t = min([d for d, on in zip(due, active) if on] + [_HORIZON + 1])
        if pending and pending[0][0] < t:
            when, i, op = pending.pop(0)
            if op == "cancel":
                active[i] = False
            else:
                reactivate(i, when)
            continue
        if t > _HORIZON:
            return log
        for i, (period, _phase, stop, wake) in enumerate(specs):
            if active[i] and due[i] == t:
                cycle[i] += 1
                log.append((t, cycle[i], i))
                if wake is not None:
                    reactivate(wake, t)
                if stop and cycle[i] % stop == 0:
                    active[i] = False
                else:
                    due[i] += period


class TestClockArbiterReference:
    """The shared-chain arbiter against per-clock semantics: random
    periods, phases, self-unregistering handlers, timed cancel/reactivate
    and reactivations made from inside a member's handler (mid-dispatch,
    the resched-hint path)."""

    @given(_clock_schedules(), st.booleans())
    @settings(max_examples=150, deadline=None)
    # A member stops while waking a cancelled earlier member of its own
    # class: only the resched hint re-arms the chain for the woken one.
    @example(([(200, 0, None, None), (200, 0, 1, 0)], [(50, 0, "cancel")]),
             False)
    # Reactivated long after its due time: the realignment skips ahead.
    @example(([(200, 0, None, None)], [(250, 0, "cancel"),
                                       (650, 0, "reactivate")]), True)
    def test_firings_match_per_clock_model(self, schedule, observed):
        specs, actions = schedule
        sim = Simulation()
        log, seen, spans, clocks = [], [], [], []

        def handler(i, stop, wake):
            def on_tick(cycle):
                log.append((sim.now, cycle, i))
                if wake is not None:
                    clocks[wake].reactivate()
                return bool(stop) and cycle % stop == 0
            return on_tick

        for i, (period, phase, stop, wake) in enumerate(specs):
            clocks.append(sim.register_clock(period, handler(i, stop, wake),
                                             name=f"c{i}", phase=phase))
        for when, i, op in actions:
            sim.schedule_callback(when, lambda _, fn=getattr(clocks[i], op): fn())
        if observed:
            sim.add_trace_observer(
                lambda t, h, e: seen.append((t, describe_handler(h))))
            sim.add_span_observer(
                lambda t, h, e, wall: spans.append((t, describe_handler(h))))
        sim.run(max_time=_HORIZON)

        expected = _reference(specs, actions)
        for i in range(len(specs)):
            assert [(t, c) for t, c, j in log if j == i] == \
                [(t, c) for t, c, j in expected if j == i], f"clock c{i}"
        # Within one boundary, the never-disturbed members of one
        # (period, phase residue) class fire in registration order.
        disturbed = {i for _t, i, _op in actions} | \
            {wake for *_spec, wake in specs}
        klass = [(period, phase % period) for period, phase, _s, _w in specs]

        def steady(entries):
            return sorted(((t, klass[i], i) for t, _c, i in entries
                           if i not in disturbed),
                          key=lambda entry: entry[:2])

        assert steady(log) == steady(expected)
        if observed:
            ticks = [(t, f"clock:c{i}") for t, _c, i in log]
            assert [e for e in seen if e[1].startswith("clock:")] == ticks
            assert [e for e in spans if e[1].startswith("clock:")] == ticks


class TestComponentFramework:
    def test_duplicate_names_rejected(self):
        sim = Simulation()
        Component(sim, "same")
        with pytest.raises(SimulationError):
            Component(sim, "same")

    def test_add_after_setup_rejected(self):
        sim = Simulation()
        sim.setup()
        with pytest.raises(SimulationError):
            Component(sim, "late")

    def test_component_lookup(self):
        sim = Simulation()
        c = Component(sim, "c")
        assert sim.component("c") is c
        with pytest.raises(SimulationError):
            sim.component("ghost")

    def test_stats_namespacing(self, make_pingpong):
        sim = Simulation()
        make_pingpong(sim, n=3)
        sim.run()
        values = sim.stat_values()
        assert values["ping.received"] == 3
        assert values["pong.received"] == 3

    def test_rng_deterministic_across_sims(self):
        values = []
        for _ in range(2):
            sim = Simulation(seed=99)
            comp = Component(sim, "c")
            values.append(comp.rng.integers(0, 10**9))
        assert values[0] == values[1]

    def test_rng_differs_by_name_and_seed(self):
        sim = Simulation(seed=1)
        a, b = Component(sim, "a"), Component(sim, "b")
        assert a.rng.integers(0, 10**9) != b.rng.integers(0, 10**9)
        sim2 = Simulation(seed=2)
        a2 = Component(sim2, "a")
        sim1 = Simulation(seed=1)
        a1 = Component(sim1, "a")
        assert a1.rng.integers(0, 10**9) != a2.rng.integers(0, 10**9)

    def test_finish_called_once(self):
        sim = Simulation()
        calls = []

        class F(Component):
            def finish(self):
                calls.append(1)

        F(sim, "f")
        sim.run()
        sim.finish()
        assert calls == [1]

    def test_setup_idempotent(self):
        sim = Simulation()
        calls = []

        class S(Component):
            def setup(self):
                calls.append(1)

        S(sim, "s")
        sim.setup()
        sim.setup()
        assert calls == [1]

    def test_stat_table_renders(self, make_pingpong):
        sim = Simulation()
        make_pingpong(sim, n=2)
        sim.run()
        table = sim.stat_table()
        assert "ping.received" in table
        assert "counter" in table


class TestDeterminism:
    def test_identical_runs_identical_stats(self, make_pingpong):
        def run_once():
            sim = Simulation(seed=5)
            make_pingpong(sim, n=20, latency="3ns")
            sim.run()
            return sim.stat_values(), sim.now

        first, second = run_once(), run_once()
        assert first == second
