"""Unit tests for the sequential engine, clocks, links and components."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (PRIORITY_CLOCK, PRIORITY_EVENT, Component, Event,
                        LinkError, Params, Simulation, SimulationError,
                        describe_handler)
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


class TestExitIsFinal:
    """The exit protocol is checked once at run entry, after setup: an
    engine with no primary component pending dispatches nothing."""

    @staticmethod
    def _machine():
        """A ping-pong that exits at 1 000 ps beside a source that is
        still sending then (50 tokens, one per 100 ps)."""
        from repro.config import ConfigGraph

        graph = ConfigGraph("exit-then-run")
        graph.component("ping", "testlib.PingPong",
                        {"initiator": True, "n_round_trips": 5})
        graph.component("pong", "testlib.PingPong", {})
        graph.link("ping", "io", "pong", "io", latency="100ps")
        graph.component("src", "testlib.Source",
                        {"count": 50, "period": "100ps"})
        graph.component("sink", "testlib.Sink", {})
        graph.link("src", "out", "sink", "in", latency="100ps")
        return graph

    def _exited(self):
        from repro.config import build

        sim = build(self._machine(), seed=3)
        first = sim.run()
        assert (first.reason, first.end_time) == ("exit", 1000)
        return sim

    def test_run_after_exit_dispatches_nothing(self):
        sim = self._exited()
        stats = sim.stat_values()
        again = sim.run()
        assert (again.reason, again.events_executed, again.end_time) == \
            ("exit", 0, 1000)
        assert sim.stat_values() == stats

    def test_restored_post_exit_snapshot_dispatches_nothing(self, tmp_path):
        from repro.ckpt import restore, snapshot

        sim = self._exited()
        resumed = restore(snapshot(sim, tmp_path / "after-exit"))
        result = resumed.run()
        assert (result.reason, result.events_executed, result.end_time) == \
            ("exit", 0, 1000)
        assert resumed.stat_values() == sim.stat_values()

    def test_primaries_ok_to_end_at_setup_exit_before_any_event(self):
        class Idle(Component):
            def __init__(self, sim, name, params=None):
                super().__init__(sim, name, params)
                self.register_as_primary(ok_to_end=True)

        sim = Simulation(seed=1)
        Idle(sim, "idle")
        sink = Sink(sim, "sink")
        source = Source(sim, "src", Params({"count": 3}))
        sim.connect(source, "out", sink, "in", latency="1ns")
        result = sim.run()
        assert (result.reason, result.events_executed, result.end_time) == \
            ("exit", 0, 0)
        assert sink.received.count == 0
        # the exit protocol off, the same engine drains its queue
        drained = sim.run(ignore_exit=True)
        assert drained.reason == "exhausted" and sink.received.count == 3


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
        with pytest.raises(LinkError, match="component 'c': send on "
                                            "unconnected port 'nowhere'"):
            comp.port("nowhere").send(Event())

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
        a.port("out").send(Event())
        with pytest.raises(LinkError):
            sim.run()

    def test_extra_delay_adds_to_latency(self):
        sim = Simulation()
        sink = Sink(sim, "sink")
        src = Component(sim, "src")
        sim.connect(src, "out", sink, "in", latency="10ns")
        sim.setup()
        when = src.port("out").send(Event(), extra_delay=5000)
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
                self.port("loop").send(Token())

            def on_loop(self, event):
                self.times.append(self.now)
                if len(self.times) < 3:
                    self.port("loop").send(event)

        echo = Echo(sim, "echo")
        sim.self_link(echo, "loop", latency="7ns")
        sim.run()
        assert echo.times == [7000, 14000, 21000]


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

    def test_registration_picks_the_arbiter_by_residue(self):
        """Registered at ``now`` = 250 ps, a clock joins the class of
        its ``(now + phase) % period`` residue; period, priority and sim
        read through that arbiter."""
        sim = Simulation()
        ticks = []
        origin = sim.register_clock(1000, lambda c: ticks.append(
            ("origin", sim.now)), name="origin")
        late = {}

        def register_late(_):
            late["r250"] = sim.register_clock(
                1000, lambda c: ticks.append(("r250", sim.now)),
                name="r250")
            late["r0"] = sim.register_clock(
                1000, lambda c: ticks.append(("r0", sim.now)),
                name="r0", phase=750)
            late["prio"] = sim.register_clock(
                "1GHz", lambda c: None, name="prio",
                priority=PRIORITY_CLOCK + 1, phase=750)

        sim.schedule_callback(250, register_late)
        sim.run(max_time=3300)
        arbiters = sim._arbiters
        assert set(arbiters) == {(1000, PRIORITY_CLOCK, 0),
                                 (1000, PRIORITY_CLOCK, 250),
                                 (1000, PRIORITY_CLOCK + 1, 0)}
        assert late["r0"]._arbiter is origin._arbiter
        assert late["r250"]._arbiter is arbiters[(1000, PRIORITY_CLOCK, 250)]
        assert late["prio"]._arbiter is arbiters[(1000, PRIORITY_CLOCK + 1, 0)]
        for clock in [origin, *late.values()]:
            assert clock.period == 1000 and clock.sim is sim
        assert origin.priority == late["r0"].priority == PRIORITY_CLOCK
        assert late["prio"].priority == PRIORITY_CLOCK + 1
        assert ticks == [("origin", 1000), ("r250", 1250),
                         ("origin", 2000), ("r0", 2000), ("r250", 2250),
                         ("origin", 3000), ("r0", 3000), ("r250", 3250)]

    def test_cancel_and_reactivate_realign_an_offset_clock(self):
        """A clock on the 250 ps residue keeps its phase across a
        cancel and reactivate, and re-arms a chain that went quiet."""
        sim = Simulation()
        ticks, clocks = [], []

        def register(_):
            clocks.append(sim.register_clock(
                1000, lambda c: ticks.append((c, sim.now)), name="c"))

        sim.schedule_callback(250, register)
        sim.schedule_callback(2500, lambda _: clocks[0].cancel())
        sim.schedule_callback(4600, lambda _: clocks[0].reactivate())
        sim.run(max_time=7000)
        assert ticks == [(1, 1250), (2, 2250), (3, 5250), (4, 6250)]
        assert clocks[0].next_tick_time == 7250

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

    def test_empty_chain_pops_are_not_events(self):
        """A cancel leaves the chain armed for a boundary that fires
        nobody, and an earlier reactivate supersedes a live chain event:
        neither pop is a handler delivery, for the count or heartbeats."""
        sim = Simulation()
        ticks, beats = [], []
        a = sim.register_clock(1000, lambda c: ticks.append(("a", sim.now)),
                               name="a")
        sim.register_clock(1000, lambda c: ticks.append(("b", sim.now)),
                           name="b", phase=2000)
        sim.schedule_callback(500, lambda _: a.cancel())
        sim.schedule_callback(1500, lambda _: a.reactivate())
        sim.add_heartbeat(lambda s: beats.append(s.now), every_events=1)
        result = sim.run(max_time=4000)
        assert ticks == [("a", 2000), ("a", 3000), ("b", 3000),
                         ("a", 4000), ("b", 4000)]
        assert result.events_executed == len(ticks) + 2
        assert beats == [500, 1500, 2000, 3000, 4000]

    def test_self_cancel_disarms_the_chain(self):
        sim = Simulation()
        cycles = []

        def on_tick(cycle):
            cycles.append(cycle)
            if cycle == 3:
                clock.cancel()

        clock = sim.register_clock(1000, on_tick, name="c")
        result = sim.run()
        assert cycles == [1, 2, 3]
        assert (result.end_time, result.events_executed) == (3000, 3)
        assert not clock.active and clock.next_tick_time == 4000

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


# Clock boundaries are multiples of 100 ps and timed actions land on
# multiples of 50 ps, so about half of them tie with a boundary.  Timed
# actions run at a priority either side of PRIORITY_CLOCK, never at it,
# so a tie's order follows from the priorities alone.
_HORIZON = 6000
_PERIODS = (200, 200, 300, 400)
_BEFORE_TICKS = PRIORITY_CLOCK - 10
#: registrations per class; a registered clock is named ``(class, n)``
#: so neither its name nor the cap depends on how classes sharing a
#: boundary interleave
_MAX_ADDED = 3


@st.composite
def _clock_schedules(draw):
    """``(specs, actions)``: per clock ``(period, phase, stop, ops)`` —
    the handler returns True on every ``stop``-th cycle, and each op
    ``(kind, every, target)`` runs on every ``every``-th cycle against a
    member of the clock's own class (itself included): ``cancel``,
    ``reactivate``, ``read`` (its cycle, due time and state) or
    ``register`` (a plain clock into the class) — plus timed
    ``(time, clock, op, priority)`` cancel/reactivate/register actions."""
    n = draw(st.integers(1, 6))
    ops = st.tuples(st.sampled_from(["cancel", "reactivate", "read",
                                     "register"]),
                    st.integers(1, 4), st.integers(0, 5))
    specs = [(draw(st.sampled_from(_PERIODS)),
              draw(st.sampled_from([0, 0, 0, 100, 200, 400])),
              draw(st.sampled_from([None, None, 1, 2, 3, 5])),
              tuple(draw(st.lists(ops, max_size=2))))
             for _ in range(n)]
    actions = draw(st.lists(
        st.tuples(st.integers(1, _HORIZON // 50).map(lambda k: k * 50),
                  st.integers(0, n - 1),
                  st.sampled_from(["cancel", "reactivate", "register"]),
                  st.sampled_from([_BEFORE_TICKS, PRIORITY_EVENT])),
        max_size=12))
    return specs, actions


def _klass(period, phase, now=0):
    return period, (now + phase) % period


def _peers(specs):
    """Per clock: the registered clocks of its class, in order."""
    classes = [_klass(period, phase) for period, phase, _s, _o in specs]
    return [[j for j, other in enumerate(classes) if other == mine]
            for mine in classes]


def _reference(specs, actions):
    """A member-loop model of the arbiter: per class a member list fired
    in order once its chain time comes up, compacted when most members
    went inactive (rejoiners re-enter at the end), and a chain time that
    a dispatch re-arms at the earliest due time it saw.  Returns the log
    (``tick``/``read`` entries tagged with their class) and every
    clock's final ``(cycle, active, next_tick_time)`` by name."""
    peers = _peers(specs)
    clocks = {}     # name -> [period, klass, due, cycle, active, in_arbiter]
    classes = {}    # klass -> {"members", "sched", "dispatching", "hint"}
    log = []

    def ensure(k, when):
        arb = classes[k]
        if arb["sched"] is not None and arb["sched"] <= when:
            return
        if arb["dispatching"]:
            if arb["hint"] is None or when < arb["hint"]:
                arb["hint"] = when
            return
        arb["sched"] = when

    def register(period, phase, now, name=None):
        k = _klass(period, phase, now)
        arb = classes.setdefault(k, {"members": [], "sched": None,
                                     "dispatching": False, "hint": None,
                                     "added": 0})
        if name is None:
            if arb["added"] == _MAX_ADDED:
                return
            arb["added"] += 1
            name = (k, arb["added"])
        clocks[name] = [period, k, now + phase + period, 0, True, True]
        arb["members"].append(name)
        ensure(k, now + phase + period)

    def reactivate(i, now):
        clock = clocks[i]
        if clock[4]:
            return
        clock[4] = True
        if clock[2] <= now:
            clock[2] += ((now - clock[2]) // clock[0] + 1) * clock[0]
        if not clock[5]:
            classes[clock[1]]["members"].append(i)
            clock[5] = True
        ensure(clock[1], clock[2])

    def run_ops(i, cycle, now):
        if not isinstance(i, int):
            return False  # registered clocks are plain
        for kind, every, target in specs[i][3]:
            if cycle % every:
                continue
            j = peers[i][target % len(peers[i])]
            if kind == "cancel":
                clocks[j][4] = False
            elif kind == "reactivate":
                reactivate(j, now)
            elif kind == "read":
                log.append(("read", clocks[i][1], i, j, clocks[j][3],
                            clocks[j][2], clocks[j][4]))
            else:
                register(clocks[i][0], 0, now)
        stop = specs[i][2]
        return bool(stop) and cycle % stop == 0

    def dispatch(k, now):
        arb = classes[k]
        arb.update(sched=None, dispatching=True, hint=None)
        members = arb["members"]
        fired = inactive = 0
        next_due = None
        for i in members:  # sees members appended mid-boundary
            clock = clocks[i]
            if not clock[4]:
                inactive += 1
                continue
            due = clock[2]
            if due == now:
                fired += 1
                clock[3] += 1
                log.append(("tick", k, now, i, clock[3]))
                if run_ops(i, clock[3], now):
                    clock[4] = False
                    inactive += 1
                    continue
                due += clock[0]
                clock[2] = due
                if not clock[4]:
                    continue  # cancelled itself: no boundary armed for it
            if next_due is None or due < next_due:
                next_due = due
        arb["dispatching"] = False
        if arb["hint"] is not None and (next_due is None
                                        or arb["hint"] < next_due):
            next_due = arb["hint"]
        if inactive and inactive * 2 > len(members):
            for i in members:
                clocks[i][5] = clocks[i][4]
            arb["members"] = [i for i in members if clocks[i][4]]
        arb["sched"] = next_due

    for i, (period, phase, _stop, _ops) in enumerate(specs):
        register(period, phase, 0, i)
    pending = sorted(actions, key=lambda a: (a[0], a[3]))  # stable: seq
    while True:
        t = min([arb["sched"] for arb in classes.values()
                 if arb["sched"] is not None] + [_HORIZON + 1])
        if pending and (pending[0][0], pending[0][3]) < (t, PRIORITY_CLOCK):
            when, i, op, _prio = pending.pop(0)
            if op == "cancel":
                clocks[i][4] = False
            elif op == "reactivate":
                reactivate(i, when)
            else:
                period, phase = specs[i][:2]
                register(period, (phase - when) % period, when)
            continue
        if t > _HORIZON:
            return log, {name: (c[3], c[4], c[2])
                         for name, c in clocks.items()}
        for k in sorted(k for k, arb in classes.items() if arb["sched"] == t):
            dispatch(k, t)


class TestClockArbiterReference:
    """The arbiter against a member-loop model: random periods, phases,
    self-unregistering handlers, handlers that cancel/reactivate/read
    any member of their own class (themselves included) or register a
    clock into it, and timed cancel/reactivate/register actions tied
    with ticks before and after them.  Same-class crowds keep a
    lockstep plan live, so every plan handoff path runs."""

    @given(_clock_schedules(), st.booleans())
    @settings(max_examples=200, deadline=None)
    # A member stops while waking a cancelled earlier member of its own
    # class: only the resched hint re-arms the chain for the woken one.
    @example(([(200, 0, None, ()), (200, 0, 1, (("reactivate", 1, 0),))],
              [(50, 0, "cancel", PRIORITY_EVENT)]), False)
    # Reactivated long after its due time: the realignment skips ahead.
    @example(([(200, 0, None, ())], [(250, 0, "cancel", PRIORITY_EVENT),
                                     (650, 0, "reactivate", PRIORITY_EVENT)]),
             True)
    # Lockstep crowd: the last member cancels the first (already fired)
    # and itself, the middle one reads both sides of the handoff.
    @example(([(200, 0, None, ()), (200, 0, None, (("read", 3, 2),)),
               (200, 0, None, (("cancel", 3, 0), ("cancel", 2, 2)))],
              []), False)
    # A timed register into a live plan, tied before a boundary.
    @example(([(200, 0, None, ()), (200, 0, 5, ())],
              [(600, 1, "register", _BEFORE_TICKS)]), False)
    def test_firings_match_per_clock_model(self, schedule, observed):
        specs, actions = schedule
        sim = Simulation()
        peers = _peers(specs)
        log, seen, spans, clocks, added = [], [], [], {}, {}

        def add(period, phase, klass, stop=None, ops=(), i=None):
            if i is None:
                if added.get(klass, 0) == _MAX_ADDED:
                    return
                added[klass] = added.get(klass, 0) + 1
                i = (klass, added[klass])

            def on_tick(cycle):
                now = sim.now
                log.append(("tick", klass, now, i, cycle))
                for kind, every, target in ops:
                    if cycle % every:
                        continue
                    j = peers[i][target % len(peers[i])]
                    other = clocks[j]
                    if kind == "read":
                        log.append(("read", klass, i, j,
                                    other.cycle, other.next_tick_time,
                                    other.active))
                    elif kind == "register":
                        add(period, 0, klass)
                    else:
                        getattr(other, kind)()
                return bool(stop) and cycle % stop == 0

            clocks[i] = sim.register_clock(period, on_tick, name=str(i),
                                           phase=phase)

        for i, (period, phase, stop, ops) in enumerate(specs):
            add(period, phase, _klass(period, phase), stop, ops, i)

        def timed(i, op):
            def fire(_):
                if op != "register":
                    getattr(clocks[i], op)()
                else:
                    period, phase = specs[i][:2]
                    add(period, (phase - sim.now) % period,
                        _klass(period, phase))
            return fire

        for when, i, op, prio in actions:
            sim.schedule_callback(when, timed(i, op), priority=prio)
        if observed:
            sim.add_trace_observer(
                lambda t, h, e: seen.append((t, describe_handler(h))))
            sim.add_span_observer(
                lambda t, h, e, wall: spans.append((t, describe_handler(h))))
        sim.run(max_time=_HORIZON)

        expected, final = _reference(specs, actions)
        # Classes sharing a boundary interleave by chain seq; within a
        # class the order is the member order.
        assert sorted(log, key=lambda e: e[1]) == \
            sorted(expected, key=lambda e: e[1])
        assert {name: (c.cycle, c.active, c.next_tick_time)
                for name, c in clocks.items()} == final
        # Handler deliveries only: superseded and empty chain pops are
        # not events.
        ticks = sum(1 for entry in log if entry[0] == "tick")
        assert sim.events_executed == ticks + len(actions)
        if observed:
            ticks = [(e[2], f"clock:{e[3]}") for e in log if e[0] == "tick"]
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
