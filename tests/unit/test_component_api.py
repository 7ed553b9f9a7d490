"""Tests for the declarative component API (PR 7).

Covers the descriptor layer (``port()`` / ``state()`` / ``stat``),
spec collection across inheritance, auto-wired engine services
(checkpoint capture, reconstruct hooks, telemetry gauges), graph-build
port validation, the opt-in event type checks, clock naming, the
``Params`` unused-key diagnostics, the component catalogue CLI, and
the class-creation refusal of the imperative protocol.
"""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.config import ConfigGraph, build, build_parallel
from repro.config.graph import ConfigError
from repro.core import (Component, Event, Params, Simulation, SpecError,
                        SubComponent, UnusedParamsWarning, describe_component,
                        port, stat, state)

REPO = Path(__file__).resolve().parents[2]


class Ping(Event):
    pass


class Pong(Event):
    pass


class Echo(Component):
    """Bounces every Ping back as a Pong after a fixed delay."""

    io = port("ping in, pong out", event=Ping)

    _seen = state(0, gauge=True, doc="pings received")
    _log = state(list, doc="receive times")

    s_pings = stat.counter(doc="pings bounced")

    def on_io(self, event):
        self._seen += 1
        self._log.append(self.now)
        self.s_pings.add()
        self.port("io").send(Pong())


class TestPortSpec:
    def test_convention_handler_bound_at_init(self):
        sim = Simulation(seed=1)
        echo = Echo(sim, "e")
        assert echo.port("io").handler is not None

    def test_decorator_handler(self):
        class Dec(Component):
            data = port("in", event=Ping)

            @data.handler
            def _on_data(self, event):
                pass

        sim = Simulation(seed=1)
        comp = Dec(sim, "d")
        assert comp.port("data").handler is not None

    def test_a_named_handler_that_does_not_exist_fails_construction(self):
        """The class may define it later (a base declares, a subclass
        implements), so the check runs when an instance binds it."""

        class Base(Component):
            data = port("in", handler="on_data_ready")

        class Impl(Base):
            def on_data_ready(self, event):
                pass

        sim = Simulation(seed=1)
        assert Impl(sim, "ok").port("data").handler is not None
        with pytest.raises(SpecError, match=r"Base: port 'data' names "
                                            r"handler 'on_data_ready' which "
                                            r"does not exist"):
            Base(sim, "bad")

    def test_indexed_family_matches_numbered_names(self):
        class Fan(Component):
            out = port("fanout", name="out<i>", required=False)

        spec = Fan._port_specs["out<i>"]
        assert spec.indexed
        assert spec.matches("out0") and spec.matches("out12")
        assert not spec.matches("out") and not spec.matches("outx")

    def test_describe_component_lists_everything(self):
        info = describe_component(Echo)
        assert [p["name"] for p in info["ports"]] == ["io"]
        assert {s["name"] for s in info["state"]} >= {"_seen", "_log"}
        assert [s["name"] for s in info["stats"]] == ["pings"]


class TestStateSpec:
    def test_defaults_and_factories_materialize_at_construction(self):
        class Late(Echo):
            _peer = state(doc="no default: the model must assign it")

        sim = Simulation(seed=1)
        late = Late(sim, "e")
        values = vars(late)
        # every declared default is an instance value before first use,
        # set in declaration order (base classes first)
        assert values["_seen"] == 0 and values["_log"] == []
        declared = [a for a in values if a in Late._state_specs]
        assert declared == [a for a in Late._state_specs if a != "_peer"]
        assert late._log is late._log  # the factory ran once
        with pytest.raises(AttributeError,
                           match=r"Late\._peer has no default and was "
                                 r"never assigned"):
            late._peer
        late._peer = "x"
        assert late._peer == "x"

    def test_distinct_instances_do_not_share_factories(self):
        sim = Simulation(seed=1)
        a, b = Echo(sim, "a"), Echo(sim, "b")
        a._log.append(1)
        assert b._log == []

    def test_captured_and_restored(self):
        sim = Simulation(seed=1)
        echo = Echo(sim, "e")
        echo._seen = 5
        snap = echo.capture_state()
        assert snap["_seen"] == 5
        echo._seen = 0
        echo.restore_state(snap)
        assert echo._seen == 5

    def test_save_false_excluded_and_reconstructed(self):
        class Gen(Component):
            _it = state(None, save=False, reconstruct="_rebuild")
            _count = state(0)

            def _rebuild(self):
                self._it = iter(range(self._count, 100))

        sim = Simulation(seed=1)
        gen = Gen(sim, "g")
        gen._it = iter(range(100))
        for _ in range(7):
            next(gen._it)
        gen._count = 7
        snap = gen.capture_state()
        assert "_it" not in snap
        fresh = Gen(Simulation(seed=1), "g")
        fresh.restore_state(snap)
        assert next(fresh._it) == 7

    def test_gauges_sample_numbers_and_lengths(self):
        sim = Simulation(seed=1)
        echo = Echo(sim, "e")
        echo._seen = 3
        echo._log.extend([10, 20])

        class Sized(Component):
            _box = state(dict, gauge=True)

        sized = Sized(sim, "s")
        sized._box["k"] = 1
        assert echo.telemetry_gauges() == {"_seen": 3.0}  # _log not a gauge
        assert sized.telemetry_gauges() == {"_box": 1.0}

    def test_inherited_specs_merge_and_override(self):
        class Base(Component):
            _a = state(1)

        class Child(Base):
            _b = state(2)

        assert set(Child._state_specs) >= {"_a", "_b"}
        assert Base._state_specs.keys() >= {"_a"}
        assert "_b" not in Base._state_specs


class TestStatSpec:
    def test_prefix_stripped_for_default_name(self):
        sim = Simulation(seed=1)
        echo = Echo(sim, "e")
        echo.s_pings.add()
        assert sim.stats()["e.pings"].value() == 1

    def test_kinds(self):
        class Kinds(Component):
            s_n = stat.counter()
            s_lat = stat.accumulator("latency_ps")
            s_h = stat.histogram("sizes")

        sim = Simulation(seed=1)
        Kinds(sim, "k")
        names = set(sim.stats())
        assert {"k.n", "k.latency_ps", "k.sizes"} <= names

    def test_duplicate_stat_name_rejected(self):
        with pytest.raises(SpecError):
            class Dup(Component):
                s_x = stat.counter("events")
                s_y = stat.counter("events")

    def test_subcomponent_duplicate_stat_name_rejected(self):
        with pytest.raises(SpecError, match="both declare the name 'events'"):
            class Dup(SubComponent):
                s_x = stat.counter("events")
                s_y = stat.counter("events")

    @pytest.mark.parametrize("base", [Component, SubComponent],
                             ids=lambda base: base.__name__)
    def test_gauge_colliding_with_stat_rejected(self, base):
        with pytest.raises(SpecError, match="gauge state 'depth' collides"):
            type("Clash", (base,), {"depth": state(0, gauge=True),
                                    "s_depth": stat.counter()})


class TestLifecycleHooks:
    def test_on_setup_and_on_finish_called_in_order(self):
        calls = []

        class Hooked(Component):
            def on_setup(self):
                calls.append(("setup", self.name))

            def on_finish(self):
                calls.append(("finish", self.name))

        sim = Simulation(seed=1)
        Hooked(sim, "a")
        Hooked(sim, "b")
        sim.run()
        assert calls == [("setup", "a"), ("setup", "b"),
                         ("finish", "a"), ("finish", "b")]


class TestBuilderValidation:
    def _graph(self, port_b="cpu"):
        g = ConfigGraph("val")
        g.component("cpu", "processor.TrafficGenerator", {"requests": 4})
        g.component("mem", "memory.SimpleMemory", {})
        g.link("cpu", "mem", "mem", port_b, latency="1ns")
        return g

    def test_valid_graph_builds(self):
        build(self._graph(), seed=1)

    def test_unknown_port_rejected_before_instantiation(self):
        with pytest.raises(ConfigError, match="declares no such port"):
            build(self._graph(port_b="cpux"), seed=1)

    def test_link_to_portless_class_rejected(self):
        # testlib.Clocked (tests/conftest.py) declares no ports at all.
        g = ConfigGraph("portless")
        g.component("src", "testlib.Source", {"count": 1})
        g.component("clk", "testlib.Clocked", {"n_ticks": 1})
        g.link("src", "out", "clk", "in", latency="1ns")
        match = r"link endpoint clk\.in: .*\(declared: <none>\)"
        with pytest.raises(ConfigError, match=match):
            build(g, seed=1)
        with pytest.raises(ConfigError, match=match):
            build_parallel(g, 2, seed=1)

    def test_required_port_must_be_connected(self):
        g = ConfigGraph("req")
        g.component("cpu", "processor.TrafficGenerator", {"requests": 4})
        with pytest.raises(ConfigError, match="required port"):
            build(g, seed=1)

    def test_event_validation_catches_wrong_type(self):
        from repro.core.link import LinkError
        from repro.memory.dram import SimpleMemory
        from repro.network.message import NetMessage

        class Bad(Component):
            out = port("sends garbage", required=False)

            def on_setup(self):
                self.port("out").send(NetMessage(src=0, dest=0, size=8))

        sim = Simulation(seed=1)
        sim.validate_events = True
        bad = Bad(sim, "bad")
        mem = SimpleMemory(sim, "mem")
        sim.connect(bad, "out", mem, "cpu", latency="1ns")
        with pytest.raises(LinkError, match="expects MemRequest"):
            sim.run()


class TestClockNaming:
    def test_multiple_clocks_get_distinct_names(self):
        class TwoClocks(Component):
            def __init__(self, sim, name, params=None):
                super().__init__(sim, name, params)
                self.register_clock("1GHz", self.t1)
                self.register_clock("2GHz", self.t2)
                self.register_clock("3GHz", self.t3, name="fast")
                self.register_clock(1000, self.t1)  # takes index 3

            def t1(self, c):
                return True

            def t2(self, c):
                return True

            def t3(self, c):
                return True

        sim = Simulation(seed=1)
        TwoClocks(sim, "tc")
        names = [clk.name for clk in sim._clocks]
        assert names == ["tc.clock", "tc.clock1", "tc.fast", "tc.clock3"]


class TestParamsDiagnostics:
    def test_unused_key_warns_once_with_owner(self):
        sim = Simulation(seed=1)
        Echo(sim, "e", Params({"typo_key": 1}))
        with pytest.warns(UnusedParamsWarning, match="e.*typo_key"):
            sim.run(max_time=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim2 = Simulation(seed=1)
            Echo(sim2, "ok", Params({}))
            sim2.run(max_time=10)

    def test_accept_suppresses_warning(self):
        params = Params({"meta": 1})
        params.accept("meta")
        assert params.finalize_check("x") == set()

    def test_with_defaults_propagates_consumption(self):
        params = Params({"msg_size": "4KB"})
        overlay = params.with_defaults({"msg_size": "1KB", "iters": 3})
        assert overlay.find_size_bytes("msg_size") == 4096
        assert params.finalize_check("x") == set()


class TestComponentCLI:
    def _run(self, *args):
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run([sys.executable, "-m", "repro", *args],
                              capture_output=True, text=True, env=env,
                              cwd=REPO)

    def test_list_names_all_libraries(self):
        proc = self._run("component", "list")
        assert proc.returncode == 0, proc.stderr
        for expected in ("memory.Cache", "network.Router",
                         "miniapps.HPCCG", "resilience.CheckpointedJob"):
            assert expected in proc.stdout

    def test_describe_shows_ports_state_stats(self):
        proc = self._run("component", "describe", "memory.Cache")
        assert proc.returncode == 0, proc.stderr
        assert "ports:" in proc.stdout and "statistics:" in proc.stdout
        assert "cpu" in proc.stdout and "mshr_stalls" in proc.stdout

    def test_describe_json_round_trips(self):
        import json

        proc = self._run("component", "describe", "memory.Cache", "--json")
        info = json.loads(proc.stdout)
        assert info["type_name"] == "memory.Cache"

    def test_describe_unknown_type_fails(self):
        """Unknown names exit 1 with a one-line error, not a traceback."""
        proc = self._run("component", "describe", "nosuch.Thing")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") <= 1
        assert "error: unknown component type 'nosuch.Thing'" in proc.stderr
        assert "component list" in proc.stderr

    def test_describe_lists_slots_and_params(self):
        proc = self._run("component", "describe", "cluster.Scheduler")
        assert proc.returncode == 0, proc.stderr
        assert "slots:" in proc.stdout and "params:" in proc.stdout
        assert "cluster.FCFS" in proc.stdout
        assert "cluster.EASYBackfill" in proc.stdout

    def test_run_port_typo_is_one_line_error(self, tmp_path):
        from repro.config import ConfigGraph, save

        g = ConfigGraph("bad")
        g.component("cpu", "processor.TrafficGenerator", {"requests": 10})
        g.component("mem", "memory.SimpleMemory", {})
        g.link("cpu", "mem", "mem", "cpus", latency="1ns")  # typo'd port
        path = tmp_path / "bad.json"
        save(g, str(path))
        proc = self._run("run", str(path), "--max-time", "1us")
        assert proc.returncode == 1
        assert "declares no such port" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestImperativeProtocolRefused:
    """The imperative protocol fails at class creation, on both bases."""

    @pytest.mark.parametrize("base", [Component, SubComponent],
                             ids=lambda base: base.__name__)
    @pytest.mark.parametrize("attr,value,replacement", [
        pytest.param("PORTS", {"io": "bidirectional"}, "port()",
                     id="PORTS"),
        pytest.param("STATE_EXCLUDE", frozenset({"_it"}),
                     "state(save=False, reconstruct=...)",
                     id="STATE_EXCLUDE"),
        pytest.param("capture_state", lambda self: {},
                     "state(save=False, reconstruct=...)",
                     id="capture_state"),
        pytest.param("restore_state", lambda self, snapshot: None,
                     "on_restore()", id="restore_state"),
    ])
    def test_banned_name_raises_spec_error(self, base, attr, value,
                                           replacement):
        with pytest.raises(SpecError) as excinfo:
            type("Legacy", (base,), {attr: value})
        message = str(excinfo.value)
        assert message.startswith("Legacy: ")
        assert repr(attr) in message and replacement in message
