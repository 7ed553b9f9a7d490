"""Coverage for small core behaviours not exercised elsewhere."""

import pytest

from repro.core import (Component, Event, Params, Simulation, format_bytes,
                        format_time)
from repro.core.event import (PRIORITY_CLOCK, PRIORITY_EVENT, PRIORITY_SYNC,
                              EventRecord, NullEvent)
from repro.core.registry import RegistryError, is_registered, resolve
from tests.conftest import Sink, Source, Token


class TestEventRecord:
    def test_ordering_key(self):
        a = EventRecord(10, 50, 0, None, None)
        b = EventRecord(10, 50, 1, None, None)
        c = EventRecord(10, 25, 5, None, None)
        d = EventRecord(5, 90, 9, None, None)
        assert d < c < a < b
        assert a == EventRecord(10, 50, 0, None, None)
        assert hash(a) == hash(EventRecord(10, 50, 0, None, None))

    def test_priority_constants_ordered(self):
        assert PRIORITY_SYNC < PRIORITY_CLOCK < PRIORITY_EVENT

    def test_eq_other_type(self):
        assert EventRecord(1, 1, 1, None, None) != "record"


class TestEventClone:
    def test_clone_copies_slots(self):
        token = Token(value=7, hops=3)
        copy = token.clone()
        assert copy is not token
        assert copy.value == 7
        assert copy.hops == 3
        copy.value = 9
        assert token.value == 7

    def test_null_event(self):
        assert isinstance(NullEvent().clone(), NullEvent)

    def test_clone_copies_private_slots(self):
        """A private slot is stored under its mangled name."""

        class Private(Token):
            __slots__ = ("__owner",)

            def __init__(self, owner):
                super().__init__(value=1, hops=2)
                self.__owner = owner

            def owner(self):
                return self.__owner

        copy = Private("rank0").clone()
        assert (copy.value, copy.hops, copy.owner()) == (1, 2, "rank0")


class TestFormatting:
    def test_format_time_bands(self):
        assert format_time(1) == "1ps"
        assert format_time(1_000) == "1.000ns"
        assert format_time(10**12) == "1.000s"

    def test_format_bytes_bands(self):
        assert format_bytes(1) == "1B"
        assert format_bytes(1536) == "1.50KiB"
        assert format_bytes(5 * 1024**4) == "5.00TiB"


class TestRegistryMisc:
    def test_is_registered(self):
        assert is_registered("testlib.Sink")
        assert not is_registered("nowhere.Nothing")

    def test_lazy_library_import(self):
        # Resolving by name alone must load the owning library.
        cls = resolve("memory.SimpleMemory")
        assert cls.__name__ == "SimpleMemory"

    def test_unknown_library_error_lists_options(self):
        with pytest.raises(RegistryError, match="registered"):
            resolve("quantum.Qubit")


class TestSimulationMisc:
    def test_run_without_finalize_skips_finish(self):
        sim = Simulation()
        calls = []

        class F(Component):
            def finish(self):
                calls.append(1)

        F(sim, "f")
        sim.run(finalize=False)
        assert calls == []
        sim.finish()
        assert calls == [1]

    def test_components_property_copies(self):
        sim = Simulation()
        Component(sim, "a")
        snapshot = sim.components
        snapshot.clear()
        assert sim.component("a")

    def test_links_property(self):
        sim = Simulation()
        a, b = Component(sim, "a"), Component(sim, "b")
        link = sim.connect(a, "p", b, "q", latency="3ns", name="L")
        assert sim.links == [link]
        assert link.name == "L"
        assert repr(link) == "Link('L', latency=3000ps)"

    def test_debug_gated_on_verbose(self, capsys):
        quiet = Simulation(verbose=False)
        Component(quiet, "c").debug("hidden")
        assert capsys.readouterr().out == ""
        loud = Simulation(verbose=True)
        Component(loud, "c").debug("shown")
        assert "shown" in capsys.readouterr().out

    def test_connect_port_form(self):
        sim = Simulation()
        a, b = Component(sim, "a"), Component(sim, "b")
        link = sim.connect(a.port("x"), b.port("y"), latency="2ns")
        assert link.latency == 2000

    def test_connect_requires_full_spec(self):
        from repro.core import SimulationError

        sim = Simulation()
        a = Component(sim, "a")
        with pytest.raises(SimulationError):
            sim.connect(a, "p")

    def test_pending_events_counts(self):
        sim = Simulation()
        Source(sim, "src", Params({"count": 1, "period": "1ns"}))
        sim.setup()
        assert sim.pending_events == 1

    def test_port_repr(self):
        sim = Simulation()
        comp = Component(sim, "c")
        assert "unconnected" in repr(comp.port("p"))

    def test_histogram_stat_in_component(self):
        sim = Simulation()
        comp = Component(sim, "c")
        hist = comp.stats.histogram("lat", low=0, bin_width=10, n_bins=4)
        hist.add(15)
        assert sim.stats()["c.lat"].count == 1
        assert "histogram" in sim.stat_table()
