"""The entry codec of the cross-rank exchange (:mod:`repro.core.event`).

An :class:`EventTable` sends an event of a slotted class as its class
index and slot values; everything else is pickled whole.  The property
below draws batches of every kind of event a model may send — slotted,
unslotted, some slots unassigned, events nested in payloads, arbitrary
payloads, a class with its own pickling hooks, a class defined after
the table was captured and an event object sent twice — and requires
each decoded entry to match its original in class, order, every
attribute and which entries share one object.  It also pins which path
each kind takes.  One fixed batch then crosses ranks both ways through
a real processes backend.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Component, ParallelSimulation, port
from repro.core.event import (_REPEAT, Event, EventTable, decode_entries,
                              encode_entries)


class Slotted(Event):
    __slots__ = ("a", "b", "c")


class SlottedChild(Slotted):
    """Inherited slots plus a private (name-mangled) one."""

    __slots__ = ("d", "__secret")


class OneSlot(Event):
    __slots__ = "only"


class NoSlots(Event):
    __slots__ = ()


class Unslotted(Event):
    """No ``__slots__`` of its own: instances carry a ``__dict__``."""


#: one entry per WithHooks instance its __setstate__ rebuilt
HOOK_CALLS = []


class WithHooks(Event):
    """Slotted, but pickles through its own hooks — which must run."""

    __slots__ = ("x",)

    def __getstate__(self):
        return {"x": self.x}

    def __setstate__(self, state):
        HOOK_CALLS.append(state)
        self.x = state["x"]


#: captured before Late exists
TABLE = EventTable.capture()


class Late(Event):
    """Defined after TABLE was captured: pickled whole."""

    __slots__ = ("v",)


SLOTS = {Slotted: ("a", "b", "c"),
         SlottedChild: ("a", "b", "c", "d", "_SlottedChild__secret"),
         OneSlot: ("only",), NoSlots: (), Late: ("v",)}
#: classes the table flattens when every slot is assigned
FLATTENED = (Slotted, SlottedChild, OneSlot, NoSlots)


def tree(obj: Any) -> Any:
    """A structural, comparable view of ``obj``: events become their
    class and assigned attributes, containers are walked."""
    if isinstance(obj, Event):
        attrs = {}
        for name in SLOTS.get(type(obj), ("x",) if isinstance(obj, WithHooks)
                              else ()):
            try:
                attrs[name] = tree(getattr(obj, name))
            except AttributeError:
                attrs[name] = "<unassigned>"
        if hasattr(obj, "__dict__"):
            attrs.update((k, tree(v)) for k, v in vars(obj).items())
        return (type(obj), attrs)
    if isinstance(obj, (list, tuple)):
        return (type(obj), [tree(item) for item in obj])
    if isinstance(obj, dict):
        return (dict, sorted((repr(k), tree(v)) for k, v in obj.items()))
    return (type(obj), obj)


scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=8)
           | st.binary(max_size=8))


def events(payload):
    """Events of every kind, their slots filled from ``payload``;
    slotted classes may leave some slots unassigned."""

    @st.composite
    def slotted(draw, cls):
        event = cls()
        for name in SLOTS[cls]:
            if draw(st.booleans()) or draw(st.booleans()):  # 3 in 4
                setattr(event, name, draw(payload))
        return event

    @st.composite
    def unslotted(draw):
        event = Unslotted()
        for name in draw(st.lists(st.sampled_from("pqr"), unique=True)):
            setattr(event, name, draw(payload))
        return event

    @st.composite
    def hooked(draw):
        event = WithHooks()
        event.x = draw(payload)
        return event

    return st.one_of(*(slotted(cls) for cls in SLOTS), unslotted(), hooked())


def payloads():
    """Arbitrary payloads, events nested inside them included."""
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.tuples(inner, inner)
                       | st.dictionaries(st.text(max_size=4), inner,
                                         max_size=3)
                       | events(inner)),
        max_leaves=6)


headers = st.tuples(st.integers(0, 1 << 62), st.integers(0, 1000),
                    st.integers(0, 7), st.integers(0, 1 << 40))


@st.composite
def entries(draw):
    """A batch of entries; some may send an earlier entry's event
    object again."""
    batch = [draw(headers) + (draw(events(payloads())),)
             for _ in range(draw(st.integers(0, 8)))]
    if batch:
        for i in draw(st.lists(st.integers(0, len(batch) - 1), max_size=3)):
            batch.append(draw(headers) + (batch[i][4],))
    return batch


def sharing(batch):
    """For each entry, the position of the first entry carrying the
    same event object."""
    first = {}
    return [first.setdefault(id(entry[4]), i) for i, entry in enumerate(batch)]


class TestEventTable:
    @settings(max_examples=300, deadline=None)
    @given(batch=entries())
    def test_entries_roundtrip(self, batch):
        blob = encode_entries(batch, TABLE)
        out, offset = decode_entries(blob, 0, TABLE)
        assert offset == len(blob)
        assert [entry[:4] for entry in out] == [entry[:4] for entry in batch]
        assert [tree(entry[4]) for entry in out] == \
            [tree(entry[4]) for entry in batch]
        # an event object sent twice arrives as one object
        assert sharing(out) == sharing(batch)
        # The empty table decodes its own batches the same way.
        plain, _ = decode_entries(encode_entries(batch, EventTable()), 0,
                                  EventTable())
        assert [tree(entry[4]) for entry in plain] == \
            [tree(entry[4]) for entry in batch]

    @settings(max_examples=100, deadline=None)
    @given(batch=entries())
    def test_which_events_are_flattened(self, batch):
        """Index 0 (pickled whole) exactly for classes outside the
        table, classes with a ``__dict__`` or their own pickling hooks,
        and events with an unassigned slot; a repeated event refers
        back to its first entry."""
        for i, (entry, wire, first) in enumerate(
                zip(batch, TABLE.flatten(batch), sharing(batch))):
            event = entry[4]
            if first != i:
                assert wire[4:] == (_REPEAT, first)
                continue
            flattened = type(event) in FLATTENED and all(
                hasattr(event, name) for name in SLOTS[type(event)])
            assert (wire[4] != 0) is flattened
            assert (wire[5] is event) is not flattened

    def test_hooks_run_when_pickled_whole(self):
        event = WithHooks()
        event.x = 7
        HOOK_CALLS.clear()
        (out,), _ = decode_entries(
            encode_entries([(1, 3, 0, 4, event)], TABLE), 0, TABLE)
        assert out[4].x == 7
        assert HOOK_CALLS == [{"x": 7}]

    def test_empty_batch_is_a_bare_length(self):
        assert encode_entries([], TABLE) == bytes(4)
        assert decode_entries(bytes(4), 0, TABLE) == ([], 4)


def shipment():
    """One of every kind, nested events and an unassigned slot
    included."""
    inner = OneSlot()
    inner.only = {"k": [1, 2.5, None]}
    full = SlottedChild()
    full.a, full.b, full.c, full.d = 1 << 70, "txt", (inner, b"\x00"), []
    full._SlottedChild__secret = -3
    partial = Slotted()
    partial.a = inner
    loose = Unslotted()
    loose.p = [full]
    hooked = WithHooks()
    hooked.x = "h"
    late = Late()
    late.v = 0.125
    return [full, partial, inner, NoSlots(), loose, hooked, late]


class Shipper(Component):
    """Sends ``shipment()`` on ``out``, one event per nanosecond."""

    out = port("events to ship")

    def setup(self):
        for i, event in enumerate(shipment()):
            self.schedule(1000 * (i + 1),
                          lambda _, e=event: self.port("out").send(e))


class Collector(Component):
    """Records the structure of everything arriving on ``in``."""

    in_ = port("shipped events", name="in")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.got = []
        self.set_handler("in", lambda event: self.got.append(tree(event)))


def test_a_shipment_crosses_a_processes_backend_both_ways():
    """Rank 0 -> rank 1 rides a delivery frame, rank 1 -> rank 0 a step
    frame; the events this process built are the reference."""
    psim = ParallelSimulation(2, seed=1, backend="processes")
    for src, dest in ((0, 1), (1, 0)):
        shipper = Shipper(psim.rank_sim(src), f"ship{src}")
        collector = Collector(psim.rank_sim(dest), f"collect{dest}")
        psim.connect(shipper, "out", collector, "in", latency="2ns")
    assert psim.run().reason == "exhausted"
    expected = [tree(event) for event in shipment()]
    for dest in (0, 1):
        assert psim.rank_sim(dest).components[f"collect{dest}"].got == \
            expected


class TwinSender(Component):
    """Sends one event object on both of its ports at once."""

    a = port("first copy")
    b = port("second copy")

    def setup(self):
        event = OneSlot()
        event.only = [1, 2]
        self.schedule(1000, lambda _: (self.port("a").send(event),
                                       self.port("b").send(event)))


class TwinCollector(Component):
    """Records whether both ports delivered the same object."""

    a = port("first copy")
    b = port("second copy")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.got = []
        self.shared = None
        self.set_handler("a", self.arrived)
        self.set_handler("b", self.arrived)

    def arrived(self, event):
        self.got.append(event)
        if len(self.got) == 2:
            self.shared = self.got[0] is self.got[1]


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_one_event_on_two_links_arrives_as_one_object(backend):
    """Both backends deliver one shared object, whichever frame (a
    delivery frame down, a step frame up) carries it."""
    psim = ParallelSimulation(2, seed=1, backend=backend)
    for src, dest in ((0, 1), (1, 0)):
        sender = TwinSender(psim.rank_sim(src), f"send{src}")
        collector = TwinCollector(psim.rank_sim(dest), f"collect{dest}")
        for name in ("a", "b"):
            psim.connect(sender, name, collector, name, latency="2ns")
    assert psim.run().reason == "exhausted"
    for dest in (0, 1):
        assert psim.rank_sim(dest).components[f"collect{dest}"].shared is True
