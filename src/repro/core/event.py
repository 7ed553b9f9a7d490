"""Event base classes and delivery priorities.

Everything that happens in a PySST simulation is an :class:`Event`
delivered to a handler at a specific simulated time.  Like SST, ties at
the same timestamp are broken by an integer *priority* (lower runs
first) and then by insertion order, which makes every run of a given
configuration bit-for-bit deterministic.
"""

from __future__ import annotations

import copyreg
import keyword
import operator
import pickle
import struct
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple, Type)

from .units import SimTime

# Priority bands, mirroring SST's eventqueue priorities.  Lower value =
# delivered earlier among events with an equal timestamp.
PRIORITY_SYNC = 25  #: parallel-rank synchronisation actions
PRIORITY_STOP = 30  #: simulation stop actions
PRIORITY_CLOCK = 40  #: clock tick handlers
PRIORITY_EVENT = 50  #: ordinary link-delivered events
PRIORITY_FINAL = 90  #: end-of-simulation bookkeeping


class Event:
    """Base class for everything delivered over a :class:`~repro.core.link.Link`.

    Subclasses add payload fields; the engine itself only needs the
    object identity.  ``__slots__`` keeps per-event overhead low — a
    pure-Python PDES core lives or dies by allocation cost (see the
    repro scoping notes in DESIGN.md).
    """

    __slots__ = ()

    def clone(self) -> "Event":
        """Return a shallow copy of this event.

        Used when one logical event must be delivered to several
        receivers (e.g. a snooping bus).  Subclasses with mutable
        payloads should override.
        """
        cls = type(self)
        new = cls.__new__(cls)
        try:
            slots = _SLOTS_BY_CLASS[cls]
        except KeyError:
            slots = _collect_slots(cls)
        for name in slots:
            try:
                setattr(new, name, getattr(self, name))
            except AttributeError:
                pass  # slot never assigned on the source
        return new


#: Per-class flattened slot list, filled on first clone() or entry-codec
#: capture — walking the MRO with hasattr/getattr per slot on every
#: clone was O(mro x slots).
_SLOTS_BY_CLASS: Dict[Type["Event"], Tuple[str, ...]] = {}


def _collect_slots(cls: Type["Event"]) -> Tuple[str, ...]:
    names: List[str] = []
    for klass in cls.__mro__:
        slots = vars(klass).get("__slots__", ())
        if isinstance(slots, str):  # __slots__ = "name" is legal
            slots = (slots,)
        owner = klass.__name__.lstrip("_")
        for name in slots:
            if name.startswith("__") and not name.endswith("__") and owner:
                name = f"_{owner}{name}"  # private: mangled, as in the class
            names.append(name)
    flattened = tuple(dict.fromkeys(names))  # dedupe, keep MRO order
    _SLOTS_BY_CLASS[cls] = flattened
    return flattened


class NullEvent(Event):
    """An event with no payload; useful as a pure wake-up token."""

    __slots__ = ()


#: Type of a component-side event handler.
Handler = Callable[[Event], None]


class IdSource:
    """A named, checkpointable global id counter.

    Model libraries hand out process-global ids (memory ``req_id``,
    network ``msg_id``, ...) so responses can be matched to outstanding
    requests.  A plain ``itertools.count`` cannot be captured or
    restored, which breaks engine checkpointing: a resumed run would
    re-issue ids that collide with ids already held by restored
    in-flight state.  ``IdSource`` is a drop-in replacement (``next()``
    works) whose value `repro.ckpt` snapshots and restores by name.
    """

    _registry: Dict[str, "IdSource"] = {}

    __slots__ = ("name", "_next")

    def __init__(self, name: str, start: int = 1):
        if name in IdSource._registry:
            raise ValueError(f"duplicate IdSource {name!r}")
        self.name = name
        self._next = start
        IdSource._registry[name] = self

    def __next__(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def __iter__(self) -> "IdSource":
        return self

    def peek(self) -> int:
        """The id the next ``next()`` call will return."""
        return self._next

    @classmethod
    def capture_all(cls) -> Dict[str, int]:
        """Snapshot every registered counter's next value."""
        return {name: src._next for name, src in cls._registry.items()}

    @classmethod
    def restore_all(cls, state: Dict[str, int], *, merge_max: bool = False) -> None:
        """Restore counters captured by :meth:`capture_all`.

        With ``merge_max`` (used when merging shards from ranks that ran
        in separate processes and therefore advanced the same counter
        independently), a counter is only moved forward — the maximum
        over all restored values wins, which preserves uniqueness.

        Names with no registered counter are skipped, not registered:
        ``import repro`` loads only :mod:`repro.core`, and a restore's
        graph rebuild imports just the libraries its components use, so
        the capture may name counters (``processor.bulk_req_id``) that
        this process never loaded and no restored state holds ids of.
        """
        for name, value in state.items():
            src = cls._registry.get(name)
            if src is None:
                continue
            src._next = max(src._next, value) if merge_max else value


class EventRecord(NamedTuple):
    """A queued delivery, as the queue API hands it out.

    The queue stores plain ``(time, priority, seq, handler, event)``
    tuples — this exact field order — so heap ordering is tuple
    comparison in C: ``seq`` is unique per queue, so two entries never
    tie far enough to compare handlers.  Only :meth:`HeapEventQueue.pop`
    and :meth:`HeapEventQueue.snapshot_records` wrap entries in this
    class; the kernel loops unpack the raw tuples.  Records are
    immutable, so observers may keep them.
    """

    time: SimTime
    priority: int
    seq: int
    handler: Optional[Handler]
    event: Optional[Event]


# ----------------------------------------------------------------------
# Outbox-entry batches — the cross-rank exchange payload
# ----------------------------------------------------------------------
# An epoch's entries for one rank cross the process boundary as ONE
# pickle of the whole list.  Pickling an event costs mostly per event,
# not per byte: pickle names the class and walks copyreg's slot-state
# protocol for every event, 6-7 us each way for one NetMessage entry.
# So an EventTable, captured in the parent before the fork (every
# worker inherits the same indices), sends an event of a table class as
# its class index and a tuple of its slot values, and the receiver
# rebuilds it through a per-class unpacking constructor: about 2 us
# each way (docs/PERFORMANCE.md, "The epoch critical path").  An
# earlier hand-written codec lost to pickle because it re-sent
# ``module:qualname`` with every event; an index is one small int, and
# pickle still memoizes repeated payload objects across the batch.
# Index 0 carries the event itself, pickled whole: classes made after
# the capture, classes with a __dict__ or their own pickling hooks, and
# events with an unassigned slot.  An event object repeated in a batch
# is sent once; its later entries carry _REPEAT and the position of the
# first, so the receiver shares one object as a pickle of the events
# did.  (An event that also sits in another entry's payload arrives
# there as a second copy.)  Both sides run in processes forked
# from the same interpreter, so this only ever unpickles bytes this
# program wrote.

_BATCH_LEN = struct.Struct("<I")
#: an empty batch is a zero length and no pickle
_EMPTY_BATCH = _BATCH_LEN.pack(0)

#: what a class may define to change how pickle saves or rebuilds it;
#: a class that overrides any of them is pickled, never flattened
_PICKLE_HOOKS = ("__reduce__", "__reduce_ex__", "__getstate__",
                 "__setstate__", "__getnewargs__", "__getnewargs_ex__")


def _slot_state(cls: type) -> Optional[Tuple[str, ...]]:
    """The attribute names that make up ``cls``'s pickled state, in MRO
    order and mangled as pickle names them, or None when the class
    cannot be flattened (a ``__dict__``, a pickling hook of its own, or
    a slot named like a keyword)."""
    if cls.__dictoffset__ or cls in copyreg.dispatch_table:
        return None
    if any(getattr(cls, hook, None) is not getattr(object, hook, None)
           for hook in _PICKLE_HOOKS):
        return None
    names = tuple(name for name in _collect_slots(cls)
                  if name != "__weakref__")
    if any(keyword.iskeyword(name) for name in names):
        return None  # legal in __slots__, not as an attribute in code
    return names


def _slot_codec(cls: type, names: Tuple[str, ...]):
    """``(values, rebuild)`` for a flattenable class: ``values(event)``
    reads every slot (``AttributeError`` on an unassigned one) and
    ``rebuild(v)`` makes a new instance from what it returned."""
    if not names:
        return (lambda event: None), (lambda _v, new=cls.__new__: new(cls))
    targets = ", ".join(f"o.{name}" for name in names)
    namespace = {"new": cls.__new__, "cls": cls}
    exec(f"def rebuild(v):\n    o = new(cls)\n    {targets} = v\n"
         f"    return o\n", namespace)
    # attrgetter of one name returns the bare value: the one-name
    # rebuild assigns it whole
    return operator.attrgetter(*names), namespace["rebuild"]


def _as_is(event: Event) -> Event:
    return event


#: the class index of an event object already sent earlier in the same
#: batch; its slot values field holds that entry's position
_REPEAT = -1


class EventTable:
    """Class indices for the entry codec (:func:`encode_entries`).

    :meth:`capture` indexes every flattenable :class:`Event` subclass
    that exists when it runs; the processes backend captures one in the
    parent before it forks, so both sides of every pipe hold the same
    indices.  An empty table (``EventTable()``) pickles every event
    whole.  An event object sent twice in one batch arrives as one
    object, as it did when the batch was one pickle of the events.
    """

    __slots__ = ("_index", "_rebuild")

    def __init__(self, classes: Iterable[type] = ()):
        #: class -> (index, values)
        self._index: Dict[type, Tuple[int, Callable]] = {}
        #: index -> rebuild; index 0 is an event pickled whole
        self._rebuild: List[Callable] = [_as_is]
        for cls in classes:
            names = _slot_state(cls)
            if names is not None and cls not in self._index:
                values, rebuild = _slot_codec(cls, names)
                self._index[cls] = (len(self._rebuild), values)
                self._rebuild.append(rebuild)

    @classmethod
    def capture(cls) -> "EventTable":
        """A table of every :class:`Event` subclass defined so far."""
        found: List[type] = []
        todo = [Event]
        while todo:
            klass = todo.pop()
            found.append(klass)
            todo.extend(reversed(klass.__subclasses__()))
        return cls(found)

    def flatten(self, entries: List[Tuple]) -> List[Tuple]:
        """Outbox entries in wire form: ``(time, link_id, dest_rank,
        send_seq, class_index, slot_values)``."""
        index = self._index
        flat = []
        append = flat.append
        #: id(event) -> the position of its first entry
        sent: Dict[int, int] = {}
        for time, link_id, dest, seq, event in entries:
            at = sent.setdefault(id(event), len(flat))
            if at != len(flat):
                append((time, link_id, dest, seq, _REPEAT, at))
                continue
            codec = index.get(type(event))
            if codec is not None:
                try:
                    append((time, link_id, dest, seq, codec[0],
                            codec[1](event)))
                    continue
                except AttributeError:  # an unassigned slot
                    pass
            append((time, link_id, dest, seq, 0, event))
        return flat

    def rebuild(self, flat: List[Tuple]) -> List[Tuple]:
        """Inverse of :meth:`flatten`."""
        rebuild = self._rebuild
        entries: List[Tuple] = []
        append = entries.append
        for time, link_id, dest, seq, index, values in flat:
            append((time, link_id, dest, seq,
                    entries[values][4] if index == _REPEAT
                    else rebuild[index](values)))
        return entries


def encode_entries(entries: List[Tuple], table: EventTable) -> bytes:
    """Outbox entries ``(time, link_id, dest_rank, send_seq, event)``
    as one length-prefixed batch pickle of their wire form."""
    if not entries:
        return _EMPTY_BATCH
    blob = pickle.dumps(table.flatten(entries), pickle.HIGHEST_PROTOCOL)
    return _BATCH_LEN.pack(len(blob)) + blob


def decode_entries(buf: bytes, offset: int,
                   table: EventTable) -> Tuple[List[Tuple], int]:
    """Inverse of :func:`encode_entries` (with the same ``table``);
    returns ``(entries, next_offset)``."""
    (length,) = _BATCH_LEN.unpack_from(buf, offset)
    offset += _BATCH_LEN.size
    if not length:
        return [], offset
    end = offset + length
    return table.rebuild(pickle.loads(memoryview(buf)[offset:end])), end
