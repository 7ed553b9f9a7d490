"""Component and SubComponent: one declarative base.

A PySST component mirrors an SST component:

* constructed with ``(sim, name, params)``;
* owns named :class:`~repro.core.link.Port` objects, wired to peers by
  the simulation/config layer;
* registers clock handlers and statistics;
* participates in the termination protocol: *primary* components keep
  the simulation alive until every one of them has declared itself OK
  to end (SST's ``primaryComponentOKToEndSim``).

Interfaces are **declarative** (see :mod:`repro.core.describe` and
``docs/COMPONENTS.md``): subclasses declare ports with :func:`port`,
run state with :func:`state`, statistics with :func:`stat`, typed
parameters with :func:`param` and subcomponent slots with :func:`slot`
as class attributes.  The shared base collects the declarations at
class-creation time and registers statistics, parses parameters and
fills slots at construction; the engine services consume them — the
config layer validates every link endpoint against the declared ports
at graph-build time, `repro.ckpt` captures and restores declared state
(with ``reconstruct=`` hooks for unpicklable values), and `repro.obs`
samples ``gauge=True`` state.

That is the only protocol.  A subclass defining ``PORTS``,
``STATE_EXCLUDE``, ``capture_state`` or ``restore_state`` is refused
with :class:`SpecError` at class creation, naming the declarative
replacement.

Lifecycle::

    __init__(sim, name, params)   # parse params (declared stats/ports
                                  # are already live when the subclass
                                  # body runs)
    on_setup()                    # graph fully wired; kick off events
    ... event processing ...
    on_finish()                   # run over; finalize statistics
    on_restore()                  # after a checkpoint restore only
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .clock import Clock, ClockHandler
from .describe import (ParamSpec, PortSpec, SlotSpec, SpecError,  # noqa: F401
                       StateSpec, StatSpec, collect_specs, param, port, slot,
                       state, stat)
from .event import PRIORITY_CLOCK, PRIORITY_EVENT, Event
from .link import LinkError, Port, port_of
from .params import CONVERTERS, Params
from .statistics import Accumulator, Counter, StatisticGroup
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .simulation import Simulation


def stable_seed(name: str, base_seed: int) -> int:
    """A process-independent seed derived from a component name.

    Python's builtin ``hash`` is salted per process, which would make
    runs irreproducible, so we use CRC32 of the name mixed with the
    simulation seed.  Component-keyed seeding is also what makes the
    parallel engine produce the same per-component random streams as
    the sequential engine regardless of partitioning.
    """
    import zlib

    return (zlib.crc32(name.encode("utf-8")) ^ (base_seed * 0x9E3779B1)) & 0xFFFFFFFF


#: Class attributes of the imperative protocol, refused at class
#: creation, mapped to the declarative form that replaces each.
_IMPERATIVE = {
    "PORTS": "declare each port with port()",
    "STATE_EXCLUDE": "declare the attribute with "
                     "state(save=False, reconstruct=...)",
    "capture_state": "declare unpicklable attributes with "
                     "state(save=False, reconstruct=...)",
    "restore_state": "re-derive caches from restored state in "
                     "on_restore()",
}


#: Statistic kinds that ``_declare`` registers inline (a histogram's
#: bins are a list, so it goes through ``StatisticGroup.histogram``).
_INLINE_STATS = {"counter": Counter, "accumulator": Accumulator}


def _compile_declare(cls: type) -> Callable[[Any, StatisticGroup, str], None]:
    """``cls``'s construction function, compiled once per class.

    ``_declare(self, stats, prefix)`` brings the declarations alive on
    a new instance in straight-line code, one attribute store each:
    declared state with a default first, in declaration order, so the
    first instance puts every key into the class's shared-key table and
    no instance goes dict-backed later (docs/COMPONENTS.md); declared
    statistics next, registered into ``stats`` under
    ``<prefix><name>`` (the ``self.s_hits`` fast-access idiom), counters
    and accumulators inline: a name already registered with the same
    type is shared, another type raises ``StatisticGroup.retyped``;
    declared typed parameters last, each fetched inline and parsed by
    one call to its kind's converter (``params.CONVERTERS``), so the
    subclass body sees ``self.<param>`` already set.  ``choices`` are
    checked only where declared.  Every value is a plain attribute
    store: reading ``self.__dict__`` would make CPython trade the
    instance's inline attribute values for a real dict, and every
    attribute access of the run would pay for it.
    """
    namespace: Dict[str, Any] = {}
    lines = ["def _declare(self, stats, prefix):"]

    def bind(value: Any) -> str:
        name = f"_{len(namespace)}"
        namespace[name] = value
        return name

    def store(attr: str, expr: str) -> None:
        lines.append(f"    self.{attr} = {expr}")

    for attr, spec in cls._state_specs.items():
        if spec.factory is not None:
            store(attr, f"{bind(spec.factory)}()")
        elif spec.has_default:
            store(attr, bind(spec.default))
    for attr, spec in cls._stat_specs.items():
        kind = _INLINE_STATS.get(spec.kind)
        if kind is None or spec.kwargs:
            make = bind(getattr(StatisticGroup, spec.kind))
            kwargs = f", **{bind(spec.kwargs)}" if spec.kwargs else ""
            store(attr, f"{make}(stats, prefix + {spec.name!r}{kwargs})")
            continue
        # StatisticGroup._register inlined, the collector built without
        # its __init__ frames: the slots a fresh one holds, stored here.
        fresh = kind("").state_dict()
        del fresh["name"]
        kind = bind(kind)
        lines += [f"    name = prefix + {spec.name!r}",
                  "    stat = stats.get(name)",
                  "    if stat is None:",
                  f"        stat = stats[name] = {bind(object.__new__)}({kind})",
                  "        stat.name = name"]
        lines += [f"        stat.{slot} = {bind(value)}"
                  for slot, value in fresh.items()]
        lines += [f"    elif type(stat) is not {kind}:",
                  f"        raise {bind(StatisticGroup.retyped)}(name)"]
        store(attr, "stat")
    if cls._param_specs:
        lines += ["    params = self.params",
                  "    data = params._data",
                  "    consumed = params._consumed"]
    for attr, spec in cls._param_specs.items():
        # Params._fetch inlined; the declared default is never missing
        key = repr(spec.name)
        lines += [f"    if {key} in data:",
                  f"        consumed[{key}] = None",
                  f"        value = data[{key}]",
                  "    else:",
                  f"        value = {bind(spec.default)}",
                  f"    value = {bind(CONVERTERS[spec.kind])}({key}, value)"]
        if spec.choices is not None:
            lines += [f"    if value not in {bind(spec.choices)}:",
                      f"        raise {bind(spec.choice_error)}(value)"]
        store(attr, "value")
    if cls._param_specs:
        # a defaults overlay (Params.with_defaults) marks its parent too
        names = tuple(spec.name for spec in cls._param_specs.values())
        lines += ["    if params._parent is not None:",
                  f"        params.accept(*{bind(names)})"]
    lines.append("    return None")
    code = compile("\n".join(lines),
                   f"<declare {cls.__module__}.{cls.__qualname__}>", "exec")
    exec(code, namespace)
    declare = namespace["_declare"]
    declare.__qualname__ = f"{cls.__qualname__}._declare"
    return declare


class _Declarative:
    """What :class:`Component` and :class:`SubComponent` share.

    Class creation collects the declared-spec tables, refuses the
    imperative protocol, checks statistic names and compiles the
    class's ``_declare`` (:func:`_compile_declare`), which construction
    calls to set declared state, register declared statistics and parse
    declared parameters; a component then fills its declared slots.  The
    checkpoint, telemetry and lifecycle protocols are written once here.
    A subcomponent is simply a declarative model without ports or slots.
    """

    #: Attributes the wiring layer owns, one set per base: a restore
    #: rebuilds them from the configuration graph, never from the
    #: snapshot.  The declared-spec tables (``_port_specs``,
    #: ``_state_skip``, ...) are rebuilt per class below.
    _ENGINE_OWNED: frozenset

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for attr, replacement in _IMPERATIVE.items():
            if attr in cls.__dict__:
                raise SpecError(
                    f"{cls.__name__}: defining {attr!r} is not supported "
                    f"— {replacement}")
        specs = collect_specs(cls)
        cls._port_specs = specs["ports"]
        cls._state_specs = specs["state"]
        cls._stat_specs = specs["stats"]
        cls._param_specs = specs["params"]
        cls._slot_specs = specs["slots"]
        cls._declare = _compile_declare(cls)
        cls._port_handlers = tuple(
            (spec.name, attr) for spec in cls._port_specs.values()
            if (attr := spec.handler_attr(cls)) is not None)
        cls._state_skip = cls._ENGINE_OWNED | {
            attr for attr, spec in cls._state_specs.items() if not spec.save
        }
        cls._gauge_specs = tuple(
            spec for spec in cls._state_specs.values() if spec.gauge
        )
        cls._reconstruct_hooks = tuple(
            spec.reconstruct for spec in cls._state_specs.values()
            if spec.reconstruct is not None
        )
        by_stat_name: Dict[str, str] = {}
        for attr, spec in cls._stat_specs.items():
            other = by_stat_name.get(spec.name)
            if other is not None and other != attr:
                raise SpecError(
                    f"{cls.__name__}: statistics {other!r} and {attr!r} "
                    f"both declare the name {spec.name!r}"
                )
            by_stat_name[spec.name] = attr
        for spec in cls._gauge_specs:
            if spec.attr in by_stat_name:
                raise SpecError(
                    f"{cls.__name__}: gauge state {spec.attr!r} collides "
                    f"with a declared statistic of the same name"
                )

    def _filled_slots(self) -> List[Tuple[str, "SubComponent"]]:
        """``(slot, subcomponent)`` for every filled slot, in order."""
        return [(attr, sub) for attr in type(self)._slot_specs
                if isinstance(sub := getattr(self, attr), SubComponent)]

    # ------------------------------------------------------------------
    # simulated time and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        return self.sim.now

    @property
    def _seed_name(self) -> str:
        """The name keying this model's random stream."""
        return self.name

    @property
    def rng(self) -> "np.random.Generator":
        """Deterministic random stream (seeded by name + sim seed).

        numpy is imported when the first stream is made, so a run whose
        models never draw never loads it."""
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(
                stable_seed(self._seed_name, self.sim.seed))
        return self._rng

    # ------------------------------------------------------------------
    # checkpoint protocol (repro.ckpt)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, Any]:
        """The model's mutable run state, for engine checkpointing.

        Every instance attribute except the engine-owned ones and
        declared state marked ``save=False`` (live generators, open
        files — anything unpicklable, rebuilt after a restore by the
        spec's ``reconstruct=`` hook).  Statistics are captured
        separately by the snapshot layer (references to registered
        collectors inside the returned dict are preserved by identity,
        not duplicated).

        Slot subcomponents are captured *through* their parent: the
        slot attribute is replaced by a marker dict carrying the
        subcomponent's registered type name and its own
        ``capture_state()``, so a restore applies the state into the
        rebuilt subcomponent instance instead of deserialising a
        detached copy (live events referencing the subcomponent keep
        identity via the ckpt reference table).
        """
        skip = type(self)._state_skip
        out = {k: v for k, v in self.__dict__.items() if k not in skip}
        for attr, sub in self._filled_slots():
            out[attr] = {"__slot__": type(sub).TYPE_NAME,
                         "state": sub.capture_state()}
        return out

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Apply state captured by :meth:`capture_state`.

        Called on a freshly rebuilt component **after** ``setup()`` ran
        and after its statistics were adopted, so a fully wired graph
        and live collectors may be assumed.  After the captured dict is
        applied, every declared state spec carrying ``reconstruct=``
        has that method invoked, in declaration order (base classes
        first), to rebuild ``save=False`` live objects; the ckpt layer
        then calls :meth:`on_restore` once per model.

        Slot markers produced by :meth:`capture_state` are applied into
        the already-rebuilt subcomponent instances (identity preserved)
        after a type check — a snapshot taken with one policy cannot be
        restored into a graph configured with another.
        """
        slot_specs = type(self)._slot_specs
        markers: Dict[str, Dict[str, Any]] = {}
        if slot_specs:
            state = dict(state)
            for attr in slot_specs:
                value = state.get(attr)
                if isinstance(value, dict) and "__slot__" in value:
                    markers[attr] = state.pop(attr)
        # setattr, not an update of self.__dict__: reading the instance
        # dict would trade CPython's inline attribute values for a real
        # dict and slow every later access of the restored component.
        for attr, value in state.items():
            setattr(self, attr, value)
        for attr, marker in markers.items():
            # an unfilled slot's descriptor reads None
            sub = getattr(self, attr)
            if not isinstance(sub, SubComponent) or \
                    type(sub).TYPE_NAME != marker["__slot__"]:
                raise SpecError(
                    f"{self.name}: snapshot filled slot {attr!r} with "
                    f"{marker['__slot__']!r} but the rebuilt component "
                    f"holds {type(sub).__name__!r} — restore into the "
                    f"same configuration")
            sub.restore_state(marker["state"])
        for hook in type(self)._reconstruct_hooks:
            getattr(self, hook)()

    # ------------------------------------------------------------------
    # telemetry (repro.obs)
    # ------------------------------------------------------------------
    def telemetry_gauges(self) -> Dict[str, float]:
        """Current values of ``state(..., gauge=True)`` declarations.

        Sampled by :class:`~repro.analysis.timeseries.StatSampler` and
        the telemetry heartbeat under ``<component>.<attr>`` keys,
        alongside registered statistics (slot subcomponents' gauges
        as ``<slot>.<attr>``).  Non-numeric values sample as their
        length when sized, else are skipped.
        """
        out: Dict[str, float] = {}
        for spec in type(self)._gauge_specs:
            value = getattr(self, spec.attr, None)
            if isinstance(value, (int, float)):
                out[spec.attr] = float(value)
            elif hasattr(value, "__len__"):
                out[spec.attr] = float(len(value))
        for attr, sub in self._filled_slots():
            for key, value in sub.telemetry_gauges().items():
                out[f"{attr}.{key}"] = value
        return out

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_setup(self) -> None:
        """Graph fully wired; register work, kick off first events."""

    def on_finish(self) -> None:
        """Run over; finalize statistics."""

    def on_restore(self) -> None:
        """Called by `repro.ckpt` after this model's state (and every
        other one's) has been restored, in component registration order
        — the place to re-derive caches from restored state."""


class Component(_Declarative):
    """Base class for every simulated hardware/software model.

    Subclasses declare their interface with :func:`port`, :func:`state`,
    :func:`stat`, :func:`param` and :func:`slot` class attributes.
    """

    _ENGINE_OWNED = frozenset({"sim", "name", "params", "stats", "_ports"})

    # -- engine-owned run flags --
    _is_primary = state(False, doc="registered as a primary component")
    _ok_to_end = state(True, doc="primary component is OK with ending")
    _rng = state(None, doc="lazily created per-component random stream")
    _clock_index = state(0, doc="clocks registered so far (names clock, "
                                "clock1, clock2, ...)")

    def __init__(self, sim: "Simulation", name: str, params: Optional[Params] = None):
        self.sim = sim
        self.name = name
        self.params = params if params is not None else Params({})
        self.stats = StatisticGroup()
        self._ports: Dict[str, Port] = {}
        self._declare(self.stats, "")
        cls = type(self)
        if cls._slot_specs:
            self._fill_slots()
        # Declared scalar ports bind their handlers (decorator, explicit
        # name, or on_<port> convention); indexed families are bound by
        # the subclass, which knows the index range.
        for port_name, attr in cls._port_handlers:
            handler = getattr(self, attr, None)
            if handler is None:
                raise SpecError(
                    f"{cls.__name__}: port {port_name!r} names handler "
                    f"{attr!r} which does not exist")
            self.set_handler(port_name, handler)
        sim._register_component(self)

    def _fill_slots(self) -> None:
        """Resolve each declared slot through the registry and fill it.

        The selected type name is the slot-named Params key; the
        subcomponent receives the ``<slot>.``-scoped sub-params.
        """
        from .registry import resolve

        params = self.params
        for attr, spec in type(self)._slot_specs.items():
            type_name = spec.configured_type(params)
            if type_name is None:
                continue
            params.accept(attr)
            sub_cls = resolve(type_name)
            spec.check(type_name, sub_cls)
            setattr(self, attr, sub_cls(self, attr, params.scoped(attr)))

    # ------------------------------------------------------------------
    # ports
    # ------------------------------------------------------------------
    def port(self, name: str) -> Port:
        """Fetch (creating on first use) the named port.

        The one way to send: ``self.port(name).send(event,
        extra_delay)``; test an optional port with ``.connected``.
        """
        try:
            return self._ports[name]
        except KeyError:
            port = Port(self, name)
            self._ports[name] = port
            return port

    def set_handler(self, port_name: str, handler: Callable[[Event], None]) -> Port:
        """Register the receive handler for a port.

        Declared scalar ports bind automatically; this remains the
        primitive for indexed port families (``cpu<i>``), whose
        per-index closures only the subclass can build.  An event
        carries the handler bound when it was sent, so bind in
        ``__init__``.  Under ``validate_events`` a handler bound once
        setup has begun is wrapped here (earlier ones are wrapped
        before the first ``setup()`` runs).
        """
        port = self.port(port_name)
        sim = self.sim
        if sim.validate_events and sim._setup_done:
            handler = self._event_checked(port_name, handler)
        port.bind(handler)
        return port

    def _install_event_checks(self) -> None:
        """Wrap handlers of event-typed declared ports with isinstance
        checks (``build(validate_events=True)`` / conformance tests
        only — never on by default, so the hot path stays bare)."""
        for pname, p in self._ports.items():
            if port_of(p.handler) is p:  # bound, not the stub
                p.bind(self._event_checked(pname, p.handler))

    def _event_checked(self, port_name: str,
                       handler: Callable[[Event], None]) -> Callable[[Event], None]:
        """``handler`` wrapped with the isinstance check its port's
        declaration names, or unchanged when it names no event class."""
        for spec in type(self)._port_specs.values():
            if spec.event is not None and spec.matches(port_name):
                return _checked_handler(self, port_name, spec.event, handler)
        return handler

    # ------------------------------------------------------------------
    # clocks / timers
    # ------------------------------------------------------------------
    def register_clock(self, freq: Any, handler: ClockHandler,
                       priority: int = PRIORITY_CLOCK, phase: SimTime = 0,
                       name: Optional[str] = None) -> Clock:
        """Register ``handler`` to be called at ``freq`` (e.g. ``"2GHz"``).

        Clocks are named ``<component>.clock``, ``<component>.clock1``,
        ... in registration order (pass ``name=`` to label one
        explicitly), so multi-clock components keep distinct
        profiler/trace attribution.  Naming never affects scheduling —
        arbiter classes key on (period, priority, phase residue) only.
        """
        index = self._clock_index
        self._clock_index = index + 1
        label = name if name is not None else (
            "clock" if index == 0 else f"clock{index}")
        return self.sim.register_clock(freq, handler,
                                       name=f"{self.name}.{label}",
                                       priority=priority, phase=phase)

    def schedule(self, delay: SimTime, callback: Callable[[Any], None],
                 payload: Any = None) -> None:
        """One-shot timer: call ``callback(payload)`` after ``delay`` ps.

        :meth:`Simulation.schedule_callback` at the default priority,
        inlined: the hot timer path of block-stepped models.
        """
        if delay < 0:
            from .simulation import SimulationError
            raise SimulationError("delay must be non-negative")
        sim = self.sim
        sim._queue.push(sim.now + delay, PRIORITY_EVENT, callback, payload)

    # ------------------------------------------------------------------
    # termination protocol
    # ------------------------------------------------------------------
    def register_as_primary(self, ok_to_end: bool = False) -> None:
        """Declare this component as controlling simulation termination."""
        if not self._is_primary:
            self._is_primary = True
            self._ok_to_end = True
            self.sim._exit_register(self)
        if not ok_to_end:
            self.primary_not_ok_to_end()

    def primary_ok_to_end(self) -> None:
        """This primary component no longer needs the simulation to run."""
        if self._is_primary and not self._ok_to_end:
            self._ok_to_end = True
            self.sim._exit_ok(self)

    def primary_not_ok_to_end(self) -> None:
        """This primary component has (more) work; keep simulating."""
        if self._is_primary and self._ok_to_end:
            self._ok_to_end = False
            self.sim._exit_not_ok(self)

    @property
    def is_primary(self) -> bool:
        return self._is_primary

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Called once after the full graph is wired, before the run.

        Override :meth:`on_setup` instead; a direct ``setup()``
        override bypasses hook dispatch.  Slot subcomponents receive
        their ``on_setup`` first, so the parent's hook may already rely
        on a fully initialised policy.
        """
        if type(self)._slot_specs:
            for _, sub in self._filled_slots():
                sub.on_setup()
        self.on_setup()

    def finish(self) -> None:
        """Called once when the run ends.  Override :meth:`on_finish`."""
        self.on_finish()
        if type(self)._slot_specs:
            for _, sub in self._filled_slots():
                sub.on_finish()

    def debug(self, message: str) -> None:
        """Engine-level debug trace, gated on the simulation's verbosity."""
        if self.sim.verbose:
            print(f"[{self.sim.now:>12}ps] {self.name}: {message}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SubComponent(_Declarative):
    """Base class for slot-loaded subcomponents (SST's SubComponent).

    A subcomponent is a swappable strategy object living *inside* a
    component — a scheduler policy, a replacement policy, an arbiter —
    selected by registered type name through a :func:`slot` declaration
    and constructed with ``(parent, slot_name, params)``.  It shares
    the declarative base of :class:`Component` minus ports and nested
    slots: declared :func:`state` participates in the parent's
    checkpoint capture/restore (``reconstruct=`` hooks included),
    declared :func:`stat` statistics register into the **parent's**
    statistic group under ``<slot>.<name>`` keys (so harvesting,
    snapshots and parallel merging need no new machinery), declared
    :func:`param` values parse from the slot-scoped Params, and
    ``gauge=True`` state surfaces through the parent's
    :meth:`Component.telemetry_gauges` as ``<slot>.<attr>``.

    Lifecycle hooks mirror the component ones: ``on_setup`` runs
    before the parent's, ``on_finish`` after it, ``on_restore`` after a
    checkpoint restore.
    """

    _ENGINE_OWNED = frozenset({"parent", "name", "params"})

    _rng = state(None, doc="lazily created per-subcomponent random stream")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls._port_specs:
            raise SpecError(
                f"{cls.__name__}: subcomponents declare no ports — events "
                f"reach them through their parent component")
        if cls._slot_specs:
            raise SpecError(
                f"{cls.__name__}: nested subcomponent slots are not "
                f"supported")

    def __init__(self, parent: Component, name: str,
                 params: Optional[Params] = None):
        self.parent = parent
        self.name = name
        self.params = params if params is not None else Params({})
        # Declared statistics register into the parent's group under
        # slot-prefixed names, so every stats consumer (harvest, ckpt
        # meta, parallel merge, OpenMetrics) sees them for free.
        self._declare(parent.stats, f"{name}.")

    @property
    def sim(self) -> "Simulation":
        return self.parent.sim

    @property
    def _seed_name(self) -> str:
        """``<parent>.<slot>``: swapping policies never perturbs other
        components' draws."""
        return f"{self.parent.name}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} "
                f"{getattr(self.parent, 'name', '?')}.{self.name}>")


def _checked_handler(component: Component, port_name: str,
                     event_cls: type, inner: Callable) -> Callable:
    """Validation-mode wrapper: reject events of the wrong class."""

    def checked(event: Event) -> None:
        if event is not None and not isinstance(event, event_cls):
            raise LinkError(
                f"component {component.name!r} port {port_name!r} expects "
                f"{event_cls.__name__}, got {type(event).__name__}"
            )
        inner(event)

    checked.__wrapped_handler__ = inner  # type: ignore[attr-defined]
    checked.__name__ = getattr(inner, "__name__", "handler")
    return checked
