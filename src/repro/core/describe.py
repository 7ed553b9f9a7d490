"""Declarative component specs: typed ports, declared state, statistics.

SST's component framework earns its keep by letting a model *declare*
its interface once and have every engine service — wiring validation,
checkpointing, statistics, telemetry — consume the declaration.  This
module supplies the three descriptor families the PySST
:class:`~repro.core.component.Component` base collects at class-creation
time:

* :func:`port` / :class:`PortSpec` — a named, documented port with an
  optional expected event class and a receive handler bound by
  decorator, by explicit name, or by the ``on_<port>`` convention.
  The config layer (:func:`repro.config.build`) validates every link
  endpoint against these at graph-build time, so a typo'd port name
  fails when the machine is assembled instead of at the first send.
* :func:`state` / :class:`StateSpec` — a mutable run-state attribute
  with a default, an optional ``save=False`` flag for values that
  cannot be pickled (live generators, open files) and a paired
  ``reconstruct=`` hook that `repro.ckpt` calls after a restore, and a
  ``gauge=True`` flag that surfaces the value to the telemetry layer.
* :func:`stat` (``stat.counter`` / ``stat.accumulator`` /
  ``stat.histogram``) / :class:`StatSpec` — a registered statistic,
  instantiated automatically at construction, so subclasses never
  hand-plumb :class:`~repro.core.statistics.StatisticGroup`.
* :func:`param` / :class:`ParamSpec` — a typed constructor parameter
  with a default and optional ``choices``; parsed from the component's
  :class:`~repro.core.params.Params` at construction, documented by
  ``component describe``, and — when ``choices`` is given — exported as
  a sweep dimension by :func:`sweep_axes` for `repro.dse` studies.
* :func:`slot` / :class:`SlotSpec` — a declared *subcomponent slot*
  (SST's subcomponent API): a named policy/strategy hole filled at
  build time by a registered
  :class:`~repro.core.component.SubComponent` type selected by name
  from Params.  Slots are validated like ports at graph-build time and
  the resolved subcomponent's declared state and statistics ride every
  engine service (checkpointing, telemetry, conformance) through its
  parent.

These declarations are the one component protocol: the shared base of
``Component`` and ``SubComponent`` refuses the imperative forms
(``PORTS`` dicts, ``STATE_EXCLUDE``, ``capture_state``/``restore_state``
overrides) at class creation.  Everything here runs at class creation
or component construction — never on the event hot path.  See
``docs/COMPONENTS.md`` for the authoring guide and a worked example.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Optional, Type

from .params import CONVERTERS, ParamError

_MISSING = object()

#: ``<i>``-style placeholder segments in indexed port-family names
#: (``cpu<i>``, ``dim<d>_pos``) match any decimal index.
_PLACEHOLDER = re.compile(r"<[^<>]*>")


class SpecError(TypeError):
    """A component's declarations are inconsistent."""


# ----------------------------------------------------------------------
# ports
# ----------------------------------------------------------------------

class PortSpec:
    """A declared port: documentation plus engine-checkable facts.

    Declared as a class attribute; the attribute name is the port name
    unless ``name=`` overrides it (required for indexed families such
    as ``cpu<i>``, whose names are not identifiers).

    On an instance, attribute access resolves to the live
    :class:`~repro.core.link.Port` object (scalar ports only).
    """

    __slots__ = ("attr", "name", "doc", "required", "event",
                 "handler_name", "_regex")

    def __init__(self, doc: str = "", *, name: Optional[str] = None,
                 required: bool = True, event: Optional[type] = None,
                 handler: Optional[str] = None):
        self.attr: Optional[str] = None
        self.name = name
        self.doc = doc
        self.required = required
        self.event = event
        self.handler_name = handler
        self._regex: Optional[re.Pattern] = None
        if name is not None:
            self._compile(name)

    def _compile(self, name: str) -> None:
        if _PLACEHOLDER.search(name):
            # Escape the literal segments, then turn each <placeholder>
            # into a decimal-index matcher.
            pattern = re.escape(_PLACEHOLDER.sub("\0", name)).replace(
                "\0", r"\d+")
            self._regex = re.compile(f"^{pattern}$")

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr
        if self.name is None:
            self.name = attr
            self._compile(attr)

    # -- declaration-side API ------------------------------------------
    def handler(self, fn: Callable) -> Callable:
        """Decorator form: mark ``fn`` as this port's receive handler."""
        self.handler_name = fn.__name__
        return fn

    @property
    def indexed(self) -> bool:
        """True for port families (``cpu<i>``) matched by index."""
        return self._regex is not None

    def matches(self, port_name: str) -> bool:
        """Does a concrete port name satisfy this declaration?"""
        if self._regex is not None:
            return self._regex.match(port_name) is not None
        return port_name == self.name

    # -- engine-side API ------------------------------------------------
    def handler_attr(self, cls: type) -> Optional[str]:
        """The name of ``cls``'s receive handler for this port, if any.

        Resolution order: an explicit/decorator-recorded handler name
        (checked when an instance binds it), then the ``on_<port>``
        naming convention.  Indexed families return None — their
        per-index closures are bound by the subclass with
        ``Component.set_handler``.
        """
        if self.indexed:
            return None
        if self.handler_name is not None:
            return self.handler_name
        attr = f"on_{self.name}"
        return attr if callable(getattr(cls, attr, None)) else None

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        if self.indexed:
            raise AttributeError(
                f"indexed port family {self.name!r} has no single Port; "
                f"use component.port('{self.name.replace('<', '').replace('>', '')}...')"
            )
        return obj.port(self.name)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "doc": self.doc,
            "required": self.required,
            "indexed": self.indexed,
            "event": self.event.__name__ if self.event is not None else None,
            "handler": self.handler_name or
                       (f"on_{self.name}" if not self.indexed else None),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PortSpec {self.name!r}>"


def port(doc: str = "", *, name: Optional[str] = None, required: bool = True,
         event: Optional[type] = None,
         handler: Optional[str] = None) -> PortSpec:
    """Declare a port (see :class:`PortSpec`).

    >>> class MyCache(Component):
    ...     cpu = port("upstream requests", event=MemRequest)
    ...     mem = port("downstream memory", event=MemResponse)
    ...
    ...     @cpu.handler
    ...     def on_request(self, event): ...
    """
    return PortSpec(doc, name=name, required=required, event=event,
                    handler=handler)


# ----------------------------------------------------------------------
# state
# ----------------------------------------------------------------------

class StateSpec:
    """A declared mutable run-state attribute.

    Non-data descriptor.  Construction sets every declared default (a
    factory is called once per instance) as an instance attribute, in
    declaration order, so reads and writes never reach the descriptor
    and CPython keeps the values inline (docs/COMPONENTS.md).  A spec
    without a default reads as a named ``AttributeError`` until the
    model assigns it.  Declared state is consumed by:

    * ``repro.ckpt`` — captured by ``capture_state`` unless
      ``save=False``; after a restore, specs carrying ``reconstruct=``
      have that method invoked (in declaration order) to rebuild
      unpicklable live objects from the already-applied picklable
      state.
    * ``repro.obs`` — ``gauge=True`` values appear in
      :meth:`Component.telemetry_gauges` and are sampled by
      :class:`~repro.analysis.timeseries.StatSampler` and the telemetry
      heartbeat alongside registered statistics.
    * the ``component describe`` CLI and config serialization
      (``describe=True``), which document the declared state per type.
    """

    __slots__ = ("attr", "doc", "default", "factory", "save",
                 "reconstruct", "gauge")

    def __init__(self, default: Any = _MISSING, *, factory: Optional[Callable] = None,
                 save: bool = True, reconstruct: Optional[str] = None,
                 gauge: bool = False, doc: str = ""):
        if factory is not None and default is not _MISSING:
            raise SpecError("state(): pass default or factory, not both")
        self.attr: Optional[str] = None
        self.doc = doc
        self.default = default
        self.factory = factory
        self.save = save
        self.reconstruct = reconstruct
        self.gauge = gauge

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    @property
    def has_default(self) -> bool:
        return self.factory is not None or self.default is not _MISSING

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        # Reached only while the instance has no value of its own (an
        # instance attribute shadows a non-data descriptor).
        if obj is None:
            return self
        raise AttributeError(
            f"{type(obj).__name__}.{self.attr} has no default and was "
            f"never assigned"
        )

    def describe(self) -> Dict[str, Any]:
        if self.factory is not None:
            default = f"{getattr(self.factory, '__name__', self.factory)}()"
        elif self.default is not _MISSING:
            default = repr(self.default)
        else:
            default = None
        return {
            "name": self.attr,
            "doc": self.doc,
            "default": default,
            "save": self.save,
            "reconstruct": self.reconstruct,
            "gauge": self.gauge,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StateSpec {self.attr!r}>"


def state(default: Any = _MISSING, *, save: bool = True,
          reconstruct: Optional[str] = None, gauge: bool = False,
          doc: str = "") -> StateSpec:
    """Declare a run-state attribute (see :class:`StateSpec`).

    ``default`` may be a value or a zero-argument callable (``dict``,
    ``list``, a lambda) — callables are treated as per-instance
    factories, so mutable defaults are safe.
    """
    if callable(default) and default is not _MISSING:
        return StateSpec(factory=default, save=save, reconstruct=reconstruct,
                         gauge=gauge, doc=doc)
    return StateSpec(default, save=save, reconstruct=reconstruct,
                     gauge=gauge, doc=doc)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

class StatSpec:
    """A declared statistic, registered automatically at construction.

    The attribute name minus a leading ``s_`` is the registered name
    unless ``name=`` overrides it; construction instantiates every
    declared statistic into ``self.<attr>`` (same objects as
    ``self.stats.get(name)``), preserving the library's ``self.s_hits``
    fast-access idiom without any per-subclass plumbing.
    """

    __slots__ = ("attr", "kind", "name", "doc", "kwargs")

    def __init__(self, kind: str, name: Optional[str] = None, *,
                 doc: str = "", **kwargs: Any):
        if kind not in ("counter", "accumulator", "histogram"):
            raise SpecError(f"unknown statistic kind {kind!r}")
        self.attr: Optional[str] = None
        self.kind = kind
        self.name = name
        self.doc = doc
        self.kwargs = kwargs

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr
        if self.name is None:
            self.name = attr[2:] if attr.startswith("s_") else attr

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        # Construction assigns every declared statistic, which shadows
        # this non-data descriptor: reaching here means it never ran.
        if obj is None:
            return self
        raise AttributeError(self.attr)

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "doc": self.doc,
                **{k: v for k, v in self.kwargs.items()}}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StatSpec {self.kind} {self.name!r}>"


class _StatFactory:
    """The ``stat`` namespace: ``stat.counter`` / ``.accumulator`` / ``.histogram``."""

    @staticmethod
    def counter(name: Optional[str] = None, *, doc: str = "") -> StatSpec:
        return StatSpec("counter", name, doc=doc)

    @staticmethod
    def accumulator(name: Optional[str] = None, *, doc: str = "") -> StatSpec:
        return StatSpec("accumulator", name, doc=doc)

    @staticmethod
    def histogram(name: Optional[str] = None, *, low: float = 0.0,
                  bin_width: float = 1.0, n_bins: int = 32,
                  doc: str = "") -> StatSpec:
        return StatSpec("histogram", name, doc=doc, low=low,
                        bin_width=bin_width, n_bins=n_bins)


stat = _StatFactory()


# ----------------------------------------------------------------------
# typed constructor parameters
# ----------------------------------------------------------------------

class ParamSpec:
    """A declared, typed constructor parameter.

    Construction (of a component or a subcomponent) parses every
    declared parameter out of the instance's
    :class:`~repro.core.params.Params` with the converter of its
    ``kind`` (``params.CONVERTERS``) and assigns the result to
    ``self.<attr>`` before the subclass body runs.  ``choices`` both
    validates the configured value and exports the parameter as a sweep
    dimension through :func:`sweep_axes`.
    """

    __slots__ = ("attr", "name", "doc", "default", "kind", "choices")

    def __init__(self, default: Any, *, kind: Optional[str] = None,
                 choices: Optional[tuple] = None, doc: str = "",
                 name: Optional[str] = None):
        if kind is None:
            if isinstance(default, bool):
                kind = "bool"
            elif isinstance(default, int):
                kind = "int"
            elif isinstance(default, float):
                kind = "float"
            else:
                kind = "str"
        if kind not in CONVERTERS:
            raise SpecError(
                f"param(): unknown kind {kind!r} "
                f"(one of {sorted(CONVERTERS)})")
        self.attr: Optional[str] = None
        self.name = name
        self.doc = doc
        self.default = default
        self.kind = kind
        self.choices = tuple(choices) if choices is not None else None

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr
        if self.name is None:
            self.name = attr

    def choice_error(self, value: Any) -> ParamError:
        """The error for a configured ``value`` outside ``choices``."""
        return ParamError(
            f"parameter {self.name!r}={value!r} not one of "
            f"{list(self.choices)}")

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        # Construction assigns the parsed value, which shadows this
        # non-data descriptor: reaching here means it never ran.
        if obj is None:
            return self
        return self.default

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "doc": self.doc,
            "kind": self.kind,
            "default": self.default,
            "choices": list(self.choices) if self.choices else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ParamSpec {self.name!r}>"


def param(default: Any, *, kind: Optional[str] = None,
          choices: Optional[tuple] = None, doc: str = "",
          name: Optional[str] = None) -> ParamSpec:
    """Declare a typed constructor parameter (see :class:`ParamSpec`).

    >>> class Scheduler(Component):
    ...     nodes = param(16, doc="cluster node count")
    ...     mode = param("poisson", choices=("poisson", "burst"))
    """
    return ParamSpec(default, kind=kind, choices=choices, doc=doc, name=name)


# ----------------------------------------------------------------------
# subcomponent slots
# ----------------------------------------------------------------------

class SlotSpec:
    """A declared subcomponent slot (SST's subcomponent API).

    The attribute name is both the Params key selecting the registered
    subcomponent type (``{"policy": "cluster.EASYBackfill"}``) and the
    sub-parameter scope (``policy.<key>`` params reach the
    subcomponent).  ``Component.__init__`` resolves the configured type
    through the registry, checks it against ``base`` (and ``choices``,
    when given) and instantiates it; the config builder performs the
    same validation *before* any component is instantiated, so a typo'd
    policy name fails at graph-build time with the component and slot
    named.
    """

    __slots__ = ("attr", "doc", "base", "default", "choices", "required")

    def __init__(self, doc: str = "", *, base: Optional[type] = None,
                 default: Optional[str] = None,
                 choices: Optional[tuple] = None, required: bool = True):
        self.attr: Optional[str] = None
        self.doc = doc
        self.base = base
        self.default = default
        self.choices = tuple(choices) if choices is not None else None
        if default is None and required:
            raise SpecError("slot(): a required slot needs a default "
                            "registered type name")
        self.required = required

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def configured_type(self, params: Any) -> Optional[str]:
        """The registered type name this slot resolves to under ``params``.

        ``params`` may be a :class:`~repro.core.params.Params` or any
        mapping (the config builder passes the raw conf dict).
        """
        value = params.get(self.attr, self.default)
        return None if value is None else str(value)

    def check(self, type_name: str, sub_cls: type) -> None:
        """Validate a resolved subcomponent class against this slot.

        Raises :class:`SpecError` on a base-class or choices mismatch;
        the caller decides whether that surfaces as a config or a
        construction error.
        """
        if self.choices is not None and type_name not in self.choices:
            raise SpecError(
                f"slot {self.attr!r}: type {type_name!r} not one of "
                f"{list(self.choices)}")
        if self.base is not None and not (isinstance(sub_cls, type)
                                          and issubclass(sub_cls, self.base)):
            raise SpecError(
                f"slot {self.attr!r}: type {type_name!r} ({sub_cls!r}) is "
                f"not a {self.base.__name__} subclass")

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        # The resolved subcomponent is an instance attribute and
        # shadows this non-data descriptor; reaching here means the
        # slot was never filled (required=False without a default).
        return None

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.attr,
            "doc": self.doc,
            "base": self.base.__name__ if self.base is not None else None,
            "default": self.default,
            "choices": list(self.choices) if self.choices else None,
            "required": self.required,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SlotSpec {self.attr!r}>"


def slot(doc: str = "", *, base: Optional[type] = None,
         default: Optional[str] = None, choices: Optional[tuple] = None,
         required: bool = True) -> SlotSpec:
    """Declare a subcomponent slot (see :class:`SlotSpec`).

    >>> class Scheduler(Component):
    ...     policy = slot("queue policy", base=SchedPolicy,
    ...                   default="cluster.FCFS",
    ...                   choices=("cluster.FCFS", "cluster.EASYBackfill"))
    """
    return SlotSpec(doc, base=base, default=default, choices=choices,
                    required=required)


# ----------------------------------------------------------------------
# class-level introspection
# ----------------------------------------------------------------------

def collect_specs(cls: type) -> Dict[str, Dict[str, Any]]:
    """MRO-ordered spec tables for a component class.

    Returns ``{"ports": {port_name: PortSpec}, "state": {attr:
    StateSpec}, "stats": {attr: StatSpec}, "params": {attr: ParamSpec},
    "slots": {attr: SlotSpec}}`` with base-class declarations first and
    subclass re-declarations overriding.
    """
    ports: Dict[str, PortSpec] = {}
    states: Dict[str, StateSpec] = {}
    stats: Dict[str, StatSpec] = {}
    params: Dict[str, ParamSpec] = {}
    slots: Dict[str, SlotSpec] = {}
    for klass in reversed(cls.__mro__):
        for attr, value in vars(klass).items():
            if isinstance(value, PortSpec):
                ports[value.name] = value
            elif isinstance(value, StateSpec):
                states[attr] = value
            elif isinstance(value, StatSpec):
                stats[attr] = value
            elif isinstance(value, ParamSpec):
                params[attr] = value
            elif isinstance(value, SlotSpec):
                slots[attr] = value
    return {"ports": ports, "state": states, "stats": stats,
            "params": params, "slots": slots}


def sweep_axes(cls: type) -> Dict[str, tuple]:
    """Sweep dimensions derived from a component's declarations.

    Every declared :func:`param` carrying ``choices`` contributes an
    axis, as does every :func:`slot` (its axis values are the
    registered type names it accepts).  The result maps the Params key
    to the value tuple, in declaration order, ready to feed a
    `repro.dse`-style grid::

        axes = sweep_axes(Scheduler)          # {"policy": (...), ...}
        for point in itertools.product(*axes.values()):
            overrides = dict(zip(axes, point))
    """
    axes: Dict[str, tuple] = {}
    for attr, spec in getattr(cls, "_param_specs", {}).items():
        if spec.choices:
            axes[spec.name] = tuple(spec.choices)
    for attr, spec in getattr(cls, "_slot_specs", {}).items():
        if spec.choices:
            axes[attr] = tuple(spec.choices)
    return axes


def describe_component(cls: type) -> Dict[str, Any]:
    """JSON-ready description of a component class's declarations.

    Used by ``python -m repro component describe`` and by
    :func:`repro.config.serialize.to_dict` with ``describe=True``.
    """
    ports = getattr(cls, "_port_specs", {})
    states = getattr(cls, "_state_specs", {})
    stats = getattr(cls, "_stat_specs", {})
    params = getattr(cls, "_param_specs", {})
    slots = getattr(cls, "_slot_specs", {})
    doc = (cls.__doc__ or "").strip().splitlines()
    return {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "type_name": getattr(cls, "TYPE_NAME", None),
        "summary": doc[0] if doc else "",
        "ports": [spec.describe() for spec in ports.values()],
        "state": [spec.describe() for spec in states.values()],
        "stats": [spec.describe() for spec in stats.values()],
        "params": [spec.describe() for spec in params.values()],
        "slots": [spec.describe() for spec in slots.values()],
    }


def validate_port_name(cls: type, port_name: str) -> bool:
    """Graph-build-time check: is ``port_name`` declared on ``cls``?

    Every link endpoint must name a declared port; a class declaring
    no ports accepts no links.
    """
    return any(spec.matches(port_name) for spec in cls._port_specs.values())
