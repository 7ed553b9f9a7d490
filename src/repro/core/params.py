"""Typed, unit-aware component parameters.

SST components receive their configuration as a flat string->string
dictionary and pull values out with typed ``find`` calls.  PySST keeps
the same shape: a :class:`Params` wraps a plain dict and offers typed
accessors (including the unit-parsing ones from :mod:`repro.core.units`),
tracks which keys were consumed, and can report unused keys — the most
common way a silent misconfiguration is caught.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Set

from . import units
from .units import SimTime

_MISSING = object()


class ParamError(KeyError):
    """A required parameter is missing or malformed."""


class UnusedParamsWarning(UserWarning):
    """A parameter key was configured but never read by its component.

    Emitted once per component by :meth:`Params.finalize_check` (called
    from ``Simulation.setup()``), so sweep configs with typoed keys stop
    silently no-oping."""


def _as_str(key: str, value: Any) -> str:
    return str(value)


def _as_int(key: str, value: Any) -> int:
    if type(value) is int:
        return value
    try:
        return int(str(value), 0) if isinstance(value, str) else int(value)
    except (TypeError, ValueError):
        raise ParamError(f"parameter {key!r}={value!r} is not an integer") from None


def _as_float(key: str, value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParamError(f"parameter {key!r}={value!r} is not a float") from None


_TRUE = frozenset({"1", "true", "yes", "on", "t", "y"})
_FALSE = frozenset({"0", "false", "no", "off", "f", "n"})


def _as_bool(key: str, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ParamError(f"parameter {key!r}={value!r} is not a boolean")


def _unit_converter(parse: Callable[[Any], Any]) -> Callable[[str, Any], Any]:
    def convert(key: str, value: Any) -> Any:
        try:
            return parse(value)
        except units.UnitError as exc:
            raise ParamError(f"parameter {key!r}: {exc}") from None
    return convert


#: ``(key, raw value) -> typed value`` for each declared-parameter kind
#: (:func:`repro.core.describe.param`); the matching ``find_*`` accessor
#: applies the same function to the value it fetched
CONVERTERS: Dict[str, Callable[[str, Any], Any]] = {
    "str": _as_str,
    "int": _as_int,
    "float": _as_float,
    "bool": _as_bool,
    "time": _unit_converter(units.parse_time),
    "period": _unit_converter(units.freq_to_period),
    "freq": _unit_converter(units.parse_freq_hz),
    "size": _unit_converter(units.parse_size_bytes),
    "bandwidth": _unit_converter(units.parse_bandwidth),
}


def _accessor(kind: str, name: str, doc: str = "") -> Callable[..., Any]:
    """A typed ``find_*`` accessor: fetch ``key`` as ``Params._fetch``
    does and parse it with the ``kind``'s converter.  The fetch is
    written out here so a configured key costs one Python frame plus
    the converter's."""
    convert = CONVERTERS[kind]

    def find(self: "Params", key: str, default: Any = _MISSING) -> Any:
        data = self._data
        if key in data:
            self._consumed[key] = None
            parent = self._parent
            if parent is not None and key in parent._data:
                parent._consumed[key] = None
            return convert(key, data[key])
        if default is _MISSING:
            raise self._missing(key)
        return convert(key, default)
    find.__name__ = name
    find.__qualname__ = f"Params.{name}"
    find.__doc__ = doc or None
    return find


class Params(Mapping[str, Any]):
    """Flat parameter dictionary with typed, unit-aware accessors.

    >>> p = Params({"clock": "2GHz", "cache_size": "64KB", "verbose": "true"})
    >>> p.find_period("clock")
    500
    >>> p.find_size_bytes("cache_size")
    65536
    >>> p.find_bool("verbose")
    True
    """

    def __init__(self, data: Optional[Mapping[str, Any]] = None, *, scope: str = ""):
        #: the configured values; a dict is wrapped as it is (a built
        #: component's Params reads its ConfigComponent's dict), any
        #: other mapping is copied once.  Params never writes its data.
        self._data: Dict[str, Any] = (data if isinstance(data, dict)
                                      else dict(data or {}))
        self._scope = scope
        #: keys read so far, as a dict of key -> None: a dict of strings
        #: is not tracked by the cyclic collector, a set always is
        self._consumed: Dict[str, None] = {}
        self._parent: Optional["Params"] = None
        self._finalized = False

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        value = self._data[key]
        self._consumed[key] = None
        parent = self._parent
        if parent is not None and key in parent._data:
            parent._consumed[key] = None
        return value

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Params({self._data!r})"

    # -- core find --------------------------------------------------------
    def _fetch(self, key: str, default: Any) -> Any:
        if key in self._data:
            self._consumed[key] = None
            parent = self._parent
            if parent is not None and key in parent._data:
                parent._consumed[key] = None
            return self._data[key]
        if default is _MISSING:
            raise self._missing(key)
        return default

    def _missing(self, key: str) -> ParamError:
        where = f" in scope {self._scope!r}" if self._scope else ""
        return ParamError(f"required parameter {key!r} not found{where}")

    def find(self, key: str, default: Any = _MISSING) -> Any:
        """Fetch a raw value; raises :class:`ParamError` if absent and no default."""
        return self._fetch(key, default)

    find_str = _accessor("str", "find_str")
    find_int = _accessor("int", "find_int")
    find_float = _accessor("float", "find_float")
    find_bool = _accessor("bool", "find_bool")

    # -- unit-aware finds ---------------------------------------------------
    def find_time(self, key: str, default: Any = _MISSING, default_unit: str = "ps") -> SimTime:
        """Fetch a latency/delay as integer picoseconds (e.g. ``"10ns"``)."""
        value = self._fetch(key, default)
        try:
            return units.parse_time(value, default_unit=default_unit)
        except units.UnitError as exc:
            raise ParamError(f"parameter {key!r}: {exc}") from None

    find_period = _accessor(
        "period", "find_period",
        "Fetch a clock frequency and return its period in picoseconds.")
    find_freq_hz = _accessor("freq", "find_freq_hz")
    find_size_bytes = _accessor("size", "find_size_bytes")
    find_bandwidth = _accessor(
        "bandwidth", "find_bandwidth",
        'Fetch a bandwidth in bytes/second (e.g. ``"3.2GB/s"``).')

    # -- structure ----------------------------------------------------------
    def scoped(self, prefix: str) -> "Params":
        """Sub-dictionary of keys starting with ``prefix + '.'``, prefix stripped.

        >>> Params({"l1.size": "32KB", "l2.size": "256KB"}).scoped("l1")["size"]
        '32KB'
        """
        dotted = prefix if prefix.endswith(".") else prefix + "."
        sub = {k[len(dotted):]: v for k, v in self._data.items() if k.startswith(dotted)}
        # Scoping counts as consumption of the parent keys.
        for k in self._data:
            if k.startswith(dotted):
                self._consumed[k] = None
        scope = f"{self._scope}.{prefix}" if self._scope else prefix
        return Params(sub, scope=scope)

    def merged(self, overrides: Optional[Mapping[str, Any]]) -> "Params":
        """New Params with ``overrides`` laid on top of this one."""
        data = dict(self._data)
        data.update(overrides or {})
        return Params(data, scope=self._scope)

    def with_defaults(self, defaults: Mapping[str, Any]) -> "Params":
        """New Params with ``defaults`` underneath this one.

        Unlike :meth:`merged`, the child stays linked to this instance:
        fetching a key through the child also marks it consumed here, so
        :meth:`finalize_check` on the original Params keeps working when
        a component reads everything through a defaults overlay (the
        miniapp pattern)."""
        child = Params({**defaults, **self._data}, scope=self._scope)
        child._parent = self
        return child

    def accept(self, *keys: str) -> None:
        """Mark ``keys`` as consumed whether or not they are read.

        For components that deliberately ignore some configured keys —
        e.g. a topology helper hands every router the full shape
        description but each router kind reads only its slice."""
        for key in keys:
            if key in self._data:
                self._consumed[key] = None
                parent = self._parent
                if parent is not None and key in parent._data:
                    parent._consumed[key] = None

    def unused_keys(self) -> Set[str]:
        """Keys never fetched through any ``find*`` accessor."""
        return set(self._data).difference(self._consumed)

    def finalize_check(self, owner: str = "") -> Set[str]:
        """Warn (once) about configured keys that were never read.

        Called by ``Simulation.setup()`` for every component after all
        setups ran; safe to call again (idempotent).  Returns the set of
        unused keys so tests and tooling can assert on it."""
        unused = self.unused_keys()
        if unused and not self._finalized:
            self._finalized = True
            who = owner or self._scope or "<anonymous>"
            keys = ", ".join(sorted(unused))
            warnings.warn(
                f"component {who!r}: parameter key(s) never read: {keys} "
                f"(typo, or call params.accept() for deliberately unused keys)",
                UnusedParamsWarning,
                stacklevel=2,
            )
        return unused

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._data)
