"""The compiled ``_declare`` against the loop it replaced.

Each component class compiles one construction function when it is
created (``repro.core.component._compile_declare``).  The reference
here is the per-instance loop that construction used to run: declared
state defaults, then statistics, then typed parameters, one ``setattr``
each, with the ``choices`` check written out as it was.  For every
registered component and subcomponent class, and for Hypothesis-drawn
synthetic classes, both must leave the same attribute names in the same
order, equal values, and the same statistics registered in the same
order, or raise the same error.  Counters and accumulators are
registered inline by the compiled form; a group may already hold the
name (a same-type entry is shared, another type is refused), and the
drawn classes meet both.
"""

from __future__ import annotations

import gc
import string
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Component, Params, SubComponent, param, stat, state
from repro.core.params import ParamError
from repro.core.registry import load_all_libraries, registered_types, resolve
from repro.core.statistics import Statistic, StatisticGroup


#: ``kind`` -> the Params accessor the reference parses a declared
#: parameter with (the compiled form calls the kind's converter directly)
ACCESSORS = {"str": Params.find_str, "int": Params.find_int,
             "float": Params.find_float, "bool": Params.find_bool,
             "time": Params.find_time, "period": Params.find_period,
             "freq": Params.find_freq_hz, "size": Params.find_size_bytes,
             "bandwidth": Params.find_bandwidth}


def reference_declare(obj, stats: StatisticGroup, prefix: str) -> None:
    """The loop form of ``_declare`` (without the slot fill, which both
    forms share): interprets the class's spec tables per instance."""
    cls = type(obj)
    for attr, spec in cls._state_specs.items():
        if spec.has_default:
            setattr(obj, attr, spec.default if spec.factory is None
                    else spec.factory())
    for attr, spec in cls._stat_specs.items():
        make = getattr(StatisticGroup, spec.kind)
        setattr(obj, attr, make(stats, prefix + spec.name, **spec.kwargs))
    params = obj.params
    for attr, spec in cls._param_specs.items():
        value = ACCESSORS[spec.kind](params, spec.name, spec.default)
        if spec.choices is not None and value not in spec.choices:
            raise ParamError(
                f"parameter {spec.name!r}={value!r} not one of "
                f"{list(spec.choices)}")
        setattr(obj, attr, value)


def bare(cls, params: Params):
    """An instance carrying only the engine-owned attributes
    ``_declare`` reads, and the statistic group and prefix it fills."""
    obj = cls.__new__(cls)
    stats = StatisticGroup()
    if issubclass(cls, SubComponent):
        obj.parent = SimpleNamespace(stats=stats)
        obj.name = "slot"
        obj.params = params
        return obj, stats, "slot."
    obj.sim = None
    obj.name = "c"
    obj.params = params
    obj.stats = stats
    obj._ports = {}
    return obj, stats, ""


def outcome(declare, cls, data, registered=()):
    """Run ``declare`` on a bare instance whose group already holds the
    ``registered`` ``(name, kind)`` statistics (unprefixed): its
    attributes, in order, its statistic group, and the error it raised
    (type and text)."""
    obj, stats, prefix = bare(cls, Params(data))
    for name, kind in registered:
        getattr(stats, kind)(prefix + name)
    error = None
    try:
        declare(obj, stats, prefix)
    except Exception as exc:
        error = (type(exc), str(exc))
    attrs = {k: v for k, v in vars(obj).items()
             if k not in cls._ENGINE_OWNED}
    return attrs, stats, error


def same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Statistic):
        return a.name == b.name and a.state_dict() == b.state_dict()
    try:
        return bool(a == b)
    except Exception:  # arrays and the like: compare their text
        return repr(a) == repr(b)


def assert_same(cls, data, registered=()) -> None:
    got, got_stats, got_error = outcome(cls._declare, cls, data, registered)
    want, want_stats, want_error = outcome(reference_declare, cls, data,
                                           registered)
    assert got_error == want_error
    assert list(got) == list(want), "attribute order differs"
    for attr in want:
        assert same_value(got[attr], want[attr]), attr
    assert [(name, type(s)) for name, s in got_stats.items()] == \
        [(name, type(s)) for name, s in want_stats.items()]
    prefix = "slot." if issubclass(cls, SubComponent) else ""
    for attr, spec in cls._stat_specs.items():
        if isinstance(got.get(attr), Statistic):
            assert got[attr] is got_stats[prefix + spec.name], attr


def assert_fresh_factories(cls, data) -> None:
    """Two instances never share what a state factory made."""
    first = outcome(cls._declare, cls, data)[0]
    second = outcome(cls._declare, cls, data)[0]
    for attr, spec in cls._state_specs.items():
        if spec.factory is not None and attr in first:
            value = first[attr]
            if gc.is_tracked(value):  # a mutable container or object
                assert value is not second[attr], attr


def declarative_classes():
    """Every class the model libraries register (test modules register
    more, depending on what was imported first)."""
    load_all_libraries()
    return {name: cls for name in registered_types()
            if (cls := resolve(name)).__module__.startswith("repro.")}


CLASSES = declarative_classes()


@pytest.mark.parametrize("type_name", sorted(CLASSES))
def test_registered_class_declares_as_the_loop_did(type_name):
    cls = CLASSES[type_name]
    assert_same(cls, {})
    assert_fresh_factories(cls, {})


def test_every_library_model_is_covered():
    assert any(issubclass(c, SubComponent) for c in CLASSES.values())
    assert {name.split(".")[0] for name in CLASSES} >= {
        "analysis", "cluster", "memory", "miniapps", "network",
        "processor", "resilience"}


class _Mangled(Component):
    __secret = state(list)
    __hits = stat.counter("mangled_hits")
    __mode = param("a", choices=("a", "b"))

    def peek(self):
        return self.__secret, self.__hits, self.__mode


@pytest.mark.parametrize("data", [{}, {"_Mangled__mode": "b"},
                                  {"_Mangled__mode": "zz"}])
def test_a_name_mangled_declaration(data):
    assert_same(_Mangled, data)
    attrs = outcome(_Mangled._declare, _Mangled, {})[0]
    assert {"_Mangled__secret", "_Mangled__hits", "_Mangled__mode"} <= \
        attrs.keys()


def test_a_value_outside_choices_keeps_its_message():
    class Mode(Component):
        mode = param("fast", choices=("fast", "slow"))

    obj, stats, prefix = bare(Mode, Params({"mode": "warp"}))
    with pytest.raises(ParamError) as exc:
        Mode._declare(obj, stats, prefix)
    assert exc.value.args[0] == \
        "parameter 'mode'='warp' not one of ['fast', 'slow']"


class _Counted(Component):
    s_hits = stat.counter(doc="hits")
    s_lat = stat.accumulator("latency_ps", doc="latencies")


class _CountedSlot(SubComponent):
    s_hits = stat.counter(doc="hits")


@pytest.mark.parametrize("cls", [_Counted, _CountedSlot])
def test_a_name_registered_with_the_same_type_is_shared(cls):
    """Inline registration shares a same-type entry, under the
    subcomponent's ``<slot>.`` prefix too, and leaves it untouched."""
    obj, stats, prefix = bare(cls, Params({}))
    hits = stats.counter(prefix + "hits")
    hits.add(5)
    cls._declare(obj, stats, prefix)
    assert obj.s_hits is hits and hits.count == 5
    assert_same(cls, {}, [("hits", "counter")])


@pytest.mark.parametrize("kind, registered", [
    ("counter", "accumulator"), ("accumulator", "counter"),
    ("counter", "histogram")])
def test_a_name_registered_with_another_type_is_refused(kind, registered):
    cls = type("Retyped", (Component,), {"s_x": getattr(stat, kind)("x")})
    obj, stats, prefix = bare(cls, Params({}))
    getattr(stats, registered)("x")
    with pytest.raises(ValueError) as exc:
        cls._declare(obj, stats, prefix)
    assert exc.value.args[0] == \
        "statistic 'x' re-registered with a different type"
    assert_same(cls, {}, [("x", registered)])


# ----------------------------------------------------------------------
# synthetic classes
# ----------------------------------------------------------------------

_names = st.text(string.ascii_lowercase, min_size=1, max_size=6).map(
    lambda s: f"a_{s}")

#: (kind, a default, a configured value of the same kind)
_PARAM_KINDS = st.sampled_from([
    ("int", 3, "0x10"), ("str", "x", "y"), ("float", 1.5, "2.25"),
    ("bool", False, "yes"), ("time", "1ns", "250ps"),
    ("size", "4KB", "1MB"), ("freq", "1GHz", "2.5GHz"),
    ("period", "1GHz", "500MHz"), ("bandwidth", "1GB/s", "3.2GB/s"),
])

_state_decl = st.one_of(
    st.builds(lambda v: state(v), st.one_of(
        st.none(), st.integers(-5, 5), st.text(max_size=3),
        st.tuples(st.integers(0, 3)))),
    st.sampled_from([dict, list, set, deque,
                     lambda: {"k": [1]}]).map(state),
    st.builds(lambda: state(doc="no default")),
)

_stat_decl = st.one_of(
    st.just("counter"), st.just("accumulator"),
    st.tuples(st.floats(0, 10), st.floats(0.5, 4), st.integers(1, 8)),
)


@st.composite
def _param_decl(draw):
    kind, default, configured = draw(_PARAM_KINDS)
    choices = None
    if draw(st.booleans()):
        spec = param(default, kind=kind)
        parsed = ACCESSORS[kind](Params({}), "p", default)
        choices = (parsed,)
        if draw(st.booleans()):
            other = ACCESSORS[kind](Params({"p": configured}), "p", None)
            choices = (parsed, other)
    spec = param(default, kind=kind, choices=choices)
    # configured: absent, a value of the kind, or one outside choices
    value = draw(st.sampled_from(["absent", "configured", "outside"]))
    return spec, kind, value, configured


def _make_stat(decl, name):
    if decl == "counter":
        return stat.counter(name)
    if decl == "accumulator":
        return stat.accumulator(name)
    low, width, bins = decl
    return stat.histogram(name, low=low, bin_width=width, n_bins=bins)


_OUTSIDE = {"int": "99999", "str": "zzz", "float": "-7.5", "bool": "no",
            "time": "9us", "size": "3GB", "freq": "7Hz", "period": "7Hz",
            "bandwidth": "1B/s"}


@st.composite
def synthetic(draw):
    """A Component or SubComponent subclass (and maybe a subclass of
    it that re-declares some of its attributes), Params data, and the
    statistics its group holds before construction: some of the
    declared names, each as a counter, accumulator or histogram."""
    base = draw(st.sampled_from([Component, SubComponent]))
    names = draw(st.lists(_names, min_size=1, max_size=10, unique=True))
    ns, data = {}, {}
    stat_names = iter(f"st{i}" for i in range(100))

    def declare_one(attr, into):
        what = draw(st.sampled_from(["state", "stat", "param"]))
        if what == "state":
            into[attr] = draw(_state_decl)
        elif what == "stat":
            into[attr] = _make_stat(draw(_stat_decl), next(stat_names))
        else:
            spec, kind, value, configured = draw(_param_decl())
            into[attr] = spec
            if value == "configured":
                data[attr] = configured
            elif value == "outside":
                data[attr] = _OUTSIDE[kind]

    for attr in names:
        declare_one(attr, ns)
    cls_name = "Synth"
    if draw(st.booleans()):  # a name-mangled declaration
        declare_one(f"_{cls_name}__hidden", ns)
    cls = type(cls_name, (base,), dict(ns))
    if draw(st.booleans()):  # a subclass overriding base declarations
        sub_ns = {}
        for attr in draw(st.lists(st.sampled_from(names), unique=True)):
            declare_one(attr, sub_ns)
        for attr in draw(st.lists(_names, max_size=3, unique=True)):
            if attr not in ns:
                declare_one(attr, sub_ns)
        cls = type("SynthSub", (cls,), sub_ns)
    declared = sorted({spec.name for spec in cls._stat_specs.values()})
    registered = [
        (name, draw(st.sampled_from(["counter", "accumulator", "histogram"])))
        for name in declared if draw(st.integers(0, 3)) == 0]
    return cls, data, registered


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(synthetic())
def test_synthetic_class_declares_as_the_loop_did(drawn):
    cls, data, registered = drawn
    assert_same(cls, data, registered)
    assert_fresh_factories(cls, data)
