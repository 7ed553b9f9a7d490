"""Unit tests for repro.core.params."""

import gc
import sys

import pytest

from repro.core import ParamError, Params, UnusedParamsWarning


class TestBasicFinds:
    def test_find_present(self):
        assert Params({"a": 1}).find("a") == 1

    def test_find_missing_raises(self):
        with pytest.raises(ParamError):
            Params({}).find("a")

    def test_find_default(self):
        assert Params({}).find("a", 7) == 7

    def test_find_str(self):
        assert Params({"a": 42}).find_str("a") == "42"

    def test_find_int_from_string(self):
        assert Params({"a": "42"}).find_int("a") == 42

    def test_find_int_hex(self):
        assert Params({"a": "0x10"}).find_int("a") == 16

    def test_find_int_bad(self):
        with pytest.raises(ParamError):
            Params({"a": "many"}).find_int("a")

    def test_find_float(self):
        assert Params({"a": "2.5"}).find_float("a") == 2.5

    def test_find_bool_variants(self):
        p = Params({"a": "true", "b": "0", "c": "YES", "d": False, "e": "off"})
        assert p.find_bool("a") is True
        assert p.find_bool("b") is False
        assert p.find_bool("c") is True
        assert p.find_bool("d") is False
        assert p.find_bool("e") is False

    def test_find_bool_bad(self):
        with pytest.raises(ParamError):
            Params({"a": "maybe"}).find_bool("a")


class TestUnitFinds:
    def test_find_time(self):
        assert Params({"lat": "10ns"}).find_time("lat") == 10_000

    def test_find_time_default(self):
        assert Params({}).find_time("lat", "1ns") == 1000

    def test_find_period(self):
        assert Params({"clock": "2GHz"}).find_period("clock") == 500

    def test_find_freq(self):
        assert Params({"clock": "800MHz"}).find_freq_hz("clock") == 8e8

    def test_find_size(self):
        assert Params({"size": "32KB"}).find_size_bytes("size") == 32768

    def test_find_bandwidth(self):
        assert Params({"bw": "1.6GB/s"}).find_bandwidth("bw") == 1.6e9

    def test_bad_unit_raises_param_error(self):
        with pytest.raises(ParamError):
            Params({"lat": "sluggish"}).find_time("lat")


class TestStructure:
    def test_scoped(self):
        p = Params({"l1.size": "32KB", "l1.ways": "8", "l2.size": "256KB"})
        l1 = p.scoped("l1")
        assert l1.find_size_bytes("size") == 32768
        assert l1.find_int("ways") == 8
        assert "l2.size" not in l1

    def test_scoped_trailing_dot_equivalent(self):
        p = Params({"x.y": 1})
        assert p.scoped("x").find_int("y") == p.scoped("x.").find_int("y") == 1

    def test_merged_overrides(self):
        p = Params({"a": 1, "b": 2}).merged({"b": 3, "c": 4})
        assert p.find_int("a") == 1
        assert p.find_int("b") == 3
        assert p.find_int("c") == 4

    def test_merged_none(self):
        assert Params({"a": 1}).merged(None).find_int("a") == 1

    def test_unused_keys_tracking(self):
        p = Params({"used": 1, "unused": 2})
        p.find_int("used")
        assert p.unused_keys() == {"unused"}

    def test_scoping_consumes_parent_keys(self):
        p = Params({"l1.size": "32KB", "top": 1})
        p.scoped("l1")
        assert p.unused_keys() == {"top"}

    def test_mapping_protocol(self):
        p = Params({"a": 1, "b": 2})
        assert len(p) == 2
        assert set(p) == {"a", "b"}
        assert p["a"] == 1
        assert dict(p) == {"a": 1, "b": 2}

    def test_as_dict_copies(self):
        p = Params({"a": 1})
        d = p.as_dict()
        d["a"] = 99
        assert p.find_int("a") == 1

    def test_error_mentions_scope(self):
        with pytest.raises(ParamError, match="l1"):
            Params({"l1.x": 1}).scoped("l1").find("missing")


class TestWrappedData:
    """A Params wraps a dict it is given and never writes it: a built
    component reads its ConfigComponent's dict instead of a copy."""

    SOURCE = {"s": "text", "i": "0x10", "f": "2.5", "b": "yes",
              "t": "10ns", "clock": "2GHz", "bw": "1.6GB/s",
              "size": "32KB", "l1.size": "64KB", "l1.ways": 4}

    def test_every_accessor_leaves_the_source_dict_unchanged(self):
        source = dict(self.SOURCE)
        p = Params(source)
        assert p.find("s") == "text"
        assert p.find_str("s") == "text"
        assert p.find_int("i") == 16
        assert p.find_float("f") == 2.5
        assert p.find_bool("b") is True
        assert p.find_time("t") == 10_000
        assert p.find_period("clock") == 500
        assert p.find_freq_hz("clock") == 2e9
        assert p.find_size_bytes("size") == 32768
        assert p.find_bandwidth("bw") == 1.6e9
        assert p.find_int("absent", 3) == 3
        assert p["s"] == "text" and len(p) == len(source)
        assert list(p) == list(source) and p.as_dict() == source
        p.accept("s", "absent")
        scoped = p.scoped("l1")
        assert scoped.find_int("ways") == 4
        overlay = p.with_defaults({"extra": 1, "s": "shadowed"})
        assert overlay.find_int("extra") == 1 and overlay.find("s") == "text"
        assert p.merged({"s": "over"}).find("s") == "over"
        assert p.finalize_check("probe") == set()
        with pytest.warns(UnusedParamsWarning):
            Params(source).finalize_check("unread")
        assert source == self.SOURCE

    def test_a_dict_is_wrapped_and_another_mapping_copied(self):
        source = {"a": 1}
        wrapped = Params(source)
        source["b"] = 2
        assert wrapped.find_int("b") == 2
        copied = Params(wrapped)
        source["c"] = 3
        assert "c" not in copied
        assert len(Params()) == len(Params(None)) == 0

    def test_a_built_component_reads_its_config_dict(self):
        from repro.config import ConfigGraph, build

        graph = ConfigGraph("wrapped")
        conf = graph.component("c", "testlib.Clocked", {"clock": "2GHz"})
        sim = build(graph, seed=1)
        params = sim.components["c"].params
        assert params.find_period("clock") == 500
        conf.param("n_ticks", 5)
        assert params.find_int("n_ticks") == 5
        assert conf.params == {"clock": "2GHz", "n_ticks": 5}


class TestAccessorFrames:
    @pytest.mark.parametrize("accessor, value, converter", [
        ("find_int", "0x10", "_as_int"),
        ("find_bool", "yes", "_as_bool"),
        ("find_period", "2GHz", "convert"),
    ])
    @pytest.mark.parametrize("configured", [True, False])
    def test_a_typed_find_enters_two_python_frames(self, accessor, value,
                                                   converter, configured):
        """The accessor itself and its kind's converter, for a configured
        key and for a default alike (``sys.setprofile`` counts Python
        frames only; a warm call fills the unit parser's memo first)."""
        params = Params({"k": value} if configured else {})
        find = getattr(params, accessor)
        find("k", value)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        collecting = gc.isenabled()
        gc.disable()  # a collection would run other modules' callbacks
        sys.setprofile(profile)
        try:
            find("k", value)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        assert calls == ["find", converter], calls
