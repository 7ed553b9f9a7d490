"""Unit tests for repro.core.units (time algebra, unit parsing)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import units
from repro.core.units import UnitError


class TestParseTime:
    def test_nanoseconds(self):
        assert units.parse_time("1ns") == 1000

    def test_microseconds(self):
        assert units.parse_time("2.5us") == 2_500_000

    def test_milliseconds(self):
        assert units.parse_time("3ms") == 3 * 10**9

    def test_seconds(self):
        assert units.parse_time("1s") == 10**12

    def test_picoseconds(self):
        assert units.parse_time("7ps") == 7

    def test_bare_number_uses_default_unit(self):
        assert units.parse_time(250) == 250
        assert units.parse_time("250") == 250
        assert units.parse_time(3, default_unit="ns") == 3000

    def test_float_input(self):
        assert units.parse_time(1.5, default_unit="ns") == 1500

    def test_whitespace_tolerated(self):
        assert units.parse_time("  10 ns ") == 10_000

    def test_case_insensitive(self):
        assert units.parse_time("1NS") == 1000

    def test_subpicosecond_rejected(self):
        with pytest.raises(UnitError):
            units.parse_time("0.1ps")

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            units.parse_time("-5ns")

    def test_garbage_rejected(self):
        with pytest.raises(UnitError):
            units.parse_time("fastish")

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnitError):
            units.parse_time("1parsec")

    def test_zero_allowed(self):
        assert units.parse_time("0ns") == 0


class TestFrequency:
    def test_ghz(self):
        assert units.parse_freq_hz("2GHz") == 2e9

    def test_mhz(self):
        assert units.parse_freq_hz("1333MHz") == 1.333e9

    def test_period_1ghz(self):
        assert units.freq_to_period("1GHz") == 1000

    def test_period_2ghz(self):
        assert units.freq_to_period("2GHz") == 500

    def test_period_rounding(self):
        # 3 GHz -> 333.33ps, rounded to 333
        assert units.freq_to_period("3GHz") == 333

    def test_nonpositive_rejected(self):
        with pytest.raises(UnitError):
            units.parse_freq_hz("0GHz")
        with pytest.raises(UnitError):
            units.parse_freq_hz("-1MHz")

    def test_too_fast_rejected(self):
        with pytest.raises(UnitError):
            units.freq_to_period("10THz")  # sub-ps period

    def test_memo_keeps_types_apart(self):
        """Numbers share the memo with strings; ``True`` is not ``1``."""
        assert units.freq_to_period(1) == units.PS_PER_SEC
        assert units.freq_to_period(2e9) == units.freq_to_period("2GHz")
        with pytest.raises(UnitError):
            units.freq_to_period(True)


class TestSizes:
    def test_kb_is_binary(self):
        assert units.parse_size_bytes("64KB") == 64 * 1024

    def test_kib(self):
        assert units.parse_size_bytes("1KiB") == 1024

    def test_mb_gb(self):
        assert units.parse_size_bytes("1MB") == 1024**2
        assert units.parse_size_bytes("2GB") == 2 * 1024**3

    def test_plain_bytes(self):
        assert units.parse_size_bytes("512") == 512
        assert units.parse_size_bytes(4096) == 4096

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            units.parse_size_bytes("-1KB")


class TestBandwidth:
    def test_gbs_is_decimal(self):
        assert units.parse_bandwidth("3.2GB/s") == 3.2e9

    def test_mbs(self):
        assert units.parse_bandwidth("400MB/s") == 4e8

    def test_numeric_passthrough(self):
        assert units.parse_bandwidth(1e9) == 1e9

    def test_bytes_time(self):
        # 64 bytes at 6.4 GB/s = 10ns
        assert units.bytes_time(64, 6.4e9) == 10_000

    def test_bytes_time_minimum_1ps(self):
        assert units.bytes_time(1, 1e15) == 1

    def test_bytes_time_zero_bytes(self):
        assert units.bytes_time(0, 1e9) == 0

    def test_bytes_time_bad_bandwidth(self):
        with pytest.raises(UnitError):
            units.bytes_time(100, 0)


class TestFormatting:
    def test_format_time(self):
        assert units.format_time(0) == "0ps"
        assert units.format_time(532) == "532ps"
        assert units.format_time(1500) == "1.500ns"
        assert units.format_time(2_500_000) == "2.500us"

    def test_format_bytes(self):
        assert units.format_bytes(512) == "512B"
        assert units.format_bytes(2048) == "2.00KiB"
        assert units.format_bytes(3 * 1024**3) == "3.00GiB"


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**9))
    def test_time_roundtrip_via_ps_string(self, ps):
        assert units.parse_time(f"{ps}ps") == ps

    @given(st.integers(min_value=1, max_value=10**6))
    def test_freq_period_inverse(self, mhz):
        period = units.freq_to_period(f"{mhz}MHz")
        implied_hz = units.PS_PER_SEC / period
        # The period is rounded to the 1 ps grid, so the relative error
        # of the implied frequency is bounded by 0.5/period.
        assert abs(implied_hz - mhz * 1e6) / (mhz * 1e6) <= 0.5 / period + 1e-9

    @given(st.integers(min_value=1, max_value=2**40))
    def test_size_bytes_identity(self, n):
        assert units.parse_size_bytes(str(n)) == n

    @given(
        st.integers(min_value=1, max_value=10**9),
        st.floats(min_value=1e6, max_value=1e12, allow_nan=False),
    )
    def test_bytes_time_monotone_in_bytes(self, nbytes, bw):
        t1 = units.bytes_time(nbytes, bw)
        t2 = units.bytes_time(nbytes * 2, bw)
        assert t2 >= t1 >= 1
