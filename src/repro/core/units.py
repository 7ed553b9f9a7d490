"""Unit-bearing quantities and simulated-time algebra.

SST expresses every configuration quantity ("2GHz", "1ns", "3.2GB/s",
"64KiB") as a *UnitAlgebra* string.  This module provides the same
convenience for PySST: parsing, arithmetic and conversion of the handful
of unit families an architectural simulator needs:

* time          (s, ms, us, ns, ps)
* frequency     (Hz, kHz, MHz, GHz)
* bytes         (B, kB/KiB, MB/MiB, GB/GiB, TB/TiB)
* bandwidth     (B/s, kB/s, MB/s, GB/s, ... and the binary variants)

Internally simulated time is an integer number of **picoseconds** —
``SimTime`` below — which keeps event timestamps exact, cheap to compare
and free of floating-point drift over long runs (the same reason SST
uses an integer core time base).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Union

# Simulated time: integer picoseconds.
SimTime = int

#: picoseconds per second
PS_PER_SEC: int = 10**12

_TIME_SUFFIX = {
    "s": 10**12,
    "ms": 10**9,
    "us": 10**6,
    "ns": 10**3,
    "ps": 1,
}

_FREQ_SUFFIX = {
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
    "thz": 1e12,
}

# Decimal (SI) and binary (IEC) byte multipliers.  Like SST we accept the
# sloppy-but-universal convention that "KB" means 1024 in memory sizes;
# the strict decimal form is available via "kB" handling below only when
# explicitly chosen.  To keep behaviour predictable we treat *all* byte
# sizes as binary multiples, and *all* bandwidths as decimal multiples —
# matching DRAM datasheet convention (a 1600 MT/s x64 DIMM moves 12.8
# "decimal" GB/s) and memory-size convention (a 64KB cache is 65536 B).
_SIZE_SUFFIX = {
    "b": 1,
    "kb": 1024,
    "kib": 1024,
    "mb": 1024**2,
    "mib": 1024**2,
    "gb": 1024**3,
    "gib": 1024**3,
    "tb": 1024**4,
    "tib": 1024**4,
}

_BW_SUFFIX = {
    "b/s": 1.0,
    "kb/s": 1e3,
    "mb/s": 1e6,
    "gb/s": 1e9,
    "tb/s": 1e12,
    "kib/s": 1024.0,
    "mib/s": 1024.0**2,
    "gib/s": 1024.0**3,
}

_NUM_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z/]*)\s*$")


class UnitError(ValueError):
    """Raised when a unit string cannot be parsed."""


def _split(text: str) -> tuple[float, str]:
    match = _NUM_RE.match(text)
    if not match:
        raise UnitError(f"cannot parse quantity: {text!r}")
    return float(match.group(1)), match.group(2).lower()


def parse_time(value: Union[str, int, float], default_unit: str = "ps") -> SimTime:
    """Parse a latency/period such as ``"1ns"`` into integer picoseconds.

    Bare numbers are interpreted in ``default_unit``.  The result is
    rounded to the nearest picosecond; sub-picosecond quantities raise.

    The string path is memoized (:func:`functools.lru_cache`): the same
    handful of latency/period strings is parsed per config-graph edge
    during builds and per ``kernel_run``, so repeat parses are a
    dict hit instead of a regex match.

    >>> parse_time("1ns")
    1000
    >>> parse_time("2.5us")
    2500000
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number, unit = float(value), default_unit
        try:
            scale = _TIME_SUFFIX[unit.lower()]
        except KeyError:
            raise UnitError(f"unknown time unit {unit!r} in {value!r}") from None
        ps = number * scale
        result = int(round(ps))
        if ps > 0 and result == 0:
            raise UnitError(f"time {value!r} is below the 1 ps core resolution")
        if result < 0:
            raise UnitError(f"time {value!r} is negative")
        return result
    return _parse_time_str(str(value), default_unit)


@lru_cache(maxsize=4096)
def _parse_time_str(text: str, default_unit: str) -> SimTime:
    number, unit = _split(text)
    unit = unit or default_unit
    try:
        scale = _TIME_SUFFIX[unit.lower()]
    except KeyError:
        raise UnitError(f"unknown time unit {unit!r} in {text!r}") from None
    ps = number * scale
    result = int(round(ps))
    if ps > 0 and result == 0:
        raise UnitError(f"time {text!r} is below the 1 ps core resolution")
    if result < 0:
        raise UnitError(f"time {text!r} is negative")
    return result


def parse_freq_hz(value: Union[str, int, float], default_unit: str = "hz") -> float:
    """Parse a clock frequency such as ``"2.4GHz"`` into Hz.

    >>> parse_freq_hz("2GHz")
    2000000000.0
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number, unit = float(value), default_unit
    else:
        number, unit = _split(str(value))
        unit = unit or default_unit
    try:
        scale = _FREQ_SUFFIX[unit.lower()]
    except KeyError:
        raise UnitError(f"unknown frequency unit {unit!r} in {value!r}") from None
    hz = number * scale
    if hz <= 0:
        raise UnitError(f"frequency {value!r} must be positive")
    return hz


@lru_cache(maxsize=4096, typed=True)
def freq_to_period(value: Union[str, int, float]) -> SimTime:
    """Convert a frequency string to an integer period in picoseconds.

    Frequencies that do not divide 1e12 ps evenly are rounded to the
    nearest picosecond (a 3 GHz clock gets a 333 ps period).  Memoized
    like :func:`parse_time`'s string path: every clocked component of a
    build registers one of the same few frequencies, and a cache hit
    runs no Python frame.  The memo is ``typed``, so ``True`` never
    hits the entry of ``1`` and is refused as before.

    >>> freq_to_period("1GHz")
    1000
    """
    hz = parse_freq_hz(value)
    period = int(round(PS_PER_SEC / hz))
    if period <= 0:
        raise UnitError(f"frequency {value!r} exceeds the 1 ps core resolution")
    return period


def parse_size_bytes(value: Union[str, int, float]) -> int:
    """Parse a memory size such as ``"64KB"`` into bytes (binary multiples).

    >>> parse_size_bytes("64KB")
    65536
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return int(value)
    number, unit = _split(str(value))
    unit = unit or "b"
    try:
        scale = _SIZE_SUFFIX[unit.lower()]
    except KeyError:
        raise UnitError(f"unknown size unit {unit!r} in {value!r}") from None
    result = int(round(number * scale))
    if result < 0:
        raise UnitError(f"size {value!r} is negative")
    return result


def parse_bandwidth(value: Union[str, int, float]) -> float:
    """Parse a bandwidth such as ``"3.2GB/s"`` into bytes per second.

    >>> parse_bandwidth("3.2GB/s")
    3200000000.0
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    number, unit = _split(str(value))
    if not unit:
        return number
    try:
        scale = _BW_SUFFIX[unit.lower()]
    except KeyError:
        raise UnitError(f"unknown bandwidth unit {unit!r} in {value!r}") from None
    bw = number * scale
    if bw < 0:
        raise UnitError(f"bandwidth {value!r} is negative")
    return bw


def bytes_time(nbytes: float, bandwidth_bps: float) -> SimTime:
    """Time in ps to move ``nbytes`` at ``bandwidth_bps`` bytes/second.

    Always at least 1 ps for a non-empty transfer so that events never
    arrive at zero delay over a bandwidth-limited resource.
    """
    if nbytes <= 0:
        return 0
    if bandwidth_bps <= 0:
        raise UnitError("bandwidth must be positive")
    ps = nbytes / bandwidth_bps * PS_PER_SEC
    return max(1, int(round(ps)))


def format_time(ps: SimTime) -> str:
    """Human-readable rendering of a picosecond count.

    >>> format_time(2_500_000)
    '2.500us'
    """
    if ps == 0:
        return "0ps"
    for unit, scale in (("s", 10**12), ("ms", 10**9), ("us", 10**6), ("ns", 10**3)):
        if ps >= scale:
            return f"{ps / scale:.3f}{unit}"
    return f"{ps}ps"


def format_bytes(nbytes: float) -> str:
    """Human-readable rendering of a byte count (binary multiples)."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.2f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
