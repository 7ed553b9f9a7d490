"""Registered statistics.

Components never print results; they register named statistics which the
:class:`~repro.core.simulation.Simulation` harvests at the end of a run
(SST's StatisticOutput architecture).  Three collector shapes cover the
models in this repository:

* :class:`Counter`      — a monotonically increasing count.
* :class:`Accumulator`  — count / sum / min / max / sum-of-squares, from
  which mean and variance derive.
* :class:`Histogram`    — fixed-width binned distribution with under/
  overflow bins.

All collectors share a tiny interface (``name``, ``value()``,
``as_dict()``, ``merge()``) so the parallel engine can combine per-rank
statistics, and so output writers can serialise any of them uniformly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List


class Statistic:
    """Base class: a named, mergeable result collector."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def value(self) -> float:
        """The single headline number for this statistic."""
        raise NotImplementedError

    def as_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def merge(self, other: "Statistic") -> None:
        """Fold another collector of the same type/name into this one."""
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def copy_empty(self) -> "Statistic":
        """A fresh zeroed collector of the same type/name/shape.

        Used to merge same-named collectors from several sources (e.g.
        per-rank engine metrics) without mutating any of them.
        """
        raise NotImplementedError

    def _check_merge(self, other: "Statistic") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot merge {type(other).__name__} into {type(self).__name__}")
        if other.name != self.name:
            raise ValueError(f"cannot merge statistic {other.name!r} into {self.name!r}")

    def state_dict(self) -> Dict[str, Any]:
        """Every data slot of this collector, as plain values.

        Walks ``__slots__`` over the MRO so subtypes need no per-type
        code.  Mutable slot values (histogram bins) are copied out, so
        the returned dict is a true snapshot.
        """
        state: Dict[str, Any] = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in state:
                    continue
                value = getattr(self, slot)
                state[slot] = list(value) if isinstance(value, list) else value
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        """Overwrite this collector's slots from :meth:`state_dict` output."""
        for slot, value in state.items():
            setattr(self, slot, list(value) if isinstance(value, list) else value)


def adopt_state(local: Statistic, remote: Statistic) -> None:
    """Copy ``remote``'s collected values into ``local`` **in place**.

    Unlike ``merge`` this overwrites rather than folds, and unlike
    rebinding it preserves object identity — components hold direct
    references to their collectors, so adopting in place keeps
    ``comp.s_foo is comp.stats.get("foo")`` true.  Used when a parent
    process adopts worker statistics and when `repro.ckpt` restores a
    statistics group into a freshly rebuilt simulation.
    """
    if type(local) is not type(remote):
        raise TypeError(
            f"cannot adopt {type(remote).__name__} state into {type(local).__name__}"
        )
    local.load_state(remote.state_dict())


class Counter(Statistic):
    """A monotonically increasing event count."""

    __slots__ = ("count",)

    def __init__(self, name: str):
        super().__init__(name)
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n

    def value(self) -> float:
        return float(self.count)

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name, "count": self.count}

    def merge(self, other: Statistic) -> None:
        self._check_merge(other)
        assert isinstance(other, Counter)
        self.count += other.count

    def reset(self) -> None:
        self.count = 0

    def copy_empty(self) -> "Counter":
        return Counter(self.name)


class Accumulator(Statistic):
    """Streaming count/sum/min/max/sum-of-squares accumulator."""

    __slots__ = ("count", "total", "total_sq", "minimum", "maximum")

    def __init__(self, name: str):
        super().__init__(name)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (clamped at 0 against rounding)."""
        if self.count == 0:
            return 0.0
        mean = self.mean
        return max(0.0, self.total_sq / self.count - mean * mean)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def value(self) -> float:
        return self.total

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "accumulator",
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "stddev": self.stddev,
        }

    def merge(self, other: Statistic) -> None:
        self._check_merge(other)
        assert isinstance(other, Accumulator)
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def copy_empty(self) -> "Accumulator":
        return Accumulator(self.name)


class Histogram(Statistic):
    """Fixed-width binned distribution with underflow/overflow bins."""

    __slots__ = ("low", "bin_width", "n_bins", "bins", "underflow", "overflow", "count", "total")

    def __init__(self, name: str, low: float = 0.0, bin_width: float = 1.0, n_bins: int = 32):
        super().__init__(name)
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if n_bins <= 0:
            raise ValueError("n_bins must be positive")
        self.low = low
        self.bin_width = bin_width
        self.n_bins = n_bins
        self.bins: List[int] = [0] * n_bins
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def add(self, value: float, weight: int = 1) -> None:
        self.count += weight
        self.total += value * weight
        if value < self.low:
            self.underflow += weight
            return
        index = int((value - self.low) / self.bin_width)
        if index >= self.n_bins:
            self.overflow += weight
        else:
            self.bins[index] += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bin_edges(self) -> List[float]:
        return [self.low + i * self.bin_width for i in range(self.n_bins + 1)]

    def percentile(self, fraction: float) -> float:
        """Percentile with linear interpolation inside the matched bin.

        Mass in the underflow bin clamps to ``low``; any request landing
        in (or beyond) the overflow bin returns the top edge
        ``low + n_bins * bin_width`` — including the all-overflow case —
        so the result is continuous and monotonic in ``fraction``.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        running = self.underflow
        if target <= running and self.underflow:
            return self.low
        for i, n in enumerate(self.bins):
            if n and running + n >= target:
                within = (target - running) / n
                return self.low + (i + within) * self.bin_width
            running += n
        return self.low + self.n_bins * self.bin_width

    def value(self) -> float:
        return self.mean

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "low": self.low,
            "bin_width": self.bin_width,
            "bins": list(self.bins),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    def merge(self, other: Statistic) -> None:
        self._check_merge(other)
        assert isinstance(other, Histogram)
        if (other.low, other.bin_width, other.n_bins) != (self.low, self.bin_width, self.n_bins):
            raise ValueError(f"histogram {self.name!r}: incompatible binning for merge")
        for i, n in enumerate(other.bins):
            self.bins[i] += n
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total

    def reset(self) -> None:
        self.bins = [0] * self.n_bins
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def copy_empty(self) -> "Histogram":
        return Histogram(self.name, self.low, self.bin_width, self.n_bins)


class StatisticGroup(dict):
    """Per-component registry of statistics, flattened by the Simulation.

    A dict of name -> collector, so each component's group is one
    object for the cyclic collector to track, not a wrapper and a dict.
    Statistics enter through :meth:`counter`, :meth:`accumulator` and
    :meth:`histogram`, which check the type of a re-registered name;
    readers index and iterate the group as the dict it is.  Names are
    scoped as ``<component name>.<stat name>`` when harvested.
    """

    __slots__ = ()

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter(name))

    def accumulator(self, name: str) -> Accumulator:
        return self._register(name, Accumulator(name))

    def histogram(self, name: str, low: float = 0.0, bin_width: float = 1.0,
                  n_bins: int = 32) -> Histogram:
        return self._register(name, Histogram(name, low, bin_width, n_bins))

    def _register(self, name: str, stat: Statistic) -> Any:
        existing = self.get(name)
        if existing is not None:
            if type(existing) is not type(stat):
                raise self.retyped(name)
            return existing
        self[name] = stat
        return stat

    @staticmethod
    def retyped(name: str) -> ValueError:
        """The error for ``name`` registered again with another type."""
        return ValueError(f"statistic {name!r} re-registered with a different type")

    def all(self) -> Dict[str, Statistic]:
        """A plain-dict copy, for callers that keep or pickle it."""
        return dict(self)
