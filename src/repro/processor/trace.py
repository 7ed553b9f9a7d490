"""Synthetic memory-reference trace generation.

The cache experiments (Fig. 4) need address streams whose locality can
be dialled to match a workload phase.  We synthesise streams with a
two-knob model that maps directly onto cache behaviour:

* a set of *working sets* (resident regions) with geometric reuse — a
  reference goes to working set *i* with probability ``p_i``; a stream
  whose hot set fits in L1 yields high L1 hit rates, a hot set sized
  between L2 and L3 yields the L2-resident pattern, etc.;
* a *streaming* component: sequential one-touch traversal of a large
  region (never reused), which produces compulsory misses all the way
  to DRAM — the signature of sparse solvers.

``TraceSpec.for_workload`` derives a spec whose measured hit rates on a
standard hierarchy approximate a :class:`~repro.processor.mix.MemoryProfile`,
so the same workload library drives both the analytic and trace paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from .mix import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class Region:
    """A resident working-set region: ``size`` bytes touched with prob ``p``."""

    size_bytes: int
    probability: float
    base: int = 0  # assigned by TraceSpec


@dataclass
class TraceSpec:
    """Parameters of a synthetic reference stream."""

    regions: List[Region]
    #: probability a reference is part of the streaming (one-touch) component
    stream_probability: float = 0.0
    stream_stride: int = 64
    write_fraction: float = 0.25
    seed: int = 12345

    def __post_init__(self):
        total = sum(r.probability for r in self.regions) + self.stream_probability
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"region+stream probabilities sum to {total}, not 1")
        # Lay regions out disjointly, then the stream above them.
        base = 1 << 20
        placed = []
        for region in self.regions:
            placed.append(Region(region.size_bytes, region.probability, base))
            base += 2 * region.size_bytes  # pad to avoid aliasing
        self.regions = placed
        self._stream_base = base

    @classmethod
    def hot_cold(cls, hot_bytes: int, cold_bytes: int, hot_fraction: float = 0.9,
                 stream_probability: float = 0.0, **kwargs) -> "TraceSpec":
        """Convenience: a hot set + a cold set (+ optional stream)."""
        rest = 1.0 - hot_fraction - stream_probability
        if rest < -1e-9:
            raise ValueError("hot_fraction + stream_probability > 1")
        return cls(
            regions=[Region(hot_bytes, hot_fraction), Region(cold_bytes, max(rest, 0.0))],
            stream_probability=stream_probability,
            **kwargs,
        )

    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` references -> (addresses int64, is_write bool), vectorised.

        numpy is imported here, by the first trace a run generates."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        choices = np.empty(n, dtype=np.int64)
        selector = rng.random(n)
        edge = 0.0
        assigned = np.zeros(n, dtype=bool)
        for index, region in enumerate(self.regions):
            in_region = (~assigned) & (selector < edge + region.probability)
            edge += region.probability
            count = int(in_region.sum())
            if count:
                offsets = rng.integers(0, max(region.size_bytes // 8, 1),
                                       size=count) * 8
                choices[in_region] = region.base + offsets
            assigned |= in_region
        # Remaining references stream sequentially through fresh memory.
        remaining = ~assigned
        count = int(remaining.sum())
        if count:
            stream_offsets = np.arange(count, dtype=np.int64) * self.stream_stride
            choices[remaining] = self._stream_base + stream_offsets
        writes = rng.random(n) < self.write_fraction
        return choices, writes

    def references(self, n: int) -> Iterator[Tuple[int, bool]]:
        addrs, writes = self.generate(n)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            yield a, w

    @classmethod
    def for_workload(cls, spec: WorkloadSpec, seed: int = 12345,
                     scale: int = 64) -> "TraceSpec":
        """Derive a trace whose hit rates approximate the workload profile.

        The conditional hit-rate targets (fraction of references
        *reaching* level *i* that hit there) are realised by three
        resident regions plus a one-touch stream::

            p1 = l1                      (L1-resident region)
            p2 = (1-l1) * l2             (L2-resident region)
            p3 = (1-l1) * (1-l2) * l3    (L3-resident region)
            stream = the rest            (compulsory misses to DRAM)

        Because p3 is typically well below 1%, a full-size L3-resident
        region (megabytes) would never warm up within an affordable
        trace length, so both the regions here and the measuring
        hierarchy (:func:`repro.miniapps.phases.cache_hit_rates`,
        ``SCALED_HIERARCHY``) are shrunk by ``scale`` (default 64x) —
        the standard scaled-cache simulation technique.  Set-associative
        behaviour is preserved; only capacities shrink.  Region sizes
        are chosen relative to the scaled levels: half of L1, half of
        L2, and 2x L2 (comfortably inside L3).
        """
        hit = spec.memory.hit_rates
        l1 = hit.get("L1", 0.9)
        l2 = hit.get("L2", 0.5)
        l3 = hit.get("L3", 0.5)
        p1 = l1
        p2 = (1.0 - l1) * l2
        p3 = (1.0 - l1) * (1.0 - l2) * l3
        p_stream = max(0.0, 1.0 - p1 - p2 - p3)
        l1_bytes = 32 * 1024 // scale
        l2_bytes = 256 * 1024 // scale
        regions = [
            Region(l1_bytes // 2, p1),  # L1-resident
            Region(l2_bytes // 2, p2),  # L2-resident, exceeds L1
            Region(l2_bytes * 2, p3),   # L3-resident, exceeds L2
        ]
        write_fraction = (
            spec.mix.store / spec.mix.memory_fraction
            if spec.mix.memory_fraction > 0 else 0.0
        )
        return cls(regions=regions, stream_probability=p_stream,
                   write_fraction=write_fraction, seed=seed)


def measure_hit_rates(trace: TraceSpec, hierarchy, n: int = 200_000,
                      warmup: int = 50_000) -> dict:
    """Run ``trace`` through a CacheHierarchy and return per-level hit rates.

    Warm-up references populate the caches but are excluded from the
    reported statistics.
    """
    addrs, writes = trace.generate(warmup + n)
    for a, w in zip(addrs[:warmup].tolist(), writes[:warmup].tolist()):
        hierarchy.access(a, w)
    hierarchy.reset_stats()
    for a, w in zip(addrs[warmup:].tolist(), writes[warmup:].tolist()):
        hierarchy.access(a, w)
    return hierarchy.hit_rates()
