"""Reusable component-conformance checks.

A *conformant* component works with every engine service the
declarative API auto-wires: it builds from a config graph (ports
validated), runs to completion, survives a mid-run engine snapshot and
restore with bit-identical final statistics, and describes itself.
:func:`run_conformance` packages that contract as one call so a model
library can pin it parametrically over its whole catalogue::

    def test_cache_conformance(tmp_path):
        run_conformance(make_cache_graph, tmp_path)

The checks mirror how the engine's own suites pin behaviour
(``tests/unit/test_ckpt.py``, ``test_determinism.py``); this module
just makes the recipe importable by component authors.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Tuple

from .config import ConfigGraph, build
from .core.describe import describe_component

__all__ = ["ConformanceError", "run_conformance"]


class ConformanceError(AssertionError):
    """A component failed the conformance contract."""


def _cold_run(make_graph: Callable[[], ConfigGraph], seed: int,
              max_time) -> Tuple[Dict[str, float], object, object]:
    sim = build(make_graph(), seed=seed, validate_events=True)
    result = sim.run(max_time=max_time)
    return sim.stat_values(), result, sim


def run_conformance(make_graph: Callable[[], ConfigGraph],
                    tmp_path: Path, *, seed: int = 7,
                    max_time=None) -> Dict[str, float]:
    """Construct → wire → run → snapshot → restore → compare statistics.

    ``make_graph`` must return a fresh :class:`ConfigGraph` on every
    call (the check builds it three times).  ``max_time`` bounds runs
    for graphs that never exit on their own.  Returns the cold run's
    statistics for any further assertions.

    Checks, in order:

    1. the graph builds with event validation on and runs to
       completion;
    2. every component class describes itself
       (:func:`~repro.core.describe.describe_component`) and samples
       finite telemetry gauges; every required declared slot is filled
       by a live :class:`~repro.core.component.SubComponent` whose
       declared statistics registered into the parent's group;
    3. a second build snapshotted at half the cold end time and
       restored finishes with bit-identical statistics and end time.
    """
    from .ckpt import restore, snapshot
    from .core.component import SubComponent

    cold_stats, cold, sim = _cold_run(make_graph, seed, max_time)
    if cold.reason not in ("exit", "max_time"):
        raise ConformanceError(
            f"cold run ended abnormally: {cold.reason!r}")

    for comp in sim._components.values():
        info = describe_component(type(comp))
        if not info["class"]:
            raise ConformanceError(f"{comp.name}: indescribable class")
        for attr, value in comp.telemetry_gauges().items():
            if not isinstance(value, float):
                raise ConformanceError(
                    f"{comp.name}.{attr}: gauge sampled {value!r}, "
                    f"expected float")
        for attr, spec in getattr(type(comp), "_slot_specs", {}).items():
            sub = getattr(comp, attr)  # an unfilled slot reads None
            if sub is None:
                if spec.required:
                    raise ConformanceError(
                        f"{comp.name}: required slot {attr!r} is unfilled")
                continue
            if not isinstance(sub, SubComponent):
                raise ConformanceError(
                    f"{comp.name}.{attr}: slot holds {type(sub).__name__}, "
                    f"not a SubComponent")
            registered = comp.stats
            for sattr, sspec in type(sub)._stat_specs.items():
                key = f"{attr}.{sspec.name}"
                if registered.get(key) is not getattr(sub, sattr):
                    raise ConformanceError(
                        f"{comp.name}.{attr}: subcomponent statistic "
                        f"{sspec.name!r} is not registered as {key!r} on "
                        f"the parent")

    mid = cold.end_time // 2
    if mid <= 0:
        raise ConformanceError(
            f"cold run too short to snapshot mid-flight "
            f"(end_time={cold.end_time} ps); grow the workload")
    warm = build(make_graph(), seed=seed)
    warm.run(max_time=mid, finalize=False)
    path = snapshot(warm, tmp_path / "conformance-snap")
    resumed = restore(path)
    result = resumed.run(max_time=max_time)
    if resumed.stat_values() != cold_stats:
        diff = {
            key: (cold_stats.get(key), resumed.stat_values().get(key))
            for key in set(cold_stats) | set(resumed.stat_values())
            if cold_stats.get(key) != resumed.stat_values().get(key)
        }
        raise ConformanceError(
            f"restored run diverged from the cold run: {diff}")
    if result.end_time != cold.end_time:
        raise ConformanceError(
            f"restored run ended at {result.end_time} ps, cold run at "
            f"{cold.end_time} ps")
    return cold_stats
