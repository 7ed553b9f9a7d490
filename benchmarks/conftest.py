"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` regenerates one table/figure of the paper (see the
per-experiment index in DESIGN.md): it runs the experiment through the
simulator, prints the paper-style rows to the terminal (uncaptured, so
they appear in ``bench_output.txt``), writes a CSV under
``benchmarks/results/``, and asserts the *shape* claims — orderings,
crossover locations, rough factors — never absolute times.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
#: BENCH_<exp>.json perf records land at the repo root — the
#: machine-readable trajectory optimization PRs are measured against.
BENCH_RECORD_DIR = Path(__file__).parent.parent


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Append one perf record per executed bench test to BENCH_<exp>.json.

    Records are plain JSON lists (see docs/OBSERVABILITY.md for the
    schema); ``<exp>`` is the bench module name minus its ``bench_``
    prefix, so e.g. ``bench_engine_throughput.py`` feeds
    ``BENCH_engine_throughput.json``.  A bench module may redirect its
    records into another experiment's file by defining
    ``BENCH_RECORD_EXPERIMENT`` (``bench_engine_hotpath.py`` feeds the
    engine_throughput trajectory this way).

    Schema ``repro-bench-record/1`` optional throughput fields: a test
    that measures engine throughput publishes ``events_executed`` and
    ``events_per_second`` (plus free-form context such as ``workload``)
    through the ``perf_fields`` fixture; they land as top-level keys so
    BENCH_*.json tracks throughput, not just wall time.
    """
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    module = Path(str(item.fspath)).stem
    if not module.startswith("bench_"):
        return
    from repro.obs import environment_info
    from repro.obs.manifest import append_json_record

    experiment = getattr(item.module, "BENCH_RECORD_EXPERIMENT", None) \
        or module[len("bench_"):]
    record = {
        "schema": "repro-bench-record/1",
        "experiment": experiment,
        "test": item.nodeid,
        "outcome": report.outcome,
        "wall_seconds": report.duration,
        "created_unix": time.time(),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": environment_info(),
    }
    # Throughput fields recorded via the perf_fields fixture (schema
    # keys stay in charge: user properties never shadow the core keys).
    for key, value in item.user_properties:
        if key not in record:
            record[key] = value
    append_json_record(
        BENCH_RECORD_DIR / f"BENCH_{experiment}.json", record
    )


@pytest.fixture
def perf_fields(request):
    """Publish throughput fields into this test's BENCH_*.json record.

    Call with a RunResult-like object (anything carrying
    ``events_executed`` / ``events_per_second``) and/or keyword fields::

        perf_fields(result, workload="pingpong", queue="heap")

    Fields become top-level keys of the appended perf record.
    """

    def _publish(result=None, **fields) -> None:
        if result is not None:
            fields.setdefault("events_executed", result.events_executed)
            fields.setdefault("events_per_second", result.events_per_second)
        for key, value in fields.items():
            request.node.user_properties.append((key, value))

    return _publish


@pytest.fixture
def report(capfd):
    """Print result blocks straight to the terminal (bypassing capture)."""

    def _report(*blocks) -> None:
        with capfd.disabled():
            for block in blocks:
                print()
                print(block if isinstance(block, str) else block.render())

    return _report


@pytest.fixture
def save_csv():
    """Persist a ResultTable under benchmarks/results/<name>.csv."""

    def _save(table, name: str) -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.csv"
        table.to_csv(path)
        return path

    return _save


@pytest.fixture(scope="session")
def paper_sweep():
    """The §5.2.1 design-space grid, shared by the Fig. 10/11/12 benches.

    2 miniapps x 4 issue widths x 3 memory technologies, each point a
    discrete-event simulation.
    """
    from repro.dse import sweep

    return sweep()
