"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` regenerates one table/figure of the paper (see the
per-experiment index in DESIGN.md): it runs the experiment through the
simulator, prints the paper-style rows to the terminal (uncaptured, so
they appear in ``bench_output.txt``), writes a CSV under
``benchmarks/results/``, and asserts the *shape* claims — orderings,
crossover locations, rough factors — never absolute times.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


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
