#!/usr/bin/env python
"""CI gate: fail if engine events/sec regressed vs the committed baseline.

Reads the freshly-generated ``BENCH_engine_throughput.json`` perf
records (schema ``repro-bench-record/1``; see docs/OBSERVABILITY.md and
docs/PERFORMANCE.md), picks the *latest* record per
``(workload, queue)`` key, and compares its
``events_per_second`` against ``benchmarks/throughput_baseline.json``.
A measurement below ``baseline * (1 - tolerance)`` (tolerance defaults
to the PR 4 gate of 25%) fails the job.

Baseline values are deliberately conservative — roughly a quarter of a
warm local run — because shared CI runners are slower and noisier than a
developer box; the baseline exists to catch *structural* regressions
(clock members falling off the shared arbiter chain, a Python-level
compare back in the heap), not to police
single-digit-percent drift.  Refresh it with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py \
        benchmarks/bench_engine_hotpath.py \
        benchmarks/bench_engine_checkpoint.py -q
    python benchmarks/check_throughput_regression.py --update

ENG-4 (``bench_engine_checkpoint.py``) publishes the
``checkpointed_parallel/heap`` key: a 2-rank run with sparse engine
snapshots enabled, so this gate also catches checkpointing becoming
expensive enough to drag the whole run down.

Exit status: 0 ok, 1 regression, 2 missing records/baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORDS = REPO_ROOT / "BENCH_engine_throughput.json"
BASELINE = Path(__file__).resolve().parent / "throughput_baseline.json"

#: fraction of baseline a measurement may drop before the gate fails
DEFAULT_TOLERANCE = 0.25


def record_key(record: dict) -> str | None:
    """``workload/queue`` identity of one throughput record."""
    workload = record.get("workload")
    if not workload or "events_per_second" not in record:
        return None
    return f"{workload}/{record.get('queue', '-')}"


def latest_measurements(records_path: Path) -> dict[str, float]:
    """Latest events/sec per key (records append chronologically)."""
    records = json.loads(records_path.read_text())
    latest: dict[str, float] = {}
    for record in records:
        key = record_key(record)
        if key is not None and record.get("outcome", "passed") == "passed":
            latest[key] = float(record["events_per_second"])
    return latest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=Path, default=RECORDS,
                        help="BENCH_engine_throughput.json to check")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help="committed baseline (events/sec per key)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop below baseline "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline at a quarter of the "
                             "measured events/sec (conservative CI headroom); "
                             "with --only/--skip the untouched keys are "
                             "preserved (merge, not overwrite)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="PREFIX",
                        help="gate only baseline keys starting with PREFIX "
                             "(repeatable); lets a job that runs one bench "
                             "suite skip the other suites' keys")
    parser.add_argument("--skip", action="append", default=[],
                        metavar="PREFIX",
                        help="ignore baseline keys starting with PREFIX "
                             "(repeatable)")
    args = parser.parse_args(argv)

    def selected(key: str) -> bool:
        if args.only and not any(key.startswith(p) for p in args.only):
            return False
        return not any(key.startswith(p) for p in args.skip)

    if not args.records.exists():
        print(f"no records at {args.records} — run the engine benches first",
              file=sys.stderr)
        return 2
    measured = latest_measurements(args.records)
    if not measured:
        print(f"{args.records} holds no throughput records "
              "(missing events_per_second/workload fields)", file=sys.stderr)
        return 2

    if args.update:
        updated = {key: round(eps / 4) for key, eps in measured.items()
                   if selected(key)}
        if (args.only or args.skip) and args.baseline.exists():
            baseline = json.loads(args.baseline.read_text())
            baseline.update(updated)
        else:
            baseline = updated
        baseline = dict(sorted(baseline.items()))
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {args.baseline} ({len(baseline)} keys, "
              f"{len(updated)} updated)")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline} — run with --update to seed it",
              file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())

    failures = []
    gated = {key: val for key, val in baseline.items() if selected(key)}
    if not gated:
        print("no baseline keys match the --only/--skip filters",
              file=sys.stderr)
        return 2
    print(f"{'key':<40} {'baseline':>12} {'measured':>12}  verdict")
    for key, expected in sorted(gated.items()):
        floor = expected * (1.0 - args.tolerance)
        got = measured.get(key)
        if got is None:
            failures.append(f"{key}: no measurement in {args.records.name}")
            print(f"{key:<40} {expected:>12,.0f} {'-':>12}  MISSING")
        elif got < floor:
            failures.append(
                f"{key}: {got:,.0f} events/s < {floor:,.0f} "
                f"(baseline {expected:,.0f} - {args.tolerance:.0%})")
            print(f"{key:<40} {expected:>12,.0f} {got:>12,.0f}  REGRESSED")
        else:
            print(f"{key:<40} {expected:>12,.0f} {got:>12,.0f}  ok")

    if failures:
        print("\nthroughput regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print(f"\nthroughput gate ok ({len(gated)} keys, "
          f"tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
