#!/usr/bin/env python3
"""The repo benchmark: five workloads, calibrated host-time metrics, a
per-layer trace.  Metric names, units, directions and regression bounds
live in BENCHMARK.json at the repo root; README.md here says why.

Whole suite (every workload untraced, then traced)::

    python3 benchmarks/e2e/run.py [--seed N] [--workload W]
        [--json OUT.json] [--trace-out TRACE.json] [--selfcheck] [--quick]

One measurement, the form the driver calls (its last output line is one
JSON object: correct, attempted, failed, metrics)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Every workload runs in a fresh subprocess (``measure.py``) with
``PYTHONHASHSEED=0``, every ``REPRO_*`` variable cleared and its temp
files under ``benchmarks/e2e/.work/``; a crashed subprocess counts as
failed operations, it does not stop the suite.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 11
HELD_OUT_SEED = 23
WORKER_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload, seed, seconds, trace, *, quick=False,
               golden=HERE / "golden.json"):
    """Measure one workload in a hermetic subprocess; returns its document.

    A worker that crashes, hangs or prints no document comes back as
    ``{"crashed": True, "attempted": 1, "failed": 1, ...}``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    env["TMPDIR"] = work_dir
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    if quick:
        cmd.append("--quick")
    # Own session, so rank workers and pool jobs die with a hung worker.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        failure = (None if proc.returncode == 0
                   else f"worker exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        failure = f"worker exceeded {WORKER_TIMEOUT_S} s"
        out, err = "", ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if failure is None:
        try:
            return json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            failure = "worker printed no result document"
    return {"workload": workload, "seed": seed, "crashed": True,
            "attempted": 1, "failed": 1,
            "errors": [failure, err.strip()[-2000:]]}


def fmt(value):
    if isinstance(value, float):
        return f"{value:,.6g}"
    return f"{value:,}"


def detail_unit(name):
    if name.endswith("_s") or name.startswith(("handler_s.", "self_s.")):
        return "s"
    return "count"


def print_ops(doc):
    print(f"  failed_ops / attempted_ops   {doc['failed']} / "
          f"{doc['attempted']}" + ("" if doc.get("pinned") else
                                   "   (seed not pinned: invariants and "
                                   "repeat-to-repeat equality only)"))
    for error in doc["errors"]:
        print("    ! " + error.replace("\n", "\n      "))


def print_untraced(doc, spec):
    print(f"{doc['workload']}  seed {doc['seed']}  untraced")
    print_ops(doc)
    if doc.get("crashed"):
        return
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    rows = [(name, units[name], doc["metrics"][name]) for name in units]
    rows += [("run_s", "s", doc["info"]["run_s"]),
             ("raw_run_s", "s", doc["info"]["raw_run_s"]),
             ("events_per_s", "1/s", doc["info"]["events_per_s"])]
    for name, unit, s in rows:
        note = "" if name in units else "   (information only)"
        print(f"  {name:<28} {fmt(s['median']):>14} {unit:<5} "
              f"q1 {fmt(s['q1'])}  q3 {fmt(s['q3'])}  n {s['n']}{note}")
    d = doc["straddled"]
    print(f"  repeats {doc['repeats']}, of which straddling a host phase "
          f"change (kept): {d['run']} run, {d['setup']} setup; "
          f"{doc['builds_per_setup_sample']} build(s) per setup sample; "
          f"engine counted {doc['info']['events']:,} events, reference "
          f"{doc['info']['ref_events']:,}")


def print_traced(doc, spec):
    print(f"{doc['workload']}  seed {doc['seed']}  traced")
    print_ops(doc)
    if doc.get("crashed"):
        return
    for m in spec["per_layer"]:
        print(f"  {m['name']:<40} {fmt(doc['layers'][m['name']]):>14} "
              f"{m['unit']}")
    for name, value in doc["detail"].items():
        print(f"  {name:<40} {fmt(value):>14} {detail_unit(name)}")
    print("  span                                      seconds     self")
    for row in doc["self_times"]:
        name = "  " * row["depth"] + row["name"]
        print(f"  {name:<38} {row['dur_s']:>10.4f} {row['self_s']:>8.4f}")
    if doc["unsteady_spans"]:
        print("  spans that straddled a host phase change: "
              + ", ".join(doc["unsteady_spans"]))


def contract_result(doc, spec, trace):
    """The driver's result object, or None when nothing was measured."""
    if doc.get("crashed"):
        return None
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = doc["layers"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if any(doc["metrics"][name]["n"] == 0 for name in units):
            return None
        values = {name: doc["metrics"][name]["median"] for name in units}
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_suite(spec, names, seed, seconds, quick):
    """Every named workload, untraced then traced."""
    suite = {}
    for name in names:
        untraced = run_worker(name, seed, seconds, 0, quick=quick)
        print_untraced(untraced, spec)
        traced = run_worker(name, seed, seconds, 1, quick=quick)
        print_traced(traced, spec)
        print()
        suite[name] = {"untraced": untraced, "traced": traced}
    return suite


def failed_ops(suite):
    return sum(doc["failed"] for pair in suite.values()
               for doc in pair.values())


def selfcheck(spec, first, second):
    """Two suites of the same tree must agree within every bound."""
    print("selfcheck: medians of two runs of the same code")
    print(f"  {'workload':<20} {'metric':<20} {'first':>12} {'second':>12} "
          f"{'apart':>7} {'bound':>6}  q1..q3 spread, straddled")
    ok = True
    for name in first:
        docs = [first[name]["untraced"], second[name]["untraced"]]
        if any(d.get("crashed") for d in docs):
            print(f"  {name:<20} worker crashed")
            ok = False
            continue
        for m in spec["end_to_end"]:
            a, b = (d["metrics"][m["name"]] for d in docs)
            apart = abs(b["median"] - a["median"]) / a["median"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
            dropped = sum(sum(d["straddled"].values()) for d in docs)
            verdict = "" if apart <= m["bound"] else "  OUT OF BOUND"
            ok = ok and apart <= m["bound"]
            print(f"  {name:<20} {m['name']:<20} {fmt(a['median']):>12} "
                  f"{fmt(b['median']):>12} {apart:>7.1%} {m['bound']:>6.0%}  "
                  f"{spread:.1%}, {dropped}{verdict}")
    return ok


def update_golden(spec, names):
    """Re-pin goldens from one traced pass per workload and pinned seed."""
    path = HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    for name in names:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            doc = run_worker(name, seed, 1, 1, golden=None)
            if doc["failed"]:
                print_traced(doc, spec)
                return 1
            golden.setdefault(name, {})[str(seed)] = doc["observed"]
            print(f"pinned {name} seed {seed}: "
                  f"{doc['observed']['ref_events']:,} reference events")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget of one untraced measurement "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measurement of --workload: 0 end-to-end "
                             "metrics, 1 per-layer metrics")
    parser.add_argument("--trace-out", metavar="TRACE.json",
                        help="write the traced runs' spans as Chrome trace")
    parser.add_argument("--json", metavar="OUT.json",
                        help="write every worker document")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice; fail unless all medians "
                             "agree within their bounds")
    parser.add_argument("--quick", action="store_true",
                        help="2 repeats, nothing discarded (smoke test)")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-pin golden.json for seeds 11 and 23")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.update_golden:
        return update_golden(spec, names)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace 0|1 measures one --workload")
        doc = run_worker(args.workload, args.seed, seconds, args.trace,
                         quick=args.quick)
        (print_traced if args.trace else print_untraced)(doc, spec)
        result = contract_result(doc, spec, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    suite = run_suite(spec, names, args.seed, seconds, args.quick)
    ok = failed_ops(suite) == 0
    if args.selfcheck:
        second = run_suite(spec, names, args.seed, seconds, args.quick)
        ok = ok and failed_ops(second) == 0
        ok = selfcheck(spec, suite, second) and ok
    if args.trace_out:
        spans = {name: pair["traced"]["spans"] for name, pair in suite.items()
                 if not pair["traced"].get("crashed")}
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(spans), fh)
    if args.json:
        for pair in suite.values():
            pair["traced"].pop("spans", None)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "workloads": suite}, fh, indent=1)
    print(f"failed_ops {failed_ops(suite)}" + ("" if ok else "  FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
