"""Worker: measure one workload in this (fresh, hermetic) process.

``run.py`` starts this file once per workload with a scrubbed
environment and reads the JSON document it prints as its last line.
Untraced mode repeats setup + run until the time budget is spent and
reports calibrated medians; traced mode makes one pass with a span
around every layer call and reports the per-layer numbers.
"""

import argparse
import collections
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
import traceback

from calib import CALIB_REF_S, calibrate
from spans import SpanRecorder

#: Brackets further apart than this straddled a host phase change.  Such
#: repeats are counted and printed but kept: measured here, dropping
#: them halves the samples of a noisy run and widens the spread between
#: runs (sweep_grid 9.6 % -> 19.8 %); the median already shrugs them off.
BRACKET_TOLERANCE = 0.10
#: Each setup sample times enough back-to-back builds to last this long.
SETUP_SAMPLE_S = 0.05
#: Keep going past the time budget until this many repeats were timed.
MIN_REPEATS = 5
HOLD_OPS = 200_000


class Sample:
    """One timed region: raw seconds, calibrated seconds, steadiness."""

    __slots__ = ("raw", "calibrated", "steady")

    def __init__(self, raw, lead, trail):
        mean = (lead + trail) / 2
        self.raw = raw
        self.calibrated = raw * CALIB_REF_S / mean
        self.steady = abs(lead - trail) <= BRACKET_TOLERANCE * mean


class HostClock:
    """Times regions between two runs of the calibration kernel.

    ``lanes`` is how many processes the region keeps busy; its brackets
    run that many copies of the kernel at once.  A region's trailing
    bracket serves as the next region's leading one when the lanes match.
    """

    def __init__(self):
        self.lanes = 1
        self.bracket = calibrate()

    def time(self, fn, *args, lanes=1):
        gc.collect()
        lead = self.bracket if lanes == self.lanes else calibrate(lanes)
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.lanes = lanes
        self.bracket = calibrate(lanes)
        return result, Sample(raw, lead, self.bracket)


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    if not values:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def plain(value):
    """``value`` as it reads back from JSON, so goldens compare equal."""
    return json.loads(json.dumps(value))


class Checker:
    """Counts attempted and failed operations against golden + first repeat."""

    def __init__(self, workload, golden):
        self.workload = workload
        self.golden = golden  # this seed's pinned entry, or None
        self.reference = golden["results"] if golden else None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def crashed(self, exc_text):
        self.attempted += self.workload.ops_per_repeat
        self.failed += self.workload.ops_per_repeat
        self.errors.append(exc_text)

    def check(self, outcome):
        w = self.workload
        self.attempted += w.ops_per_repeat
        results = plain(outcome.results)
        errors = list(w.invariant_errors(outcome))
        if outcome.reason != w.expected_reason:
            errors.append(f"run ended with reason {outcome.reason!r}, "
                          f"expected {w.expected_reason!r}")
        if self.golden and outcome.end_time_ps != self.golden["end_time_ps"]:
            errors.append(f"end time {outcome.end_time_ps} ps != golden "
                          f"{self.golden['end_time_ps']} ps")
        if self.reference is None:
            self.reference = results  # unpinned seed: repeats must agree
        if errors:
            failed = w.ops_per_repeat
        else:
            failed = w.failed_ops(results, self.reference)
            if failed:
                errors.append(f"{failed} op(s): simulated results differ from "
                              f"{'golden' if self.golden else 'first repeat'}")
        self.failed += failed
        self.errors.extend(errors)


def one_repeat(w, clock, builds):
    """Setup (``builds`` times, keeping the last) then the run call."""

    def setup():
        for _ in range(builds - 1):
            w.close(w.build(w.declare()))
        return w.build(w.declare())

    handle, setup_sample = clock.time(setup)
    try:
        raw, run_sample = clock.time(w.run, handle, lanes=w.run_lanes)
        outcome = w.outcome(handle, raw)
    finally:
        w.close(handle)
    return setup_sample, run_sample, outcome


def measure(w, checker, clock, ref_events, seconds, quick):
    """Repeat setup + run for ``seconds``; calibrated medians of both."""
    # Untimed warm-up: imports model libraries, fills caches, and sizes
    # the setup sample from a second, warm, build.
    _, _, outcome = one_repeat(w, clock, 1)
    checker.check(outcome)
    setup_sample, _, outcome = one_repeat(w, clock, 1)
    checker.check(outcome)
    builds = max(1, math.ceil(SETUP_SAMPLE_S / setup_sample.raw))

    setups, runs = [], []  # Samples; setup ones hold `builds` builds each
    repeats = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if quick:
            if repeats >= 2:
                break
        elif elapsed >= seconds and (len(runs) >= MIN_REPEATS
                                     or elapsed >= 2.5 * seconds):
            break
        repeats += 1
        try:
            setup_sample, run_sample, outcome = one_repeat(w, clock, builds)
        except Exception:  # a failed repeat is a failed op, not a crash
            checker.crashed(traceback.format_exc())
            continue
        checker.check(outcome)
        setups.append(setup_sample)
        runs.append(run_sample)
    events = outcome.events or ref_events
    return {
        "repeats": repeats,
        "straddled": {"setup": sum(not s.steady for s in setups),
                      "run": sum(not s.steady for s in runs)},
        "builds_per_setup_sample": builds,
        "metrics": {
            "setup_s": summary([s.calibrated / builds for s in setups]),
            "norm_events_per_s": summary(
                [ref_events / s.calibrated for s in runs]),
        },
        "info": {
            "run_s": summary([s.calibrated for s in runs]),
            "raw_run_s": summary([s.raw for s in runs]),
            "events_per_s": summary([events / s.raw for s in runs]),
            "events": events,
            "ref_events": ref_events,
        },
    }


def hold_model(depth):
    """Classic hold model on the heap queue: pop one, push one."""
    from repro.core import PRIORITY_EVENT, make_queue

    rng = random.Random(depth)
    steps = [rng.randrange(1, 1000) for _ in range(1024)]
    queue = make_queue("heap")
    for _ in range(depth):
        queue.push(rng.randrange(1000), PRIORITY_EVENT, None, None)
    for i in range(HOLD_OPS):
        record = queue.pop()
        queue.push(record.time + steps[i & 1023], PRIORITY_EVENT, None, None)


class FrameSampler(threading.Thread):
    """Samples which module the main thread is executing, every 0.5 ms.

    A frame's file names the layer: ``repro/core/clock.py`` is
    ``core.clock``; files outside ``repro`` (this benchmark's Ticker,
    the standard library) count as ``<other>``.  C calls (heap pushes)
    belong to the Python frame that made them.
    """

    INTERVAL_S = 0.0005

    def __init__(self):
        super().__init__(daemon=True)
        self.counts = collections.Counter()
        self._done = threading.Event()
        self._main = threading.main_thread().ident

    def run(self):
        while not self._done.wait(self.INTERVAL_S):
            frame = sys._current_frames().get(self._main)
            if frame is not None:
                self.counts[frame.f_code.co_filename] += 1

    def __enter__(self):
        # The sampler needs the interpreter lock: have the run yield it
        # within 0.1 ms of a request instead of the default 5 ms.
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        self.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self.join()
        sys.setswitchinterval(self._switch)

    def shares(self):
        """Module label -> share of samples."""
        by_module = collections.Counter()
        for filename, count in self.counts.items():
            _, sep, tail = filename.rpartition(os.sep + "repro" + os.sep)
            module = (tail[:-3].replace(os.sep, ".") if sep else "<other>")
            by_module[module] += count
        total = sum(by_module.values())
        return {m: c / total for m, c in by_module.items()}


def handler_profile(sims, profilers):
    """Per component *type*: handler seconds and event counts."""
    by_type = {}
    for sim, profiler in zip(sims, profilers):
        components = sim.components
        for name, wall, count in profiler.hot_components():
            comp = components.get(name)
            label = type(comp).__name__ if comp is not None else name
            entry = by_type.setdefault(label, [0.0, 0])
            entry[0] += wall
            entry[1] += count
    return by_type


#: Layers a workload does not exercise read 0 (shares and counts, never
#: times: every time-valued layer metric is measured on every workload).
NOT_EXERCISED = {
    "core.sync.epochs": 0, "core.sync.remote_events": 0,
    "core.shm.exchange_bytes": 0, "core.sync.lookahead_utilization": 0.0,
    "core.backends.exec_share": 0.0, "core.backends.barrier_wait_share": 0.0,
    "core.sync.exchange_share": 0.0,
    "dse.points": 0, "dse.cache_hits": 0, "dse.pool_efficiency": 0.0,
    "dse.cached_over_cold": 0.0,
}


class Tracer:
    """A span and a calibrated time around each layer call."""

    def __init__(self, clock):
        self.clock = clock
        self.rec = SpanRecorder()
        self.times = {}

    def timed(self, name, fn, *args, lanes=1):
        def spanned():
            with self.rec.span(name):
                return fn(*args)

        result, self.times[name] = self.clock.time(spanned, lanes=lanes)
        return result


def trace(w, checker, import_sample, clock):
    """One traced pass over every layer the benchmark can reach."""
    from repro.config import build
    from repro.core.partition import partition
    from repro.obs import HandlerProfiler

    tracer = Tracer(clock)
    timed = tracer.timed

    def build_all(graphs):
        return [build(g, seed=w.seed, queue="heap") for g in graphs]

    def partition_all(graphs):
        parts = []
        for g in graphs:
            nodes, edges, weights = g.partition_inputs()
            parts.append(partition(nodes, edges, 2, strategy="bfs",
                                   weights=weights))
        return parts

    def run_all(sims):
        return [s.run() for s in sims]

    with tracer.rec.span(w.name):
        graphs = timed("config.graph", w.declare)
        sims = timed("config.build", build_all, graphs)
        parts = timed("core.partition", partition_all, graphs)
        results = timed("core.run", run_all, sims)
        timed("stats.harvest", lambda: [s.stat_values() for s in sims])

        # Engine against model time comes from sampling which module the
        # run is executing: timing each handler from inside the engine
        # (what the profiler does) inflates sub-microsecond handlers 2x.
        sampled = build_all(graphs)
        with FrameSampler() as sampler:
            timed("core.run.sampled", run_all, sampled)
        self_share = sampler.shares()
        engine_share = sum(share for module, share in self_share.items()
                           if module.startswith("core."))

        profiled = build_all(graphs)
        profilers = [HandlerProfiler(s) for s in profiled]
        timed("core.run.profiled", run_all, profiled)
        for profiler in profilers:
            profiler.detach()

        for depth in (100, 10_000):
            timed(f"core.eventqueue.hold.d{depth}", hold_model, depth)

        # The workload's own end-to-end path (the one the untraced
        # repeats time), for the parallel and sweep layers' numbers.
        handle = timed("workload.setup", lambda: w.build(w.declare()))
        try:
            raw = timed("workload.run", w.run, handle, lanes=w.run_lanes)
            outcome = w.outcome(handle, raw)
        finally:
            w.close(handle)
        checker.check(outcome)
        extra = w.layer_probe(tracer, outcome)

    times = tracer.times
    cal = {name: s.calibrated for name, s in times.items()}
    # Seconds measured inside a span scale like the span itself.
    run_scale = cal["workload.run"] / times["workload.run"].raw
    profiled_scale = cal["core.run.profiled"] / times["core.run.profiled"].raw
    by_type = handler_profile(profiled, profilers)
    layers = dict(NOT_EXERCISED)
    layers.update({
        "import_s": import_sample.calibrated,
        "config.graph_s": cal["config.graph"],
        "config.build_s": cal["config.build"],
        "config.components": sum(len(g) for g in graphs),
        "config.links": sum(g.num_links() for g in graphs),
        "core.partition_s": cal["core.partition"],
        "core.partition.edge_cut": sum(p.edge_cut for p in parts),
        "core.partition.imbalance": max(p.imbalance for p in parts),
        "core.run_s": cal["core.run"],
        "core.events": sum(r.events_executed for r in results),
        "handler_s": cal["core.run"] * (1 - engine_share),
        "engine_overhead_s": cal["core.run"] * engine_share,
        "stats.harvest_s": cal["stats.harvest"],
        "trace_overhead": cal["core.run.profiled"] / cal["core.run"],
        "parallel_cost_ratio": cal["workload.run"] / cal["core.run"],
    })
    for depth in (100, 10_000):
        layers[f"core.eventqueue.hold_ops_per_s.d{depth}"] = (
            HOLD_OPS / cal[f"core.eventqueue.hold.d{depth}"])
    layers.update(outcome.layers)
    layers.update(extra)
    detail = {name: value * run_scale
              for name, value in outcome.seconds.items()}
    detail["sampler.samples"] = sum(sampler.counts.values())
    for module, share in sorted(self_share.items()):
        detail[f"self_s.{module}"] = share * cal["core.run"]
    for label, (wall, count) in sorted(by_type.items()):
        detail[f"handler_s.{label}"] = wall * profiled_scale
        detail[f"handler_events.{label}"] = count
    return {
        "layers": layers,
        "detail": detail,
        "unsteady_spans": sorted(n for n, s in times.items() if not s.steady),
        "spans": tracer.rec.spans,
        "self_times": tracer.rec.self_times(),
        "observed": {
            "ref_events": layers["core.events"],
            "end_time_ps": outcome.end_time_ps,
            "results": plain(outcome.results),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--golden", help="omit to check nothing pinned")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    clock = HostClock()
    _, import_sample = clock.time(__import__, "repro")
    from workloads import WORKLOADS

    golden = {}
    if args.golden:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh).get(args.workload, {})
    pinned = golden.get(str(args.seed))

    w = WORKLOADS[args.workload](args.seed, args.work_dir)
    checker = Checker(w, pinned)
    if args.trace:
        doc = trace(w, checker, import_sample, clock)
    else:
        # Event counts here do not depend on the seed, so an unpinned
        # seed borrows a pinned seed's reference.
        reference = pinned or next(iter(golden.values()), None)
        if reference is None:
            parser.error(f"no reference event count for {args.workload}: "
                         f"untraced runs need --golden")
        doc = measure(w, checker, clock, reference["ref_events"],
                      args.seconds, args.quick)
        usage = max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        doc["metrics"]["peak_rss_mb"] = summary([usage / 1024])
    doc.update(workload=args.workload, seed=args.seed, pinned=bool(pinned),
               attempted=checker.attempted, failed=checker.failed,
               errors=checker.errors[:5])
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
