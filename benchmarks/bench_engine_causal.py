"""ENG-6 — causal-capture overhead: provenance tracing on vs off.

Causal tracing (PR 8, :mod:`repro.obs.causal`) rides the *instrumented*
dispatch path: with capture off the bare hot loop must be byte-for-byte
untouched, and with capture on the per-record cost is an interned-table
lookup plus a few list appends.  This bench runs the 1k-component
clocked fabric ENG-2/ENG-5 use, bare and with
:class:`repro.obs.CausalCapture` attached, and pins two gates:

* capture **off** leaves the engine uninstrumented (``sim._instr`` is
  ``None``) and the workload deterministic — the bare-dispatch
  throughput trajectory (``clocked_fabric/heap``) is unaffected by this
  PR;
* capture **on** sustains at least ``MIN_BASELINE_RATIO`` of the
  ``causal_fabric/heap`` baseline events/s recorded in
  ``benchmarks/throughput_baseline.json`` — a tighter leash than the
  generic 25% regression gate ``check_throughput_regression.py``
  applies to the same record.

The capture-on measurement lands in the ``engine_throughput``
trajectory (``BENCH_engine_throughput.json``) as ``causal_fabric/heap``.
"""

import json
from pathlib import Path

from repro.core import Component, Simulation
from repro.obs import CausalCapture
from repro.obs.critpath import load_causal

# Records land in the engine_throughput trajectory next to ENG-1/2/5's.
BENCH_RECORD_EXPERIMENT = "engine_throughput"

N_COMPONENTS = 1_000
N_TICKS = 200
ROUNDS = 3

#: the acceptance gate: causal-on throughput >= 90% of its baseline.
MIN_BASELINE_RATIO = 0.90

_BASELINE_FILE = Path(__file__).parent / "throughput_baseline.json"


def big_fabric(n_components=N_COMPONENTS, n_ticks=N_TICKS):
    sim = Simulation(seed=1)

    class Ticker(Component):
        def __init__(self, s, name, params=None):
            super().__init__(s, name, params)
            self.ticks = 0
            self.register_clock("1GHz", self.on_tick)

        def on_tick(self, cycle):
            self.ticks += 1
            return self.ticks >= n_ticks

    for i in range(n_components):
        Ticker(sim, f"t{i}")
    return sim


def _best_run(causal_base=None, rounds=ROUNDS):
    """Best events/second over ``rounds`` fresh runs (and the last
    RunResult plus the last simulation, for post-run inspection)."""
    best, result, sim = 0.0, None, None
    for i in range(rounds):
        sim = big_fabric()
        capture = None
        if causal_base is not None:
            capture = CausalCapture(Path(causal_base) / f"round{i}.jsonl")
            capture.attach(sim)
        result = sim.run()
        if capture is not None:
            capture.close()
        best = max(best, result.events_per_second)
    return best, result, sim


def test_eng6_causal_capture_overhead(report, perf_fields, tmp_path):
    baseline = json.loads(_BASELINE_FILE.read_text())["causal_fabric/heap"]
    bare_eps, bare, bare_sim = _best_run()
    causal_eps, causal, _ = _best_run(tmp_path)
    ratio = causal_eps / baseline
    report(f"ENG-6 causal-capture overhead: bare {bare_eps:,.0f} events/s, "
           f"capture on {causal_eps:,.0f} events/s "
           f"({causal_eps / bare_eps:.3f}x bare; "
           f"{ratio:.2f}x the {baseline:,} events/s baseline, "
           f"gate >= {MIN_BASELINE_RATIO})")
    perf_fields(causal, workload="causal_fabric", queue="heap",
                events_per_second=causal_eps,
                causal_over_bare=causal_eps / bare_eps)
    # Capture off leaves the bare path bare: no compiled instrumented
    # dispatcher, no causal hook, and the deterministic event count.
    assert bare_sim._instr is None
    assert bare_sim._causal is None
    assert bare.events_executed == causal.events_executed \
        == N_COMPONENTS * N_TICKS
    assert ratio >= MIN_BASELINE_RATIO


def test_eng6_capture_output_complete(report, tmp_path):
    """The capture the bench times is real: every dispatched record is a
    node in the shard, and the chain is walkable."""
    _best_run(tmp_path, rounds=1)
    graph = load_causal(tmp_path / "round0.jsonl")
    # The shared-clock arbiter collapses the 1000 member ticks of each
    # cycle into one dispatched record, so nodes == N_TICKS here while
    # events_executed == N_COMPONENTS * N_TICKS.
    assert len(graph.nodes) == N_TICKS
    chained = sum(1 for row in graph.nodes.values() if row[2] is not None)
    assert chained == N_TICKS - 1  # every tick but the first has a cause
    report(f"ENG-6 capture completeness: {len(graph.nodes)} arbiter-tick "
           f"nodes, {chained} causally chained")
