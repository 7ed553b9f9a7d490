"""ENG-6 — causal-capture overhead: provenance tracing on vs off.

Causal tracing (PR 8, :mod:`repro.obs.causal`) rides the *instrumented*
dispatch path: with capture off the bare hot loop must be byte-for-byte
untouched, and with capture on the per-record cost is an interned-table
lookup plus a few list appends.  This bench runs the 1k-component
clocked fabric ENG-2/ENG-5 use, bare and with
:class:`repro.obs.CausalCapture` attached, and pins two gates:

* capture **off** leaves the engine uninstrumented (``sim._instr`` is
  ``None``) and the workload deterministic;
* capture **on** sustains at least ``MIN_BARE_RATIO`` of the bare
  run's events/s.  Both sides are measured in the same test, so the
  gate does not depend on how fast the host is.  The bare fabric runs
  on the clock arbiter's lockstep pass while capture dispatches every
  tick record, so the ratio sits near 0.3 (0.21-0.37 in 27 runs on a
  2-CPU Intel Xeon container).
"""

from repro.core import Component, Simulation
from repro.obs import CausalCapture
from repro.obs.critpath import load_causal

N_COMPONENTS = 1_000
N_TICKS = 200
ROUNDS = 3

#: the acceptance gate: causal-on throughput >= 15% of bare.
MIN_BARE_RATIO = 0.15


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


def _run(causal_path=None):
    """One fresh fabric run, bare or with capture into ``causal_path``:
    its events/second, RunResult and simulation."""
    sim = big_fabric()
    capture = None
    if causal_path is not None:
        capture = CausalCapture(causal_path)
        capture.attach(sim)
    result = sim.run()
    if capture is not None:
        capture.close()
    return result.events_per_second, result, sim


def test_eng6_causal_capture_overhead(report, tmp_path):
    # Interleave the two sides and take each side's best round, so the
    # ratio measures capture cost rather than host drift between sides.
    bare_eps = causal_eps = 0.0
    for i in range(ROUNDS):
        eps, bare, bare_sim = _run()
        bare_eps = max(bare_eps, eps)
        eps, causal, _ = _run(tmp_path / f"round{i}.jsonl")
        causal_eps = max(causal_eps, eps)
    ratio = causal_eps / bare_eps
    report(f"ENG-6 causal-capture overhead: bare {bare_eps:,.0f} events/s, "
           f"capture on {causal_eps:,.0f} events/s "
           f"(ratio {ratio:.3f}, gate >= {MIN_BARE_RATIO})")
    # Capture off leaves the bare path bare: no compiled instrumented
    # dispatcher, no causal hook, and the deterministic event count.
    assert bare_sim._instr is None
    assert bare_sim._causal is None
    assert bare.events_executed == causal.events_executed \
        == N_COMPONENTS * N_TICKS
    assert ratio >= MIN_BARE_RATIO


def test_eng6_capture_output_complete(report, tmp_path):
    """The capture the bench times is real: every dispatched record is a
    node in the shard, and the chain is walkable."""
    _run(tmp_path / "round0.jsonl")
    graph = load_causal(tmp_path / "round0.jsonl")
    # The shared-clock arbiter collapses the 1000 member ticks of each
    # cycle into one dispatched record, so nodes == N_TICKS here while
    # events_executed == N_COMPONENTS * N_TICKS.
    assert len(graph.nodes) == N_TICKS
    chained = sum(1 for row in graph.nodes.values() if row[2] is not None)
    assert chained == N_TICKS - 1  # every tick but the first has a cause
    report(f"ENG-6 capture completeness: {len(graph.nodes)} arbiter-tick "
           f"nodes, {chained} causally chained")
