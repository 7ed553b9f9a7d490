"""ENG-2 — hot path: the same-frequency clocked fabric.

The kernel's hot-path design (shared :class:`repro.core.ClockArbiter`,
tuple queue entries ordered in C, hoisted dispatch loops that unpack
each entry) targets the same-frequency clocked-fabric shape that
dominates architectural models: hundreds of components all ticking at
the core clock.  This bench measures that shape — 1000 components x 200
ticks.  The events/s it prints is a one-shot shape reading; speed is
measured by ``benchmarks/e2e`` (docs/PERFORMANCE.md).
"""

from repro.core import Component, Simulation

N_COMPONENTS = 1_000
N_TICKS = 200


def big_fabric(n_components=N_COMPONENTS, n_ticks=N_TICKS):
    """The 1k-component same-frequency fabric."""
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


def test_eng2_fabric_hotpath(benchmark, report):
    def run():
        sim = big_fabric()
        return sim.run()

    result = benchmark(run)
    report(f"ENG-2 fabric: {result.events_executed} events, "
           f"{result.events_per_second:,.0f} events/s")
    assert result.reason == "exhausted"
    # Events = handler invocations: the arbiter compensates its fan-out
    # into the executed-event count.
    assert result.events_executed == N_COMPONENTS * N_TICKS
