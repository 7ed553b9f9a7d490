"""ENG-1 — Discrete-event core throughput.

The poster's subject is the toolkit itself, so the engine gets its own
benchmarks: raw event throughput (events executed per wall-clock
second) on two canonical workload shapes — a ping-pong pair (minimum
queue depth) and a many-component clocked fabric (wide queue).  The
binned calendar queue this once ablated against the heap lost on both
shapes and was deleted (EXPERIMENTS.md ENG-1).  This is also the
experiment that quantifies the repro-band caveat ("PDES core far too
slow" in pure Python): the measured events/second ceiling is printed
for the record in EXPERIMENTS.md.
"""

from repro.analysis import ResultTable
from repro.core import Component, Event, Params, Simulation


class _Pinger(Component):
    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.count = 0
        self.limit = self.params.find_int("limit", 10_000)
        self.set_handler("io", self.on_event)
        self.register_as_primary()

    def setup(self):
        self.port("io").send(Event())

    def on_event(self, event):
        self.count += 1
        if self.count >= self.limit:
            self.primary_ok_to_end()
        else:
            self.port("io").send(event)


def pingpong_machine(n_events):
    # Each side receives the ball n_events/2 times: n_events deliveries.
    sim = Simulation(seed=1)
    a = _Pinger(sim, "a", Params({"limit": n_events // 2}))
    b = _Pinger(sim, "b", Params({"limit": n_events // 2}))
    sim.connect(a, "io", b, "io", latency="5ns")
    return sim


def clocked_fabric(n_components, n_ticks):
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


def test_eng1_pingpong_throughput(benchmark, report):
    N_EVENTS = 20_000

    def run():
        sim = pingpong_machine(N_EVENTS)
        result = sim.run()
        return result

    result = benchmark(run)
    report(f"ENG-1 ping-pong: "
           f"{result.events_executed} events, "
           f"{result.events_per_second:,.0f} events/s")
    assert result.reason == "exit"
    assert result.events_executed >= N_EVENTS


def test_eng1_clocked_fabric_throughput(benchmark, report):
    N_COMPONENTS, N_TICKS = 200, 50

    def run():
        sim = clocked_fabric(N_COMPONENTS, N_TICKS)
        return sim.run()

    result = benchmark(run)
    report(f"ENG-1 clocked fabric: "
           f"{result.events_executed} events, "
           f"{result.events_per_second:,.0f} events/s")
    assert result.reason == "exhausted"
    assert result.events_executed == N_COMPONENTS * N_TICKS


def test_eng1_summary_table(benchmark, report, save_csv):
    """One-shot comparison table across shapes."""

    def build_table():
        table = ResultTable(["workload", "events", "events_per_sec"],
                            title="ENG-1 — engine throughput")
        r = pingpong_machine(20_000).run()
        table.add_row(workload="pingpong", events=r.events_executed,
                      events_per_sec=r.events_per_second)
        r = clocked_fabric(200, 50).run()
        table.add_row(workload="clocked", events=r.events_executed,
                      events_per_sec=r.events_per_second)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    report(table)
    save_csv(table, "eng1_throughput")
    # The repro-band reality check: a pure-Python DES runs somewhere in
    # the 10^4-10^6 events/s range — far below a C++ SST, which is why
    # every experiment in this repo is scaled down (DESIGN.md).
    for eps in table.column("events_per_sec"):
        assert 1e3 < eps < 1e8
