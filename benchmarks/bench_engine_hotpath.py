"""ENG-2 — hot-path ablation: the shared-clock arbiter on and off.

The kernel's hot-path design (shared :class:`repro.core.ClockArbiter`,
tuple queue entries ordered in C, hoisted dispatch loops that unpack
each entry) targets the same-frequency
clocked-fabric shape that dominates architectural models: hundreds of
components all ticking at the core clock.  This bench measures that
shape — 1000 components x 200 ticks — with the arbiter enabled (the
default) and disabled (``Simulation(clock_arbiter=False)``, the
per-clock scheduling path), and asserts the headline claim: the arbiter
is at least 2x faster.  Records append to the ``engine_throughput`` trajectory
(``BENCH_engine_throughput.json``) alongside ENG-1's, distinguished by
their ``workload``/``arbiter`` fields.

``benchmarks/check_throughput_regression.py`` gates CI on these
numbers; see docs/PERFORMANCE.md.
"""

import pytest

from repro.core import Component, Simulation

# Records land in the engine_throughput trajectory next to ENG-1's.
BENCH_RECORD_EXPERIMENT = "engine_throughput"

N_COMPONENTS = 1_000
N_TICKS = 200


def big_fabric(arbiter=True, n_components=N_COMPONENTS, n_ticks=N_TICKS):
    """The 1k-component same-frequency fabric the PR is measured on."""
    sim = Simulation(seed=1, clock_arbiter=arbiter)

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


@pytest.mark.parametrize("arbiter", ["on", "off"])
def test_eng2_fabric_arbiter_ablation(benchmark, arbiter, report,
                                      perf_fields):
    def run():
        sim = big_fabric(arbiter == "on")
        return sim.run()

    result = benchmark(run)
    report(f"ENG-2 fabric [arbiter {arbiter}]: "
           f"{result.events_executed} events, "
           f"{result.events_per_second:,.0f} events/s")
    perf_fields(result, workload="hotpath_fabric", queue="heap",
                arbiter=arbiter)
    assert result.reason == "exhausted"
    # Events = handler invocations, identical either way (the arbiter
    # compensates its fan-out into the executed-event count).
    assert result.events_executed == N_COMPONENTS * N_TICKS


def test_eng2_arbiter_speedup(report, perf_fields):
    """The PR 4 acceptance gate: >= 2x events/s, arbiter on vs off.

    Machine-independent (a ratio of two runs on the same box), so it can
    assert a floor.  Local headroom is ~10x; 2x keeps the gate robust on
    slow shared CI runners.
    """

    def best_eps(enabled: bool) -> float:
        best = 0.0
        for _ in range(3):
            sim = big_fabric(enabled)
            result = sim.run()
            assert result.events_executed == N_COMPONENTS * N_TICKS
            best = max(best, result.events_per_second)
        return best

    # Warm-up evens out allocator/cache effects before the timed pairs.
    best_eps(True)
    eps_off = best_eps(False)
    eps_on = best_eps(True)
    speedup = eps_on / eps_off
    report(f"ENG-2 arbiter speedup: {eps_off:,.0f} -> "
           f"{eps_on:,.0f} events/s ({speedup:.2f}x)")
    perf_fields(workload="hotpath_speedup", queue="heap",
                events_per_second=eps_on,
                events_per_second_arbiter_off=eps_off,
                arbiter_speedup=speedup)
    assert speedup >= 2.0, (
        f"shared-clock arbiter speedup regressed: {speedup:.2f}x < 2x "
        f"({eps_off:,.0f} -> {eps_on:,.0f} events/s)"
    )


def test_eng2_pingpong_no_regression(report, perf_fields):
    """Arbiter machinery must not tax clock-free workloads.

    A pure link-event ping-pong never touches the arbiter; on/off should
    be within noise.  The assertion is deliberately loose (40%) because
    two 20k-event runs on a shared runner can jitter; the CI baseline
    check (check_throughput_regression.py) is the tighter gate.
    """
    from bench_engine_throughput import pingpong_machine

    def best_eps(enabled: bool) -> float:
        best = 0.0
        for _ in range(3):
            sim = pingpong_machine(20_000, arbiter=enabled)
            result = sim.run()
            best = max(best, result.events_per_second)
        return best

    best_eps(True)  # warm-up
    eps_off = best_eps(False)
    eps_on = best_eps(True)
    report(f"ENG-2 ping-pong arbiter on/off: "
           f"{eps_off:,.0f} / {eps_on:,.0f} events/s")
    perf_fields(workload="hotpath_pingpong", queue="heap",
                events_per_second=eps_on,
                events_per_second_arbiter_off=eps_off)
    assert eps_on >= 0.6 * eps_off, (
        f"arbiter machinery slowed the clock-free path: "
        f"{eps_off:,.0f} -> {eps_on:,.0f} events/s"
    )
