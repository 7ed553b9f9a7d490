"""Property-based engine equivalence over randomized component graphs.

The strongest correctness statement the toolkit can make: for *any*
component graph, partitioning it across ranks must not change what the
simulation computes.  Hypothesis generates random pipelines/fan-out
graphs of sources, forwarders and sinks with random latencies and rank
counts; the sequential engine is the oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Component, Params, ParallelSimulation, Simulation)
from repro.obs.causal import _TracedQueue
from tests.conftest import Clocked, Sink, Source


class Forwarder(Component):
    """Forwards from ``in`` to every connected ``out<i>`` port."""

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.n_outs = self.params.find_int("n_outs", 1)
        self.forwarded = self.stats.counter("forwarded")
        self.set_handler("in", self.on_event)

    def on_event(self, event):
        self.forwarded.add()
        for i in range(self.n_outs):
            if self.port_connected(f"out{i}"):
                self.send(f"out{i}", event.clone())


@st.composite
def graph_specs(draw):
    """A random two-layer fan-out machine description."""
    n_sources = draw(st.integers(1, 3))
    n_forwarders = draw(st.integers(1, 4))
    n_sinks = draw(st.integers(1, 4))
    sources = [
        {
            "count": draw(st.integers(1, 6)),
            "period": draw(st.integers(500, 5000)),  # ps
            "forwarder": draw(st.integers(0, n_forwarders - 1)),
            "latency": draw(st.integers(1000, 50_000)),
        }
        for _ in range(n_sources)
    ]
    forwarders = []
    for _ in range(n_forwarders):
        outs = draw(st.lists(st.integers(0, n_sinks - 1), min_size=1,
                             max_size=n_sinks, unique=True))
        forwarders.append({
            "sinks": outs,
            "latencies": [draw(st.integers(1000, 50_000)) for _ in outs],
        })
    ranks = draw(st.integers(2, 4))
    placement_seed = draw(st.integers(0, 10_000))
    return {
        "sources": sources,
        "forwarders": forwarders,
        "n_sinks": n_sinks,
        "ranks": ranks,
        "placement_seed": placement_seed,
    }


def build_machine(spec, host, rank_of):
    """Instantiate the random spec on a Simulation or ParallelSimulation."""

    def sim_for(key):
        if isinstance(host, ParallelSimulation):
            return host.rank_sim(rank_of(key))
        return host

    def connect(a, pa, b, pb, latency):
        if isinstance(host, ParallelSimulation):
            host.connect(a, pa, b, pb, latency=latency)
        else:
            host.connect(a, pa, b, pb, latency=latency)

    # Ports are single-connection, so every edge gets its own receive
    # port on its target (handlers registered explicitly).
    sinks = [Sink(sim_for(("sink", i)), f"sink{i}")
             for i in range(spec["n_sinks"])]
    forwarders = []
    for i, f_spec in enumerate(spec["forwarders"]):
        f = Forwarder(sim_for(("fwd", i)), f"fwd{i}",
                      Params({"n_outs": len(f_spec["sinks"])}))
        forwarders.append(f)
        for out_index, (sink_index, latency) in enumerate(
                zip(f_spec["sinks"], f_spec["latencies"])):
            sink = sinks[sink_index]
            in_port = f"in_f{i}_{out_index}"
            sink.set_handler(in_port, sink.on_event)
            connect(f, f"out{out_index}", sink, in_port, latency)
    for i, s_spec in enumerate(spec["sources"]):
        src = Source(sim_for(("src", i)), f"src{i}",
                     Params({"count": s_spec["count"],
                             "period": s_spec["period"]}))
        target = forwarders[s_spec["forwarder"]]
        in_port = f"in_s{i}"
        target.set_handler(in_port, target.on_event)
        connect(src, "out", target, in_port, s_spec["latency"])
    return sinks


def random_placement(spec):
    """A ``rank_of`` for :func:`build_machine`: one seeded random rank
    per component."""
    rng = random.Random(spec["placement_seed"])
    placement = {}

    def rank_of(key):
        if key not in placement:
            placement[key] = rng.randrange(spec["ranks"])
        return placement[key]

    return rank_of


def count_stats(values):
    """Only the order-insensitive count statistics."""
    return {k: v for k, v in values.items() if not k.endswith("_ps")}


@given(graph_specs())
@settings(max_examples=30, deadline=None)
def test_random_graphs_partition_invariant(spec):
    seq = Simulation(seed=3)
    seq_sinks = build_machine(spec, seq, rank_of=lambda key: 0)
    seq_result = seq.run()
    assert seq_result.reason == "exhausted"

    par = ParallelSimulation(spec["ranks"], seed=3)
    par_sinks = build_machine(spec, par, rank_of=random_placement(spec))
    par_result = par.run()
    assert par_result.reason == "exhausted"

    # Counts identical; every sink saw the same arrival-time multiset.
    assert count_stats(par.stat_values()) == count_stats(seq.stat_values())
    for seq_sink, par_sink in zip(seq_sinks, par_sinks):
        assert sorted(par_sink.arrival_times) == \
            sorted(seq_sink.arrival_times), seq_sink.name
    assert par_result.events_executed == seq_result.events_executed


@given(graph_specs(), st.one_of(st.none(), st.integers(1_000, 200_000)))
@settings(max_examples=30, deadline=None)
def test_random_graphs_window_rule(spec, max_time):
    """The one window rule: every epoch window reaches at least
    ``window_start + lookahead - 1`` unless ``max_time`` clamps it, and
    widening past that stays safe — no cross-rank event reaches a rank
    whose clock has passed it — and never changes what the run
    computes."""
    seq = Simulation(seed=3)
    seq_sinks = build_machine(spec, seq, rank_of=lambda key: 0)
    seq_result = seq.run(max_time=max_time)

    par = ParallelSimulation(spec["ranks"], seed=3)
    par_sinks = build_machine(spec, par, rank_of=random_placement(spec))
    recorders = []
    for rank in range(par.num_ranks):
        sim = par.rank_sim(rank)
        sim._queue = _PopRecorder(sim._queue)
        recorders.append(sim._queue)
    epochs = []
    par.add_epoch_observer(epochs.append)
    par_result = par.run(max_time=max_time)

    for info in epochs:
        assert (info.window_end >= info.window_start + par.lookahead - 1
                or info.window_end == max_time), info
    for recorder in recorders:
        times = [entry[0] for entry in recorder.trace]
        assert times == sorted(times)
    assert count_stats(par.stat_values()) == count_stats(seq.stat_values())
    for seq_sink, par_sink in zip(seq_sinks, par_sinks):
        assert sorted(par_sink.arrival_times) == \
            sorted(seq_sink.arrival_times), seq_sink.name
    assert par_result.events_executed == seq_result.events_executed
    assert par_result.end_time == seq.last_event_time


@given(graph_specs(), st.sampled_from(["heap", "traced"]))
@settings(max_examples=20, deadline=None)
def test_random_graphs_queue_invariant(spec, queue):
    """The queue object the kernel pops from must not change results:
    the heap itself, or the causal tracer's proxy over it."""
    results = []
    for kind in ("heap", queue):
        sim = Simulation(seed=3)
        if kind == "traced":
            sim._queue = _TracedQueue(sim._queue, [None])
        sinks = build_machine(spec, sim, rank_of=lambda key: 0)
        sim.run()
        results.append((
            count_stats(sim.stat_values()),
            [tuple(s.arrival_times) for s in sinks],
        ))
    assert results[0] == results[1]


class _PopRecorder:
    """Queue proxy logging every dispatched ``(time, priority, seq)``.

    A loop stopping at a time limit pops the first entry past it and
    puts it back through ``unpop``; that entry was not dispatched, so
    ``unpop`` drops it from the trace again.
    """

    def __init__(self, inner):
        self._inner = inner
        self.trace = []

    def pop_entry(self):
        entry = self._inner.pop_entry()
        self.trace.append(entry[:3])
        return entry

    def unpop(self, entry):
        self.trace.pop()
        self._inner.unpop(entry)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def __bool__(self):
        return bool(self._inner)


def _recorded_machine(spec, clocks):
    sim = Simulation(seed=3)
    sinks = build_machine(spec, sim, rank_of=lambda key: 0)
    for i, (freq, n_ticks) in enumerate(clocks):
        Clocked(sim, f"clk{i}", Params({"clock": freq, "n_ticks": n_ticks}))
    sim._queue = _PopRecorder(sim._queue)
    return sim, sinks


@given(graph_specs(),
       st.lists(st.tuples(st.sampled_from(["1GHz", "1GHz", "300MHz"]),
                          st.integers(1, 12)), max_size=3),
       st.data())
@settings(max_examples=30, deadline=None)
def test_random_graphs_segmented_runs_equal_one_run(spec, clocks, data):
    """A run cut into ``run(max_time=t, finalize=False)`` and
    ``run_step(until)`` segments pops the exact ``(time, priority,
    seq)`` trace and lands on the exact stats of one ``run()``.

    Every segment executes precisely the reference events at or before
    its limit (events *at* a limit run); afterwards ``now`` is the limit
    for a ``max_time`` stop and ``max(until, last event)`` for a step.
    """
    ref, ref_sinks = _recorded_machine(spec, clocks)
    ref_result = ref.run()
    assert ref_result.reason == "exhausted"
    ref_trace = ref._queue.trace
    times = sorted({entry[0] for entry in ref_trace})
    limit = st.integers(0, ref.now + 5_000)
    if times:
        limit = st.one_of(st.sampled_from(times), limit)
    limits = sorted(data.draw(st.lists(limit, max_size=6), label="limits"))
    kinds = data.draw(st.lists(st.sampled_from(["run", "step"]),
                               min_size=len(limits), max_size=len(limits)),
                      label="kinds")

    sim, sinks = _recorded_machine(spec, clocks)
    sim.setup()
    for kind, until in zip(kinds, limits):
        if kind == "run":
            result = sim.run(max_time=until, finalize=False)
            if result.reason == "max_time":
                assert sim.now == until
            else:
                assert result.reason == "exhausted"
        else:
            sim.run_step(until)
            assert sim.now == max(until, sim.last_event_time)
        assert sim._queue.trace == \
            [entry for entry in ref_trace if entry[0] <= until]
    assert sim.run().reason == "exhausted"
    assert sim._queue.trace == ref_trace
    assert sim.stat_values() == ref.stat_values()
    assert [s.arrival_times for s in sinks] == \
        [s.arrival_times for s in ref_sinks]
