"""Tests for the conservative parallel engine.

The load-bearing property: a parallel run must produce the same
statistics and end time as a sequential run of the same design, for any
rank placement and backend.
"""

import pytest

from repro.core import (Component, Params, ParallelSimulation, Simulation)
from tests.conftest import PingPong, Sink, Source, Token


def build_chain(host, rank_of, n_stages, n_tokens, latency="5ns"):
    """A pipeline: source -> forwarders -> sink, spread across ranks."""

    class Forwarder(Component):
        def __init__(self, sim, name, params=None):
            super().__init__(sim, name, params)
            self.forwarded = self.stats.counter("forwarded")
            self.set_handler("in", self.on_event)

        def on_event(self, event):
            self.forwarded.add()
            self.port("out").send(event)

    def sim_for(i):
        if isinstance(host, ParallelSimulation):
            return host.rank_sim(rank_of(i))
        return host

    def connect(a, pa, b, pb, **kw):
        if isinstance(host, ParallelSimulation):
            host.connect(a, pa, b, pb, **kw)
        else:
            host.connect(a, pa, b, pb, **kw)

    src = Source(sim_for(0), "src", Params({"count": n_tokens, "period": "2ns"}))
    prev, prev_port = src, "out"
    for i in range(n_stages):
        f = Forwarder(sim_for(i + 1), f"fwd{i}")
        connect(prev, prev_port, f, "in", latency=latency)
        prev, prev_port = f, "out"
    sink = Sink(sim_for(n_stages + 1), "sink")
    connect(prev, prev_port, sink, "in", latency=latency)
    return sink


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("num_ranks", [1, 2, 4])
    def test_pingpong_matches_sequential(self, backend, num_ranks, make_pingpong):
        seq = Simulation(seed=3)
        make_pingpong(seq, n=25, latency="7ns")
        seq_result = seq.run()

        psim = ParallelSimulation(max(num_ranks, 2), seed=3, backend=backend)
        a = PingPong(psim.rank_sim(0), "ping",
                     Params({"initiator": True, "n_round_trips": 25}))
        b = PingPong(psim.rank_sim(min(1, max(num_ranks, 2) - 1)), "pong", Params({}))
        psim.connect(a, "io", b, "io", latency="7ns")
        par_result = psim.run()
        psim.close()

        assert par_result.reason == "exit"
        assert par_result.end_time == seq_result.end_time
        assert psim.stat_values() == seq.stat_values()
        assert par_result.events_executed == seq_result.events_executed

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_chain_across_four_ranks(self, backend):
        n_stages, n_tokens = 6, 15
        seq_sink = build_chain(Simulation(seed=2), lambda i: 0, n_stages, n_tokens)
        seq_sim = seq_sink.sim
        seq_sim.run()

        psim = ParallelSimulation(4, seed=2, backend=backend)
        par_sink = build_chain(psim, lambda i: i % 4, n_stages, n_tokens)
        psim.run()
        psim.close()

        assert psim.stat_values() == seq_sim.stat_values()
        # Every rank's state is re-homed into the parent when a run
        # ends, plain component attributes included.
        assert par_sink.arrival_times == seq_sink.arrival_times

    def test_rank_placement_does_not_change_results(self):
        baselines = None
        for placement in (lambda i: 0, lambda i: i % 2, lambda i: (i // 2) % 4):
            psim = ParallelSimulation(4, seed=2)
            sink = build_chain(psim, placement, 5, 10)
            psim.run()
            stats = (sink.arrival_times, psim.stat_values())
            if baselines is None:
                baselines = stats
            else:
                assert stats == baselines


class TestProtocol:
    def test_lookahead_is_min_cross_latency(self):
        psim = ParallelSimulation(2)
        a = Component(psim.rank_sim(0), "a")
        b = Component(psim.rank_sim(1), "b")
        c = Component(psim.rank_sim(0), "c")
        d = Component(psim.rank_sim(1), "d")
        psim.connect(a, "p", b, "p", latency="100ns")
        psim.connect(c, "p", d, "p", latency="30ns")
        assert psim.lookahead == 30_000
        assert psim.cross_link_count == 2

    def test_local_links_do_not_limit_lookahead(self):
        psim = ParallelSimulation(2)
        a = Component(psim.rank_sim(0), "a")
        b = Component(psim.rank_sim(0), "b")
        c = Component(psim.rank_sim(1), "c")
        psim.connect(a, "p", b, "p", latency="1ps")  # same-rank: irrelevant
        psim.connect(a, "q", c, "q", latency="50ns")
        assert psim.lookahead == 50_000

    def test_epoch_count_scales_inversely_with_lookahead(self, make_pingpong):
        epochs = {}
        for latency in ("5ns", "50ns"):
            psim = ParallelSimulation(2, seed=1)
            a = PingPong(psim.rank_sim(0), "ping",
                         Params({"initiator": True, "n_round_trips": 16}))
            b = PingPong(psim.rank_sim(1), "pong", Params({}))
            psim.connect(a, "io", b, "io", latency=latency)
            result = psim.run()
            epochs[latency] = result.epochs
        # Bigger lookahead with proportionally longer traffic: epoch count
        # is driven by sync count; both runs need one epoch per one-way hop.
        assert epochs["5ns"] >= 1 and epochs["50ns"] >= 1

    def test_remote_event_count(self, make_pingpong):
        psim = ParallelSimulation(2, seed=1)
        a = PingPong(psim.rank_sim(0), "ping",
                     Params({"initiator": True, "n_round_trips": 10}))
        b = PingPong(psim.rank_sim(1), "pong", Params({}))
        psim.connect(a, "io", b, "io", latency="5ns")
        result = psim.run()
        assert result.remote_events == 20  # every delivery crossed ranks

    def test_max_time_limit(self):
        psim = ParallelSimulation(2, seed=1)
        a = PingPong(psim.rank_sim(0), "ping",
                     Params({"initiator": True, "n_round_trips": 10**9}))
        b = PingPong(psim.rank_sim(1), "pong", Params({}))
        psim.connect(a, "io", b, "io", latency="5ns")
        result = psim.run(max_time="203ns")
        assert result.reason == "max_time"
        assert result.end_time <= 203_000

    def test_no_cross_links_runs_exhaustively(self):
        psim = ParallelSimulation(2, seed=1)
        src0 = Source(psim.rank_sim(0), "src0", Params({"count": 3, "period": "1ns"}))
        sink0 = Sink(psim.rank_sim(0), "sink0")
        psim.connect(src0, "out", sink0, "in", latency="1ns")
        src1 = Source(psim.rank_sim(1), "src1", Params({"count": 5, "period": "1ns"}))
        sink1 = Sink(psim.rank_sim(1), "sink1")
        psim.connect(src1, "out", sink1, "in", latency="1ns")
        result = psim.run()
        assert result.reason == "exhausted"
        assert sink0.received.count == 3
        assert sink1.received.count == 5

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError):
            ParallelSimulation(0)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ParallelSimulation(2, backend="gpu")

    def test_one_parallel_configuration(self):
        """One data plane and one window rule: neither is a choice on
        the engine or on restore, and ``build_parallel`` accepts only
        the one name for each."""
        from repro.ckpt import restore
        from repro.config import ConfigGraph, build_parallel

        with pytest.raises(TypeError):
            ParallelSimulation(2, transport="pipe")
        with pytest.raises(TypeError):
            restore("unused", sync="conservative")
        graph = ConfigGraph("one-configuration")
        graph.component("a", "testlib.Sink", {})
        graph.component("b", "testlib.Sink", {})
        assert build_parallel(graph, 2, transport="shm", sync="adaptive")
        with pytest.raises(ValueError, match="only choice is 'shm'"):
            build_parallel(graph, 2, transport="pipe")
        with pytest.raises(ValueError, match="only choice is 'adaptive'"):
            build_parallel(graph, 2, sync="conservative")

    def test_context_manager_closes(self):
        with ParallelSimulation(2) as psim:
            assert psim.num_ranks == 2
        assert psim._backend is None

    def test_per_rank_event_counts_sum(self):
        psim = ParallelSimulation(2, seed=1)
        a = PingPong(psim.rank_sim(0), "ping",
                     Params({"initiator": True, "n_round_trips": 8}))
        b = PingPong(psim.rank_sim(1), "pong", Params({}))
        psim.connect(a, "io", b, "io", latency="5ns")
        result = psim.run()
        assert sum(result.per_rank_events) == result.events_executed
        assert result.per_rank_events[0] == 8
        assert result.per_rank_events[1] == 8


class TestParallelExitIsFinal:
    """The parallel twin of ``test_simulation.TestExitIsFinal``: exit is
    checked at run entry too, so a run on an engine that already exited
    dispatches nothing, on every backend."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_run_after_exit_dispatches_nothing(self, backend):
        from repro.config import build_parallel
        from tests.unit import test_simulation

        graph = test_simulation.TestExitIsFinal._machine()
        # ping | pong and src | sink: a 100 ps lookahead, so the exit
        # epoch ends at 1 000 ps with the source still sending
        psim = build_parallel(graph, 2, strategy="round_robin", seed=3,
                              backend=backend)
        first = psim.run()
        assert (first.reason, first.end_time) == ("exit", 1000)
        stats = psim.stat_values()
        again = psim.run()
        assert (again.reason, again.epochs, again.events_executed,
                again.end_time) == ("exit", 0, 0, 1000)
        assert psim.stat_values() == stats
