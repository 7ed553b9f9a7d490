"""Edge cases of the conservative parallel engine."""

import pytest

from repro.core import (Component, Event, Params, ParallelSimulation,
                        Simulation)
from tests.conftest import PingPong, Sink, Source


class TestEdgeCases:
    def test_max_epochs_limit(self):
        psim = ParallelSimulation(2, seed=1)
        a = PingPong(psim.rank_sim(0), "ping",
                     Params({"initiator": True, "n_round_trips": 10**6}))
        b = PingPong(psim.rank_sim(1), "pong", Params({}))
        psim.connect(a, "io", b, "io", latency="5ns")
        result = psim.run(max_epochs=7)
        assert result.reason == "max_epochs"
        assert result.epochs == 7

    def test_exception_in_serial_backend_propagates(self):
        class Exploder(Component):
            def setup(self):
                self.schedule(1000, self._boom)

            def _boom(self, _):
                raise RuntimeError("model bug")

        psim = ParallelSimulation(2, seed=1)
        Exploder(psim.rank_sim(0), "x")
        with pytest.raises(RuntimeError, match="model bug"):
            psim.run()

    def test_single_rank_parallel_equals_sequential(self):
        seq = Simulation(seed=4)
        a = PingPong(seq, "ping", Params({"initiator": True,
                                          "n_round_trips": 12}))
        b = PingPong(seq, "pong", Params({}))
        seq.connect(a, "io", b, "io", latency="7ns")
        seq.run()

        psim = ParallelSimulation(1, seed=4)
        a2 = PingPong(psim.rank_sim(0), "ping",
                      Params({"initiator": True, "n_round_trips": 12}))
        b2 = PingPong(psim.rank_sim(0), "pong", Params({}))
        psim.connect(a2, "io", b2, "io", latency="7ns")
        result = psim.run()
        assert result.reason == "exit"
        assert result.remote_events == 0
        assert psim.stat_values() == seq.stat_values()

    def test_binned_queue_backend_matches_heap(self):
        def run(queue):
            psim = ParallelSimulation(2, seed=4, queue=queue)
            a = PingPong(psim.rank_sim(0), "ping",
                         Params({"initiator": True, "n_round_trips": 15}))
            b = PingPong(psim.rank_sim(1), "pong", Params({}))
            psim.connect(a, "io", b, "io", latency="7ns")
            psim.run()
            return psim.stat_values()

        assert run("heap") == run("binned")

    def test_empty_parallel_simulation(self):
        psim = ParallelSimulation(3, seed=1)
        result = psim.run()
        assert result.reason == "exhausted"
        assert result.events_executed == 0
        assert result.epochs == 0

    def test_idle_rank_does_not_block(self):
        """Ranks with no components at all must not stall the epoch loop."""
        psim = ParallelSimulation(4, seed=1)
        src = Source(psim.rank_sim(0), "src",
                     Params({"count": 3, "period": "1ns"}))
        sink = Sink(psim.rank_sim(3), "sink")
        psim.connect(src, "out", sink, "in", latency="5ns")
        result = psim.run()
        assert result.reason == "exhausted"
        assert sink.received.count == 3

    def test_rank_sim_identity(self):
        psim = ParallelSimulation(2, seed=1)
        assert psim.rank_sim(0) is not psim.rank_sim(1)
        assert psim.rank_sim(0).rank == 0
        assert psim.rank_sim(1).num_ranks == 2
        c = Component(psim.rank_sim(1), "c")
        assert psim.rank_of(c) == 1

    def test_cross_rank_send_during_setup_delivered(self):
        """Sends made in setup() (t=0) must arrive — the exchange-first
        epoch ordering (see parallel.py)."""

        class EagerSender(Component):
            def setup(self):
                self.send("out", Event())

        psim = ParallelSimulation(2, seed=1)
        sender = EagerSender(psim.rank_sim(0), "eager")
        sink = Sink(psim.rank_sim(1), "sink")
        psim.connect(sender, "out", sink, "in", latency="3ns")
        psim.run()
        assert sink.received.count == 1
        assert sink.arrival_times == [3000]
