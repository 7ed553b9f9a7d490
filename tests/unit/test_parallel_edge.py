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
                self.port("out").send(Event())

        psim = ParallelSimulation(2, seed=1)
        sender = EagerSender(psim.rank_sim(0), "eager")
        sink = Sink(psim.rank_sim(1), "sink")
        psim.connect(sender, "out", sink, "in", latency="3ns")
        psim.run()
        assert sink.received.count == 1
        assert sink.arrival_times == [3000]


class _StopsAt(Component):
    """At ``at`` ps, calls ``end_simulation()`` or, as the machine's
    only primary component (``how="exit"``), releases the exit
    protocol."""

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self.at = self.params.find_time("at", "1ns")
        self.how = self.params.find_str("how", "end_simulation")
        if self.how == "exit":
            self.register_as_primary()

    def setup(self):
        self.schedule(self.at, self._stop)

    def _stop(self, _payload):
        if self.how == "exit":
            self.primary_ok_to_end()
        else:
            self.sim.end_simulation()


def _stopping_machine(host, how):
    """40 tokens, one per ns, over a 5 ns link (rank 0 -> rank 1 on a
    parallel host), and a stop at 8.5 ns on the sending side — inside
    the 6-11 ns epoch window a 5 ns lookahead gives."""
    parallel = isinstance(host, ParallelSimulation)
    src = Source(host.rank_sim(0) if parallel else host, "src",
                 Params({"count": 40, "period": "1ns"}))
    sink = Sink(host.rank_sim(1) if parallel else host, "sink")
    host.connect(src, "out", sink, "in", latency="5ns")
    _StopsAt(host.rank_sim(0) if parallel else host, "stop",
             Params({"how": how, "at": "8500ps"}))
    return sink


@pytest.mark.parametrize("backend", ["serial", "processes"])
class TestEpochStepIgnoresStops:
    """Known restriction (docs/ARCHITECTURE.md, Termination): a parallel
    epoch step runs its whole window.  ``end_simulation()`` is never
    honoured by the parallel engine, and the exit protocol is checked
    only at epoch boundaries, so events after the stop still run."""

    def test_end_simulation_is_ignored(self, backend):
        seq = Simulation(seed=1)
        seq_sink = _stopping_machine(seq, "end_simulation")
        assert seq.run().reason == "stopped"
        assert seq_sink.received.count < 40

        psim = ParallelSimulation(2, seed=1, backend=backend)
        _stopping_machine(psim, "end_simulation")
        result = psim.run()
        assert result.reason == "exhausted"
        assert psim.stat_values()["sink.received"] == 40

    def test_exit_is_noticed_at_the_epoch_boundary(self, backend):
        seq = Simulation(seed=1)
        seq_sink = _stopping_machine(seq, "exit")
        seq_result = seq.run()
        assert seq_result.reason == "exit"
        assert seq_result.end_time == 8_500

        psim = ParallelSimulation(2, seed=1, backend=backend)
        _stopping_machine(psim, "exit")
        result = psim.run()
        assert result.reason == "exit"
        assert result.end_time > 8_500
        assert psim.stat_values()["sink.received"] > seq_sink.received.count
