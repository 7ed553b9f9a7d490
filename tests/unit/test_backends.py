"""Tests for the engine's layered execution stack.

Covers the two execution backends (serial / processes) and the
coarse-grained job pools: stat equivalence on the same partitioned
graph, worker error propagation, resource cleanup on failure, and the
per-rank engine RNG streams.
"""

import os
import signal
import threading
import time

import pytest

from repro.config import ConfigGraph, build, build_parallel
from repro.core import (Component, Event, Params, ParallelSimulation,
                        Simulation, SimulationError)
from repro.core.backends import (BACKENDS, JobPool, default_jobs,
                                 make_backend, make_job_pool)
from repro.core.shm import DEFAULT_RING_CAPACITY
from tests.conftest import PingPong, Sink, Source

ALL_BACKENDS = sorted(BACKENDS)


class UnpicklableEvent(Event):
    """Carries a live callable — cannot cross a process boundary."""

    __slots__ = ("fn",)

    def __init__(self):
        self.fn = lambda: None


class Relay(Component):
    """Sends one unpicklable event on its out port at t=1ns."""

    def setup(self):
        self.schedule(1000, self._fire)

    def _fire(self, _):
        self.send("out", UnpicklableEvent())


def paper_style_graph():
    """A partitionable config graph: two source->sink flows."""
    graph = ConfigGraph("backend-equivalence")
    for i in range(2):
        graph.component(f"src{i}", "testlib.Source",
                        {"count": 20, "period": "2ns"})
        graph.component(f"sink{i}", "testlib.Sink", {})
        graph.link(f"src{i}", "out", f"sink{i}", "in", latency="5ns")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": 30})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="7ns")
    return graph


class TestBackendEquivalence:
    def test_stat_values_identical_across_backends(self):
        """The load-bearing property of the backend layer: the same
        partitioned graph yields bit-identical statistics on every
        execution substrate."""
        graph = paper_style_graph()
        seq = build(graph, seed=9)
        seq.run()
        reference = seq.stat_values()

        for backend in ALL_BACKENDS:
            psim = build_parallel(graph, 3, strategy="round_robin",
                                  seed=9, backend=backend)
            psim.run()
            assert psim.stat_values() == reference, backend

    def test_run_results_identical_across_backends(self):
        results = {}
        for backend in ALL_BACKENDS:
            psim = build_parallel(paper_style_graph(), 2, seed=9,
                                  backend=backend)
            res = psim.run()
            results[backend] = (res.reason, res.end_time,
                                res.events_executed, res.epochs,
                                res.remote_events)
        assert len(set(results.values())) == 1, results

    def test_make_backend_unknown_raises(self):
        psim = ParallelSimulation(2)
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu", psim)


class TestProcessesBackend:
    def test_exception_propagates(self):
        class Exploder(Component):
            def setup(self):
                self.schedule(1000, self._boom)

            def _boom(self, _):
                raise RuntimeError("model bug")

        psim = ParallelSimulation(2, seed=1, backend="processes")
        Exploder(psim.rank_sim(0), "x")
        Sink(psim.rank_sim(1), "s")
        with pytest.raises(RuntimeError, match="model bug"):
            psim.run()
        assert psim._backend is None  # workers reaped despite the failure

    def test_unpicklable_cross_rank_event_raises(self):
        psim = ParallelSimulation(2, seed=1, backend="processes")
        relay = Relay(psim.rank_sim(0), "relay")
        sink = Sink(psim.rank_sim(1), "sink")
        psim.connect(relay, "out", sink, "in", latency="3ns")
        with pytest.raises(SimulationError, match="not serializable"):
            psim.run()

    def test_resume_after_limit_raises(self):
        psim = ParallelSimulation(2, seed=1, backend="processes")
        a = PingPong(psim.rank_sim(0), "ping",
                     Params({"initiator": True, "n_round_trips": 10**6}))
        b = PingPong(psim.rank_sim(1), "pong", Params({}))
        psim.connect(a, "io", b, "io", latency="5ns")
        result = psim.run(max_epochs=3)
        assert result.reason == "max_epochs"
        with pytest.raises(SimulationError, match="cannot resume"):
            psim.run()

    def test_serial_backend_resumes_after_limit(self):
        psim = ParallelSimulation(2, seed=1, backend="serial")
        a = PingPong(psim.rank_sim(0), "ping",
                     Params({"initiator": True, "n_round_trips": 12}))
        b = PingPong(psim.rank_sim(1), "pong", Params({}))
        psim.connect(a, "io", b, "io", latency="5ns")
        first = psim.run(max_epochs=3)
        assert first.reason == "max_epochs"
        second = psim.run()
        assert second.reason == "exit"
        assert a.received.count == 12


class Wedge(Component):
    """Hangs its rank's first kernel window, so the parent blocks
    collecting that rank's step."""

    def setup(self):
        self.schedule(1000, self._hang)

    def _hang(self, _):
        time.sleep(60)


class Blob(Event):
    """A payload event of arbitrary size."""

    __slots__ = ("data",)

    def __init__(self, data=b""):
        self.data = data


class BigSender(Component):
    """Sends one event three times the shm ring's size at t=1ns."""

    def setup(self):
        self.schedule(1000, self._fire)

    def _fire(self, _):
        self.send("out", Blob(bytes(3 * DEFAULT_RING_CAPACITY)))


class TestWorkerFaults:
    """Blocking waits still fail fast on a dead worker, and an idle
    worker never outlives its parent's end of the pipe."""

    def test_sigkilled_worker_fails_run_fast_and_clean(self):
        psim = ParallelSimulation(2, seed=1, backend="processes")
        Sink(psim.rank_sim(0), "sink")
        Wedge(psim.rank_sim(1), "wedge")
        seen = {}

        def kill_rank1():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and "pid" not in seen:
                backend = psim._backend
                pid = backend.worker_pid(1) if backend is not None else None
                if pid is not None:
                    seen.update(pid=pid, proc=backend._procs[1],
                                exchange=backend._exchange)
                time.sleep(0.01)
            time.sleep(0.3)  # the parent is now blocked in collect
            seen["segment"] = f"/dev/shm/{seen['exchange']._shm.name}"
            assert os.path.exists(seen["segment"])
            seen["killed_at"] = time.monotonic()
            os.kill(seen["pid"], signal.SIGKILL)

        killer = threading.Thread(target=kill_rank1, daemon=True)
        killer.start()
        with pytest.raises(SimulationError, match="rank 1") as caught:
            psim.run()
        raised_at = time.monotonic()
        killer.join(timeout=10)
        assert "died" in str(caught.value)
        assert raised_at - seen["killed_at"] < 1.0
        assert psim._backend is None
        assert seen["proc"].exitcode == -signal.SIGKILL  # reaped
        assert not os.path.exists(seen["segment"])

    def test_dead_worker_fails_a_post_larger_than_the_ring(self):
        """A delivery frame larger than the ring blocks the parent
        mid-post until the worker drains it; a worker killed before
        reading fails that wait, not just the doorbell wait in collect."""
        psim = ParallelSimulation(2, seed=1, backend="processes")
        sender = BigSender(psim.rank_sim(0), "big")
        sink = Sink(psim.rank_sim(1), "sink")
        psim.connect(sender, "out", sink, "in", latency="5ns")
        seen = {}

        def kill_rank1_after_first_epoch(info):
            # the big send is pending: epoch 1 posts it to a dead rank
            if info.index == 0:
                backend = psim._backend
                seen["proc"] = backend._procs[1]
                seen["segment"] = f"/dev/shm/{backend._exchange._shm.name}"
                seen["killed_at"] = time.monotonic()
                os.kill(seen["proc"].pid, signal.SIGKILL)

        psim.add_epoch_observer(kill_rank1_after_first_epoch)
        with pytest.raises(SimulationError, match="rank 1") as caught:
            psim.run()
        raised_at = time.monotonic()
        assert "died" in str(caught.value)
        assert "_post" in {entry.name for entry in caught.traceback}
        assert raised_at - seen["killed_at"] < 1.0
        assert psim._backend is None
        assert seen["proc"].exitcode == -signal.SIGKILL  # reaped
        assert not os.path.exists(seen["segment"])

    def test_worker_exits_when_parent_closes_its_pipe(self):
        """An idle worker sleeps in ``select`` on its control pipe and
        doorbell; the parent closing its end of the pipe lets it exit
        alone."""
        psim = ParallelSimulation(2, seed=1, backend="processes")
        Sink(psim.rank_sim(0), "a")
        Sink(psim.rank_sim(1), "b")
        psim.setup()
        backend = make_backend("processes", psim)
        backend.start()
        proc = backend._procs[1]
        try:
            backend._conns[1].close()
            proc.join(timeout=5)
            assert proc.exitcode == 0
        finally:
            backend.close()


class TestCleanupOnFailure:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_failed_run_releases_backend(self, backend):
        """Satellite fix: run() must close its execution substrate even
        when a model exception unwinds the epoch loop."""

        class Exploder(Component):
            def setup(self):
                self.schedule(1000, self._boom)

            def _boom(self, _):
                raise RuntimeError("model bug")

        psim = ParallelSimulation(2, seed=1, backend=backend)
        Exploder(psim.rank_sim(0), "x")
        Sink(psim.rank_sim(1), "s")
        with pytest.raises(RuntimeError, match="model bug"):
            psim.run()
        assert psim._backend is None


class TestRankSeeds:
    def test_engine_rng_streams_distinct_per_rank(self):
        psim = ParallelSimulation(4, seed=11)
        seeds = [psim.rank_sim(r).rank_seed for r in range(4)]
        assert len(set(seeds)) == 4
        draws = [psim.rank_sim(r).engine_rng.random() for r in range(4)]
        assert len(set(draws)) == 4

    def test_rank_seeds_deterministic(self):
        a = ParallelSimulation(3, seed=11)
        b = ParallelSimulation(3, seed=11)
        assert ([a.rank_sim(r).rank_seed for r in range(3)]
                == [b.rank_sim(r).rank_seed for r in range(3)])
        c = ParallelSimulation(3, seed=12)
        assert ([a.rank_sim(r).rank_seed for r in range(3)]
                != [c.rank_sim(r).rank_seed for r in range(3)])

    def test_base_seed_shared_for_component_streams(self):
        """Component RNG streams key off the *base* seed, which is what
        keeps sequential and parallel statistics identical."""
        psim = ParallelSimulation(2, seed=5)
        assert psim.rank_sim(0).seed == 5
        assert psim.rank_sim(1).seed == 5
        assert psim.rank_sim(0).rank_seed != psim.rank_sim(1).rank_seed


def _square(x):
    return x * x


class TestJobPools:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_map_preserves_order(self, backend):
        with make_job_pool(backend, jobs=2) as pool:
            assert pool.map(_square, range(8)) == [x * x for x in range(8)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_pool_backend_raises(self, jobs):
        with pytest.raises(ValueError, match="unknown job-pool backend"):
            make_job_pool("gpu", jobs=jobs)

    def test_invalid_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs must be"):
            make_job_pool("serial", jobs=0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1
