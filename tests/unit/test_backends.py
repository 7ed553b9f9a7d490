"""Tests for the engine's layered execution stack.

Covers the two execution backends (serial / processes): stat
equivalence on the same partitioned graph, resuming after a limit stop
(in place and from a snapshot), worker error propagation, resource
cleanup on failure, and the per-rank engine RNG streams.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ckpt import CheckpointError, restore, snapshot_parallel
from repro.config import ConfigGraph, build, build_parallel
from repro.core import (Component, Event, Params, ParallelSimulation,
                        Simulation, SimulationError)
from repro.core.backends import BACKENDS, make_backend
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
        self.port("out").send(UnpicklableEvent())


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

    def test_unsnapshotable_rank_state_names_rank_and_component(self):
        """Re-homing a worker rank pickles its component state; a
        lambda attribute fails with the rank and component named."""
        psim = ParallelSimulation(2, seed=1, backend="processes")
        src = Source(psim.rank_sim(0), "src",
                     Params({"count": 3, "period": "1ns"}))
        sink = Sink(psim.rank_sim(1), "sink")
        sink.on_arrival = lambda: None
        psim.connect(src, "out", sink, "in", latency="2ns")
        with pytest.raises(CheckpointError,
                           match=r"rank 1: component 'sink' state is not "
                                 r"snapshotable"):
            psim.run()
        assert psim._backend is None

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


def outcome(psim, result):
    """What a finished run computed, read from the parent process:
    the stop reason, the end time, every statistic and every sink's
    arrival list (a plain component attribute)."""
    arrivals = {name: list(comp.arrival_times) for sim in psim._sims
                for name, comp in sim._components.items()
                if isinstance(comp, Sink)}
    return result.reason, result.end_time, psim.stat_values(), arrivals


@st.composite
def stopped_runs(draw):
    """A small random graph pinned to a random partition of 2-3 ranks,
    plus 1-3 limit stops (``max_epochs`` or ``max_time``)."""
    graph = ConfigGraph("limit-stops")
    links = []
    for i in range(draw(st.integers(1, 3))):
        graph.component(f"src{i}", "testlib.Source",
                        {"count": draw(st.integers(1, 12)),
                         "period": f"{draw(st.integers(500, 5000))}ps"})
        graph.component(f"sink{i}", "testlib.Sink", {})
        links.append((f"src{i}", "out", f"sink{i}", "in"))
    if draw(st.booleans()):
        graph.component("ping", "testlib.PingPong",
                        {"initiator": True,
                         "n_round_trips": draw(st.integers(1, 15))})
        graph.component("pong", "testlib.PingPong", {})
        links.append(("ping", "io", "pong", "io"))
    for a, port_a, b, port_b in links:
        graph.link(a, port_a, b, port_b,
                   latency=f"{draw(st.integers(1000, 20000))}ps")
    ranks = draw(st.integers(2, min(3, len(graph.components()))))
    for comp in graph.components():
        comp.rank = draw(st.integers(0, ranks - 1))
    stops = draw(st.lists(
        st.one_of(st.builds(lambda n: {"max_epochs": n}, st.integers(1, 8)),
                  st.builds(lambda t: {"max_time": t},
                            st.integers(1000, 60000))),
        min_size=1, max_size=3))
    return graph, ranks, stops


class TestLimitStopResume:
    """A run stopped on ``max_epochs``/``max_time`` resumes — in place
    or from a snapshot taken after it — to exactly the uninterrupted
    serial run, on every backend: the parent holds every rank's live
    state once a run ends."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_snapshot_after_limit_stop_resumes_exactly(self, backend,
                                                       tmp_path):
        reference = build_parallel(paper_style_graph(), 2, seed=9)
        expected = outcome(reference, reference.run())
        psim = build_parallel(paper_style_graph(), 2, seed=9,
                              backend=backend)
        assert psim.run(max_epochs=4).reason == "max_epochs"
        snapshot_parallel(psim, tmp_path / "ckpt")
        resumed = restore(tmp_path / "ckpt")
        assert resumed.backend == backend
        assert outcome(resumed, resumed.run()) == expected
        # the parent's sync.* counters survive both hand-overs
        counts = ("sync.epochs", "sync.epoch_events", "sync.remote_sends")
        assert ([resumed.sync_stat_values()[name] for name in counts]
                == [reference.sync_stat_values()[name] for name in counts])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=stopped_runs())
    def test_limit_stops_resume_in_place(self, backend, case):
        graph, ranks, stops = case
        reference = build_parallel(graph, ranks, seed=5)
        expected = outcome(reference, reference.run())
        psim = build_parallel(graph, ranks, seed=5, backend=backend)
        result = None
        for limit in stops:
            result = psim.run(**limit)
            if result.reason not in ("max_epochs", "max_time"):
                break
        else:
            result = psim.run()
        assert outcome(psim, result) == expected

    @staticmethod
    def _late_arrival_graph():
        """The ping-pong primaries finish at 2000 ps, inside the safe
        window a ``max_time=1000`` stop cuts short; src0's token reaches
        sink0 at 2001 ps, in the same uninterrupted window."""
        graph = ConfigGraph("late-arrival")
        for i, period in enumerate(("1001ps", "500ps")):
            graph.component(f"src{i}", "testlib.Source",
                            {"count": 1, "period": period})
            graph.component(f"sink{i}", "testlib.Sink", {})
            graph.link(f"src{i}", "out", f"sink{i}", "in", latency="1000ps")
        graph.component("ping", "testlib.PingPong",
                        {"initiator": True, "n_round_trips": 1})
        graph.component("pong", "testlib.PingPong", {})
        graph.link("ping", "io", "pong", "io", latency="1000ps")
        for comp in graph.components():
            comp.rank = 1 if comp.name == "pong" else 0
        return graph

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_stop_inside_a_window_resumes_that_window(self, backend,
                                                      tmp_path):
        """Exit is checked at window ends, so a resumed run must finish
        the window the stop cut short — in place or from a snapshot —
        instead of opening a new one."""
        reference = build_parallel(self._late_arrival_graph(), 2, seed=5)
        expected = outcome(reference, reference.run())
        assert expected[1] == 2001 and expected[3]["sink0"] == [2001]
        psim = build_parallel(self._late_arrival_graph(), 2, seed=5,
                              backend=backend)
        assert psim.run(max_time=1000).reason == "max_time"
        snapshot_parallel(psim, tmp_path / "ckpt")
        assert outcome(psim, psim.run()) == expected
        resumed = restore(tmp_path / "ckpt")
        assert outcome(resumed, resumed.run()) == expected


class TestEpochFold:
    """The epoch loop folds an epoch's ``sync.*`` statistics after it
    posts the next one; observers, snapshots and the end of a run must
    still see every epoch folded."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_observers_see_every_epoch_folded(self, backend):
        psim = build_parallel(paper_style_graph(), 2, seed=9,
                              backend=backend)
        seen = []
        psim.add_epoch_observer(lambda info: seen.append(
            (info.index, psim.sync_stat_values()["sync.epochs"])))
        result = psim.run()
        assert len(seen) == result.epochs > 1
        assert [epochs for _, epochs in seen] == [
            psim.num_ranks * (index + 1) for index, _ in seen]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("limit", [{}, {"max_epochs": 3},
                                       {"max_time": "20ns"}],
                             ids=["exit", "max_epochs", "max_time"])
    def test_a_run_ends_with_every_epoch_folded(self, backend, limit):
        psim = build_parallel(paper_style_graph(), 2, seed=9,
                              backend=backend)
        result = psim.run(**limit)
        values = psim.sync_stat_values()
        assert values["sync.epochs"] == psim.num_ranks * result.epochs
        assert values["sync.epoch_events"] == result.events_executed

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_a_failed_run_ends_with_every_epoch_folded(self, backend):
        """A model exception unwinds the loop mid-run; the epochs it
        completed are folded anyway."""

        class LateExploder(Component):
            def setup(self):
                self.schedule(30_000, self._boom)

            def _boom(self, _):
                raise RuntimeError("model bug")

        psim = ParallelSimulation(2, seed=1, backend=backend)
        src = Source(psim.rank_sim(0), "src",
                     Params({"count": 20, "period": "1ns"}))
        sink = Sink(psim.rank_sim(1), "sink")
        psim.connect(src, "out", sink, "in", latency="2ns")
        LateExploder(psim.rank_sim(0), "x")
        with pytest.raises(RuntimeError, match="model bug"):
            psim.run()
        assert psim.total_epochs > 1
        assert (psim.sync_stat_values()["sync.epochs"]
                == psim.num_ranks * psim.total_epochs)

    def test_a_failed_post_ends_with_every_epoch_folded(self):
        """A post that raises leaves the epoch before it unfolded at
        that moment (its fold waits for the post); the loop's end folds
        it."""
        psim = ParallelSimulation(2, seed=1, backend="processes")
        relay = Relay(psim.rank_sim(0), "relay")
        sink = Sink(psim.rank_sim(1), "sink")
        psim.connect(relay, "out", sink, "in", latency="3ns")
        with pytest.raises(SimulationError, match="not serializable"):
            psim.run()
        assert psim.total_epochs == 1
        assert psim.sync_stat_values()["sync.epochs"] == psim.num_ranks


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


#: well past any pipe's capacity (64 KiB by default, 1 MiB at most
#: without privileges)
_BIG_FRAME_BYTES = 3 << 20


class BigSender(Component):
    """Sends one event several pipe capacities large at t=1ns."""

    def setup(self):
        self.schedule(1000, self._fire)

    def _fire(self, _):
        self.port("out").send(Blob(bytes(_BIG_FRAME_BYTES)))


def _inode(fd):
    try:
        return os.fstat(fd).st_ino
    except OSError:  # not open
        return None


def _open_fds(exchange):
    """The exchange's fds, each with the pipe inode it is open on: an
    fd number the process reuses later names a different inode."""
    return {fd: _inode(fd) for fd in exchange.fds()}


def _still_open(fds):
    """The fds of ``fds`` this process still holds on the same pipe."""
    return [fd for fd, inode in fds.items() if _inode(fd) == inode]


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
            seen["fds"] = _open_fds(seen["exchange"])
            assert _still_open(seen["fds"])
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
        assert _still_open(seen["fds"]) == []

    def test_dead_worker_fails_a_post_larger_than_the_ring(self):
        """A delivery frame larger than the pipe buffer blocks the parent
        mid-post until the worker drains it; a worker killed before
        reading fails that wait, not just the wait in collect."""
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
                seen["fds"] = _open_fds(backend._exchange)
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
        assert _still_open(seen["fds"]) == []

    def test_worker_exits_when_parent_closes_its_pipe(self):
        """An idle worker sleeps in ``select`` on its control pipe and
        down pipe; the parent closing its end of the pipe lets it exit
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


class TestWorkerExit:
    """A worker ends after its ``finish`` reply, or on EOF of its
    control pipe when the run never got that far."""

    def test_worker_ends_after_its_finish_reply(self):
        psim = ParallelSimulation(2, seed=1, backend="processes")
        Sink(psim.rank_sim(0), "a")
        Sink(psim.rank_sim(1), "b")
        psim.setup()
        backend = make_backend("processes", psim)
        backend.start()
        proc = backend._procs[1]
        try:
            backend.finalize()
            # before close(): the worker ended on its own
            proc.join(timeout=5)
            assert proc.exitcode == 0
        finally:
            backend.close()

    def test_a_finished_run_reaps_its_worker_and_closes_every_fd(self):
        psim = ParallelSimulation(2, seed=1, backend="processes")
        src = Source(psim.rank_sim(0), "src",
                     Params({"count": 3, "period": "1ns"}))
        sink = Sink(psim.rank_sim(1), "sink")
        psim.connect(src, "out", sink, "in", latency="2ns")
        seen = {}

        def capture(info):
            backend = psim._backend
            seen.setdefault("proc", backend._procs[1])
            seen.setdefault("fds", _open_fds(backend._exchange))

        psim.add_epoch_observer(capture)
        psim.run()
        assert psim.rank_sim(1).component("sink").received.value() == 3
        assert psim._backend is None
        assert seen["proc"].exitcode == 0
        assert _still_open(seen["fds"]) == []

    def test_a_run_that_raises_mid_epoch_ends_its_worker_through_eof(self):
        """No ``finish`` is sent: closing the control pipe ends it."""
        seen = {}

        class Exploder(Component):
            def setup(self):
                self.schedule(1000, self._boom)

            def _boom(self, _):
                backend = psim._backend
                seen.update(proc=backend._procs[1],
                            fds=_open_fds(backend._exchange))
                raise RuntimeError("model bug")

        psim = ParallelSimulation(2, seed=1, backend="processes")
        Exploder(psim.rank_sim(0), "x")
        Sink(psim.rank_sim(1), "s")
        with pytest.raises(RuntimeError, match="model bug"):
            psim.run()
        assert psim._backend is None
        assert seen["proc"].exitcode == 0  # not terminated by close()
        assert _still_open(seen["fds"]) == []


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

    @given(seed=st.integers(0, 2**32 - 1), num_ranks=st.integers(1, 8),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lazy_rank_seed_matches_the_spawn_formula(self, seed, num_ranks,
                                                      data):
        """``rank_seed`` is derived on first read from the same
        seed-sequence spawn the constructors used to run eagerly, so a
        rank's seed and its engine-stream draws are unchanged."""
        rank = data.draw(st.integers(0, num_ranks - 1))
        spawned = np.random.SeedSequence(seed).spawn(num_ranks)[rank]
        expected = int(spawned.generate_state(1)[0])
        psim = ParallelSimulation(num_ranks, seed=seed)
        direct = Simulation(seed=seed, rank=rank, num_ranks=num_ranks)
        assert psim.rank_sim(rank).rank_seed == direct.rank_seed == expected
        reference = np.random.default_rng(expected).random(4)
        assert list(direct.engine_rng.random(4)) == list(reference)
        assert list(psim.rank_sim(rank).engine_rng.random(4)) == list(
            reference)

    def test_rank_seed_is_derived_not_set(self):
        sim = Simulation(seed=3, rank=2, num_ranks=2)  # rank past the count
        children = np.random.SeedSequence(3).spawn(3)
        assert sim.rank_seed == int(children[2].generate_state(1)[0])
        with pytest.raises(AttributeError):
            sim.rank_seed = 7
        with pytest.raises(TypeError):
            Simulation(seed=3, rank_seed=7)

    def test_base_seed_shared_for_component_streams(self):
        """Component RNG streams key off the *base* seed, which is what
        keeps sequential and parallel statistics identical."""
        psim = ParallelSimulation(2, seed=5)
        assert psim.rank_sim(0).seed == 5
        assert psim.rank_sim(1).seed == 5
        assert psim.rank_sim(0).rank_seed != psim.rank_sim(1).rank_seed

