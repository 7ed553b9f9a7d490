"""Tests for the skeleton-app engine, the app library and phase models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import build
from repro.core import Params, Simulation
from repro.miniapps import (AllReduce, AppRank, Compute, Exchange,
                            app_runtime_stats, build_app_machine,
                            cache_hit_rates, cores_per_node_efficiency,
                            grid_dims_3d, halo_neighbors_3d,
                            memory_speed_response, phase_runtime,
                            proportional_difference)
from repro.miniapps.base import compute_time_ps


class TestGridMath:
    @given(st.integers(1, 512))
    @settings(max_examples=100)
    def test_grid_dims_cover_n(self, n):
        x, y, z = grid_dims_3d(n)
        assert x * y * z == n
        assert x <= y <= z

    def test_near_cubic(self):
        assert grid_dims_3d(64) == (4, 4, 4)
        assert grid_dims_3d(8) == (2, 2, 2)
        assert grid_dims_3d(27) == (3, 3, 3)

    def test_prime_degenerates_gracefully(self):
        assert grid_dims_3d(7) == (1, 1, 7)

    @given(st.integers(2, 256))
    @settings(max_examples=60)
    def test_halo_neighbors_symmetric(self, n):
        dims = grid_dims_3d(n)
        for rank in range(n):
            for neighbor in halo_neighbors_3d(rank, dims):
                assert rank in halo_neighbors_3d(neighbor, dims), \
                    f"rank {rank} -> {neighbor} not symmetric (dims {dims})"

    @given(st.integers(2, 256))
    @settings(max_examples=40)
    def test_halo_neighbors_valid_and_unique(self, n):
        dims = grid_dims_3d(n)
        for rank in range(min(n, 16)):
            neighbors = halo_neighbors_3d(rank, dims)
            assert len(neighbors) == len(set(neighbors))
            assert rank not in neighbors
            assert all(0 <= x < n for x in neighbors)
            assert len(neighbors) <= 6

    def test_nonperiodic_boundary_has_fewer_neighbors(self):
        dims = (4, 4, 4)
        corner = halo_neighbors_3d(0, dims, periodic=False)
        middle = halo_neighbors_3d(21, dims, periodic=False)  # (1,1,1)
        assert len(corner) == 3
        assert len(middle) == 6


class _TwoPhase(AppRank):
    """Minimal app: compute then ring exchange, twice."""

    def program(self):
        for it in range(self.iterations):
            yield Compute(1000)
            partner = (self.rank + 1) % self.n_ranks
            expect_from = (self.rank - 1) % self.n_ranks
            yield Exchange([(partner, 1024)], expect=1, key=f"ring{it}")
            self.iteration_done()


def _direct_pair_machine(app_cls, n=2, iterations=2, app_params=None):
    """Two ranks wired NIC-to-NIC (no routers)."""
    from repro.network import Nic

    sim = Simulation(seed=8)
    ranks = []
    nics = []
    for i in range(n):
        params = {"rank": i, "n_ranks": n, "iterations": iterations}
        params.update(app_params or {})
        ranks.append(app_cls(sim, f"rank{i}", Params(params)))
        nics.append(Nic(sim, f"nic{i}", Params({})))
        sim.connect(ranks[i], "nic", nics[i], "cpu", latency="1ns")
    sim.connect(nics[0], "net", nics[1], "net", latency="10ns")
    return sim, ranks


class TestEngine:
    def test_two_phase_app_completes(self):
        sim, ranks = _direct_pair_machine(_TwoPhase)
        result = sim.run()
        assert result.reason == "exit"
        for r in ranks:
            assert r.s_iterations.count == 2
            assert r.s_compute.count == 2000
            assert r.s_messages.count == 2

    def test_comm_time_accounted(self):
        sim, ranks = _direct_pair_machine(_TwoPhase)
        sim.run()
        for r in ranks:
            assert r.s_comm.count > 0
            assert r.s_runtime.count >= r.s_compute.count + r.s_comm.count - 1

    def test_rank_validation(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            _TwoPhase(sim, "bad", Params({"rank": 5, "n_ranks": 2}))

    def test_program_must_be_overridden(self):
        sim = Simulation()
        rank = AppRank(sim, "r", Params({"rank": 0, "n_ranks": 1}))
        with pytest.raises(NotImplementedError):
            sim.run()

    def test_early_messages_buffered(self):
        """A rank that is ahead must not lose messages sent to a rank
        still computing."""

        class Skewed(AppRank):
            def program(self):
                if self.rank == 1:
                    yield Compute(500_000)  # rank 1 lags far behind
                partner = 1 - self.rank
                yield Exchange([(partner, 64)], expect=1, key="x")

        sim, ranks = _direct_pair_machine(Skewed, iterations=1)
        result = sim.run()
        assert result.reason == "exit"

    def test_self_send_rejected(self):
        class SelfSend(AppRank):
            def program(self):
                yield Exchange([(self.rank, 64)], expect=1, key="bad")

        sim, _ = _direct_pair_machine(SelfSend, iterations=1)
        with pytest.raises(ValueError, match="self-send"):
            sim.run()


class TestAllReducePlans:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 12, 16, 33])
    def test_allreduce_completes_any_rank_count(self, n):
        class JustReduce(AppRank):
            def program(self):
                yield AllReduce(8, key="ar0")

        from repro.miniapps import build_app_machine as bam
        from repro.core.registry import register, _REGISTRY

        # Register once under a unique name.
        type_name = f"testlib.JustReduce{n}"
        if type_name not in _REGISTRY:
            register(type_name)(JustReduce)
        graph = bam(type_name, n, iterations=1)
        sim = build(graph, seed=2)
        result = sim.run()
        assert result.reason == "exit", f"allreduce deadlocked at n={n}"

    def test_round_keys_match_between_partners(self):
        """Both sides of every pairwise round must derive the same key."""
        from repro.miniapps.base import AppRank

        class Probe(AppRank):
            def program(self):
                return
                yield

        sim = Simulation()
        plans = {}
        for n in (5, 8, 12):
            for rank in range(n):
                probe = Probe(sim, f"p{n}_{rank}",
                              Params({"rank": rank, "n_ranks": n}))
                probe._allreduce_key = "k"
                probe._allreduce_size = 8

                class _Phase:
                    size = 8
                    key = "k"

                plans[(n, rank)] = probe._plan_allreduce(_Phase())
            # Every (label, partner) pair must appear symmetrically.
            for rank in range(n):
                for label, partner in plans[(n, rank)]:
                    assert (label, rank) in plans[(n, partner)], (
                        f"n={n}: round {label} {rank}->{partner} unmatched"
                    )

    def test_single_rank_no_rounds(self):
        class Probe(AppRank):
            def program(self):
                return
                yield

        sim = Simulation()
        probe = Probe(sim, "p", Params({"rank": 0, "n_ranks": 1}))

        class _Phase:
            size = 8
            key = "k"

        assert probe._plan_allreduce(_Phase()) == []


class TestAppLibrary:
    APPS = ["CTH", "SAGE", "XNOBEL", "Charon", "HPCCG", "Lulesh", "MiniFE",
            "CGSolver", "BiCGStabILU", "MLSolver", "MiniMD", "MiniGhost",
            "MiniXyce", "PhdMesh", "MiniDSMC"]

    @pytest.mark.parametrize("app", APPS)
    def test_app_runs_on_machine(self, app):
        graph = build_app_machine(f"miniapps.{app}", 8, iterations=2)
        sim = build(graph, seed=6)
        result = sim.run()
        assert result.reason == "exit", f"{app} did not complete"
        stats = app_runtime_stats(sim, 8)
        assert stats["runtime_ps"] > 0
        assert stats["messages"] > 0

    def test_charon_sends_many_small_messages(self):
        def messages_per_rank(app):
            graph = build_app_machine(f"miniapps.{app}", 8, iterations=2)
            sim = build(graph, seed=6)
            sim.run()
            return app_runtime_stats(sim, 8)["messages_per_rank"]

        assert messages_per_rank("Charon") > 3 * messages_per_rank("CTH")

    def test_ml_sends_more_messages_than_ilu(self):
        """The Fig. 5 mechanism: ML >40% more messages per core."""
        def messages_per_rank(app):
            graph = build_app_machine(f"miniapps.{app}", 16, iterations=3)
            sim = build(graph, seed=6)
            sim.run()
            return app_runtime_stats(sim, 16)["messages_per_rank"]

        ilu = messages_per_rank("BiCGStabILU")
        ml = messages_per_rank("MLSolver")
        assert ml > 1.4 * ilu

    def test_xnobel_overlap_hides_communication(self):
        """With full overlap, moderate bandwidth loss is invisible."""
        def runtime(bw):
            graph = build_app_machine("miniapps.XNOBEL", 16, iterations=2,
                                      injection_bandwidth=bw)
            sim = build(graph, seed=6)
            sim.run()
            return app_runtime_stats(sim, 16)["runtime_ps"]

        assert runtime("1.6GB/s") == pytest.approx(runtime("3.2GB/s"),
                                                   rel=0.02)

    def test_invalid_overlap_fraction(self):
        sim = Simulation()
        from repro.miniapps import HaloApp

        with pytest.raises(ValueError):
            HaloApp(sim, "x", Params({"rank": 0, "n_ranks": 2,
                                      "overlap_fraction": 1.5}))

    def test_invalid_scaling(self):
        sim = Simulation()
        from repro.miniapps import HaloApp

        with pytest.raises(ValueError):
            HaloApp(sim, "x", Params({"rank": 0, "n_ranks": 2,
                                      "scaling": "diagonal"}))

    def test_strong_scaling_shrinks_work(self):
        from repro.miniapps import XNOBEL

        sim = Simulation()
        small = XNOBEL(sim, "a", Params({"rank": 0, "n_ranks": 16}))
        big = XNOBEL(sim, "b", Params({"rank": 0, "n_ranks": 128}))
        assert big.plan.compute_ps < small.plan.compute_ps
        assert big.plan.msg_size < small.plan.msg_size

    def test_minife_phase_stats_separate(self):
        graph = build_app_machine("miniapps.MiniFE", 8, iterations=1)
        sim = build(graph, seed=6)
        sim.run()
        values = sim.stat_values()
        assert values["rank0.fea_ps"] > 0
        assert values["rank0.solver_ps"] > 0


class TestMachineBuilder:
    def test_component_counts(self):
        graph = build_app_machine("miniapps.CTH", 16, locals_per_router=2)
        kinds = {}
        for comp in graph.components():
            kinds[comp.type_name] = kinds.get(comp.type_name, 0) + 1
        assert kinds["miniapps.CTH"] == 16
        assert kinds["network.Nic"] == 16
        assert kinds["network.Router"] == 8

    def test_fattree_variant(self):
        graph = build_app_machine("miniapps.HPCCG", 8, topology="fattree")
        sim = build(graph, seed=1)
        assert sim.run().reason == "exit"

    def test_invalid_topology(self):
        with pytest.raises(ValueError):
            build_app_machine("miniapps.CTH", 8, topology="moebius")

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError):
            build_app_machine("miniapps.CTH", 0)


class TestPhaseModels:
    def test_phase_runtime_basic(self):
        result = phase_runtime("minife_solver")
        assert result.runtime_ps > 0
        assert result.n_cores == 1

    def test_solver_contention_sensitive_fea_not(self):
        solver = cores_per_node_efficiency("minife_solver", [1, 8],
                                           channels=4)
        fea = cores_per_node_efficiency("minife_fea", [1, 8], channels=4)
        assert solver[8] < 0.7  # solver hurt by sharing
        assert fea[8] > 0.85  # FEA barely affected

    def test_minife_tracks_charon_on_contention(self):
        """The Fig. 2 pass verdict: within ~13%."""
        cores = [1, 2, 4, 8, 12]
        minife = cores_per_node_efficiency("minife_solver", cores, channels=4)
        charon = cores_per_node_efficiency("charon_solver", cores, channels=4)
        diffs = proportional_difference(minife, charon)
        assert max(diffs.values()) < 0.13

    def test_memory_speed_moves_solver_not_fea(self):
        techs = ["DDR3-800", "DDR3-1066", "DDR3-1333"]
        solver = memory_speed_response("minife_solver", techs)
        fea = memory_speed_response("minife_fea", techs)
        assert solver["DDR3-800"] > 1.2
        assert fea["DDR3-800"] < 1.08
        assert solver["DDR3-1333"] == 1.0

    def test_minife_tracks_charon_on_memory_speed(self):
        """The Fig. 3 pass verdict: within ~4% (we allow 8%)."""
        techs = ["DDR3-800", "DDR3-1066", "DDR3-1333"]
        minife = memory_speed_response("minife_solver", techs)
        charon = memory_speed_response("charon_solver", techs)
        diffs = proportional_difference(minife, charon)
        assert max(diffs.values()) < 0.08

    def test_cache_hit_rates_fig4_shape(self):
        minife = cache_hit_rates("minife_fea", n_refs=40_000, warmup=80_000)
        charon = cache_hit_rates("charon_fea", n_refs=40_000, warmup=80_000)
        # L1 matches closely; L2/L3 diverge strongly (the fail verdict).
        assert abs(minife["L1"] - charon["L1"]) / charon["L1"] < 0.05
        assert minife["L2"] > 2 * charon["L2"]
        assert minife["L3"] > 1.5 * charon["L3"]

    def test_compute_time_helper(self):
        t1 = compute_time_ps("hpccg", 100_000)
        t2 = compute_time_ps("hpccg", 100_000, n_sharers=8)
        assert t2 > t1

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            phase_runtime("hpccg", n_cores=0)
