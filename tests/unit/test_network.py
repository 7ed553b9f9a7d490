"""Tests for the interconnect models: routing, NIC throttling, traffic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigGraph, build, build_crossbar, build_fat_tree, build_torus
from repro.core import Params, Simulation
from repro.network import (NetMessage, Nic, PatternEndpoint, Router, flatten,
                           torus_step, unflatten)


class TestCoordinateMath:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 1000))
    @settings(max_examples=60)
    def test_flatten_unflatten_roundtrip(self, a, b, c, index):
        dims = (a, b, c)
        total = a * b * c
        index %= total
        assert flatten(unflatten(index, dims), dims) == index

    def test_torus_step_direct(self):
        assert torus_step(0, 3, 8, wrap=True) == 1
        assert torus_step(3, 0, 8, wrap=True) == -1
        assert torus_step(2, 2, 8, wrap=True) == 0

    def test_torus_step_wraps_shorter_way(self):
        assert torus_step(0, 7, 8, wrap=True) == -1  # backwards through wrap
        assert torus_step(7, 0, 8, wrap=True) == 1

    def test_mesh_never_wraps(self):
        assert torus_step(0, 7, 8, wrap=False) == 1
        assert torus_step(7, 0, 8, wrap=False) == -1


def _network(topo_builder, n_eps, pattern="neighbor", count=4, size="4KB",
             inj_bw="3.2GB/s", seed=3, **topo_kwargs):
    g = ConfigGraph("net")
    topo = topo_builder(g, **topo_kwargs)
    assert topo.num_endpoints >= n_eps
    for i in range(n_eps):
        g.component(f"nic{i}", "network.Nic",
                    {"injection_bandwidth": inj_bw})
        g.component(f"ep{i}", "network.PatternEndpoint",
                    {"endpoint_id": i, "n_endpoints": n_eps, "pattern": pattern,
                     "count": count, "size": size, "gap": "3us"})
        g.link(f"ep{i}", "nic", f"nic{i}", "cpu", latency="1ns")
        topo.attach(g, i, f"nic{i}", "net", latency="10ns")
    sim = build(g, seed=seed)
    return sim


class TestRouting:
    @pytest.mark.parametrize("dims", [(4,), (2, 2), (3, 3), (2, 3, 4), (4, 4)])
    def test_torus_delivers_all(self, dims):
        import math

        n = math.prod(dims)
        sim = _network(build_torus, n, dims=dims, locals_per_router=1)
        result = sim.run()
        assert result.reason == "exit"
        values = sim.stat_values()
        for i in range(n):
            assert values[f"ep{i}.received"] == 4

    def test_torus_minimal_hops(self):
        # 8-ring: neighbor pattern crosses exactly 1 inter-router link,
        # plus the delivery hop = 2 recorded hops.
        sim = _network(build_torus, 8, dims=(8,), locals_per_router=1)
        sim.run()
        for i in range(8):
            assert sim.stats()[f"ep{i}.hops"].mean == 2.0

    def test_torus_wraparound_used(self):
        # bitcomplement on an 8-ring: 0<->7 are wrap-adjacent: 2 hops.
        sim = _network(build_torus, 8, pattern="bitcomplement", dims=(8,),
                       locals_per_router=1)
        sim.run()
        assert sim.stats()["ep0.hops"].mean == 2.0
        # 3<->4 are direct neighbours: also 2 hops.
        assert sim.stats()["ep3.hops"].mean == 2.0

    def test_multiple_locals_share_router(self):
        sim = _network(build_torus, 8, dims=(2, 2), locals_per_router=2)
        result = sim.run()
        assert result.reason == "exit"
        # endpoints 0,1 share router r0_0: a 0->1 message never leaves it.

    def test_fat_tree_delivers_all(self):
        sim = _network(build_fat_tree, 16, pattern="bitcomplement",
                       leaves=4, down_ports=4, spines=2)
        result = sim.run()
        assert result.reason == "exit"
        values = sim.stat_values()
        assert sum(values[f"ep{i}.received"] for i in range(16)) == 64

    def test_fat_tree_local_traffic_stays_in_leaf(self):
        sim = _network(build_fat_tree, 4, pattern="neighbor",
                       leaves=1, down_ports=4, spines=2)
        sim.run()
        # Same-leaf messages: 1 hop (delivery by the leaf).
        assert sim.stats()["ep0.hops"].mean == 1.0

    def test_fat_tree_remote_traffic_three_hops(self):
        sim = _network(build_fat_tree, 8, pattern="bitcomplement",
                       leaves=2, down_ports=4, spines=2)
        sim.run()
        # leaf -> spine -> leaf -> deliver = 3 recorded hops.
        assert sim.stats()["ep0.hops"].mean == 3.0

    def test_crossbar_single_hop(self):
        sim = _network(build_crossbar, 6, pattern="neighbor", n=6)
        sim.run()
        for i in range(6):
            assert sim.stats()[f"ep{i}.hops"].mean == 1.0

    def test_hotspot_pattern(self):
        sim = _network(build_torus, 8, pattern="hotspot", dims=(8,),
                       locals_per_router=1)
        result = sim.run()
        assert result.reason == "exit"
        values = sim.stat_values()
        assert values["ep0.received"] == 7 * 4
        assert values["ep0.sent"] == 0

    def test_uniform_pattern_conserves_messages(self):
        sim = _network(build_torus, 8, pattern="uniform", dims=(8,),
                       locals_per_router=1)
        sim.run(max_time="10ms")
        # The senders' exit fires with messages still in flight; drain.
        sim.run(ignore_exit=True)
        values = sim.stat_values()
        sent = sum(values[f"ep{i}.sent"] for i in range(8))
        received = sum(values[f"ep{i}.received"] for i in range(8))
        assert sent == 8 * 4
        assert received == sent

    def test_misrouted_message_detected(self):
        sim = Simulation(seed=1)
        ep = PatternEndpoint(sim, "ep", Params({
            "endpoint_id": 3, "n_endpoints": 8, "count": 0}))
        src = PatternEndpoint(sim, "src", Params({
            "endpoint_id": 0, "n_endpoints": 8, "count": 0}))
        sim.connect(src, "nic", ep, "nic", latency="1ns")
        sim.setup()
        src.send("nic", NetMessage(0, 5, 64))  # dest 5 != 3
        with pytest.raises(RuntimeError, match="misrouted"):
            sim.run()


class TestNicThrottle:
    def _one_way(self, inj_bw, size, n_messages=8):
        sim = Simulation(seed=2)
        src = PatternEndpoint(sim, "src", Params({
            "endpoint_id": 0, "n_endpoints": 2, "pattern": "neighbor",
            "count": n_messages, "size": size, "gap": "1us", "expected": 0}))
        dst = PatternEndpoint(sim, "dst", Params({
            "endpoint_id": 1, "n_endpoints": 2, "pattern": "neighbor",
            "count": 0, "expected": n_messages}))
        nic_s = Nic(sim, "nic_s", Params({"injection_bandwidth": inj_bw}))
        nic_d = Nic(sim, "nic_d", Params({"injection_bandwidth": inj_bw}))
        # dst sends to (1+1)%2 = 0, so with count=0 it only receives.
        sim.connect(src, "nic", nic_s, "cpu", latency="1ns")
        sim.connect(dst, "nic", nic_d, "cpu", latency="1ns")
        sim.connect(nic_s, "net", nic_d, "net", latency="10ns")
        result = sim.run()
        assert result.reason == "exit"
        return sim

    def test_throttle_slows_large_messages(self):
        fast = self._one_way("3.2GB/s", "1MB")
        slow = self._one_way("0.4GB/s", "1MB")
        assert slow.stats()["dst.latency_ps"].mean > \
            4 * fast.stats()["dst.latency_ps"].mean

    def test_small_messages_far_less_bandwidth_sensitive(self):
        """The Charon mechanism: small messages are overhead-dominated,
        so throttling injection bandwidth 8x barely moves them, while
        large messages scale almost linearly."""
        small_ratio = (self._one_way("0.4GB/s", 64).stats()["dst.latency_ps"].mean
                       / self._one_way("3.2GB/s", 64).stats()["dst.latency_ps"].mean)
        large_ratio = (self._one_way("0.4GB/s", "1MB").stats()["dst.latency_ps"].mean
                       / self._one_way("3.2GB/s", "1MB").stats()["dst.latency_ps"].mean)
        assert small_ratio < 1.5
        assert large_ratio > 4.0
        assert small_ratio < large_ratio / 2

    def test_injection_wait_accumulates_under_burst(self):
        sim = Simulation(seed=2)
        src = PatternEndpoint(sim, "src", Params({
            "endpoint_id": 0, "n_endpoints": 2, "pattern": "neighbor",
            "count": 8, "size": "1MB", "gap": "1ns", "expected": 0}))
        dst = PatternEndpoint(sim, "dst", Params({
            "endpoint_id": 1, "n_endpoints": 2, "count": 0, "expected": 8}))
        nic_s = Nic(sim, "nic_s", Params({"injection_bandwidth": "1GB/s"}))
        nic_d = Nic(sim, "nic_d", Params({}))
        sim.connect(src, "nic", nic_s, "cpu", latency="1ns")
        sim.connect(dst, "nic", nic_d, "cpu", latency="1ns")
        sim.connect(nic_s, "net", nic_d, "net", latency="10ns")
        sim.run()
        assert nic_s.s_inj_wait.maximum > 1_000_000  # queued > 1us
        assert nic_s.s_bytes_sent.count == 8 * 1024 * 1024

    def test_bad_pattern_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            PatternEndpoint(sim, "ep", Params({
                "endpoint_id": 0, "n_endpoints": 2, "pattern": "cyclone"}))


class TestRouterValidation:
    def test_unknown_kind(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            Router(sim, "r", Params({"kind": "hypercube"}))

    def test_coords_dims_mismatch(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            Router(sim, "r", Params({"kind": "torus", "dims": "4x4",
                                     "coords": "1,2,3"}))

    def test_route_function_directly(self):
        sim = Simulation()
        r = Router(sim, "r", Params({"kind": "torus", "dims": "4x4",
                                     "coords": "0,0", "locals": 2}))
        assert r.route(0) == "local0"
        assert r.route(1) == "local1"
        assert r.route(2) == "dim1_pos"   # router (0,1)
        assert r.route(8) == "dim0_pos"   # router (1,0)
        assert r.route(2 * 12) == "dim0_neg"  # router (3,0): wrap back


def _routers(sim):
    return [comp for comp in sim.components.values()
            if isinstance(comp, Router)]


class TestRouteMemo:
    """``on_message`` memoizes ``dest -> (out port, is_local, link
    endpoint)`` for every kind whose route depends on the destination
    alone."""

    @pytest.mark.parametrize("builder,n,kwargs,kinds", [
        (build_torus, 16, {"dims": (4, 2, 2), "locals_per_router": 1},
         {"torus"}),
        (build_torus, 18, {"dims": (3, 3), "locals_per_router": 2,
                           "wrap": False}, {"mesh"}),
        (build_fat_tree, 8, {"leaves": 2, "down_ports": 4, "spines": 2},
         {"fattree_leaf", "fattree_spine"}),
        (build_crossbar, 6, {"n": 6}, {"crossbar"}),
    ], ids=["torus", "mesh", "fattree", "crossbar"])
    def test_memo_matches_route_for_every_destination(self, builder, n,
                                                      kwargs, kinds):
        sim = _network(builder, n, **kwargs)
        routers = _routers(sim)
        assert {r.kind for r in routers} == kinds
        # Every router sees a message for every destination; forwarding
        # only queues the next hop, so nothing else needs to run.
        for router in routers:
            for dest in range(n):
                router.on_message(NetMessage(src=0, dest=dest, size=64))
        for router in routers:
            assert sorted(router._routes) == list(range(n)), router.name
            for dest, hop in router._routes.items():
                port = router.route(dest)
                assert hop == (port, port.startswith("local"),
                               router.port(port).endpoint), (
                    router.name, dest)
                assert hop[2] is not None

    @pytest.mark.parametrize("routing", ["minimal", "valiant"])
    def test_dragonfly_never_memoizes(self, routing):
        from repro.config import build_dragonfly

        graph = ConfigGraph(f"df-{routing}")
        topo = build_dragonfly(graph, groups=5, routers_per_group=2,
                               global_per_router=2, locals_per_router=2,
                               router_params={"routing": routing})
        n = topo.num_endpoints
        for i in range(n):
            graph.component(f"nic{i}", "network.Nic", {})
            graph.component(f"ep{i}", "network.PatternEndpoint",
                            {"endpoint_id": i, "n_endpoints": n,
                             "pattern": "shift", "count": 2, "size": "1KB",
                             "gap": "2us", "shift_amount": 4})
            graph.link(f"ep{i}", "nic", f"nic{i}", "cpu", latency="1ns")
            topo.attach(graph, i, f"nic{i}", "net", latency="10ns")
        sim = build(graph, seed=6)
        assert sim.run().reason == "exit"
        routers = _routers(sim)
        assert sum(r.s_forwarded.count for r in routers) > 0
        assert all(r._routes == {} for r in routers)

    def test_memo_is_not_checkpointed(self):
        sim = _network(build_torus, 8, pattern="uniform", dims=(8,),
                       locals_per_router=1)
        sim.run()
        routers = _routers(sim)
        assert any(r._routes for r in routers)
        for router in routers:
            state = router.capture_state()
            assert "_routes" not in state
            assert "_port_free" in state
