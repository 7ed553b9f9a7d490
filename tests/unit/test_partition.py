"""Unit + property tests for the component-graph partitioner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (STRATEGIES, PartitionEdge, _bfs_grow,
                                  evaluate, partition)


def ring_edges(n, latency=10):
    return [PartitionEdge(i, (i + 1) % n, latency=latency) for i in range(n)]


def grid_nodes_edges(width, height):
    nodes = [(x, y) for y in range(height) for x in range(width)]
    edges = []
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                edges.append(PartitionEdge((x, y), (x + 1, y)))
            if y + 1 < height:
                edges.append(PartitionEdge((x, y), (x, y + 1)))
    return nodes, edges


class TestBasics:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_nodes_assigned(self, strategy):
        nodes = list(range(20))
        result = partition(nodes, ring_edges(20), 4, strategy=strategy)
        assert set(result.assignment) == set(nodes)
        assert all(0 <= r < 4 for r in result.assignment.values())

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_rank_is_trivial(self, strategy):
        result = partition(list(range(5)), ring_edges(5), 1, strategy=strategy)
        assert set(result.assignment.values()) == {0}
        assert result.edge_cut == 0

    def test_more_ranks_than_nodes_rejected(self):
        with pytest.raises(ValueError):
            partition([1, 2], [], 3)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            partition([1], [], 0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            partition([1, 2], [], 2, strategy="magic")

    def test_unknown_edge_node_rejected(self):
        with pytest.raises(ValueError):
            partition([1, 2], [PartitionEdge(1, 99)], 2)

    def test_linear_keeps_contiguous_slices(self):
        nodes = list(range(12))
        result = partition(nodes, ring_edges(12), 4, strategy="linear")
        # Linear on a ring: each rank gets one contiguous run of 3.
        for rank in range(4):
            members = [n for n, r in result.assignment.items() if r == rank]
            assert members == list(range(min(members), max(members) + 1))

    def test_round_robin_alternates(self):
        result = partition(list(range(6)), [], 2, strategy="round_robin")
        assert [result.assignment[i] for i in range(6)] == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("ranks, expected", [
        (2, [("x0", 0), ("a0", 0), ("a1", 0), ("a2", 0), ("b0", 0),
             ("b1", 0), ("b2", 0), ("x1", 1), ("c0", 1), ("c3", 1),
             ("c2", 1), ("c1", 1), ("x2", 1), ("x3", 1)]),
        (3, [("x0", 0), ("a0", 0), ("a1", 0), ("a2", 0), ("b0", 0),
             ("x1", 1), ("b1", 1), ("b2", 1), ("c0", 1), ("c3", 1),
             ("x2", 2), ("c1", 2), ("c2", 2), ("x3", 2)]),
    ])
    def test_bfs_disconnected_graph_assignment_pinned(self, ranks, expected):
        """Chains interleaved with isolated nodes exercise the seed and
        jump-to-next-unassigned paths; the assignment (and its order) is
        pinned to the output of the original quadratic implementation."""
        nodes = ["x0", "a0", "b0", "a1", "x1", "a2", "b1", "c0", "x2",
                 "c1", "c2", "b2", "c3", "x3"]
        chains = [["a0", "a1", "a2"], ["b2", "b1", "b0"],
                  ["c1", "c3", "c0", "c2"]]
        edges = [PartitionEdge(u, v) for chain in chains
                 for u, v in zip(chain, chain[1:])]
        result = partition(nodes, edges, ranks, strategy="bfs")
        assert list(result.assignment.items()) == expected


class TestQualityMetrics:
    def test_ring_linear_cut(self):
        # A 16-ring split linearly into 4 slices cuts exactly 4 edges.
        result = partition(list(range(16)), ring_edges(16), 4, strategy="linear")
        assert result.cut_edges == 4

    def test_round_robin_cut_is_worst(self):
        nodes = list(range(16))
        edges = ring_edges(16)
        rr = partition(nodes, edges, 4, strategy="round_robin")
        lin = partition(nodes, edges, 4, strategy="linear")
        assert rr.cut_edges > lin.cut_edges

    def test_bfs_keeps_fast_links_on_grid(self):
        # Fast rows, slow columns: plain BFS growth cuts rows, the
        # lookahead-first rule hands each rank whole rows.
        nodes, edges = grid_nodes_edges(8, 8)
        edges = [PartitionEdge(e.u, e.v, latency=1 if e.u[1] == e.v[1] else 10)
                 for e in edges]
        plain = evaluate(_bfs_grow(nodes, edges, {n: 1.0 for n in nodes}, 4),
                         edges, num_ranks=4)
        bfs = partition(nodes, edges, 4, strategy="bfs")
        assert plain.min_cut_latency == 1
        assert bfs.min_cut_latency == 10
        assert bfs.cut_edges == 24
        assert bfs.imbalance == 1.0

    def test_min_cut_latency_reported(self):
        nodes = [0, 1, 2, 3]
        edges = [PartitionEdge(0, 1, latency=100), PartitionEdge(1, 2, latency=5),
                 PartitionEdge(2, 3, latency=50)]
        result = partition(nodes, edges, 2, strategy="round_robin")
        # round_robin: 0,2 -> rank0; 1,3 -> rank1; all edges cut.
        assert result.min_cut_latency == 5

    def test_no_cut_edges_latency_none(self):
        result = partition([0, 1], [PartitionEdge(0, 1)], 1)
        assert result.min_cut_latency is None

    def test_imbalance_weighted(self):
        weights = {0: 10.0, 1: 1.0, 2: 1.0, 3: 1.0}
        result = partition([0, 1, 2, 3], [], 2, strategy="round_robin",
                           weights=weights)
        # rank0 = {0, 2} weight 11, ideal 6.5
        assert result.imbalance == pytest.approx(11 / 6.5)

    def test_evaluate_standalone(self):
        assignment = {0: 0, 1: 0, 2: 1, 3: 1}
        edges = [PartitionEdge(0, 1), PartitionEdge(1, 2), PartitionEdge(2, 3)]
        result = evaluate(assignment, edges)
        assert result.cut_edges == 1
        assert result.edge_cut == 1.0

    def test_ranks_grouping(self):
        result = partition(list(range(4)), [], 2, strategy="round_robin")
        groups = result.ranks()
        assert groups[0] == [0, 2]
        assert groups[1] == [1, 3]


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=60),
        ranks=st.integers(min_value=1, max_value=8),
        strategy=st.sampled_from(STRATEGIES),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=80)
    def test_partition_is_complete_and_disjoint(self, n, ranks, strategy, seed):
        if ranks > n:
            ranks = n
        import random

        rng = random.Random(seed)
        nodes = list(range(n))
        edges = [
            PartitionEdge(rng.randrange(n), rng.randrange(n),
                          latency=rng.randint(1, 100))
            for _ in range(min(n * 2, 80))
        ]
        edges = [e for e in edges if e.u != e.v]
        result = partition(nodes, edges, ranks, strategy=strategy)
        # Complete: every node exactly once.
        assert set(result.assignment) == set(nodes)
        # Valid ranks.
        assert all(0 <= r < ranks for r in result.assignment.values())
        # Metrics internally consistent.
        recomputed = evaluate(result.assignment, edges, num_ranks=ranks)
        assert recomputed.cut_edges == result.cut_edges
        assert recomputed.edge_cut == result.edge_cut

    @given(
        n=st.integers(min_value=4, max_value=40),
        ranks=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40)
    def test_deterministic(self, n, ranks):
        nodes = list(range(n))
        edges = ring_edges(n)
        a = partition(nodes, edges, ranks, strategy="bfs")
        b = partition(nodes, edges, ranks, strategy="bfs")
        assert a.assignment == b.assignment


def _lookahead(result):
    """A cut's lookahead, with no cut at all as unbounded."""
    if result.min_cut_latency is None:
        return float("inf")
    return result.min_cut_latency


class TestLookaheadFirst:
    """``bfs`` against plain BFS growth, its fallback."""

    @given(
        n=st.integers(min_value=1, max_value=40),
        ranks=st.integers(min_value=1, max_value=4),
        classes=st.lists(st.integers(min_value=1, max_value=50),
                         min_size=1, max_size=4, unique=True),
        seed=st.integers(min_value=0, max_value=10_000),
        density=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_worse_than_plain_bfs(self, n, ranks, classes, seed,
                                        density):
        import random

        rng = random.Random(seed)
        ranks = min(ranks, n)
        nodes = list(range(n))
        weights = {v: rng.choice([0.5, 1.0, 1.0, 2.0, 4.0]) for v in nodes}
        edges = [PartitionEdge(rng.randrange(n), rng.randrange(n),
                               weight=rng.choice([1.0, 2.0, 5.0]),
                               latency=rng.choice(classes) * 1000)
                 for _ in range(int(n * density))]
        plain = evaluate(_bfs_grow(nodes, edges, weights, ranks), edges,
                         weights, ranks)
        result = partition(nodes, edges, ranks, strategy="bfs",
                           weights=weights)
        assert _lookahead(result) >= _lookahead(plain)
        assert result.imbalance <= max(1.10, plain.imbalance)
        if len({e.latency for e in edges}) <= 1:
            assert result.assignment == plain.assignment
        again = partition(nodes, edges, ranks, strategy="bfs",
                          weights=weights)
        assert list(again.assignment.items()) == list(result.assignment.items())

    def test_supernodes_grow_in_config_order(self):
        # A ring of four fast pairs joined by slow links.  Plain BFS
        # growth from node 0 takes 0, 1, 7, 2 and cuts two fast links;
        # the rule grows rank 0 from the first pair onwards.
        nodes = list(range(8))
        edges = [PartitionEdge(i, (i + 1) % 8, latency=1 if i % 2 == 0 else 10)
                 for i in range(8)]
        result = partition(nodes, edges, 2, strategy="bfs")
        assert result.assignment == {0: 0, 1: 0, 2: 0, 3: 0,
                                     4: 1, 5: 1, 6: 1, 7: 1}
        assert result.min_cut_latency == 10

    def test_benchmark_torus_keeps_its_fastest_links(self):
        """The 2-rank benchmark machine: a 64-rank HPCCG torus (160
        components; 208 links at 5, 10 and 20 ns)."""
        from repro.miniapps import build_app_machine

        graph = build_app_machine("miniapps.HPCCG", 64, iterations=2)
        nodes, edges, weights = graph.partition_inputs()
        result = partition(nodes, edges, 2, strategy="bfs", weights=weights)
        assert result.cut_edges == 30
        assert result.min_cut_latency == 20_000
        assert result.imbalance == 1.0
