"""Component-graph partitioning for parallel simulation.

Before a parallel run, the component graph must be split across ranks.
The quality of the split matters three ways: *balance* determines how
evenly work is spread, *edge cut* determines how many events cross rank
boundaries (each crossing is serialised through the epoch exchange),
and the smallest latency among cut links is the conservative
lookahead, the width of every epoch.  A cut that spares the fastest
links buys wider, and so fewer, epochs.

Three strategies:

* ``linear``      — contiguous slices in insertion order.  Matches SST's
  default "self partitioner" behaviour; excellent for configs built
  topology-major (e.g. a torus built plane by plane).
* ``round_robin`` — node *i* to rank ``i % n``.  Worst-case cut; the
  control baseline, and the way tests force cross-rank traffic.
* ``bfs``         — lookahead-first breadth-first growth.  Plain BFS
  growth (regions grown from the first unassigned node until a weight
  quota is reached) is the fallback; on top of it, for each link
  latency above the fallback's lookahead, largest first, every faster
  link is contracted into a supernode and the ranks are grown over the
  supernodes instead.  The first such layout that stays within the
  balance tolerance (or the fallback's own imbalance, if that is
  worse) and raises the lookahead wins.  A graph with one latency
  class, or no links, gets the plain BFS layout.

Every strategy is static and deterministic: the same graph, rank count
and weights give the same assignment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

NodeId = Hashable


@dataclass(frozen=True)
class PartitionEdge:
    """An undirected edge of the component graph.

    ``weight`` models expected traffic (events/unit time); ``latency``
    is the link latency in ps (drives the lookahead of a cut).
    """

    u: NodeId
    v: NodeId
    weight: float = 1.0
    latency: int = 1


@dataclass
class PartitionResult:
    """Assignment of nodes to ranks, plus quality metrics."""

    assignment: Dict[NodeId, int]
    num_ranks: int
    edge_cut: float  #: sum of weights of edges crossing ranks
    cut_edges: int  #: number of edges crossing ranks
    min_cut_latency: Optional[int]  #: smallest latency among cut edges (lookahead)
    imbalance: float  #: max rank weight / ideal rank weight

    def rank_of(self, node: NodeId) -> int:
        return self.assignment[node]

    def ranks(self) -> List[List[NodeId]]:
        """Nodes grouped per rank, preserving assignment-dict order."""
        groups: List[List[NodeId]] = [[] for _ in range(self.num_ranks)]
        for node, rank in self.assignment.items():
            groups[rank].append(node)
        return groups


STRATEGIES = ("linear", "round_robin", "bfs")


def partition(
    nodes: Sequence[NodeId],
    edges: Iterable[PartitionEdge],
    num_ranks: int,
    strategy: str = "linear",
    weights: Optional[Dict[NodeId, float]] = None,
    balance_tolerance: float = 1.10,
) -> PartitionResult:
    """Partition ``nodes`` into ``num_ranks`` groups.

    Parameters
    ----------
    nodes:
        All component ids, in configuration order (order matters for
        the ``linear`` strategy).
    edges:
        Undirected links between components.
    weights:
        Per-node work estimate (default 1.0 each).
    balance_tolerance:
        For ``bfs``: the largest imbalance (rank weight / ideal weight)
        a lookahead-raising layout may have, unless plain BFS growth is
        already less balanced.
    """
    nodes = list(nodes)
    edge_list = list(edges)
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    if num_ranks > len(nodes) and nodes:
        raise ValueError(
            f"cannot split {len(nodes)} nodes across {num_ranks} ranks"
        )
    node_weight = {n: (weights or {}).get(n, 1.0) for n in nodes}
    known = set(nodes)
    for e in edge_list:
        if e.u not in known or e.v not in known:
            raise ValueError(f"edge {e.u!r}--{e.v!r} references unknown node")

    if num_ranks == 1:
        assignment = {n: 0 for n in nodes}
    elif strategy == "linear":
        assignment = _linear(nodes, node_weight, num_ranks)
    elif strategy == "round_robin":
        assignment = {n: i % num_ranks for i, n in enumerate(nodes)}
    elif strategy == "bfs":
        return _lookahead_first(nodes, edge_list, node_weight, num_ranks,
                                balance_tolerance)
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}; options: {STRATEGIES}")

    return evaluate(assignment, edge_list, node_weight, num_ranks)


def evaluate(
    assignment: Dict[NodeId, int],
    edges: Iterable[PartitionEdge],
    node_weight: Optional[Dict[NodeId, float]] = None,
    num_ranks: Optional[int] = None,
) -> PartitionResult:
    """Compute quality metrics for an arbitrary assignment."""
    edge_list = list(edges)
    if num_ranks is None:
        num_ranks = (max(assignment.values()) + 1) if assignment else 1
    node_weight = node_weight or {n: 1.0 for n in assignment}
    cut_weight = 0.0
    cut_count = 0
    min_latency: Optional[int] = None
    for e in edge_list:
        if assignment[e.u] != assignment[e.v]:
            cut_weight += e.weight
            cut_count += 1
            if min_latency is None or e.latency < min_latency:
                min_latency = e.latency
    rank_weights = [0.0] * num_ranks
    for node, rank in assignment.items():
        rank_weights[rank] += node_weight.get(node, 1.0)
    total = sum(rank_weights)
    ideal = total / num_ranks if num_ranks else 0.0
    imbalance = (max(rank_weights) / ideal) if ideal > 0 else 1.0
    return PartitionResult(
        assignment=assignment,
        num_ranks=num_ranks,
        edge_cut=cut_weight,
        cut_edges=cut_count,
        min_cut_latency=min_latency,
        imbalance=imbalance,
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

def _linear(nodes: Sequence[NodeId], node_weight: Dict[NodeId, float],
            num_ranks: int) -> Dict[NodeId, int]:
    total = sum(node_weight[n] for n in nodes)
    ideal = total / num_ranks
    assignment: Dict[NodeId, int] = {}
    rank = 0
    acc = 0.0
    for n in nodes:
        # Close a slice when it has met its quota and ranks remain.
        if acc >= ideal and rank < num_ranks - 1:
            rank += 1
            acc = 0.0
        assignment[n] = rank
        acc += node_weight[n]
    return assignment


def _build_graph(nodes: Sequence[NodeId], edges: List[PartitionEdge]
                 ) -> Dict[NodeId, Dict[NodeId, float]]:
    """Undirected adjacency ``{node: {neighbour: weight}}``.

    Insertion-ordered (``nodes`` first, then nodes seen only in edges),
    neighbours in first-edge order; parallel edges sum their weights and
    a self-loop counts once.
    """
    graph: Dict[NodeId, Dict[NodeId, float]] = {n: {} for n in nodes}
    for e in edges:
        nbrs_u = graph.setdefault(e.u, {})
        nbrs_v = graph.setdefault(e.v, {})
        nbrs_u[e.v] = nbrs_u.get(e.v, 0.0) + e.weight
        if e.u != e.v:
            nbrs_v[e.u] = nbrs_v.get(e.u, 0.0) + e.weight
    return graph


def _bfs_grow(nodes: Sequence[NodeId], edges: List[PartitionEdge],
              node_weight: Dict[NodeId, float], num_ranks: int) -> Dict[NodeId, int]:
    graph = _build_graph(nodes, edges)
    total = sum(node_weight.values())
    ideal = total / num_ranks
    assignment: Dict[NodeId, int] = {}
    unassigned = list(nodes)  # preserves deterministic order
    unassigned_set = set(nodes)
    # Nodes only ever leave unassigned_set, so the first still-unassigned
    # node in configuration order is found by a cursor that never moves
    # back: every seed/jump lookup together is one pass over the nodes.
    cursor = 0

    def first_unassigned() -> Optional[NodeId]:
        nonlocal cursor
        while cursor < len(unassigned) and unassigned[cursor] not in unassigned_set:
            cursor += 1
        return unassigned[cursor] if cursor < len(unassigned) else None

    for rank in range(num_ranks):
        if not unassigned_set:
            break
        remaining_ranks = num_ranks - rank
        quota = ideal if rank < num_ranks - 1 else float("inf")
        # Seed from the first unassigned node (deterministic).
        seed = first_unassigned()
        frontier = deque([seed])
        acc = 0.0
        seen = {seed}
        while frontier and (acc < quota or remaining_ranks == 1):
            node = frontier.popleft()
            if node not in unassigned_set:
                continue
            assignment[node] = rank
            unassigned_set.discard(node)
            acc += node_weight[node]
            if acc >= quota and remaining_ranks > 1:
                break
            for nbr in graph[node]:
                if nbr in unassigned_set and nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
            # If the region ran out of frontier but quota is unmet,
            # jump to the next unassigned node (disconnected graphs).
            if not frontier and acc < quota:
                jump = first_unassigned()
                if jump is not None:
                    frontier.append(jump)
                    seen.add(jump)
    # Anything left (can happen with tight quotas) goes to the last rank.
    for n in unassigned:
        if n in unassigned_set:
            assignment[n] = num_ranks - 1
            unassigned_set.discard(n)
    return assignment


def _lookahead_first(nodes: Sequence[NodeId], edges: List[PartitionEdge],
                     node_weight: Dict[NodeId, float], num_ranks: int,
                     balance_tolerance: float) -> PartitionResult:
    """``bfs``: plain BFS growth, unless a contracted growth keeps the
    fastest links inside ranks at acceptable balance (module docstring)."""
    plain = evaluate(_bfs_grow(nodes, edges, node_weight, num_ranks),
                     edges, node_weight, num_ranks)
    if plain.min_cut_latency is None:
        return plain
    tolerance = max(balance_tolerance, plain.imbalance)
    for latency in sorted({e.latency for e in edges
                           if e.latency > plain.min_cut_latency}, reverse=True):
        # Every link faster than ``latency`` is inside a supernode, so
        # any cut this yields already beats the plain lookahead.
        assignment = _contracted_bfs(nodes, edges, node_weight, num_ranks, latency)
        if assignment is None:
            continue
        result = evaluate(assignment, edges, node_weight, num_ranks)
        if result.imbalance <= tolerance:
            return result
    return plain


def _contracted_bfs(nodes: Sequence[NodeId], edges: List[PartitionEdge],
                    node_weight: Dict[NodeId, float], num_ranks: int,
                    latency: int) -> Optional[Dict[NodeId, int]]:
    """BFS growth over the supernodes left by contracting every link
    faster than ``latency``; None if fewer supernodes than ranks remain.

    Supernodes are numbered in configuration order of their first
    member and carry their members' summed weight; links between two
    supernodes keep their weight (parallel ones sum in ``_build_graph``).
    """
    parent: Dict[NodeId, NodeId] = {n: n for n in nodes}

    def find(n: NodeId) -> NodeId:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for e in edges:
        if e.latency < latency:
            parent[find(e.u)] = find(e.v)
    index: Dict[NodeId, int] = {}
    supernode_of: Dict[NodeId, int] = {}
    for n in nodes:
        supernode_of[n] = index.setdefault(find(n), len(index))
    if len(index) < num_ranks:
        return None
    super_weight = dict.fromkeys(range(len(index)), 0.0)
    for n in nodes:
        super_weight[supernode_of[n]] += node_weight[n]
    super_edges = [PartitionEdge(supernode_of[e.u], supernode_of[e.v], e.weight)
                   for e in edges if supernode_of[e.u] != supernode_of[e.v]]
    grown = _bfs_grow(range(len(index)), super_edges, super_weight, num_ranks)
    return {n: grown[supernode_of[n]] for n in nodes}
