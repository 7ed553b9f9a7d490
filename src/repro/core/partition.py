"""Component-graph partitioning for parallel simulation.

Before a parallel run, the component graph must be split across ranks.
The quality of the split matters twice: *balance* determines how evenly
work is spread, and *edge cut* determines how many events cross rank
boundaries (each crossing is serialised through the epoch exchange).
The minimum latency among cut links also fixes the conservative
lookahead, so a partitioner that avoids cutting low-latency links
directly buys longer epochs.

Four strategies (experiment ENG-2 ablates them):

* ``linear``      — contiguous slices in insertion order.  Matches SST's
  default "self partitioner" behaviour; excellent for configs built
  topology-major (e.g. a torus built plane by plane).
* ``round_robin`` — node *i* to rank ``i % n``.  Worst-case cut; the
  control baseline.
* ``bfs``         — grow regions breadth-first until a weight quota is
  reached; keeps neighbourhoods together without geometry knowledge.
* ``kl``          — ``bfs`` followed by Kernighan–Lin-style boundary
  refinement passes that greedily move nodes to reduce the weighted cut
  while respecting a balance tolerance.

All strategies also accept a :class:`PartitionProfile` of *observed*
feedback from a previous run (per-component work multipliers from the
imbalance report, per-link traffic from the causal tracer's cut-edge
report) which is folded into the configured node and edge weights
before partitioning — the profile-guided repartitioning loop driven by
``python -m repro obs partition-advise``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

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


@dataclass
class PartitionProfile:
    """Observed-run feedback folded into a :func:`partition` call.

    Built from a recorded run's telemetry (see
    :mod:`repro.obs.advise`): per-rank busy time becomes per-component
    work multipliers — components that lived on straggler ranks look
    heavier, so balance-aware strategies spread them out — and the
    causal tracer's cut-edge report becomes extra edge weight, so the
    KL refinement pulls the endpoints of observed-chatty cut links onto
    one rank.  Multipliers scale the configured node weights; traffic
    adds to the configured edge weights (keyed by the unordered
    endpoint pair).
    """

    #: node -> observed work multiplier (missing nodes default to 1.0)
    node_multipliers: Dict[NodeId, float] = field(default_factory=dict)
    #: frozenset({u, v}) -> observed traffic weight added to the edge
    edge_traffic: Dict[FrozenSet[NodeId], float] = field(default_factory=dict)

    def scaled_node_weights(
        self, node_weight: Dict[NodeId, float]
    ) -> Dict[NodeId, float]:
        return {n: w * self.node_multipliers.get(n, 1.0)
                for n, w in node_weight.items()}

    def weighted_edges(
        self, edges: List[PartitionEdge]
    ) -> List[PartitionEdge]:
        if not self.edge_traffic:
            return edges
        out: List[PartitionEdge] = []
        for e in edges:
            extra = self.edge_traffic.get(frozenset((e.u, e.v)), 0.0)
            if extra:
                e = PartitionEdge(u=e.u, v=e.v, weight=e.weight + extra,
                                  latency=e.latency)
            out.append(e)
        return out


STRATEGIES = ("linear", "round_robin", "bfs", "kl")


def partition(
    nodes: Sequence[NodeId],
    edges: Iterable[PartitionEdge],
    num_ranks: int,
    strategy: str = "linear",
    weights: Optional[Dict[NodeId, float]] = None,
    balance_tolerance: float = 1.10,
    refine_passes: int = 4,
    profile: Optional[PartitionProfile] = None,
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
        For ``kl``: maximum allowed (rank weight / ideal weight).
    profile:
        Observed-run feedback (:class:`PartitionProfile`) multiplied
        onto node weights and added onto edge weights before
        partitioning.  The returned result's quality metrics are
        computed against the profiled weights.
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
    if profile is not None:
        node_weight = profile.scaled_node_weights(node_weight)
        edge_list = profile.weighted_edges(edge_list)

    if num_ranks == 1:
        assignment = {n: 0 for n in nodes}
    elif strategy == "linear":
        assignment = _linear(nodes, node_weight, num_ranks)
    elif strategy == "round_robin":
        assignment = {n: i % num_ranks for i, n in enumerate(nodes)}
    elif strategy == "bfs":
        assignment = _bfs_grow(nodes, edge_list, node_weight, num_ranks)
    elif strategy == "kl":
        assignment = _bfs_grow(nodes, edge_list, node_weight, num_ranks)
        assignment = _kl_refine(
            assignment, nodes, edge_list, node_weight, num_ranks,
            balance_tolerance, refine_passes,
        )
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


def _kl_refine(assignment: Dict[NodeId, int], nodes: Sequence[NodeId],
               edges: List[PartitionEdge], node_weight: Dict[NodeId, float],
               num_ranks: int, balance_tolerance: float,
               passes: int) -> Dict[NodeId, int]:
    graph = _build_graph(nodes, edges)
    assignment = dict(assignment)
    total = sum(node_weight.values())
    ideal = total / num_ranks
    limit = ideal * balance_tolerance
    rank_weights = [0.0] * num_ranks
    for n, r in assignment.items():
        rank_weights[r] += node_weight[n]

    for _ in range(passes):
        moved = False
        for node in nodes:
            home = assignment[node]
            # Tally edge weight toward each rank among neighbours.
            afinity: Dict[int, float] = {}
            for nbr, w in graph[node].items():
                afinity[assignment[nbr]] = afinity.get(assignment[nbr], 0.0) + w
            if not afinity:
                continue
            internal = afinity.get(home, 0.0)
            # Best candidate rank by gain, deterministic tie-break by rank id.
            best_rank, best_gain = home, 0.0
            for rank in sorted(afinity):
                if rank == home:
                    continue
                gain = afinity[rank] - internal
                if gain > best_gain:
                    weight = node_weight[node]
                    if rank_weights[rank] + weight <= limit:
                        best_rank, best_gain = rank, gain
            if best_rank != home:
                assignment[node] = best_rank
                rank_weights[home] -= node_weight[node]
                rank_weights[best_rank] += node_weight[node]
                moved = True
        if not moved:
            break
    return assignment
