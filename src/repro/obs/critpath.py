"""Simulated critical-path analysis over causal shards.

Consumes the per-rank JSONL shards :mod:`repro.obs.causal` writes
(``<base>.causal.rank<k>``) and walks the causality DAG *backward* from
the run's last event (or from the latest event of a named component) to
produce the simulated critical path: the chain of events that bounded
the end time.  Along the path it attributes simulated latency to
component classes and reports the cross-rank *cut edges* the path
crossed, ranked by path weight — the feedback signal
``repro.core.partition`` consumers need to decide which links are too
hot to cut (ROADMAP item 1).

Node identity is ``(rank, seq)``; because per-rank event streams are
deterministic across backends (the determinism suite pins them), the
path reported for a processes run is identical to the serial backend's
for the same configuration.

CLI: ``python -m repro obs critpath <metrics> [--json out] [--top N]
[--component NAME]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .causal import find_causal_shards

#: node id within the cross-rank causality DAG
NodeId = Tuple[int, int]  # (rank, seq)


class CausalAnalysisError(ValueError):
    """Raised when causal shards are missing or unusable."""


@dataclass
class CausalGraph:
    """The loaded causality DAG: nodes, cross-rank joins, link table."""

    base: Path
    #: (rank, seq) -> [time_ps, priority, cause_seq|None, comp_idx, evt_idx]
    nodes: Dict[NodeId, list] = field(default_factory=dict)
    #: (src_rank, send_seq) -> [cause_seq|None, link_id, deliver_ps]
    sends: Dict[Tuple[int, int], list] = field(default_factory=dict)
    #: (rank, seq) -> (link_id, send_seq) for cross-rank arrivals
    recvs: Dict[NodeId, Tuple[int, int]] = field(default_factory=dict)
    #: link_id -> {name, latency_ps, rank_a, rank_b}
    links: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: per-rank interned [name, class] component table
    components: Dict[int, List[List[str]]] = field(default_factory=dict)
    #: per-rank interned event-class-name table
    events: Dict[int, List[str]] = field(default_factory=dict)
    ranks: List[int] = field(default_factory=list)

    def component_of(self, node: NodeId) -> Tuple[str, str]:
        """``(component name, component class)`` of a node."""
        rank, _seq = node
        comp_idx = self.nodes[node][3]
        table = self.components.get(rank, [])
        if 0 <= comp_idx < len(table):
            name, cls = table[comp_idx]
            return name, cls
        return "?", "?"

    def event_of(self, node: NodeId) -> str:
        rank, _seq = node
        evt_idx = self.nodes[node][4]
        table = self.events.get(rank, [])
        if 0 <= evt_idx < len(table):
            return table[evt_idx]
        return "?"


def load_causal(base: Union[str, Path]) -> CausalGraph:
    """Load every ``<base>.causal.rank*`` shard into one graph."""
    base = Path(base)
    shards = find_causal_shards(base)
    if not shards:
        raise CausalAnalysisError(
            f"no causal shards found at {base}.causal.rank* — "
            "was the run started with --trace-causal?")
    graph = CausalGraph(base=base)
    for rank, path in sorted(shards.items()):
        graph.ranks.append(rank)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail — keep what parsed
                kind = record.get("kind")
                if kind == "causal_nodes":
                    for row in record.get("rows", ()):
                        graph.nodes[(rank, row[0])] = row[1:]
                elif kind == "causal_send":
                    for row in record.get("rows", ()):
                        # row = [cause, link_id, send_seq, when]
                        graph.sends[(rank, row[2])] = [row[0], row[1],
                                                       row[3]]
                elif kind == "causal_recv":
                    for row in record.get("rows", ()):
                        # row = [seq, link_id, send_seq, when]
                        graph.recvs[(rank, row[0])] = (row[1], row[2])
                elif kind == "causal_start":
                    for link_id, info in record.get("links", {}).items():
                        graph.links[int(link_id)] = info
                elif kind == "causal_end":
                    graph.components[rank] = record.get("components", [])
                    graph.events[rank] = record.get("events", [])
    if not graph.nodes:
        raise CausalAnalysisError(
            f"causal shards at {base}.causal.rank* hold no event nodes")
    return graph


@dataclass
class CriticalPath:
    """One backward walk: the path, its attributions, its cut edges."""

    #: oldest-first path nodes (dicts; see ``_node_dict``)
    nodes: List[Dict[str, Any]]
    #: total simulated span covered by the path (ps)
    span_ps: int
    #: component-class -> {nodes, weight_ps} latency attribution
    by_class: Dict[str, Dict[str, Any]]
    #: cross-rank cut edges on the path, ranked by path weight
    cut_edges: List[Dict[str, Any]]
    #: how the end node was chosen ("run-end" or "component:<name>")
    anchor: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-critpath/1",
            "anchor": self.anchor,
            "span_ps": self.span_ps,
            "length": len(self.nodes),
            "by_class": self.by_class,
            "cut_edges": self.cut_edges,
            "path": self.nodes,
        }

    def render(self, top: Optional[int] = None) -> str:
        """Human-readable report (``obs critpath`` text output)."""
        lines: List[str] = []
        if not self.nodes:
            return "critical path: empty"
        head, tail = self.nodes[0], self.nodes[-1]
        lines.append(
            f"critical path ({self.anchor}): {len(self.nodes)} events, "
            f"span {self.span_ps} ps "
            f"(rank {head['rank']} seq {head['seq']} @{head['time_ps']} ps"
            f" -> rank {tail['rank']} seq {tail['seq']} @{tail['time_ps']} ps)")
        lines.append("")
        lines.append("latency by component class:")
        for cls, agg in sorted(self.by_class.items(),
                               key=lambda kv: (-kv[1]["weight_ps"], kv[0])):
            lines.append(f"  {cls:<28} {agg['nodes']:>6} events "
                         f"{agg['weight_ps']:>12} ps")
        lines.append("")
        if self.cut_edges:
            lines.append("cut edges (cross-rank hops on the path, "
                         "by path weight):")
            for edge in self.cut_edges:
                lines.append(
                    f"  {edge['name']:<40} rank{edge['rank_a']}<->"
                    f"rank{edge['rank_b']} {edge['crossings']:>4} crossings "
                    f"{edge['weight_ps']:>10} ps")
        else:
            lines.append("cut edges: none (path never crossed ranks)")
        lines.append("")
        shown = self.nodes if top is None else self.nodes[-top:]
        if len(shown) < len(self.nodes):
            lines.append(f"path (last {len(shown)} of {len(self.nodes)} "
                         "events, oldest first):")
        else:
            lines.append("path (oldest first):")
        for node in shown:
            marker = " <<cut>>" if node.get("via_link") is not None else ""
            lines.append(
                f"  @{node['time_ps']:>12} ps p{node['priority']:<3} "
                f"rank {node['rank']} seq {node['seq']:<8} "
                f"{node['component']} [{node['comp_class']}] "
                f"{node['event']}{marker}")
        return "\n".join(lines)


def _node_dict(graph: CausalGraph, node: NodeId,
               via_link: Optional[int]) -> Dict[str, Any]:
    time_ps, priority, cause, _comp, _evt = graph.nodes[node]
    name, cls = graph.component_of(node)
    return {
        "rank": node[0],
        "seq": node[1],
        "time_ps": time_ps,
        "priority": priority,
        "cause": cause,
        "component": name,
        "comp_class": cls,
        "event": graph.event_of(node),
        #: link id of the cross-rank hop that *produced* this node
        "via_link": via_link,
    }


def _pick_end(graph: CausalGraph,
              component: Optional[str]) -> Tuple[NodeId, str]:
    """The walk anchor: latest event overall, or of a named component.

    "Latest" orders on ``(time, priority, seq, rank)`` — all four are
    backend-independent, so serial and processes runs anchor on the
    same node.
    """
    best: Optional[NodeId] = None
    best_key = None
    for node, row in graph.nodes.items():
        if component is not None:
            if graph.component_of(node)[0] != component:
                continue
        key = (row[0], row[1], node[1], node[0])
        if best_key is None or key > best_key:
            best_key = key
            best = node
    if best is None:
        raise CausalAnalysisError(
            f"no captured events for component {component!r}")
    anchor = "run-end" if component is None else f"component:{component}"
    return best, anchor


def critical_path(graph: CausalGraph, *,
                  component: Optional[str] = None) -> CriticalPath:
    """Walk backward from the anchor to the root that caused it."""
    end, anchor = _pick_end(graph, component)
    chain: List[Tuple[NodeId, Optional[int]]] = []  # (node, via_link)
    seen = set()
    node: Optional[NodeId] = end
    via: Optional[int] = None
    while node is not None and node not in seen:
        seen.add(node)
        chain.append((node, via))
        rank, _seq = node
        cause = graph.nodes[node][2]
        if cause is not None and (rank, cause) in graph.nodes:
            node, via = (rank, cause), None
            continue
        # No local cause: either a root, or a stitched cross-rank arrival.
        recv = graph.recvs.get(node)
        node, via = None, None
        if recv is not None:
            link_id, send_seq = recv
            link = graph.links.get(link_id)
            if link is not None:
                src_rank = (link["rank_a"] if rank == link["rank_b"]
                            else link["rank_b"])
                send = graph.sends.get((src_rank, send_seq))
                if send is not None and send[0] is not None \
                        and (src_rank, send[0]) in graph.nodes:
                    node, via = (src_rank, send[0]), link_id
    chain.reverse()

    nodes = []
    for index, (nid, _via) in enumerate(chain):
        # via_link on a node = the cut edge taken to go FROM its parent
        # TO it; chain stored the hop on the parent during the backward
        # walk, so shift it forward by one.
        via_link = chain[index - 1][1] if index > 0 else None
        nodes.append(_node_dict(graph, nid, via_link))

    by_class: Dict[str, Dict[str, Any]] = {}
    cut_agg: Dict[int, Dict[str, Any]] = {}
    prev_time: Optional[int] = None
    for node in nodes:
        cls = node["comp_class"]
        agg = by_class.setdefault(cls, {"nodes": 0, "weight_ps": 0})
        agg["nodes"] += 1
        if prev_time is not None:
            dt = node["time_ps"] - prev_time
            agg["weight_ps"] += dt
            link_id = node["via_link"]
            if link_id is not None:
                link = graph.links.get(link_id, {})
                edge = cut_agg.setdefault(link_id, {
                    "link_id": link_id,
                    "name": link.get("name", f"link{link_id}"),
                    "latency_ps": link.get("latency_ps"),
                    "rank_a": link.get("rank_a"),
                    "rank_b": link.get("rank_b"),
                    "crossings": 0,
                    "weight_ps": 0,
                })
                edge["crossings"] += 1
                edge["weight_ps"] += dt
        prev_time = node["time_ps"]

    cut_edges = sorted(cut_agg.values(),
                       key=lambda e: (-e["weight_ps"], -e["crossings"],
                                      e["link_id"]))
    span = nodes[-1]["time_ps"] - nodes[0]["time_ps"] if nodes else 0
    return CriticalPath(nodes=nodes, span_ps=span, by_class=by_class,
                        cut_edges=cut_edges, anchor=anchor)


def analyze(base: Union[str, Path], *,
            component: Optional[str] = None) -> CriticalPath:
    """Load shards for ``base`` and compute the critical path."""
    return critical_path(load_causal(base), component=component)


def cut_edge_report(path: CriticalPath) -> List[Dict[str, Any]]:
    """The ranked cut-edge table alone (for partition consumers)."""
    return list(path.cut_edges)
