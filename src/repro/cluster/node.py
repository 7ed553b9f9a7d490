"""The machine: a pool of cluster nodes with placement and energy.

:class:`NodePool` executes :class:`~repro.cluster.events.JobLaunch`
events from the scheduler: it picks concrete node ids (placement),
holds them for the job's *actual* runtime, charges node energy through
the :mod:`repro.power` core model, and sends a
:class:`~repro.cluster.events.JobCompletion` back.

Placement is allocation-aware when ``topology="torus"``: node ids are
coordinates on a 2-D torus (the :mod:`repro.network` coordinate
helpers) and an allocation greedily picks the free nodes closest — by
torus hop distance — to a seed node, so the span statistic measures
how fragmented the machine got under each scheduling policy.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.component import Component, param, port, stat, state
from ..core.registry import register
from ..network.router import unflatten
from ..power.mcpat_lite import CorePowerModel
from .events import Job, JobCompletion, JobLaunch

PS_PER_S = 1_000_000_000_000
#: memoized hop-row entries kept per pool before the memo starts over
#: (bounds it at ~32 MB on pools too large to keep every row)
_HOP_CACHE_CELLS = 1 << 22


def _torus_hops(a: Tuple[int, ...], b: Tuple[int, ...],
                dims: Tuple[int, ...]) -> int:
    hops = 0
    for x, y, size in zip(a, b, dims):
        d = abs(x - y)
        hops += min(d, size - d)
    return hops


@register("cluster.NodePool")
class NodePool(Component):
    """Allocates nodes to launched jobs and times out their runtimes.

    Node energy uses :class:`~repro.power.mcpat_lite.CorePowerModel` at
    full occupancy: every allocated node retires ``issue_width``
    instructions per cycle for the job's duration, plus leakage — so
    the pool's ``energy_j`` statistic is directly comparable across
    scheduling policies on the same trace (less idle time, less total
    leakage per unit of work).
    """

    sched = port("launches in from / completions out to the scheduler",
                 event=JobLaunch, handler="on_launch")

    nodes = param(16, doc="node count")
    topology = param("torus", choices=("flat", "torus"),
                     doc="placement model: anonymous pool or 2-D torus")
    torus_x = param(0, doc="torus X extent (0 = near-square auto)")
    issue_width = param(4, doc="per-node core issue width (power model)")
    freq_hz = param("2GHz", kind="freq", doc="per-node core frequency")

    _free = state(list, doc="free node ids (kept placement-sorted)")
    _coords = state(list, save=False,
                    doc="node id -> torus coordinates, computed at the "
                        "first torus placement")
    _hop_rows = state(dict, save=False,
                      doc="node id -> hop distance to every node id, "
                          "memoized per node (torus placement)")
    _allocs = state(dict, doc="job id -> allocated node id tuple")
    _busy = state(0, gauge=True, doc="allocated node count")
    _energy_j = state(0.0, gauge=True, doc="cumulative node energy, J")

    s_energy = stat.accumulator("energy_j", doc="per-job node energy, J")
    s_node_busy_ps = stat.counter("node_busy_ps",
                                  doc="sum of node-picoseconds allocated")
    s_span = stat.accumulator("alloc_span",
                              doc="max intra-allocation hop distance "
                                  "(torus placement quality)")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        if self.topology == "torus":
            x = self.torus_x
            if x <= 0:
                x = max(1, int(self.nodes ** 0.5))
                while self.nodes % x:
                    x -= 1
            if self.nodes % x:
                raise ValueError(
                    f"{name}: torus_x={x} does not divide nodes={self.nodes}")
            self._dims: Tuple[int, ...] = (x, self.nodes // x)
        else:
            self._dims = (self.nodes,)
        self._model = CorePowerModel(self.issue_width, self.freq_hz)
        self._free = list(range(self.nodes))

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _hop_row(self, node: int) -> List[int]:
        row = self._hop_rows.get(node)
        if row is None:
            if len(self._hop_rows) * self.nodes >= _HOP_CACHE_CELLS:
                self._hop_rows.clear()
            dims, coords = self._dims, self._coords
            if not coords:
                coords.extend(unflatten(n, dims) for n in range(self.nodes))
            here = coords[node]
            row = [_torus_hops(here, there, dims) for there in coords]
            self._hop_rows[node] = row
        return row

    def _place(self, want: int) -> Tuple[int, ...]:
        free = self._free
        if self.topology == "flat" or want >= len(free):
            chosen = free[:want]
        else:
            # ``free`` is ascending and the sort stable: equal hop
            # distances stay in node-id order.
            chosen = sorted(free, key=self._hop_row(free[0]).__getitem__)[:want]
        taken = set(chosen)
        self._free = [n for n in free if n not in taken]
        return tuple(chosen)

    def _span(self, alloc: Tuple[int, ...]) -> int:
        if self.topology == "flat" or len(alloc) < 2:
            return 0
        return max(max(map(self._hop_row(a).__getitem__, alloc[i + 1:]))
                   for i, a in enumerate(alloc[:-1]))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def on_launch(self, event: JobLaunch) -> None:
        job = event.job
        if job.nodes > len(self._free):
            raise RuntimeError(
                f"{self.name}: launch of job {job.job_id} wants "
                f"{job.nodes} nodes, only {len(self._free)} free — "
                f"scheduler free-node mirror out of sync")
        alloc = self._place(job.nodes)
        self._allocs[job.job_id] = alloc
        self._busy += len(alloc)
        self.s_span.add(self._span(alloc))
        self.schedule(job.runtime_ps, self._complete, job)

    def _complete(self, job: Job) -> None:
        alloc = self._allocs.pop(job.job_id)
        self._free.extend(alloc)
        self._free.sort()
        self._busy -= len(alloc)
        secs = job.runtime_ps / PS_PER_S
        instructions = self.issue_width * self.freq_hz * secs
        joules = len(alloc) * self._model.energy_j(instructions, secs)
        self._energy_j += joules
        self.s_energy.add(joules)
        self.s_node_busy_ps.add(len(alloc) * job.runtime_ps)
        self.port("sched").send(JobCompletion(job, node_ids=alloc))
