"""The cluster scheduler and its pluggable policy subcomponents.

:class:`Scheduler` owns the job queue and the free-node mirror; *which*
queued jobs start on each scheduling pass is delegated to a
:class:`SchedPolicy` subcomponent loaded through a declared
:func:`~repro.core.describe.slot` — swapping FCFS for EASY backfill is
a one-param config change (``{"policy": "cluster.EASYBackfill"}``),
no component-class edits, exactly SST's subcomponent idiom.

Policies:

* ``cluster.FCFS`` — strict arrival order; the queue head blocks
  everything behind it.
* ``cluster.EASYBackfill`` — FCFS plus EASY backfill: when the head
  does not fit, a reservation (*shadow time*) is computed from running
  jobs' runtime *estimates*, and later jobs may jump ahead iff they
  finish before the shadow time or fit in the nodes the reservation
  leaves spare — utilization rises, the head is never delayed.
* ``cluster.Priority`` — highest ``Job.priority`` first (ties by
  arrival), greedy first-fit.

All policy decisions are deterministic functions of (queue, free
nodes, running set), so runs — and checkpoint-restored runs mid-
backfill — are bit-reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.component import (Component, SubComponent, param, port, slot,
                              stat, state)
from ..core.registry import register
from ..core.units import SimTime
from .events import Job, JobArrival, JobCompletion, JobLaunch, JobReport


class SchedPolicy(SubComponent):
    """Interface for scheduler policy subcomponents.

    One method: :meth:`pick` returns which queued jobs to launch *now*.
    The scheduler owns all bookkeeping; a policy is a pure decision
    procedure plus its own declared statistics/state (which ride the
    parent's checkpoint and telemetry automatically).
    """

    def pick(self, queue: List[Job], free: int, now: SimTime,
             running: Dict[int, Tuple[SimTime, int]]) -> List[Job]:
        """Jobs to launch now, in launch order.

        ``queue`` is the pending list in arrival order (do not mutate),
        ``free`` the schedulable node count, ``running`` maps job id to
        ``(estimated_end_ps, nodes)`` for in-flight jobs.
        """
        raise NotImplementedError


@register("cluster.FCFS")
class FCFSPolicy(SchedPolicy):
    """First-come first-served: launch the queue prefix that fits."""

    s_scheduled = stat.counter("scheduled", doc="jobs launched")
    s_head_blocked = stat.counter("head_blocked",
                                  doc="passes ending with the head waiting")

    def pick(self, queue, free, now, running):
        picked: List[Job] = []
        for job in queue:
            if job.nodes > free:
                self.s_head_blocked.add()
                break
            picked.append(job)
            free -= job.nodes
        self.s_scheduled.add(len(picked))
        return picked


@register("cluster.EASYBackfill")
class EASYBackfillPolicy(SchedPolicy):
    """EASY backfill: FCFS head reservation + conservative hole-filling."""

    scan_limit = param(256, doc="queue prefix scanned for backfill "
                                "candidates per pass")

    _shadow_ps = state(0, gauge=True,
                       doc="current head-reservation (shadow) time")

    s_scheduled = stat.counter("scheduled", doc="jobs launched in order")
    s_backfilled = stat.counter("backfilled",
                                doc="jobs launched ahead of the head")

    def pick(self, queue, free, now, running):
        picked: List[Job] = []
        n = len(queue)
        i = 0
        while i < n and queue[i].nodes <= free:
            job = queue[i]
            picked.append(job)
            free -= job.nodes
            i += 1
        self.s_scheduled.add(i)
        if i >= n:
            self._shadow_ps = 0
            return picked

        # Reservation for the blocked head: walk estimated releases
        # until enough nodes accumulate.  ``extra`` is what the head
        # will leave unused at the shadow time — backfill jobs running
        # past the shadow may consume at most that.
        head_nodes = queue[i].nodes
        releases = [(now + j.estimate_ps, j.nodes) for j in picked]
        releases.extend(running.values())
        releases.sort()
        avail = free
        shadow = None
        extra = 0
        for end, nodes in releases:
            avail += nodes
            if avail >= head_nodes:
                shadow = end
                extra = avail - head_nodes
                break
        if shadow is None:  # head wider than the machine ever gets
            self._shadow_ps = 0
            return picked
        self._shadow_ps = shadow

        # At most ``scan_limit`` positions behind the head, by index.
        before_shadow = shadow - now
        stop = min(n, i + 1 + self.scan_limit)
        k = i + 1
        while k < stop and free > 0:
            job = queue[k]
            k += 1
            nodes = job.nodes
            if nodes > free:
                continue
            if job.estimate_ps > before_shadow:  # runs past the shadow
                if nodes > extra:
                    continue
                extra -= nodes
            picked.append(job)
            free -= nodes
        self.s_backfilled.add(len(picked) - i)
        return picked


@register("cluster.Priority")
class PriorityPolicy(SchedPolicy):
    """Highest priority first (ties by arrival), greedy first-fit.

    ``jumped`` counts a launch made while an earlier arrival in the
    window has not been launched yet in the same pass.
    """

    scan_limit = param(1024, doc="queue prefix considered per pass")

    s_scheduled = stat.counter("scheduled", doc="jobs launched")
    s_jumped = stat.counter("jumped",
                            doc="launches that bypassed an earlier arrival")

    def pick(self, queue, free, now, running):
        window = queue[:self.scan_limit]
        # Window index last: ties on the rest keep arrival order, as a
        # stable sort on the rest alone would.
        order = sorted((-j.priority, j.submit_ps, j.job_id, k)
                       for k, j in enumerate(window))
        launched = [False] * len(window)
        waiting = 0  # window index of the earliest arrival not launched
        picked: List[Job] = []
        jumped = 0
        for *_, k in order:
            job = window[k]
            if job.nodes <= free:
                if k > waiting:
                    jumped += 1
                launched[k] = True
                while waiting < len(window) and launched[waiting]:
                    waiting += 1
                picked.append(job)
                free -= job.nodes
        self.s_jumped.add(jumped)
        self.s_scheduled.add(len(picked))
        return picked


@register("cluster.Scheduler")
class Scheduler(Component):
    """Batch scheduler: queue + free-node mirror + pluggable policy.

    Event-driven: a scheduling pass runs on every arrival and every
    completion.  Jobs wider than the machine are counted ``rejected``
    and dropped.  The scheduler is a primary component — the run ends
    only when the arrival stream finished AND queue and running set are
    both empty, so every accepted job completes before exit.
    """

    submit = port("job arrivals from the source", event=JobArrival)
    pool = port("launches out to / completions in from the node pool",
                event=JobCompletion, handler="on_completion")
    report = port("per-job SLO reports to a collector", required=False)

    nodes = param(16, doc="schedulable node count (mirrors the pool)")

    policy = slot("scheduling policy", base=SchedPolicy,
                  default="cluster.FCFS",
                  choices=("cluster.FCFS", "cluster.EASYBackfill",
                           "cluster.Priority"))

    _queue = state(list, gauge=True, doc="pending jobs, arrival order")
    _running = state(dict, gauge=True,
                     doc="job id -> (estimated end, nodes) in flight")
    _free = state(0, gauge=True, doc="free-node mirror")
    _stream_done = state(False, doc="arrival stream exhausted")
    _exit_sent = state(False, doc="final report sentinel sent")

    s_submitted = stat.counter("submitted", doc="jobs accepted into the queue")
    s_started = stat.counter("started", doc="jobs launched")
    s_completed = stat.counter("completed", doc="jobs finished")
    s_rejected = stat.counter("rejected", doc="jobs wider than the machine")
    s_queue_depth = stat.accumulator("queue_depth",
                                     doc="queue length at each pass")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        self._free = self.nodes
        self.register_as_primary()

    def on_submit(self, event: JobArrival) -> None:
        if event.last:
            self._stream_done = True
            self._maybe_done()
            return
        job = event.job
        if job.nodes > self.nodes:
            self.s_rejected.add()
            self._maybe_done()
            return
        self.s_submitted.add()
        self._queue.append(job)
        self._dispatch()

    # ``on_completion`` and ``_dispatch`` run on every completion (and
    # ``_dispatch`` on every arrival): each reads ``sim.now`` once.
    def on_completion(self, event: JobCompletion) -> None:
        now = self.sim.now
        job = event.job
        self._running.pop(job.job_id, None)
        self._free += job.nodes
        job.end_ps = now
        self.s_completed.add()
        report = self.port("report")
        if report.connected:
            report.send(JobReport(job))
        self._dispatch()
        self._maybe_done()

    def _dispatch(self) -> None:
        queue = self._queue
        self.s_queue_depth.add(len(queue))
        free = self._free
        if not queue or free <= 0:
            return
        now = self.sim.now
        running = self._running
        picked = self.policy.pick(queue, free, now, running)
        if not picked:
            return
        launch = self.port("pool").send
        for job in picked:
            job.start_ps = now
            free -= job.nodes
            running[job.job_id] = (now + job.estimate_ps, job.nodes)
            launch(JobLaunch(job))
        self._free = free
        self.s_started.add(len(picked))
        # The pass marked what it launched: queued jobs have not started.
        self._queue = [j for j in queue if j.start_ps is None]

    def _maybe_done(self) -> None:
        if (self._stream_done and not self._queue and not self._running
                and not self._exit_sent):
            self._exit_sent = True
            report = self.port("report")
            if report.connected:
                # Lets a primary collector keep the run alive until the
                # reports ahead of this sentinel drain off the link.
                report.send(JobReport(None, last=True))
            self.primary_ok_to_end()
