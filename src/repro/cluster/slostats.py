"""Service-level accounting for the cluster workload family.

:class:`SLOStats` consumes :class:`~repro.cluster.events.JobReport`
events and maintains the scheduling literature's standard quality
metrics — wait time, *bounded slowdown* (slowdown with short jobs
damped by ``slowdown_tau``, so a 2 ms job waiting 1 s does not dominate
the tail), machine utilization, and makespan.

Everything :meth:`SLOStats.manifest_summary` reports is derived from
*registered statistics*, never loose instance attributes: the processes
backend ships statistics (only) back from worker ranks, so summaries
stay correct for parallel runs where the collector instance that
counted lives in a child process.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.component import Component, param, port, stat
from ..core.registry import register
from .events import JobReport

PS_PER_S = 1_000_000_000_000


@register("cluster.SLOStats")
class SLOStats(Component):
    """Collects per-job reports into cluster-level SLO metrics.

    ``capacity`` must mirror the pool's node count — utilization is
    node-busy time over ``capacity * makespan``.
    """

    report = port("finished-job reports from the scheduler",
                  event=JobReport)

    capacity = param(16, doc="machine node count (utilization basis)")
    slowdown_tau = param("10s", kind="time",
                         doc="bounded-slowdown runtime floor")

    s_jobs = stat.counter("jobs", doc="job reports received")
    s_wait = stat.accumulator("wait_ps", doc="per-job queue wait")
    s_slowdown = stat.histogram("slowdown", low=1.0, bin_width=1.0,
                                n_bins=64,
                                doc="bounded slowdown distribution")
    s_submit = stat.accumulator("submit_ps",
                                doc="submit times (min = workload start)")
    s_end = stat.accumulator("end_ps",
                             doc="completion times (max = makespan end)")
    s_busy = stat.counter("busy_ps", doc="node-picoseconds of useful work")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        # Primary: holds the run open until the scheduler's last-report
        # sentinel arrives, so no in-flight report is dropped at exit.
        self.register_as_primary()

    def on_report(self, event: JobReport) -> None:
        if event.last:
            self.primary_ok_to_end()
            return
        job = event.job
        wait = job.wait_ps
        runtime = job.runtime_ps
        self.s_jobs.add()
        self.s_wait.add(wait)
        self.s_slowdown.add(max(1.0, (wait + runtime)
                                / max(runtime, self.slowdown_tau)))
        self.s_submit.add(job.submit_ps)
        self.s_end.add(job.end_ps)
        self.s_busy.add(job.nodes * runtime)

    def _span(self) -> float:
        """Last end - first submit; 0 before the first job."""
        return (self.s_end.maximum - self.s_submit.minimum
                if self.s_jobs.count else 0)

    def _compute_utilization(self) -> float:
        span = self._span()
        if span <= 0 or not self.capacity:
            return 0.0
        return self.s_busy.count / (self.capacity * span)

    def telemetry_gauges(self) -> Dict[str, float]:
        """Utilization (busy / (capacity * span)) and makespan (last
        end - first submit), derived from the statistics when sampled
        rather than kept per report; both read 0 before the first job."""
        out = super().telemetry_gauges()
        out["_utilization"] = self._compute_utilization()
        out["_makespan_ps"] = float(int(self._span()))
        return out

    def manifest_summary(self) -> Dict[str, Any]:
        """SLO roll-up for the run manifest.

        Derived entirely from registered statistics so it is valid on
        the parent rank of a parallel run (instance state is not
        synchronized across process backends; statistics are).
        """
        jobs = self.s_jobs.count
        span = self._span()
        return {
            "jobs": int(jobs),
            "mean_wait_s": self.s_wait.mean / PS_PER_S,
            "max_wait_s": (self.s_wait.maximum / PS_PER_S) if jobs else 0.0,
            "p95_bounded_slowdown": self.s_slowdown.percentile(0.95),
            "mean_bounded_slowdown": self.s_slowdown.mean,
            "utilization": self._compute_utilization(),
            "makespan_s": span / PS_PER_S,
            "node_busy_s": self.s_busy.count / PS_PER_S,
        }
