"""Job arrival streams: synthetic generators and SWF-style traces.

:class:`JobSource` emits :class:`~repro.cluster.events.JobArrival`
events, scaling to millions of jobs without million-entry state: the
stream is a Python *generator* declared ``state(..., save=False)`` with
a ``reconstruct=`` hook, so an engine checkpoint stores only the arrival
counters and the reconstruct replays the deterministic stream up to them —
checkpoints stay kilobytes however long the trace.

Modes (the ``mode`` param, a :func:`~repro.core.describe.param`
``choices`` axis):

* ``poisson`` — exponential inter-arrival gaps around
  ``mean_interarrival``;
* ``burst``   — ``burst_size`` simultaneous arrivals every
  ``burst_gap`` (the adversarial shape for the pending-event set:
  deep same-timestamp floods instead of a steady trickle);
* ``trace``   — an SWF-style (Standard Workload Format) whitespace
  trace: columns 0/1/3/4/8 = job id, submit s, runtime s, processors,
  requested-time s; ``;``/``#`` lines are comments.  ``trace_unit``
  maps one trace second onto simulated time.

``window`` arrivals are kept scheduled ahead of now, so a bursty source
genuinely loads the event queue instead of self-pacing one event at a
time.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..core.component import Component, param, port, stable_seed, stat, state
from ..core.registry import register
from .events import Job, JobArrival


@register("cluster.JobSource")
class JobSource(Component):
    """Emits a deterministic stream of job arrivals on its ``out`` port.

    Synthetic jobs mix narrow/short with occasionally wide/long
    (``wide_fraction``) so backfill-friendly holes exist; runtime
    estimates are actual runtime times ``estimate_factor`` (users
    overestimate), which is what EASY reservations consume.
    """

    out = port("job arrivals to the scheduler", event=JobArrival)

    mode = param("poisson", choices=("poisson", "burst", "trace"),
                 doc="arrival process")
    jobs = param(1000, doc="synthetic jobs to emit (trace mode: cap, "
                           "0 = whole trace)")
    mean_interarrival = param("1ms", kind="time",
                              doc="poisson mean inter-arrival gap")
    burst_size = param(64, doc="arrivals per burst (mode=burst)")
    burst_gap = param("100ms", kind="time", doc="gap between bursts")
    mean_runtime = param("10s", kind="time", doc="mean job runtime")
    max_nodes = param(8, doc="widest job emitted")
    wide_fraction = param(0.1, kind="float",
                          doc="fraction of wide (> max_nodes/2) jobs")
    estimate_factor = param(1.5, kind="float",
                            doc="runtime estimate = actual * factor")
    trace = param("", doc="SWF-style trace path (mode=trace)")
    trace_unit = param("1us", kind="time",
                       doc="simulated time per trace second")
    window = param(1, doc="arrival events kept scheduled ahead of now")

    _emitted = state(0, gauge=True, doc="arrivals delivered so far")
    _in_flight = state(0, doc="scheduled arrivals not yet delivered")
    _horizon = state(0, doc="absolute time of the newest scheduled arrival")
    _exhausted = state(False, doc="the stream has no more jobs")
    _done = state(False, doc="end-of-stream sentinel sent")
    _stream = state(None, save=False, reconstruct="_rebuild_stream",
                    doc="live job generator (rebuilt+fast-forwarded on "
                        "restore)")

    s_emitted = stat.counter("emitted", doc="job arrivals emitted")
    s_nodes_requested = stat.accumulator("nodes_requested",
                                         doc="nodes per emitted job")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        if self.window < 1:
            raise ValueError(f"{name}: window must be >= 1")
        self.register_as_primary()

    # ------------------------------------------------------------------
    # the deterministic stream
    # ------------------------------------------------------------------
    def _make_stream(self) -> Iterator[Tuple[int, Job]]:
        """Fresh generator of ``(gap_ps, job)`` pairs.

        Deterministic in (component name, sim seed, params) only — the
        reconstruct hook replays it to the captured draw count, so a
        restored run continues the exact sequence.
        """
        if self.mode == "trace":
            return self._trace_stream()
        return self._synthetic_stream()

    def _synthetic_stream(self) -> Iterator[Tuple[int, Job]]:
        # One draw per job for the whole run: parameters are read once
        # and the generator's methods bound once; the draws, their
        # arguments and their order are what the goldens pin.
        rng = np.random.default_rng(
            stable_seed(f"{self.name}.jobs", self.sim.seed))
        random, integers, exponential = (rng.random, rng.integers,
                                         rng.exponential)
        burst = self.mode == "burst"
        burst_size, burst_gap = self.burst_size, self.burst_gap
        mean_interarrival = self.mean_interarrival
        mean_runtime = self.mean_runtime
        wide_mean = 4 * mean_runtime
        max_nodes = self.max_nodes
        wide_fraction = self.wide_fraction
        estimate_factor = self.estimate_factor
        wide_floor = max(1, max_nodes // 2)
        narrow_cap = max(1, max_nodes // 4)
        for i in range(self.jobs):
            if burst:
                gap = burst_gap if i % burst_size == 0 else 0
            else:  # poisson
                gap = max(1, int(exponential(mean_interarrival)))
            if random() < wide_fraction:
                nodes = int(integers(wide_floor, max_nodes + 1))
                runtime = max(1, int(exponential(wide_mean)))
            else:
                nodes = int(integers(1, narrow_cap + 1))
                runtime = max(1, int(exponential(mean_runtime)))
            estimate = int(runtime * estimate_factor) + 1
            priority = int(integers(0, 10))
            yield gap, Job(i + 1, 0, nodes, runtime, estimate,
                           priority=priority, user=int(integers(0, 16)))

    def _trace_stream(self) -> Iterator[Tuple[int, Job]]:
        if not self.trace:
            raise ValueError(f"{self.name}: mode=trace needs a trace= path")
        unit = self.trace_unit
        prev_submit = 0
        emitted = 0
        with open(self.trace, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith((";", "#")):
                    continue
                cols = line.split()
                job_id = int(cols[0])
                submit = int(float(cols[1]) * unit)
                runtime = max(1, int(float(cols[3]) * unit))
                nodes = max(1, int(float(cols[4])))
                requested = float(cols[8]) if len(cols) > 8 else -1
                estimate = (int(requested * unit) if requested > 0
                            else int(runtime * self.estimate_factor) + 1)
                gap = max(0, submit - prev_submit)
                prev_submit = submit
                yield gap, Job(job_id, 0, nodes, runtime,
                               max(estimate, runtime), priority=0)
                emitted += 1
                if self.jobs and emitted >= self.jobs:
                    return

    def _rebuild_stream(self) -> None:
        """Reconstruct hook: fresh generator fast-forwarded to the
        captured draw position (the stream is deterministic, so the
        resumed sequence is bit-identical)."""
        stream = self._make_stream()
        for _ in range(self._emitted + self._in_flight):  # jobs drawn
            next(stream, None)
        self._stream = stream

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def on_setup(self) -> None:
        if self._stream is None:
            self._stream = self._make_stream()
        self._arm()

    def _arm(self) -> None:
        """Keep up to ``window`` future arrivals scheduled."""
        now = self.sim.now
        while not self._exhausted and self._in_flight < self.window:
            nxt = next(self._stream, None)
            if nxt is None:
                self._exhausted = True
                break
            gap, job = nxt
            self._in_flight += 1
            self._horizon += gap
            job.submit_ps = self._horizon
            self.schedule(max(0, self._horizon - now), self._deliver, job)
        if self._exhausted and self._in_flight == 0:
            self._finish_stream()

    def _deliver(self, job: Job) -> None:
        self._in_flight -= 1
        self._emitted += 1
        self.s_emitted.add()
        self.s_nodes_requested.add(job.nodes)
        self.port("out").send(JobArrival(job))
        self._arm()

    def _finish_stream(self) -> None:
        if not self._done:
            self._done = True
            self.port("out").send(JobArrival(None, last=True))
            self.primary_ok_to_end()
