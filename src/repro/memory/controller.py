"""Memory-controller scheduling policies.

The controller sits between the last cache level and DRAM and decides
the order requests are presented to the banks.  Two classic policies are
modelled (an ablation target called out in DESIGN.md):

* **FCFS** — strictly arrival order.
* **FR-FCFS** (first-ready, first-come-first-served) — within a bounded
  reorder window, requests that hit an already-open row go first; ties
  and non-hits fall back to arrival order.  This is the policy DRAMSim2
  defaults to and is what gives streaming workloads their row-locality
  advantage.

:class:`SchedulingDRAM` is a functional wrapper (DRAMModel + queue) used
by the node models; :class:`MemController` is the event-driven component
form.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..core.units import SimTime
from .dram import DRAMModel
from .events import MemRequest, MemResponse

POLICIES = ("fcfs", "frfcfs")


class SchedulingDRAM:
    """A DRAMModel fronted by a scheduling queue.

    ``submit`` enqueues a request; ``drain_until(now)`` schedules every
    request that can start by ``now`` and returns completions as
    ``(completion_time, payload)`` pairs.  This functional form lets the
    trace-driven processor models account controller policy without
    per-request events.
    """

    def __init__(self, technology: str = "DDR3-1333", channels: int = 1,
                 policy: str = "frfcfs", window: int = 8):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; options: {POLICIES}")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.model = DRAMModel(technology, channels)
        self.policy = policy
        self.window = window
        self._queue: Deque[Tuple[SimTime, int, int, bool, object]] = deque()
        self.reordered = 0

    def submit(self, arrival_ps: SimTime, addr: int, size: int = 64,
               is_write: bool = False, payload: object = None) -> None:
        self._queue.append((arrival_ps, addr, size, is_write, payload))

    def _pick_index(self, now_ps: SimTime) -> int:
        """Index of the next request to schedule under the active policy."""
        if self.policy == "fcfs" or len(self._queue) == 1:
            return 0
        # FR-FCFS: among the first `window` arrived requests, prefer the
        # oldest row-buffer hit.
        scan = min(self.window, len(self._queue))
        for i in range(scan):
            arrival, addr, _size, _w, _p = self._queue[i]
            if arrival > now_ps:
                break
            _channel, bank, row = self.model._map(addr)
            if self.model._open_row[bank] == row:
                if i != 0:
                    self.reordered += 1
                return i
        return 0

    def drain_until(self, now_ps: SimTime) -> List[Tuple[SimTime, object]]:
        """Schedule all requests with arrival <= now; return completions."""
        done: List[Tuple[SimTime, object]] = []
        while self._queue and self._queue[0][0] <= now_ps:
            index = self._pick_index(now_ps)
            arrival, addr, size, is_write, payload = self._queue[index]
            if arrival > now_ps:
                index = 0
                arrival, addr, size, is_write, payload = self._queue[0]
            del self._queue[index]
            completion = self.model.request(max(arrival, 0), addr, size, is_write)
            done.append((completion, payload))
        return done

    def drain_all(self) -> List[Tuple[SimTime, object]]:
        """Schedule everything queued regardless of arrival time."""
        last = self._queue[-1][0] if self._queue else 0
        return self.drain_until(last)

    @property
    def pending(self) -> int:
        return len(self._queue)


@register("memory.MemController")
class MemController(Component):
    """Event-driven controller + DRAM endpoint.

    Port ``cpu``: requests in / responses out.  Parameters:
    ``technology``, ``channels``, ``policy`` ("fcfs"|"frfcfs"),
    ``window``, ``frontend_latency``.
    """

    cpu = port("memory requests in / responses out",
               event=MemRequest, handler="on_request")

    sched = state(doc="SchedulingDRAM queue + DRAM timing state")

    s_requests = stat.counter(doc="requests accepted")
    s_latency = stat.accumulator("latency_ps", doc="request latency")
    s_reordered = stat.counter(doc="FR-FCFS promotions (mirrored at finish)")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.sched = SchedulingDRAM(
            p.find_str("technology", "DDR3-1333"),
            channels=p.find_int("channels", 1),
            policy=p.find_str("policy", "frfcfs"),
            window=p.find_int("window", 8),
        )
        self.frontend_latency = p.find_time("frontend_latency", "10ns")

    def on_request(self, event) -> None:
        assert isinstance(event, MemRequest)
        self.s_requests.add()
        arrival = self.now + self.frontend_latency
        self.sched.submit(arrival, event.addr, event.size, event.is_write,
                          payload=event)
        send = self.port("cpu").send
        for completion, payload in self.sched.drain_until(arrival):
            assert isinstance(payload, MemRequest)
            self.s_latency.add(completion - self.now)
            send(MemResponse(payload, level="dram"),
                 max(0, completion - self.now))

    def on_finish(self) -> None:
        self.s_reordered.add(self.sched.reordered - self.s_reordered.count)
