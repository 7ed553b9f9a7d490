"""A complete custom component in under 60 lines (declarative API).

``Meter`` forwards memory traffic while counting it.  Declaring ports,
state and statistics is *all* it does: graph-build port validation,
engine checkpoint/restore and telemetry gauges are auto-wired.
Run:  PYTHONPATH=src python examples/declarative_component.py
"""
import tempfile
from pathlib import Path
from repro.ckpt import restore, snapshot
from repro.config import ConfigGraph, build
from repro.core import Component, port, stat, state
from repro.core.registry import register
from repro.memory.events import MemRequest, MemResponse


@register("examples.Meter")
class Meter(Component):
    """Forwards cpu<->mem traffic, counting requests and bytes."""

    cpu = port("requests in from the core", event=MemRequest)
    mem = port("responses back from memory", event=MemResponse)

    _inflight = state(0, gauge=True, doc="requests currently downstream")

    s_requests = stat.counter(doc="requests forwarded")
    s_bytes = stat.counter(doc="payload bytes forwarded")

    def on_cpu(self, event):
        self._inflight += 1
        self.s_requests.add()
        self.s_bytes.add(event.size)
        self.port("mem").send(event)

    def on_mem(self, event):
        self._inflight -= 1
        self.port("cpu").send(event)


def machine() -> ConfigGraph:
    g = ConfigGraph("declarative-demo")
    g.component("cpu", "processor.TrafficGenerator",
                {"requests": 2000, "pattern": "random", "footprint": "1MB"})
    g.component("meter", "examples.Meter", {})
    g.component("mem", "memory.SimpleMemory", {"latency": "40ns"})
    g.link("cpu", "mem", "meter", "cpu", latency="1ns")
    g.link("meter", "mem", "mem", "cpu", latency="2ns")
    return g


cold = build(machine(), seed=7, validate_events=True)  # ports checked here
end = cold.run().end_time
warm = build(machine(), seed=7)
warm.run(max_time=end // 2, finalize=False)
with tempfile.TemporaryDirectory() as tmp:  # snapshot for free, mid-run
    resumed = restore(snapshot(warm, Path(tmp) / "snap"))
    print("gauges mid-run:", resumed._components["meter"].telemetry_gauges())
    resumed.run()
assert resumed.stat_values() == cold.stat_values(), "restore diverged"
print("stats:", {k: v for k, v in cold.stat_values().items() if "meter" in k})
