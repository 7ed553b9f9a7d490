"""In-memory spans around the benchmark's calls into each layer.

Spans are recorded from the benchmark's own files, at the layer
boundaries it calls through; nothing inside ``repro`` is instrumented.
They stay in memory until the benchmark ends, then go out as
Chrome-trace JSON (Perfetto loads it, like the repo's other traces)
and as a per-layer table with self times.
"""

import contextlib
import time
from typing import Dict, List


class SpanRecorder:
    """Nested wall-clock spans: name, start, end, parent index."""

    def __init__(self):
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[Dict]:
        """Per span: duration and self time (duration minus children)."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        rows = []
        for s, children in zip(self.spans, child_total):
            depth, p = 0, s["parent"]
            while p is not None:
                depth, p = depth + 1, self.spans[p]["parent"]
            dur = s["end"] - s["start"]
            rows.append({"name": s["name"], "depth": depth, "dur_s": dur,
                         "self_s": dur - children})
        return rows


def chrome_trace(span_sets: Dict[str, List[Dict]]) -> Dict:
    """Chrome-trace document: one process lane per workload."""
    events = []
    for pid, (workload, spans) in enumerate(span_sets.items()):
        events.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                       "args": {"name": workload}})
        origin = min(s["start"] for s in spans)
        for index, s in enumerate(spans):
            events.append({
                "ph": "X", "pid": pid, "tid": 0, "name": s["name"],
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"span": index, "parent": s["parent"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
