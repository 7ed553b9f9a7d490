"""Memory-trace files and trace-driven replay.

Trace-driven simulation is the classic way to carry a real workload's
memory behaviour into a simulator without the workload.  PySST uses a
deliberately simple line format (gzip-transparent) so traces are
greppable and diffable::

    #pysst-trace v1
    R 1a2b40 64
    W 1a2b80 8

* :func:`write_trace` / :func:`read_trace` — file I/O (``.gz`` handled
  by extension);
* :func:`record_trace` — capture a synthetic
  :class:`~repro.processor.trace.TraceSpec` stream to a file;
* :class:`TraceReplayCore` — a component replaying a trace through an
  event-driven memory hierarchy with a bounded outstanding window
  (registered as ``processor.TraceReplayCore``).
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterable, Iterator, Tuple, Union

from ..core.component import Component, port, stat, state
from ..core.registry import register
from ..memory.events import MemRequest, MemResponse
from .trace import TraceSpec

HEADER = "#pysst-trace v1"

#: (address, is_write, size)
TraceRecord = Tuple[int, bool, int]


class TraceFormatError(ValueError):
    """The file is not a valid pysst trace."""


def _open(path: Union[str, Path], mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"),
                                encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_trace(path: Union[str, Path],
                records: Iterable[TraceRecord]) -> int:
    """Write records; returns the number written."""
    count = 0
    with _open(path, "w") as handle:
        handle.write(HEADER + "\n")
        for addr, is_write, size in records:
            if addr < 0 or size <= 0:
                raise TraceFormatError(
                    f"invalid record (addr={addr}, size={size})"
                )
            kind = "W" if is_write else "R"
            handle.write(f"{kind} {addr:x} {size}\n")
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from a trace file; validates the header and rows."""
    with _open(path, "r") as handle:
        first = handle.readline().rstrip("\n")
        if first != HEADER:
            raise TraceFormatError(
                f"{path}: bad header {first!r} (expected {HEADER!r})"
            )
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("R", "W"):
                raise TraceFormatError(f"{path}:{line_no}: bad record {line!r}")
            try:
                addr = int(parts[1], 16)
                size = int(parts[2])
            except ValueError:
                raise TraceFormatError(
                    f"{path}:{line_no}: bad numbers in {line!r}"
                ) from None
            if size <= 0:
                raise TraceFormatError(f"{path}:{line_no}: size must be > 0")
            yield addr, parts[0] == "W", size


def record_trace(spec: TraceSpec, n: int, path: Union[str, Path],
                 size: int = 8) -> int:
    """Capture ``n`` references of a synthetic trace spec to ``path``."""
    addrs, writes = spec.generate(n)
    return write_trace(path, ((int(a), bool(w), size)
                              for a, w in zip(addrs, writes)))


@register("processor.TraceReplayCore")
class TraceReplayCore(Component):
    """Replays a trace file through the ``mem`` port.

    Parameters: ``trace`` (path; ``.gz`` accepted), ``outstanding``
    (window, default 4), ``max_records`` (0 = whole file).

    Statistics: ``issued``, ``completed``, ``latency_ps``,
    ``runtime_ps``.
    """

    mem = port("MemRequest out / MemResponse in",
               event=MemResponse, handler="on_response")

    # The live file iterator is not picklable: it is excluded from
    # checkpoints and rebuilt from ``_issued`` after a restore.
    _iterator = state(None, save=False, reconstruct="_reopen_trace",
                      doc="live trace iterator")
    _issued = state(0, gauge=True, doc="records consumed from the trace")
    _inflight = state(dict, gauge=True, doc="req id -> issue time")
    _drained = state(False, doc="trace exhausted (or max_records hit)")

    s_issued = stat.counter(doc="requests issued")
    s_completed = stat.counter(doc="responses received")
    s_latency = stat.accumulator("latency_ps", doc="request round trip")
    s_runtime = stat.counter("runtime_ps", doc="time to drain the trace")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.trace_path = p.find_str("trace")
        self.window = p.find_int("outstanding", 4)
        self.max_records = p.find_int("max_records", 0)
        self.register_as_primary()

    def on_setup(self) -> None:
        self._iterator = read_trace(self.trace_path)
        for _ in range(self.window):
            if not self._issue():
                break
        if self._drained and not self._inflight:
            self.primary_ok_to_end()  # empty trace

    def _reopen_trace(self) -> None:
        """Re-open the trace and skip to the captured read position.

        ``_issued`` counts records consumed from the iterator, so
        re-reading the file and discarding that many records puts the
        stream exactly where the snapshot left it (trace files are
        immutable inputs; a changed file would desynchronise the
        replay exactly as it would any re-run).
        """
        self._iterator = read_trace(self.trace_path)
        for _ in range(self._issued):
            try:
                next(self._iterator)
            except StopIteration:
                break

    def _issue(self) -> bool:
        if self.max_records and self._issued >= self.max_records:
            self._drained = True
            return False
        try:
            addr, is_write, size = next(self._iterator)
        except StopIteration:
            self._drained = True
            return False
        request = MemRequest(addr, size, is_write)
        self._inflight[request.req_id] = self.now
        self._issued += 1
        self.s_issued.add()
        self.port("mem").send(request)
        return True

    def on_response(self, event) -> None:
        assert isinstance(event, MemResponse)
        started = self._inflight.pop(event.req_id, None)
        if started is None:
            return
        self.s_completed.add()
        self.s_latency.add(self.now - started)
        self._issue()
        if self._drained and not self._inflight:
            self.s_runtime.add(self.now - self.s_runtime.count)
            self.primary_ok_to_end()
